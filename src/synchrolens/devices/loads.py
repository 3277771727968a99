"""Static ZIP load model and its closed-form admittance CF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cf import MIN_MAG
from ..errors import ParamDomain, VoltageTooSmall
from .base import Adapter, Declaration, DeviceKind, param_keys

_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class ZipParams:
    """ZIP load: p0/q0 drawn at v=1, split into P/I/Z shares per quantity."""

    p0: float
    q0: float = 0.0
    k_pp: float = 0.0
    k_ip: float = 0.0
    k_zp: float = 1.0
    k_pq: float = 0.0
    k_iq: float = 0.0
    k_zq: float = 1.0

    def __post_init__(self):
        if abs(self.k_pp + self.k_ip + self.k_zp - 1.0) > _SHARE_TOL:
            raise ParamDomain("active-power shares must sum to 1")
        if abs(self.k_pq + self.k_iq + self.k_zq - 1.0) > _SHARE_TOL:
            raise ParamDomain("reactive-power shares must sum to 1")


def zip_power(params: ZipParams, v_mag: float):
    """(p, q) drawn from the bus at voltage magnitude v_mag."""
    p = params.p0 * (params.k_pp + params.k_ip * v_mag + params.k_zp * v_mag ** 2)
    q = params.q0 * (params.k_pq + params.k_iq * v_mag + params.k_zq * v_mag ** 2)
    return p, q


def zip_voltage_magnitude(v):
    """|v|, or VoltageTooSmall below MIN_MAG, where no ZIP load is defined."""
    v_mag = abs(v)
    if v_mag < MIN_MAG:
        raise VoltageTooSmall(f"|v|={v_mag:.3e} below MIN_MAG")
    return v_mag


def zip_injection(params: ZipParams, v):
    """Current injected into the network (the negative of the drawn current)."""
    p, q = zip_power(params, zip_voltage_magnitude(v))
    return -((1j * q + p) / v).conjugate()


def zip_shunt_current(y_l, v):
    """(re, im) of -y_l*v, the current a constant-impedance load with
    y_l = conj(S0) injects, for a voltage number or array.

    Written in real arithmetic, so an array and a number round alike:
    numpy's complex array product can differ in the last bit from the
    scalar one on some SIMD levels.
    """
    a, b = y_l.real, y_l.imag
    return -(a * v.real - b * v.imag), -(a * v.imag + b * v.real)


def zip_admittance_cf(params: ZipParams, v, rho):
    """Closed-form chi = rho*u*Y'(u)/Y(u) of the load's admittance
    Y(u) = conj(S(u))/u**2, with u = max(|v|, MIN_MAG) and S = p + jq the
    zip_power polynomial: rho*conj(u*S' - 2*S)/conj(S), which is 0 for
    constant impedance, -rho for constant current and -2*rho for constant
    power.  Where the load draws nothing (S = 0) chi is 0.

    Built from real arrays and one complex quotient: numpy's complex array
    product and abs can round differently on other SIMD levels, its hypot
    and complex quotient do not.  Exact zeros come out as +0.0.
    """
    u = np.maximum(np.hypot(v.real, v.imag), MIN_MAG)
    p, q = zip_power(params, u)
    drawn = (p != 0.0) | (q != 0.0)
    # rho*conj(u*S' - 2*S): every term carries a P or I share, so it is
    # exactly 0 for a constant-impedance load
    num = (-params.p0 * (2.0 * params.k_pp + params.k_ip * u)
           * rho).astype(complex)
    num.imag = params.q0 * (2.0 * params.k_pq + params.k_iq * u) * rho
    den = np.where(drawn, p, 1.0).astype(complex)
    den.imag = -q
    return np.where(drawn, num / den, 0.0) + 0.0


class ZipAdapter(Adapter):
    """ZIP load.  A pure constant-impedance one (shares exactly 0, 0, 1 for
    both P and Q) draws conj(S0)*v, so PowerSystemDae stamps
    y_shunt = conj(S0) into Y instead of evaluating it; the power flow
    still sees its polynomial."""

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        zp = self.params
        if (zp.k_pp, zp.k_ip, zp.k_zp, zp.k_pq, zp.k_iq, zp.k_zq) == (
                0.0, 0.0, 1.0, 0.0, 0.0, 1.0):
            self.y_shunt = complex(zp.p0, -zp.q0)

    def pf_injection(self, vm):
        p, q = zip_power(self.params, vm)
        return complex(-p, -q)

    def inj(self, t, states, v):
        if self.y_shunt is None:
            return zip_injection(self.params, v)
        return complex(*zip_shunt_current(self.y_shunt, v))

    def chi(self, states, v, i, rho, omega):
        return zip_admittance_cf(self.params, v, rho)


# a load's equations are on the system base and independent of omega_b
DECLARATIONS = (
    Declaration(DeviceKind.ZIP, param_keys(ZipParams),
                lambda omega_b, **keys: ZipParams(**keys), ZipAdapter,
                device_base=False),
)
