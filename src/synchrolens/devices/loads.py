"""Static ZIP load model and its closed-form admittance CF."""

from __future__ import annotations

from dataclasses import dataclass

from ..cf import MIN_MAG
from ..errors import MixedZipUnsupportedAnalytic, ParamDomain, VoltageTooSmall
from .base import cdiv

_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class ZipParams:
    """ZIP load: p0/q0 drawn at v=1, split into P/I/Z shares per quantity."""

    p0: float
    q0: float
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

    def pure_kind(self):
        """'z', 'i' or 'p' when both quantities are single-component, else None."""
        for kind, kp, kq in (("p", self.k_pp, self.k_pq),
                             ("i", self.k_ip, self.k_iq),
                             ("z", self.k_zp, self.k_zq)):
            if abs(kp - 1.0) <= _SHARE_TOL and abs(kq - 1.0) <= _SHARE_TOL:
                return kind
        return None


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
    return -cdiv(1j * q + p, v).conjugate()


def zip_shunt_current(y_l, v):
    """(re, im) of -y_l*v, the current a constant-impedance load with
    y_l = conj(S0) injects, for a voltage number or array.

    Written in real arithmetic, so an array and a number round alike:
    numpy's complex array product can differ in the last bit from the
    scalar one on some SIMD levels.
    """
    a, b = y_l.real, y_l.imag
    return -(a * v.real - b * v.imag), -(a * v.imag + b * v.real)


def zip_admittance_cf(params: ZipParams, rho):
    """Closed-form chi: 0 (Z), -rho (I) or -2*rho (P); omega part is zero."""
    kind = params.pure_kind()
    if kind is None:
        raise MixedZipUnsupportedAnalytic(
            "mixed ZIP loads have no closed-form chi; use the numeric route"
        )
    factor = {"z": 0.0, "i": -1.0, "p": -2.0}[kind]
    return factor * rho + 0.0j
