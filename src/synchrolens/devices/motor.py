"""First-order induction motor (slip state) and its admittance CF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InitInfeasible, ParamDomain, SlipSingular
from .base import Adapter, Declaration, DeviceKind, any_sample, param_keys


@dataclass(frozen=True, kw_only=True)
class ImParams:
    """Induction machine constants, machine base, and the load torque tau_m
    it drives, which its adapter hands the kernels."""

    x_s: float
    r_r1: float
    x_r1: float
    x_mu: float
    h_m: float
    tau_m: float
    r_s: float = 0.0
    omega_b: float

    def __post_init__(self):
        if not all(value > 0.0 for value in (self.x_s, self.x_r1, self.x_mu,
                                             self.h_m, self.r_r1)):
            raise ParamDomain("motor reactances, rotor resistance and h_m must be positive")
        if not self.r_s >= 0.0:
            raise ParamDomain("stator resistance cannot be negative")
        # no slip is an equilibrium at tau_m <= 0 (0 is the singular slip 0)
        if not self.tau_m > 0.0:
            raise ParamDomain(f"tau_m must be positive, got {self.tau_m!r}")

    @property
    def x(self):
        return self.x_s + self.x_r1

    @property
    def x_t(self):
        return self.x + self.x_mu


def _rotor_r(params: ImParams, sigma):
    if any_sample(sigma == 0.0):
        raise SlipSingular("slip is zero; rotor branch is singular")
    return params.r_s + params.r_r1 / sigma


def im_torque(params: ImParams, sigma, v_mag):
    """Electrical torque at slip sigma and voltage magnitude v_mag."""
    r = _rotor_r(params, sigma)
    return (params.r_r1 / sigma) * v_mag ** 2 / (r ** 2 + params.x ** 2)


def im_power(params: ImParams, sigma: float, v_mag: float):
    """(p, q) drawn by the motor, including the magnetizing branch."""
    r = _rotor_r(params, sigma)
    z2 = r ** 2 + params.x ** 2
    p = r * v_mag ** 2 / z2
    q = v_mag ** 2 / params.x_mu + params.x * v_mag ** 2 / z2
    return p, q


def im_admittance(params: ImParams, sigma):
    """Complex admittance seen from the terminals at slip sigma."""
    # z is a Python complex (1j*x comes first), so its quotient keeps the
    # bits of numpy's without cdiv
    z = 1j * params.x + _rotor_r(params, sigma)
    return 1.0 / (1j * params.x_mu) + 1.0 / z


def _slip_rate(params: ImParams, sigma, v, tau_m):
    """Slip derivative: 2*h_m*sigma_dot = tau_m - tau_e."""
    return (tau_m - im_torque(params, sigma, abs(v))) / (2.0 * params.h_m)


def im_fg(states, params: ImParams, v, tau_m):
    """(slip derivative in 1/s, injected current in machine base; a load
    injects the negative of the current it draws)."""
    sigma = states[0]
    sigma_dot = _slip_rate(params, sigma, v, tau_m)
    return [sigma_dot], -im_admittance(params, sigma) * v


def im_admittance_cf(states, params: ImParams, v, tau_m):
    """Closed-form admittance CF driven by the rotor-resistance rate."""
    sigma = states.T[0]
    r = _rotor_r(params, sigma)
    r_dot = -(params.r_r1 / sigma ** 2) * _slip_rate(params, sigma, v, tau_m)
    x, x_t, x_mu = params.x, params.x_t, params.x_mu
    z2 = r ** 2 + x ** 2
    bracket = (r ** 2 * (x_t ** 2 - x ** 2)
               + 1j * r * x_mu * (r ** 2 - x ** 2 - x_mu * x)) \
        / (z2 * (r ** 2 + x_t ** 2))
    return -(r_dot / r) * bracket / params.omega_b


def im_pullout(params: ImParams, v_mag: float = 1.0):
    """(sigma*, tau_max): slip and torque at the pull-out point."""
    sigma_star = params.r_r1 / np.hypot(params.r_s, params.x)
    return sigma_star, im_torque(params, sigma_star, v_mag)


def im_init(params: ImParams, v_mag: float, tau_m: float) -> float:
    """Equilibrium slip on the stable branch via bisection of tau_e - tau_m.

    The stable branch is sigma in (0, sigma_pullout]; raises InitInfeasible
    when tau_m exceeds the pull-out torque at this voltage.  tau_m > 0, as
    ImParams requires.
    """
    sigma_star, tau_max = im_pullout(params, v_mag)
    if tau_m > tau_max:
        raise InitInfeasible(
            f"tau_m={tau_m:.4f} above pull-out torque {tau_max:.4f} at v={v_mag:.4f}"
        )
    lo, hi = 1e-12, sigma_star
    # tau_e is increasing on (0, sigma*): bisect the monotone branch down to
    # a width of 1e-12 relative to max(1, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if im_torque(params, mid, v_mag) < tau_m:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class MotorAdapter(Adapter):
    """Induction motor driving the load torque tau_m, a PQ load."""

    def pf_injection(self, vm):
        imp = self.params
        p, q = im_power(imp, im_init(imp, vm, imp.tau_m), vm)
        return complex(-p * self.ratio, -q * self.ratio)

    def init(self, v_bus, s_dev):
        sigma = im_init(self.params, abs(v_bus), self.params.tau_m)
        return np.array([sigma])

    def fg(self, t, states, v):
        deriv, i = im_fg(states, self.params, v, self.params.tau_m)
        return deriv, i * self.ratio

    def chi(self, states, v, i, rho, omega):
        return im_admittance_cf(states, self.params, v, self.params.tau_m)


DECLARATIONS = (
    Declaration(DeviceKind.INDUCTION_MOTOR, param_keys(ImParams), ImParams,
                MotorAdapter, ("sigma",)),
)
