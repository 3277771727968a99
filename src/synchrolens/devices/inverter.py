"""Grid-following and grid-forming converter models with their CF terms.

The GFL model lives in its PLL frame (z_pll = z_net * exp(-j*theta_pll));
states are the two current-PI integrators, the measured currents, the PLL
integrator and the PLL angle.  The GFM is an EMF behind z_t with droop on
filtered power and integral control on filtered voltage; its measurement
filters use first-order lags with time constants t_v (voltage) and t_p
(power).  State derivatives are 1/s and are divided by omega_b wherever they
enter per-unit CF expressions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from ..cf import MIN_MAG
from ..errors import ParamDomain
from .base import Adapter, Declaration, DeviceKind, cexp, param_keys


@dataclass(frozen=True, kw_only=True)
class GflParams:
    """Grid-following converter constants; the filter impedance z_f, shunt
    admittance y_f and current reference i_ref are formed once."""

    k_p: float
    k_i: float
    t_m: float
    k_p_pll: float
    k_i_pll: float
    v_dc0: float
    z_f_x: float
    i_dref: float
    z_f_r: float = 0.0
    y_f_g: float = 0.0
    y_f_b: float = 0.0
    i_qref: float = 0.0
    omega_b: float
    z_f: complex = field(init=False)
    y_f: complex = field(init=False)
    i_ref: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z_f", complex(self.z_f_r, self.z_f_x))
        object.__setattr__(self, "y_f", complex(self.y_f_g, self.y_f_b))
        object.__setattr__(self, "i_ref", complex(self.i_dref, self.i_qref))
        if abs(self.z_f) == 0.0:
            raise ParamDomain("filter impedance must be nonzero")
        if not self.t_m > 0.0:
            raise ParamDomain("current-measurement time constant must be positive")
        if not self.v_dc0 > 0.0:
            raise ParamDomain("dc-link voltage must be positive")


def gfl_modulation(x, params: GflParams):
    """Modulation vector m = x_bar + k_p*(i_ref - i_m) from the state columns."""
    return 1j * x[1] + x[0] + params.k_p * (params.i_ref - (1j * x[3] + x[2]))


def _pll_deviation(x, params: GflParams, v_q):
    """PLL speed deviation delta_omega_pll in pu (add 1 for the speed)."""
    return params.k_p_pll * v_q + x[4]


def _current_pll(x, params: GflParams, v_pll):
    """Injected current in the PLL frame from the filter algebraic relation."""
    m = gfl_modulation(x, params)
    return ((m * params.v_dc0 - (1.0 + params.z_f * params.y_f) * v_pll)
            / params.z_f)


def _modulation_rates(x, params: GflParams, m, m2, i_pll):
    """(m_dot/m, alpha_dot) of the modulation vector given |m|^2, 1/s."""
    dm_d = (params.k_i * (params.i_dref - x[2])
            - (params.k_p / params.t_m) * (i_pll.real - x[2]))
    dm_q = (params.k_i * (params.i_qref - x[3])
            - (params.k_p / params.t_m) * (i_pll.imag - x[3]))
    return ((m.real * dm_d + m.imag * dm_q) / m2,
            (m.real * dm_q - m.imag * dm_d) / m2)


def gfl_fg(states, params: GflParams, v):
    """(derivatives of (x_d, x_q, i_dm, i_qm, x_pll, theta_pll) in 1/s,
    injected current in machine base)."""
    p = params
    x = states
    rot = cmath.exp(-1j * x[5])
    v_pll = v * rot
    i_pll = _current_pll(x, p, v_pll)
    deriv = [p.k_i * (p.i_dref - x[2]),
             p.k_i * (p.i_qref - x[3]),
             (i_pll.real - x[2]) / p.t_m,
             (i_pll.imag - x[3]) / p.t_m,
             p.k_i_pll * v_pll.imag,
             p.omega_b * _pll_deviation(x, p, v_pll.imag)]
    return deriv, i_pll * rot.conjugate()


def gfl_admittance_cf(states, params: GflParams, v, i, rho, omega, ratio=1.0):
    """Closed-form admittance CF of the converter,

        chi = m*v_dc0/(z_f*i_pll) * (m_dot/m - rho + j*(alpha_dot + omega_t - omega)),

    with |i_pll| and |m| floored at MIN_MAG; i is the injected current on a
    base ratio times the machine base.
    """
    p = params
    x = states.T
    rot = np.exp(-1j * x[5])
    v_pll = v * rot
    i_pll = (i / ratio) * rot
    i_safe = np.where(np.abs(i_pll) < MIN_MAG, MIN_MAG, i_pll)
    m = gfl_modulation(x, p)
    m2 = np.maximum(np.abs(m) ** 2, MIN_MAG ** 2)
    m_rate, a_rate = _modulation_rates(x, p, m, m2, i_pll)
    omega_t = _pll_deviation(x, p, v_pll.imag) + 1.0
    front = m * p.v_dc0 / (p.z_f * i_safe)
    return front * (m_rate / p.omega_b - rho
                    + 1j * (a_rate / p.omega_b + omega_t - omega))


def gfl_init(params: GflParams, v_net: complex):
    """PLL-locked steady state: returns the 6-state vector."""
    theta = float(np.angle(v_net))
    v = abs(v_net)
    m = ((1.0 + params.z_f * params.y_f) * v
         + params.z_f * params.i_ref) / params.v_dc0
    return np.array([m.real, m.imag, params.i_dref, params.i_qref, 0.0, theta])


@dataclass(frozen=True, kw_only=True)
class GfmParams:
    """Grid-forming converter constants (droop + integral voltage control)."""

    k_p: float
    k_i: float
    t_v: float
    m_p: float
    p_ref: float
    v_ref: float
    z_t_x: float
    t_p: float | None = None  # power-measurement lag; defaults to t_v
    z_t_r: float = 0.0
    omega_b: float
    z_t: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z_t", complex(self.z_t_r, self.z_t_x))
        if abs(self.z_t) == 0.0:
            raise ParamDomain("coupling impedance must be nonzero")
        if not self.t_v > 0.0:
            raise ParamDomain("voltage-measurement time constant must be positive")
        if self.t_p is None:
            object.__setattr__(self, "t_p", self.t_v)
        if not self.t_p > 0.0:
            raise ParamDomain("power-measurement time constant must be positive")


def gfm_emf(x):
    """Internal EMF e*exp(j*delta) from the state columns."""
    return x[0] * cexp(1j * x[1])


def gfm_speed(x, params: GfmParams):
    """Droop speed omega_gfm in pu."""
    return params.m_p * (params.p_ref - x[3]) + 1.0


def _emf_rate(x, params: GfmParams, v_mag):
    """d/dt of the EMF magnitude e, 1/s."""
    return (params.k_i * (params.v_ref - x[2])
            - (params.k_p / params.t_v) * (x[2] - v_mag))


def gfm_fg(states, params: GfmParams, v):
    """(derivatives of (e, delta, v_m, p_m) in 1/s, injected current in the
    network frame and machine base)."""
    p = params
    x = states
    i = (gfm_emf(x) - v) / p.z_t
    v_mag = abs(v)
    power = (v * i.conjugate()).real
    deriv = [_emf_rate(x, p, v_mag),
             p.omega_b * (gfm_speed(x, p) - 1.0),
             (v_mag - x[2]) / p.t_v,
             (power - x[3]) / p.t_p]
    return deriv, i


def gfm_admittance_cf(states, params: GfmParams, v, i, rho, omega, ratio=1.0):
    """Closed-form admittance CF of the converter,

        chi = e_bar/(z_t*i) * (e_dot/e - rho + j*(omega_gfm - omega)),

    with |i| and e floored at MIN_MAG; i is the injected current on a base
    ratio times the machine base.
    """
    p = params
    x = states.T
    e = x[0]
    i_dev = i / ratio
    i_safe = np.where(np.abs(i_dev) < MIN_MAG, MIN_MAG, i_dev)
    de = _emf_rate(x, p, np.abs(v))
    front = gfm_emf(x) / (p.z_t * i_safe)
    return front * (de / np.maximum(e, MIN_MAG) / p.omega_b - rho
                    + 1j * (gfm_speed(x, p) - omega))


def gfm_init(params: GfmParams, v_net: complex, s_inj: complex):
    """Steady state injecting s_inj at v_net; requires |v|=v_ref, p=p_ref."""
    i_net = np.conj(s_inj / v_net)
    e_bar = v_net + params.z_t * i_net
    return np.array([abs(e_bar), float(np.angle(e_bar)),
                     abs(v_net), float(s_inj.real)])


class GflAdapter(Adapter):
    """Grid-following converter, a PQ source of its current references."""

    def pf_injection(self, vm):
        return complex(vm * self.params.i_dref * self.ratio,
                       -vm * self.params.i_qref * self.ratio)

    def init(self, v_bus, s_dev):
        return gfl_init(self.params, v_bus)

    def fg(self, t, states, v):
        deriv, i = gfl_fg(states, self.params, v)
        return deriv, i * self.ratio

    def chi(self, states, v, i, rho, omega):
        return gfl_admittance_cf(states, self.params, v, i, rho, omega,
                                 self.ratio)


class GfmAdapter(Adapter):
    """Grid-forming converter, which holds v_ref as PV or as the slack."""

    def pf_setpoint(self):
        return self.params.v_ref, 0.0, self.params.p_ref * self.ratio

    def init(self, v_bus, s_dev):
        # the droop reference must equal the realized power for omega = 1;
        # a no-op for PV operation, the required back-solve for slack duty
        self.params = replace(self.params, p_ref=float(s_dev.real) / self.ratio)
        return gfm_init(self.params, v_bus, s_dev / self.ratio)

    def fg(self, t, states, v):
        deriv, i = gfm_fg(states, self.params, v)
        return deriv, i * self.ratio

    def chi(self, states, v, i, rho, omega):
        return gfm_admittance_cf(states, self.params, v, i, rho, omega,
                                 self.ratio)


DECLARATIONS = (
    Declaration(DeviceKind.GFL_IBR, param_keys(GflParams), GflParams,
                GflAdapter, ("x_d", "x_q", "i_dm", "i_qm", "x_pll", "theta_pll")),
    Declaration(DeviceKind.GFM_IBR, param_keys(GfmParams), GfmParams,
                GfmAdapter, ("e", "delta", "v_m", "p_m"), sets_voltage=True),
)
