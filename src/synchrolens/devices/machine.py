"""Synchronous machine models (6th, 4th and 2nd order) and their CF terms.

The machine dq frame follows v_d = v*sin(delta - theta), v_q = v*cos(delta -
theta); the map between network Park vectors and machine components is
z_m = j*exp(-j*delta)*z_net.  Stator fluxes satisfy psi = j*(r_s*i + v) with
psi_d = x''_d*i_d - E''_d and psi_q = x''_q*i_q - E''_q, which makes the
electrical torque tau_e = p + r_s*i^2 and gives a restoring power/angle
characteristic.  All device math is in machine base; time derivatives are in
1/s and are divided by omega_b wherever they enter per-unit CF expressions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..cf import MIN_MAG
from ..errors import ParamDomain
from .base import (Adapter, Declaration, DeviceKind, param_keys,
                   to_machine_frame)

@dataclass(frozen=True, kw_only=True)
class SmParams:
    """Synchronous machine constants, machine base, with its power-flow
    setpoints, regulator gains and torque modulation, under the file's keys.

    order selects the model: 6 (subtransient), 4 (two-axis) or 2 (classical),
    fixed by the device kind's declaration.  For order 4 (sm4_params) the
    subtransient reactances equal the transient ones and T''=0; for order 2
    (sm2_params) additionally r_s=0, x_q=x'_q=x'_d and e'_q is the constant
    EMF e_q0 set at initialization.
    """

    order: int
    r_s: float = 0.0
    x_d: float
    x_q: float
    x1_d: float
    x1_q: float
    x2_d: float
    x2_q: float
    x_l: float
    t1_d0: float
    t1_q0: float
    t2_d0: float
    t2_q0: float
    m: float
    d: float = 0.0
    omega_b: float
    e_q0: float = 0.0
    p: float = 0.0
    v: float = 1.0
    theta: float = 0.0
    tau_mod_amp: float = 0.0
    tau_mod_hz: float = 0.0
    avr_kp: float = 0.0
    avr_ki: float = 0.0

    def __post_init__(self):
        if not (self.x_d >= self.x1_d >= self.x2_d > self.x_l > 0.0):
            raise ParamDomain(
                "d-axis reactances must satisfy x_d >= x'_d >= x''_d > x_l > 0"
            )
        if not (self.x_q >= self.x1_q >= self.x2_q > self.x_l):
            raise ParamDomain(
                "q-axis reactances must satisfy x_q >= x'_q >= x''_q > x_l"
            )
        if not self.m > 0.0:
            raise ParamDomain("m must be positive")
        if self.order >= 4 and not (self.t1_d0 > 0.0 and self.t1_q0 > 0.0):
            raise ParamDomain("transient time constants must be positive")
        if self.order == 6 and not (self.t2_d0 > 0.0 and self.t2_q0 > 0.0):
            raise ParamDomain("subtransient time constants must be positive")
        # a modulation needs both, as one alone does nothing
        amp, hz = self.tau_mod_amp, self.tau_mod_hz
        if (amp or hz) and not (amp and hz > 0.0):
            raise ParamDomain("a torque modulation needs tau_mod_amp != 0 and "
                              f"tau_mod_hz > 0, got tau_mod_amp = {amp!r}, "
                              f"tau_mod_hz = {hz!r}")

    # gamma coefficients are always recomputed from the stored reactances.
    @property
    def gamma_d1(self):
        return (self.x2_d - self.x_l) / (self.x1_d - self.x_l)

    @property
    def gamma_q1(self):
        return (self.x2_q - self.x_l) / (self.x1_q - self.x_l)

    @property
    def gamma_d2(self):
        return (1.0 - self.gamma_d1) / (self.x1_d - self.x_l)

    @property
    def gamma_q2(self):
        return (1.0 - self.gamma_q1) / (self.x1_q - self.x_l)


def sm4_params(x1_d, x1_q, **keys):
    """Two-axis machine: x'' = x' and T'' = 0."""
    return SmParams(order=4, x1_d=x1_d, x1_q=x1_q, x2_d=x1_d, x2_q=x1_q,
                    t2_d0=0.0, t2_q0=0.0, **keys)


def sm2_params(x1_d, **keys):
    """Classical machine: every reactance x'_d, r_s = 0, no time constants;
    x_l, which only the domain check reads, is x'_d/2."""
    return SmParams(order=2, x_d=x1_d, x_q=x1_d, x1_d=x1_d, x1_q=x1_d,
                    x2_d=x1_d, x2_q=x1_d, x_l=0.5 * x1_d, t1_d0=0.0,
                    t1_q0=0.0, t2_d0=0.0, t2_q0=0.0, **keys)


def _emf_components(x, params):
    """Subtransient EMF terms E''_d, E''_q feeding the stator solve."""
    if params.order == 6:
        g_d1, g_q1 = params.gamma_d1, params.gamma_q1
        E_d = g_d1 * x[5] + (1.0 - g_d1) * x[2]
        E_q = -g_q1 * x[4] + (1.0 - g_q1) * x[3]
    elif params.order == 4:
        E_d, E_q = x[3], -x[2]
    else:
        E_d, E_q = params.e_q0, 0.0
    return E_d, E_q


def _stator_current(x, params, v_m):
    """Machine-frame terminal current (i_d + j*i_q) from the stator solve."""
    v_d, v_q = v_m.real, v_m.imag
    E_d, E_q = _emf_components(x, params)
    x2d, x2q, rs = params.x2_d, params.x2_q, params.r_s
    det = x2d * x2q + rs * rs
    i_d = (x2q * (E_d - v_q) - rs * (E_q + v_d)) / det
    i_q = (x2d * (E_q + v_d) + rs * (E_d - v_q)) / det
    return 1j * i_q + i_d


def sm_flux_rates(x, params, i_d, i_q, v_f):
    """Rates of the flux states that follow (delta, omega_r), in state order, 1/s.

    () for order 2, (de1_d, de1_q) for order 4 and (dpsi2_d, dpsi2_q, de1_d,
    de1_q) for order 6; x holds the states by index (a sample list, or the
    columns ``states.T``).
    """
    p = params
    if p.order == 2:
        return ()
    if p.order == 4:
        # two-axis model: gamma_d1 = gamma_q1 = 1, subtransient states eliminated
        e1_d, e1_q = x[2], x[3]
        de1_d = ((p.x_q - p.x1_q) * i_q - e1_d) / p.t1_q0
        de1_q = (v_f - (p.x_d - p.x1_d) * i_d - e1_q) / p.t1_d0
        return de1_d, de1_q
    psi2_d, psi2_q, e1_d, e1_q = x[2], x[3], x[4], x[5]
    dpsi2_d = (-psi2_d + e1_q - (p.x1_d - p.x_l) * i_d) / p.t2_d0
    dpsi2_q = (-psi2_q - e1_d - (p.x1_q - p.x_l) * i_q) / p.t2_q0
    de1_d = ((p.x_q - p.x1_q)
             * (p.gamma_q1 * i_q - p.gamma_q2 * (psi2_q + e1_d))
             - e1_d) / p.t1_q0
    de1_q = (v_f
             - (p.x_d - p.x1_d)
             * (p.gamma_d1 * i_d - p.gamma_d2 * (psi2_d - e1_q))
             - e1_q) / p.t1_d0
    return dpsi2_d, dpsi2_q, de1_d, de1_q


def _emf_rates(x, params, i_d, i_q, v_f):
    """d/dt of E''_d and E''_q for orders 4 and 6, 1/s.  Independent of
    tau_m."""
    rates = sm_flux_rates(x, params, i_d, i_q, v_f)
    if params.order == 4:
        de1_d, de1_q = rates
        return de1_q, -de1_d
    dpsi2_d, dpsi2_q, de1_d, de1_q = rates
    g_d1, g_q1 = params.gamma_d1, params.gamma_q1
    return (g_d1 * de1_q + (1.0 - g_d1) * dpsi2_d,
            -g_q1 * de1_d + (1.0 - g_q1) * dpsi2_q)


def sm_fg(states, params, v, tau_m, v_f):
    """(state derivatives in 1/s, injected current in machine base); the
    machine states are read by index, so more states may follow them."""
    p = params
    delta, omega_r = states[0], states[1]
    # one exponential for both rotations: conj(exp(-j*delta)) is
    # exp(j*delta) bit for bit
    rot = cmath.exp(-1j * delta)
    v_m = 1j * rot * v
    i_m = _stator_current(states, p, v_m)
    tau_e = _air_gap_torque(v_m, i_m, p.r_s)
    ddelta = p.omega_b * (omega_r - 1.0)
    domega = (tau_m - tau_e - p.d * (omega_r - 1.0)) / p.m
    rates = sm_flux_rates(states, p, i_m.real, i_m.imag, v_f)
    return [ddelta, domega, *rates], -1j * rot.conjugate() * i_m


def sm_admittance_cf(states, params, v, i, rho, omega, v_f=0.0, ratio=1.0):
    """Closed-form admittance CF of the machine.

    i is the injected current on a base ratio times the machine base (the
    system base for ratio = device MVA / system MVA); |i|^2 is floored at
    MIN_MAG^2.  Order 2 uses the classical form
    (-j*s/(x'_d*i^2) + 1)*(-rho + j*(omega_r - omega)); orders 4 and 6 the
    grouped form (omega_r - omega)*(j - T) - rho*(1 - K) + EMF-rate terms.
    """
    p = params
    x = states.T
    delta, omega_r = x[0], x[1]
    rot = 1j * np.exp(-1j * delta)
    v_m = rot * v
    i_m = rot * (i / ratio)
    i2 = np.maximum(np.abs(i_m) ** 2, MIN_MAG ** 2)
    if p.order == 2:
        s = v_m * np.conj(i_m)
        factor = -1j * s / (p.x1_d * i2) + 1.0
        return factor * (-rho + 1j * (omega_r - omega))
    v_d, v_q = v_m.real, v_m.imag
    zdc = p.r_s - 1j * p.x2_d   # conj(r_s + j*x''_d)
    zqc = p.r_s - 1j * p.x2_q   # conj(r_s + j*x''_q)
    det = p.x2_d * p.x2_q + p.r_s ** 2
    b = np.conj(i_m) / (det * i2)
    dE_d, dE_q = _emf_rates(x, p, i_m.real, i_m.imag, v_f)
    t_omega = b * (zdc * v_q - 1j * zqc * v_d)
    k_rho = -b * (zdc * v_d + 1j * zqc * v_q)
    deriv_term = b * (1j * zqc * dE_d - zdc * dE_q) / p.omega_b
    return ((omega_r - omega) * (1j - t_omega) - rho * (1.0 - k_rho)
            + deriv_term)


def sm_init(params, v_net, s_inj):
    """Steady state consistent with injecting s_inj at terminal voltage v_net.

    Returns (state, tau_m, v_f); for order 2 the constant EMF is returned in
    place of v_f and must be stored in the parameter set.
    """
    i_net = np.conj(s_inj / v_net) if s_inj != 0.0 else 0.0j
    w = v_net + (params.r_s + 1j * params.x_q) * i_net
    delta = float(np.angle(w))
    v_m = to_machine_frame(v_net, delta)
    i_m = to_machine_frame(i_net, delta)
    v_d, v_q = v_m.real, v_m.imag
    i_d, i_q = i_m.real, i_m.imag

    e1_q = v_q + params.r_s * i_q + params.x1_d * i_d
    e1_d = v_d + params.r_s * i_d - params.x1_q * i_q
    v_f = e1_q + (params.x_d - params.x1_d) * i_d
    tau_m = _air_gap_torque(v_m, i_m, params.r_s)

    if params.order == 2:
        state = np.array([delta, 1.0])
        return state, tau_m, e1_q
    if params.order == 4:
        state = np.array([delta, 1.0, e1_d, e1_q])
        return state, tau_m, v_f
    psi2_d = e1_q - (params.x1_d - params.x_l) * i_d
    psi2_q = -e1_d - (params.x1_q - params.x_l) * i_q
    state = np.array([delta, 1.0, psi2_d, psi2_q, e1_d, e1_q])
    return state, tau_m, v_f


def _air_gap_torque(v_m, i_m, r_s):
    """tau_e = psi_q*i_d - psi_d*i_q with the stator flux psi = j*(r_s*i + v)."""
    psi = 1j * (r_s * i_m + v_m)
    return psi.imag * i_m.real - psi.real * i_m.imag


class SmAdapter(Adapter):
    """Synchronous machine, optionally with the condenser PI voltage regulator
    and a sinusoidal torque modulation (forced-oscillation studies)."""

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        # a given gain, not its default, turns the regulator on
        self.avr = "avr_kp" in spec.params or "avr_ki" in spec.params
        if self.avr:
            self.n_states += 1
            self.state_names += ("x_avr",)
        self.time_varying = self.params.tau_mod_amp != 0.0

    def init(self, v_bus, s_dev):
        state, tau_m, fld = sm_init(self.params, v_bus, s_dev / self.ratio)
        # Python floats, so the stepper's samples stay in Python numbers
        self.tau_m0 = float(tau_m)
        if self.params.order == 2:
            self.params = replace(self.params, e_q0=float(fld))
            self.v_f0 = 0.0
        else:
            self.v_f0 = float(fld)
        if self.avr:
            state = np.append(state, 0.0)
        return state

    def _tau_m(self, t):
        if not self.time_varying:
            return self.tau_m0
        mp = self.params
        return self.tau_m0 * (1.0 + mp.tau_mod_amp
                              * float(np.sin(2.0 * np.pi * mp.tau_mod_hz * t)))

    def v_field(self, x_avr, v):
        """Field voltage given the regulator state x_avr, which a machine
        without a regulator ignores."""
        if not self.avr:
            return self.v_f0
        return self.v_f0 + self.params.avr_kp * (self.params.v - abs(v)) + x_avr

    def fg(self, t, states, v):
        # the machine kernels read the machine states by index, so the
        # regulator's, last, can follow them
        deriv, i = sm_fg(states, self.params, v, self._tau_m(t),
                         self.v_field(states[-1], v))
        if self.avr:
            deriv.append(self.params.avr_ki * (self.params.v - abs(v)))
        return deriv, i * self.ratio

    def chi(self, states, v, i, rho, omega):
        return sm_admittance_cf(states, self.params, v, i, rho, omega,
                                self.v_field(states[:, -1], v), self.ratio)


# every machine's keys; the transient models also take a regulator
_SM = ("m", "d", "p", "v", "theta", "tau_mod_amp", "tau_mod_hz")
_SM4 = ("x_d", "x_q", "x1_d", "x1_q", "x_l", "t1_d0", "t1_q0", "r_s", *_SM,
        "avr_kp", "avr_ki")

DECLARATIONS = (
    Declaration(DeviceKind.SM6,
                param_keys(SmParams, *_SM4, "x2_d", "x2_q", "t2_d0", "t2_q0"),
                partial(SmParams, order=6), SmAdapter,
                ("delta", "omega_r", "psi2_d", "psi2_q", "e1_d", "e1_q"),
                sets_voltage=True),
    Declaration(DeviceKind.SM4, param_keys(SmParams, *_SM4), sm4_params,
                SmAdapter, ("delta", "omega_r", "e1_d", "e1_q"),
                sets_voltage=True),
    Declaration(DeviceKind.SM2, param_keys(SmParams, "x1_d", *_SM), sm2_params,
                SmAdapter, ("delta", "omega_r"), sets_voltage=True),
)
