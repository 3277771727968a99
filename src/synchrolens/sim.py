"""Fixed-step implicit-trapezoidal DAE integrator and trajectory recorder.

The differential states x (device states, dynamic-branch currents) and the
algebraic variables y (bus voltages, ideal-source currents) are solved
simultaneously each step from

    x_new - x_old - dt/2 * (f_old + f(t_new, x_new, y_new)) = 0
    g(t_new, x_new, y_new) = 0

by a quasi-Newton iteration: the inverse of a forward-difference Jacobian
is kept across iterations and steps and, after every iteration that has not
converged, corrected by Broyden's second ("bad") rank-1 update, so it
follows phasors that keep rotating in the synchronous frame without new
residual evaluations.  It is rebuilt only when a step stalls or converges
slowly.  Events must lie on step boundaries; at an event the topology
changes, g = 0 is re-solved for y holding x, by the plain Newton loop the
power flow also uses, and integration continues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .cf import Trajectory
from .devices import (GFL_STATE_NAMES, GFM_STATE_NAMES, DeviceKind, GflParams,
                      GfmParams, ImParams, ZipParams, gfl_admittance_cf,
                      gfl_fg, gfl_init, gfl_injection, gfm_admittance_cf,
                      gfm_fg, gfm_init, gfm_injection, im_admittance_cf, im_fg,
                      im_init, im_injection, im_power, sm2_params, sm4_params,
                      sm6_params, sm_admittance_cf, sm_fg, sm_init,
                      sm_injection, zip_admittance_cf, zip_injection,
                      zip_power)
from .errors import (CurrentTooSmall, InitInfeasible,
                     MixedZipUnsupportedAnalytic, ModulationTooSmall,
                     NewtonDivergence, SchemaError, SlipSingular,
                     VoltageTooSmall)
from .network import (EventKind, Network, PfBusSpec, apply_event, assemble_y,
                      connected_bus_mask, dynamic_branch_derivatives,
                      dynamic_branch_init, fd_jacobian, interface_solve,
                      solve_power_flow)
from .scenarios.model import DeviceSpec, Scenario, check_run_settings, time_grid


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 20
    record_decimation: int = 1

    def __post_init__(self):
        check_run_settings(self.dt, self.t_end, self.record_decimation)

    @staticmethod
    def from_scenario(scenario: Scenario, **overrides):
        base = dict(dt=scenario.dt, t_end=scenario.t_end,
                    record_decimation=scenario.record_decimation)
        base.update({k: v for k, v in overrides.items() if v is not None})
        return SimConfig(**base)


@dataclass
class SimResult:
    """Uniformly sampled trajectories of one run, all on the system base."""

    scenario_name: str
    t: np.ndarray
    dt: float
    omega_b: float
    voltages: dict
    currents: dict
    states: dict
    state_names: dict
    active: dict
    device_bus: dict
    device_kind: dict
    events: list
    event_samples: list
    diagnostics: dict
    frame_omega: float = 1.0

    def voltage_trajectory(self, bus_id) -> Trajectory:
        return Trajectory(float(self.t[0]), self.dt, self.voltages[bus_id],
                          frame_omega=self.frame_omega, omega_b=self.omega_b)


# --- device adapters --------------------------------------------------------


class Adapter:
    """Couples one device spec to the DAE and to the closed-form chi.

    Stateful adapters define fg(t, states, v) -> (derivatives, injection);
    inj and chi broadcast over a leading sample axis like the device kernels
    they forward to.  Currents are on the system base.
    """

    n_states = 0
    state_names: tuple = ()

    def __init__(self, spec: DeviceSpec, system_base, omega_b):
        self.spec = spec
        self.id = spec.id
        self.bus = spec.bus
        self.kind = spec.kind
        self.ratio = (spec.base_mva or system_base) / system_base
        self.omega_b = omega_b
        self.active = True

    def pf_contrib(self, pf_spec: PfBusSpec, is_slack):
        raise NotImplementedError

    def init(self, v_bus, s_dev):
        """Back-solve the steady state given terminal (v, s) in system base."""
        return np.empty(0)

    def inj(self, t, states, v):
        return 0.0j

    def pf_is_pq(self):
        return True

    def chi(self, states, v, i, rho, omega):
        """Closed-form chi over the samples, or None where the model has none."""
        return None


def _p(params, key, default=None):
    if key in params:
        return params[key]
    if default is None:
        raise SchemaError(f"missing device parameter {key!r}")
    return default


class SmAdapter(Adapter):
    """Synchronous machine, optionally with the condenser PI voltage regulator
    and a sinusoidal torque modulation (forced-oscillation studies)."""

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        p = spec.params
        order = {DeviceKind.SM2: 2, DeviceKind.SM4: 4, DeviceKind.SM6: 6}[spec.kind]
        if order == 2:
            self.mp = sm2_params(x1_d=_p(p, "x1_d"), M=_p(p, "m"),
                                 D=_p(p, "d", 0.0), omega_b=omega_b)
        elif order == 4:
            self.mp = sm4_params(R_s=_p(p, "r_s", 0.0), x_d=_p(p, "x_d"),
                                 x_q=_p(p, "x_q"), x1_d=_p(p, "x1_d"),
                                 x1_q=_p(p, "x1_q"), x_l=_p(p, "x_l"),
                                 T1_d0=_p(p, "t1_d0"), T1_q0=_p(p, "t1_q0"),
                                 M=_p(p, "m"), D=_p(p, "d", 0.0), omega_b=omega_b)
        else:
            self.mp = sm6_params(R_s=_p(p, "r_s", 0.0), x_d=_p(p, "x_d"),
                                 x_q=_p(p, "x_q"), x1_d=_p(p, "x1_d"),
                                 x1_q=_p(p, "x1_q"), x2_d=_p(p, "x2_d"),
                                 x2_q=_p(p, "x2_q"), x_l=_p(p, "x_l"),
                                 T1_d0=_p(p, "t1_d0"), T1_q0=_p(p, "t1_q0"),
                                 T2_d0=_p(p, "t2_d0"), T2_q0=_p(p, "t2_q0"),
                                 M=_p(p, "m"), D=_p(p, "d", 0.0), omega_b=omega_b)
        self.avr = "avr_kp" in p
        self.avr_kp = p.get("avr_kp", 0.0)
        self.avr_ki = p.get("avr_ki", 0.0)
        self.v_ref = p.get("v", 1.0)
        self.mod_amp = p.get("tau_mod_amp", 0.0)
        self.mod_hz = p.get("tau_mod_hz", 0.0)
        self.n_states = self.mp.n_states + (1 if self.avr else 0)
        self.state_names = self.mp.state_names + (("x_avr",) if self.avr else ())
        self.tau_m0 = 0.0
        self.v_f0 = 0.0

    def pf_contrib(self, pf_spec, is_slack):
        if is_slack:
            pf_spec.kind = "slack"
            pf_spec.v_set = self.spec.params.get("v", 1.0)
            pf_spec.theta_set = self.spec.params.get("theta", 0.0)
        else:
            pf_spec.kind = "pv"
            pf_spec.v_set = self.spec.params.get("v", 1.0)
            p_set = self.spec.params.get("p", 0.0)
            pf_spec.p_fns.append(lambda vm, p=p_set: p)

    def pf_is_pq(self):
        return False

    def init(self, v_bus, s_dev):
        state, tau_m, fld = sm_init(self.mp, v_bus, s_dev / self.ratio)
        self.tau_m0 = tau_m
        if self.mp.order == 2:
            self.mp = dc_replace(self.mp, e_q0=fld)
            self.v_f0 = 0.0
        else:
            self.v_f0 = fld
        if self.avr:
            state = np.append(state, 0.0)
        return state

    def _tau_m(self, t):
        if self.mod_amp == 0.0:
            return self.tau_m0
        return self.tau_m0 * (1.0 + self.mod_amp
                              * np.sin(2.0 * np.pi * self.mod_hz * t))

    def v_field(self, states, v):
        if not self.avr:
            return self.v_f0
        return self.v_f0 + self.avr_kp * (self.v_ref - abs(v)) + states.T[-1]

    def fg(self, t, states, v):
        deriv, i = sm_fg(states[..., :self.mp.n_states], self.mp, v,
                         self._tau_m(t), self.v_field(states, v))
        if self.avr:
            dx_avr = self.avr_ki * (self.v_ref - abs(v))
            deriv = np.concatenate([deriv, np.asarray(dx_avr)[..., None]], axis=-1)
        return deriv, i * self.ratio

    def inj(self, t, states, v):
        return sm_injection(states[..., :self.mp.n_states], self.mp, v) * self.ratio

    def chi(self, states, v, i, rho, omega):
        return sm_admittance_cf(states[..., :self.mp.n_states], self.mp, v, i,
                                rho, omega, self.v_field(states, v), self.ratio)


class ZipAdapter(Adapter):
    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        p = spec.params
        self.zp = ZipParams(p0=_p(p, "p0"), q0=_p(p, "q0", 0.0),
                            k_pp=p.get("k_pp", 0.0), k_ip=p.get("k_ip", 0.0),
                            k_zp=p.get("k_zp", 1.0), k_pq=p.get("k_pq", 0.0),
                            k_iq=p.get("k_iq", 0.0), k_zq=p.get("k_zq", 1.0))

    def pf_contrib(self, pf_spec, is_slack):
        pf_spec.p_fns.append(lambda vm: -zip_power(self.zp, vm)[0])
        pf_spec.q_fns.append(lambda vm: -zip_power(self.zp, vm)[1])

    def inj(self, t, states, v):
        return zip_injection(self.zp, v)

    def chi(self, states, v, i, rho, omega):
        try:
            return zip_admittance_cf(self.zp, rho)
        except MixedZipUnsupportedAnalytic:
            return None


class MotorAdapter(Adapter):
    n_states = 1
    state_names = ("sigma",)

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        p = spec.params
        self.imp = ImParams(r_S=_p(p, "r_s", 0.0), x_S=_p(p, "x_s"),
                            r_R1=_p(p, "r_r1"), x_R1=_p(p, "x_r1"),
                            x_mu=_p(p, "x_mu"), H_m=_p(p, "h_m"),
                            omega_b=omega_b)
        self.tau_m = _p(p, "tau_m")

    def pf_contrib(self, pf_spec, is_slack):
        def drawn(vm):
            sigma = im_init(self.imp, vm, self.tau_m)
            return im_power(self.imp, sigma, vm)
        pf_spec.p_fns.append(lambda vm: -drawn(vm)[0] * self.ratio)
        pf_spec.q_fns.append(lambda vm: -drawn(vm)[1] * self.ratio)

    def init(self, v_bus, s_dev):
        sigma = im_init(self.imp, abs(v_bus), self.tau_m)
        return np.array([sigma])

    def fg(self, t, states, v):
        deriv, i = im_fg(states, self.imp, v, self.tau_m)
        return deriv, i * self.ratio

    def inj(self, t, states, v):
        return im_injection(states, self.imp, v) * self.ratio

    def chi(self, states, v, i, rho, omega):
        return im_admittance_cf(states, self.imp, v, self.tau_m)


class GflAdapter(Adapter):
    n_states = 6
    state_names = GFL_STATE_NAMES

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        p = spec.params
        self.gp = GflParams(K_p=_p(p, "k_p"), K_i=_p(p, "k_i"),
                            T_m=_p(p, "t_m"), K_p_pll=_p(p, "k_p_pll"),
                            K_i_pll=_p(p, "k_i_pll"), v_dc0=_p(p, "v_dc0"),
                            z_f=complex(_p(p, "z_f_r", 0.0), _p(p, "z_f_x")),
                            y_f=complex(p.get("y_f_g", 0.0), p.get("y_f_b", 0.0)),
                            i_dref=_p(p, "i_dref"), i_qref=p.get("i_qref", 0.0),
                            omega_b=omega_b)

    def pf_contrib(self, pf_spec, is_slack):
        pf_spec.p_fns.append(lambda vm: vm * self.gp.i_dref * self.ratio)
        pf_spec.q_fns.append(lambda vm: -vm * self.gp.i_qref * self.ratio)

    def init(self, v_bus, s_dev):
        return gfl_init(self.gp, v_bus)

    def fg(self, t, states, v):
        deriv, i = gfl_fg(states, self.gp, v)
        return deriv, i * self.ratio

    def inj(self, t, states, v):
        return gfl_injection(states, self.gp, v) * self.ratio

    def chi(self, states, v, i, rho, omega):
        return gfl_admittance_cf(states, self.gp, v, i, rho, omega,
                                 self.ratio)


class GfmAdapter(Adapter):
    n_states = 4
    state_names = GFM_STATE_NAMES

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        p = spec.params
        self.gp = GfmParams(K_p=_p(p, "k_p"), K_i=_p(p, "k_i"),
                            T_v=_p(p, "t_v"), m_p=_p(p, "m_p"),
                            p_ref=_p(p, "p_ref"), v_ref=_p(p, "v_ref"),
                            z_t=complex(_p(p, "z_t_r", 0.0), _p(p, "z_t_x")),
                            omega_b=omega_b, T_p=p.get("t_p"))

    def pf_contrib(self, pf_spec, is_slack):
        if is_slack:
            pf_spec.kind = "slack"
            pf_spec.v_set = self.gp.v_ref
        else:
            pf_spec.kind = "pv"
            pf_spec.v_set = self.gp.v_ref
            pf_spec.p_fns.append(lambda vm: self.gp.p_ref * self.ratio)

    def pf_is_pq(self):
        return False

    def init(self, v_bus, s_dev):
        # the droop reference must equal the realized power for omega = 1;
        # a no-op for PV operation, the required back-solve for slack duty
        self.gp = dc_replace(self.gp, p_ref=float(s_dev.real) / self.ratio)
        return gfm_init(self.gp, v_bus, s_dev / self.ratio)

    def fg(self, t, states, v):
        deriv, i = gfm_fg(states, self.gp, v)
        return deriv, i * self.ratio

    def inj(self, t, states, v):
        return gfm_injection(states, self.gp, v) * self.ratio

    def chi(self, states, v, i, rho, omega):
        return gfm_admittance_cf(states, self.gp, v, i, rho, omega,
                                 self.ratio)


class DcSourceAdapter(Adapter):
    """Stationary-frame constant current source (closed-form scenarios only).

    Its injected current rotates at -1 pu in the synchronous frame, so the
    current CF is exactly (0, 0) and chi follows from the voltage CF alone.
    """

    def pf_contrib(self, pf_spec, is_slack):
        raise SchemaError("DC current sources exist only in analytic scenarios")

    def chi(self, states, v, i, rho, omega):
        return -(rho + 1j * omega)


class VsrcAdapter(Adapter):
    """Ideal EMF; the injected current is an algebraic unknown."""

    def __init__(self, spec, system_base, omega_b):
        super().__init__(spec, system_base, omega_b)
        self.emf = spec.params.get("v", 1.0) * np.exp(
            1j * spec.params.get("theta", 0.0))

    def pf_contrib(self, pf_spec, is_slack):
        pf_spec.kind = "slack" if is_slack else "pv"
        pf_spec.v_set = abs(self.emf)
        pf_spec.theta_set = float(np.angle(self.emf))
        if not is_slack:
            pf_spec.p_fns.append(lambda vm: self.spec.params.get("p", 0.0))

    def pf_is_pq(self):
        return False


_ADAPTERS = {
    DeviceKind.SM2: SmAdapter,
    DeviceKind.SM4: SmAdapter,
    DeviceKind.SM6: SmAdapter,
    DeviceKind.ZIP: ZipAdapter,
    DeviceKind.INDUCTION_MOTOR: MotorAdapter,
    DeviceKind.GFL_IBR: GflAdapter,
    DeviceKind.GFM_IBR: GfmAdapter,
    DeviceKind.VOLTAGE_SOURCE: VsrcAdapter,
    DeviceKind.DC_CURRENT_SOURCE: DcSourceAdapter,
}


def build_adapters(scenario: Scenario):
    omega_b = 2.0 * np.pi * scenario.f_nom
    adapters = []
    for spec in scenario.devices:
        cls = _ADAPTERS.get(spec.kind)
        if cls is None:
            raise SchemaError(f"device kind {spec.kind} cannot be simulated",
                              element=spec.id)
        adapters.append(cls(spec, scenario.base_mva, omega_b))
    return adapters


# --- assembled DAE ----------------------------------------------------------

# raised by device models whose equations are singular at the current point
_DEVICE_ERRORS = (VoltageTooSmall, CurrentTooSmall, ModulationTooSmall,
                  SlipSingular)


class PowerSystemDae:
    """Packs devices, dynamic branches and the network into f/g callables."""

    def __init__(self, network: Network, adapters):
        self.network = network
        self.adapters = adapters
        self.omega_b = network.omega_b
        self.vsrc = [a for a in adapters if a.kind is DeviceKind.VOLTAGE_SOURCE]
        self.stateful = [a for a in adapters if a.n_states > 0]
        self.dyn_branches = list(network.dynamic_branches(in_service_only=False))
        self.slices = {}
        pos = 0
        for a in self.stateful:
            self.slices[a.id] = slice(pos, pos + a.n_states)
            pos += a.n_states
        self.branch_slices = {}
        for br in self.dyn_branches:
            self.branch_slices[br.id] = slice(pos, pos + 4)
            pos += 4
        self.n_x = pos
        self.n_bus = network.n_bus
        self.n_src = len(self.vsrc)
        self.n_y = 2 * self.n_bus + 2 * self.n_src
        self.last_inj = None
        self.refresh_topology()

    def refresh_topology(self):
        self.y_mat = assemble_y(self.network)
        self._neg_y = -self.y_mat
        self.connected = connected_bus_mask(
            self.network,
            device_buses=[a.bus for a in self.adapters if a.active])
        isolated = np.flatnonzero(~self.connected)
        self._isolated = isolated if isolated.size else None
        idx = self.network.bus_index
        self._device_info = [(a, self.slices[a.id] if a.n_states else None,
                              idx[a.bus])
                             for a in self.adapters
                             if a.active and a.kind is not DeviceKind.VOLTAGE_SOURCE]
        self._branch_info = [(br, self.branch_slices[br.id],
                              idx[br.from_bus], idx[br.to_bus])
                             for br in self.dyn_branches
                             if self.network.in_service[br.id]]
        self._vsrc_info = [(a, idx[a.bus]) for a in self.vsrc]

    def unpack_y(self, y_vec):
        n = self.n_bus
        v = y_vec[:n] + 1j * y_vec[n:2 * n]
        i_src = (y_vec[2 * n:2 * n + self.n_src]
                 + 1j * y_vec[2 * n + self.n_src:])
        return v, i_src

    def fg(self, t, x, y_vec):
        """(differential RHS, algebraic residual) in one device pass.

        The current each device injects is kept in last_inj, in
        _device_info order, so the recorder can reuse the converged values.
        """
        n = self.n_bus
        v = y_vec[:n] + 1j * y_vec[n:2 * n]
        out_f = np.zeros(self.n_x)
        mismatch = self._neg_y @ v
        injections = []
        try:
            for a, sl, k in self._device_info:
                if sl is not None:
                    d, inj = a.fg(t, x[sl], v[k])
                    out_f[sl] = d
                else:
                    inj = a.inj(t, None, v[k])
                injections.append(inj)
                mismatch[k] += inj
        except _DEVICE_ERRORS as exc:
            # the same error again, naming the device and the time
            raise type(exc)(f"device {a.id} at t={t:.6f}s: {exc}") from exc
        self.last_inj = injections
        for br, sl, kf, kt in self._branch_info:
            st = np.array([x[sl.start] + 1j * x[sl.start + 1],
                           x[sl.start + 2] + 1j * x[sl.start + 3]])
            d = dynamic_branch_derivatives(st, br, v[kf], v[kt], self.omega_b)
            out_f[sl] = [d[0].real, d[0].imag, d[1].real, d[1].imag]
            i_b = st[0]
            mismatch[kf] -= i_b
            mismatch[kt] += i_b
        if self.n_src:
            i_src = y_vec[2 * n:2 * n + self.n_src] + 1j * y_vec[2 * n + self.n_src:]
            for j, (a, k) in enumerate(self._vsrc_info):
                if a.active:
                    mismatch[k] += i_src[j]
        if self._isolated is not None:
            mismatch[self._isolated] = v[self._isolated]
        out_g = np.empty(self.n_y)
        out_g[:n] = mismatch.real
        out_g[n:2 * n] = mismatch.imag
        if self.n_src:
            for j, (a, k) in enumerate(self._vsrc_info):
                dv = (v[k] - a.emf) if a.active else i_src[j]
                out_g[2 * n + j] = dv.real
                out_g[2 * n + self.n_src + j] = dv.imag
        return out_f, out_g

    def solve_algebraic(self, t, x, y_guess, tol=1e-10):
        """Re-solve g = 0 at fixed x (event instants, initialization).

        The ideal-source currents restart from zero.  The last fg call is at
        the returned point, so last_inj holds its injections.
        """
        y0 = y_guess.copy()
        y0[2 * self.n_bus:] = 0.0
        return interface_solve(lambda y: self.fg(t, x, y)[1], y0, tol=tol)


# --- trapezoidal stepper ----------------------------------------------------


class TrapezoidalStepper:
    """Quasi-Newton implicit trapezoidal stepper over (f, g).

    The cached row-scaled inverse Jacobian starts as the inverse of a
    forward-difference Jacobian.  After each iteration whose residual is
    still at or above tolerance it takes Broyden's second update,
    inv -= (dz + inv @ dr) dr^T / (dr . dr), where the iterate moved by -dz
    and dr is the change of the scaled residual; afterwards inv @ dr = -dz,
    the secant condition.
    """

    # keep the updated inverse while it still converges in fewer iterations
    # than a rebuild would cost in residual evaluations
    REBUILD_ITERS = 12

    def __init__(self, dae, config: SimConfig):
        self.dae = dae
        self.cfg = config
        self.jac_inv = None
        self._f_old = None
        self.stats = {"newton_iterations": 0, "jacobian_builds": 0,
                      "worst_residual": 0.0, "steps": 0}

    def invalidate(self):
        """Drop cached Jacobian and RHS after a topology change."""
        self.jac_inv = None
        self._f_old = None

    def _residual(self, t_new, z, x_old, f_old, dt):
        n_x = self.dae.n_x
        x_new, y_new = z[:n_x], z[n_x:]
        f_new, g_new = self.dae.fg(t_new, x_new, y_new)
        r = np.empty(n_x + self.dae.n_y)
        r[:n_x] = x_new - x_old - 0.5 * dt * (f_old + f_new)
        r[n_x:] = g_new
        return r

    def _build_jacobian(self, t_new, z, x_old, f_old, dt, r0):
        """Row-equilibrated inverse of the forward-difference Jacobian.

        Equilibration keeps the inverse well conditioned when fault shunts
        and fast converter rows mix scales; returns (inv, row_scale) so the
        Newton update is inv @ (scale * r).
        """
        jac = fd_jacobian(
            lambda zp: self._residual(t_new, zp, x_old, f_old, dt), z, r0)
        self.stats["jacobian_builds"] += 1
        scale = np.max(np.abs(jac), axis=1)
        if np.any(scale == 0.0):
            raise NewtonDivergence(f"step Jacobian singular at t={t_new}")
        scale = 1.0 / scale
        try:
            return np.linalg.inv(jac * scale[:, None]), scale
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(f"step Jacobian singular at t={t_new}: {exc}")

    MAX_REBUILDS_PER_STEP = 3

    def step(self, t_old, x_old, y_old, dt):
        """Advance one step; returns (x_new, y_new, iterations).

        The Broyden-updated inverse is reused across iterations and steps;
        when the iteration exhausts its budget the Jacobian is rebuilt at
        the current iterate (up to MAX_REBUILDS_PER_STEP times) before the
        step is declared divergent.
        """
        dae = self.dae
        f_old = self._f_old
        if f_old is None:
            f_old = dae.fg(t_old, x_old, y_old)[0]
        t_new = t_old + dt
        z = np.concatenate([x_old, y_old])
        r = self._residual(t_new, z, x_old, f_old, dt)
        res = float(np.abs(r).max())
        tol = self.cfg.newton_tol
        rebuilds = 0
        since_build = self.cfg.newton_max_iter if self.jac_inv is None else 0
        it = 0
        while True:
            if res < tol:
                self.stats["newton_iterations"] += it
                self.stats["worst_residual"] = max(self.stats["worst_residual"], res)
                self.stats["steps"] += 1
                if it >= self.REBUILD_ITERS:
                    self.jac_inv = None   # converging slowly; refresh next step
                n_x = dae.n_x
                # recover f(t_new, z) from the converged residual for reuse
                if n_x:
                    self._f_old = (2.0 / dt) * (z[:n_x] - x_old - r[:n_x]) - f_old
                return z[:n_x], z[n_x:], it
            if self.jac_inv is None or since_build >= self.cfg.newton_max_iter:
                if rebuilds >= self.MAX_REBUILDS_PER_STEP:
                    worst = int(np.argmax(np.abs(r)))
                    raise NewtonDivergence(
                        f"Newton stalled at t={t_new:.6f}s, residual {res:.3e}",
                        residual=res, worst_equation=worst)
                self.jac_inv = self._build_jacobian(t_new, z, x_old, f_old, dt, r)
                rebuilds += 1
                since_build = 0
            inv, scale = self.jac_inv
            dz = inv @ (scale * r)
            z = z - dz
            r_new = self._residual(t_new, z, x_old, f_old, dt)
            res = float(np.abs(r_new).max())
            it += 1
            since_build += 1
            if res >= tol:
                # Broyden's second update: the inverse maps the scaled
                # residual change onto the step just taken (secant condition)
                dr = scale * (r_new - r)
                dr2 = dr @ dr
                if dr2 != 0.0:
                    inv -= np.outer(dz + inv @ dr, dr / dr2)
            r = r_new


# --- initialization and the main loop --------------------------------------


def initialize(scenario: Scenario, config: SimConfig | None = None):
    """Power flow plus device back-solve; returns (dae, x0, y0).

    The combined DAE residual at the returned point is below 1e-8 or
    InitInfeasible is raised.
    """
    scenario.validate()
    config = config or SimConfig.from_scenario(scenario)
    network = scenario.build_network()
    adapters = build_adapters(scenario)

    specs = {b.id: PfBusSpec() for b in network.buses}
    for a in adapters:
        a.pf_contrib(specs[a.bus], is_slack=(a.id == scenario.slack_device))
    v_pf, slack_s, s_all = solve_power_flow(network, specs)
    idx = network.bus_index

    dae = PowerSystemDae(network, adapters)

    def init_devices(v_vec, s_vec):
        x0 = np.zeros(dae.n_x)
        for a in adapters:
            k = idx[a.bus]
            v_bus = complex(v_vec[k])
            if a.pf_is_pq():
                if a.n_states:
                    x0[dae.slices[a.id]] = a.init(v_bus, None)
            else:
                # non-PQ device absorbs the bus balance left by its PQ neighbours
                s_dev = complex(s_vec[k])
                for other in adapters:
                    if other is not a and other.bus == a.bus:
                        st = None
                        if other.n_states:
                            st = other.init(v_bus, None)
                            x0[dae.slices[other.id]] = st
                        i_other = other.inj(0.0, st, v_bus)
                        s_dev -= v_bus * np.conj(i_other)
                if a.n_states:
                    x0[dae.slices[a.id]] = a.init(v_bus, s_dev)
                elif a.kind is DeviceKind.VOLTAGE_SOURCE:
                    a.emf = v_bus
        for br in dae.dyn_branches:
            sl = dae.branch_slices[br.id]
            st = dynamic_branch_init(br, complex(v_vec[idx[br.from_bus]]),
                                     complex(v_vec[idx[br.to_bus]]))
            x0[sl] = [st[0].real, st[0].imag, st[1].real, st[1].imag]
        return x0

    # re-deriving device states from the refined algebraic solution converges
    # the combined residual in a couple of passes (the power flow uses static
    # equivalents, so the first algebraic solve can shift voltages slightly)
    v_vec = v_pf.copy()
    y0 = np.empty(dae.n_y)
    resid = np.inf
    for _ in range(4):
        x0 = init_devices(v_vec, s_all)
        y0[:dae.n_bus] = v_vec.real
        y0[dae.n_bus:2 * dae.n_bus] = v_vec.imag
        y0[2 * dae.n_bus:] = 0.0
        y0 = dae.solve_algebraic(0.0, x0, y0, tol=config.newton_tol)
        f0, g0 = dae.fg(0.0, x0, y0)
        resid = max(float(np.max(np.abs(f0))) if dae.n_x else 0.0,
                    float(np.max(np.abs(g0))))
        if resid <= 1e-9:
            break
        v_vec, _ = dae.unpack_y(y0)
        s_all = v_vec * np.conj(assemble_y(
            network, include_dynamic_equivalent=True) @ v_vec)
    if resid > 1e-8:
        raise InitInfeasible(
            f"initialization residual {resid:.3e} exceeds 1e-8")
    return dae, x0, y0


def run_simulation(scenario: Scenario, config: SimConfig | None = None) -> SimResult:
    """Integrate the scenario over [0, t_end], applying events at their instants."""
    config = config or SimConfig.from_scenario(scenario)
    # t_end and every event must lie on the grid of the dt actually used
    n_steps, event_steps = time_grid(config.dt, config.t_end,
                                     [ev.time for ev in scenario.events])
    if scenario.analytic is not None:
        from .scenarios.circuit import run_analytic
        return run_analytic(scenario, config)

    dae, x, y = initialize(scenario, config)
    network = dae.network
    idx = network.bus_index
    dt = config.dt
    dec = config.record_decimation

    events_by_step = {}
    for k, ev in zip(event_steps, scenario.events):
        events_by_step.setdefault(k, []).append(ev)

    rec_steps = list(range(0, n_steps + 1, dec))
    n_rec = len(rec_steps)
    bus_ids = [b.id for b in network.buses]
    dev_ids = [a.id for a in dae.adapters]
    volts = {b: np.empty(n_rec, dtype=complex) for b in bus_ids}
    currs = {d: np.empty(n_rec, dtype=complex) for d in dev_ids}
    states = {a.id: np.empty((n_rec, a.n_states)) for a in dae.stateful}
    active = {d: np.ones(n_rec, dtype=bool) for d in dev_ids}
    event_log, event_samples = [], []

    stepper = TrapezoidalStepper(dae, config)

    def record(slot, x_now, y_now):
        """Store one sample.  Every solve ends with an fg call at the point
        it accepts, so dae.last_inj holds the injections at (x_now, y_now)."""
        v, i_src = dae.unpack_y(y_now)
        for b in bus_ids:
            volts[b][slot] = v[idx[b]]
        for (a, _, _), inj in zip(dae._device_info, dae.last_inj):
            currs[a.id][slot] = inj
        for j, a in enumerate(dae.vsrc):
            if a.active:
                currs[a.id][slot] = i_src[j]
        for a in dae.adapters:
            if not a.active:
                currs[a.id][slot] = 0.0
                active[a.id][slot] = False
        for a in dae.stateful:
            states[a.id][slot] = x_now[dae.slices[a.id]]

    record(0, x, y)
    slot = 1
    for k in range(1, n_steps + 1):
        t_new = k * dt
        try:
            x, y, _ = stepper.step((k - 1) * dt, x, y, dt)
            if k in events_by_step:
                for ev in events_by_step[k]:
                    if ev.kind is EventKind.DISCONNECT_DEVICE:
                        for a in dae.adapters:
                            if a.id == ev.device:
                                a.active = False
                    else:
                        apply_event(network, ev)
                    event_log.append((t_new, ev))
                dae.refresh_topology()
                stepper.invalidate()
                y = dae.solve_algebraic(t_new, x, y, tol=config.newton_tol)
        except NewtonDivergence as exc:
            raise NewtonDivergence(f"{exc} (at t={t_new:.6f}s)",
                                   residual=exc.residual,
                                   worst_equation=exc.worst_equation)
        if k % dec == 0:
            record(slot, x, y)
            if k in events_by_step:
                event_samples.append(slot)
            slot += 1

    t_axis = np.array(rec_steps, dtype=float) * dt
    return SimResult(
        scenario_name=scenario.name,
        t=t_axis,
        dt=dt * dec,
        omega_b=network.omega_b,
        voltages=volts,
        currents=currs,
        states={a.id: states[a.id] for a in dae.stateful},
        state_names={a.id: tuple(a.state_names) for a in dae.stateful},
        active=active,
        device_bus={a.id: a.bus for a in dae.adapters},
        device_kind={a.id: a.kind for a in dae.adapters},
        events=event_log,
        event_samples=event_samples,
        diagnostics=dict(stepper.stats),
    )
