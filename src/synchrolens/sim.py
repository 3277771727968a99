"""Fixed-step implicit-trapezoidal DAE integrator and trajectory recorder.

Devices enter through the adapters their kinds declare (``devices.base``);
this module assembles, steps, records and initializes the DAE they form.

The unknowns are one vector z = [x; y], the differential states x (device
states, dynamic-branch currents) and then the algebraic variables y (bus
voltages, ideal-source currents), from initialize through each step and
algebraic re-solve to the recorder.  Each step solves

    x_new - x_old - dt/2 * (f_old + f(t_new, z_new)) = 0
    g(t_new, z_new) = 0

by a quasi-Newton iteration.  PowerSystemDae.fg converts z to Python floats
once and returns f and g as lists, and the stepper builds each residual
from them with one list pass and one array.  Each step, like the power
flow and the algebraic re-solves, iterates in network.newton, which owns
the stops and their messages, with its own Jacobian policy: the inverse of
a forward-difference Jacobian, kept across iterations and steps and,
before every iteration but a step's first, corrected by Broyden's second
("bad") rank-1 update, so it follows phasors that keep rotating in the
synchronous frame without new residual evaluations.  It is rebuilt only
after NEWTON_MAX_ITER iterations of one step on it.  Each step starts
iterating from the polynomial through the last 3 to 8 accepted points
(fewer after an event), written in backward differences as DASSL's
predictor is, when the previous step moved by at least newton_tol, and from
z_n otherwise, as near steady state z_n already meets the tolerance.  Like
DASSL's order selection, the stepper picks the length from what its steps
did (PredictorLength): it counts the Newton iterations of the predicted
steps in windows of PREDICTOR_WINDOW, runs one window in every
PREDICTOR_PROBE_EVERY at a neighbouring length, and moves there when that
window took fewer iterations.  A rotor that slips poles turns its phasors
by 0.07 rad per step and gets a longer polynomial than a swinging one.
Events must lie on step boundaries; the history is cleared there, so no
step extrapolates across a topology change.  At an event the topology
changes, g = 0 is re-solved for y holding x, by the power flow's
network.interface_solve, and integration continues.

A step needs f at its start.  It starts from PowerSystemDae's last
evaluation, dae.last, when that is at the z it is handed (the same object)
and is either the point this stepper returned or was made at the step's
start time, as initialization and the algebraic re-solve leave it; else it
evaluates fg there.  It takes f_n from that start and, without a predictor
and when no device depends on time (``PowerSystemDae.time_varying``; only a
torque-modulated machine does), its first residual too, so every output
stays bitwise the same.  The reuse pays in a steady tail: a step from z_n
is accepted without moving when |dt/2 (f_n + f_{n+1})| < newton_tol, so a
state whose derivative stays below about 2 newton_tol / dt is held, and
every later step reuses.

An accepted step returns the z of dae.last, the accepted point.  A held
step, one that reuses its start's (f, g) and takes no iteration, returns
its start and leaves dae.last as it is, so it changes nothing, and every
later step up to the next topology change repeats it exactly.  The main
loop then skips the steps before the next event step (or up to the end):
it counts them and records the held point in their slots, and counters and
every output keep the bits of stepping each one.
Samples are kept by reference and converted to the result arrays in blocks
(Recorder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import DeviceKind, zip_shunt_current, zip_voltage_magnitude
from .errors import (InitInfeasible, NewtonDivergence, SchemaError,
                     SlipSingular, VoltageTooSmall)
from .network import (NEWTON_TOL, EventKind, Network, PfBusSpec, apply_event,
                      assemble_y, connected_bus_mask,
                      dynamic_branch_derivatives, dynamic_branch_init,
                      fd_jacobian, interface_solve, newton, solve_power_flow)
from .scenarios.model import Scenario, check_run_settings, time_grid

# the recorded trajectories of one run may take at most this many bytes;
# a `synchrolens run` peaks at about 3.5 times its recorded bytes above its
# size after initialization (kundur 3.7x, gfl_seriescomp 3.4x), most of it
# the CSV text
MAX_RECORD_BYTES = 1 << 27


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    newton_tol: float = NEWTON_TOL
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


def check_record_size(n_samples, n_bus, n_dev, n_states):
    """SchemaError when n_samples recorded samples would take more than
    MAX_RECORD_BYTES: 16 bytes per bus voltage and device current, 1 per
    device activity flag and 8 per device state."""
    per_sample = 16 * n_bus + 17 * n_dev + 8 * n_states
    if n_samples * per_sample > MAX_RECORD_BYTES:
        raise SchemaError(
            f"{float(n_samples):.3g} recorded samples of {per_sample} bytes "
            f"exceed the {MAX_RECORD_BYTES}-byte cap; raise record_decimation "
            "in the scenario's [sim] section, raise dt or shorten t_end")


# --- adapters and the power flow --------------------------------------------


def power_flow_specs(network: Network, adapters, slack_device):
    """Power-flow input, bus id -> PfBusSpec: slack_device's bus is the
    slack, the bus of every other voltage-setting device PV and every other
    bus PQ; the PQ devices add their injections in adapter order."""
    specs = {b.id: PfBusSpec() for b in network.buses}
    for a in adapters:
        spec = specs[a.bus]
        if not a.sets_voltage:
            spec.s_fns.append(a.pf_injection)
            continue
        spec.v_set, theta, p = a.pf_setpoint()
        if a.id == slack_device:
            spec.kind, spec.theta_set = "slack", theta
        else:
            spec.kind = "pv"
            spec.s_fns.append(lambda vm, p=p: p)
    return specs


def build_adapters(scenario: Scenario):
    """One adapter per device of a validated scenario."""
    omega_b = 2.0 * np.pi * scenario.f_nom
    return [spec.declaration.adapter(spec, scenario.base_mva, omega_b)
            for spec in scenario.devices]


# --- assembled DAE ----------------------------------------------------------

# raised by device models whose equations are singular at the current point
_DEVICE_ERRORS = (VoltageTooSmall, SlipSingular)


class PowerSystemDae:
    """Packs devices, dynamic branches and the network into f/g callables.

    names[j] names equation j of the stepper's residual [x; g]: a device
    state (``G3:omega_r``), a dynamic-branch state component
    (``dyn:L7:i_b.re``), a bus KCL component (``KCL:B5.im``) or an ideal
    source's voltage constraint (``vsrc:IB.re``).  time_varying is whether
    any device's equations depend on t; the network's do not.  last is
    (t, z, zs, f, g, injections) of the last fg call (zs, f and g lists),
    or None after a topology change.  An active device with a y_shunt is
    stamped into y_mat and left out of the device pass (_shunts holds it
    and its bus).
    """

    def __init__(self, network: Network, adapters):
        self.network = network
        self.adapters = adapters
        self.time_varying = any(a.time_varying for a in adapters)
        self.omega_b = network.omega_b
        self.vsrc = [a for a in adapters if a.kind is DeviceKind.VOLTAGE_SOURCE]
        self.stateful = [a for a in adapters if a.n_states > 0]
        self.dyn_branches = list(network.dynamic_branches())
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
        bus_ids = [b.id for b in network.buses]
        src_ids = [a.id for a in self.vsrc]
        self.names = (
            [f"{a.id}:{name}" for a in self.stateful for name in a.state_names]
            + [f"dyn:{br.id}:{name}" for br in self.dyn_branches
               for name in ("i_b.re", "i_b.im", "v_c.re", "v_c.im")]
            + [f"KCL:{b}.{part}" for part in ("re", "im") for b in bus_ids]
            + [f"vsrc:{a}.{part}" for part in ("re", "im") for a in src_ids])
        self.refresh_topology()

    def refresh_topology(self):
        self.last = None
        active = [a for a in self.adapters if a.active]
        idx = self.network.bus_index
        self.y_mat = assemble_y(self.network)
        self._shunts = [(a, idx[a.bus]) for a in active
                        if a.y_shunt is not None]
        for a, k in self._shunts:
            self.y_mat[k, k] += a.y_shunt
        self._neg_y = -self.y_mat
        self.connected = connected_bus_mask(
            self.network, device_buses=[a.bus for a in active])
        self._isolated = np.flatnonzero(~self.connected).tolist()
        self._device_info = [(a, self.slices[a.id] if a.n_states else None,
                              idx[a.bus])
                             for a in active
                             if a.y_shunt is None
                             and a.kind is not DeviceKind.VOLTAGE_SOURCE]
        self._branch_info = [(br, self.branch_slices[br.id].start,
                              idx[br.from_bus], idx[br.to_bus])
                             for br in self.dyn_branches
                             if self.network.in_service[br.id]]
        self._vsrc_info = [(a, idx[a.bus]) for a in self.vsrc]

    def unpack_y(self, y_vec):
        """(bus voltages, ideal-source currents) of y, also of a block of
        samples, one per row."""
        n = self.n_bus
        v = y_vec[..., :n] + 1j * y_vec[..., n:2 * n]
        i_src = (y_vec[..., 2 * n:2 * n + self.n_src]
                 + 1j * y_vec[..., 2 * n + self.n_src:])
        return v, i_src

    def fg(self, t, z):
        """(differential RHS, algebraic residual) at z = [x; y] in one
        device pass, as two lists of Python floats.

        z is converted to a list zs of Python numbers once, so every device,
        dynamic branch and ideal source runs on Python floats and complexes
        (see ``devices.base``); the network's matvec stays one complex numpy
        product, which also carries the stamped shunts' currents.  A phasor
        is assembled as re + 1j*im, which rounds, signed zeros included, as
        numpy's y[:n] + 1j*y[n:2n] does.  g holds the re parts of the bus
        KCL mismatches, their im parts, then those of the ideal-source
        constraints.  The call is kept in last, the device currents in
        _device_info order.
        """
        n, n_src = self.n_bus, self.n_src
        zs = z.tolist()
        o = self.n_x   # y's offset in z
        v = [re + 1j * im for re, im in zip(zs[o:o + n], zs[o + n:o + 2 * n])]
        f = [0.0] * self.n_x
        mismatch = (self._neg_y @ np.array(v)).tolist()
        injections = []
        try:
            for a, k in self._shunts:
                # the load model's own rule: no ZIP load at a vanishing voltage
                zip_voltage_magnitude(v[k])
            for a, sl, k in self._device_info:
                if sl is not None:
                    d, inj = a.fg(t, zs[sl], v[k])
                    f[sl] = d
                else:
                    inj = a.inj(t, None, v[k])
                injections.append(inj)
                mismatch[k] += inj
        except _DEVICE_ERRORS as exc:
            # the same error again, naming the device and the time
            raise type(exc)(f"device {a.id} at t={t:.6f}s: {exc}") from exc
        for br, j, kf, kt in self._branch_info:
            i_b = zs[j] + 1j * zs[j + 1]
            di, dv_c = dynamic_branch_derivatives(
                [i_b, zs[j + 2] + 1j * zs[j + 3]], br, v[kf], v[kt],
                self.omega_b)
            f[j:j + 4] = di.real, di.imag, dv_c.real, dv_c.imag
            mismatch[kf] -= i_b
            mismatch[kt] += i_b
        src = []
        o += 2 * n
        i_src = [re + 1j * im
                 for re, im in zip(zs[o:o + n_src], zs[o + n_src:])]
        for (a, k), i in zip(self._vsrc_info, i_src):
            if a.active:
                mismatch[k] += i
                src.append(v[k] - a.emf)
            else:
                src.append(i)
        for k in self._isolated:
            mismatch[k] = v[k]
        g = ([m.real for m in mismatch] + [m.imag for m in mismatch]
             + [s.real for s in src] + [s.imag for s in src])
        self.last = (t, z, zs, f, g, injections)
        return f, g

    def solve_algebraic(self, t, z, tol=NEWTON_TOL, n_free=0):
        """Re-solve g = 0 from z at fixed x (event instants,
        initialization); returns (a new z, Newton iterations).

        The last n_free entries of x (the dynamic-branch states at t = 0)
        are solved with y, the tail of z, on their f and g; z is left as it
        is.  The ideal-source currents restart from zero.  The last fg call
        is at the returned z, so last holds that point.  A divergence is
        raised again naming the time and, when known, the worst equation,
        its index shifted to the [x; g] order of names.
        """
        m = self.n_x - n_free
        w0 = z[m:].copy()
        w0[n_free + 2 * self.n_bus:] = 0.0

        def residual(w):
            f, g = self.fg(t, np.concatenate([z[:m], w]))
            return np.array(f[m:] + g)

        try:
            _, iterations = interface_solve(residual, w0, tol=tol)
        except NewtonDivergence as exc:
            worst = exc.worst_equation
            where = f"{exc} (at t={t:.6f}s)"
            if worst is not None:
                worst += m
                where += f", worst equation {self.names[worst]}"
            raise NewtonDivergence(where, residual=exc.residual,
                                   worst_equation=worst) from exc
        return self.last[1], iterations


# --- trapezoidal stepper ----------------------------------------------------


# the predictor's polynomial runs through PREDICTOR_MIN_POINTS to
# PREDICTOR_MAX_POINTS accepted points, PREDICTOR_POINTS at the start of a
# run, as PredictorLength picks (windows of 16 to 64 steps and probes every
# 4 to 10 windows measured: 32 and 7 make the fewest fg calls summed over
# smib cleared at 1.12, 1.13 and 1.15 s and the other stepped built-ins)
PREDICTOR_MIN_POINTS = 3
PREDICTOR_MAX_POINTS = 8
PREDICTOR_POINTS = 6
PREDICTOR_WINDOW = 32
PREDICTOR_PROBE_EVERY = 7
# minus the weights of the m newest first differences, m = 2 ...
# PREDICTOR_MAX_POINTS - 1
_PREDICTOR_WEIGHTS = {
    m: np.array([(-1) ** (j + 1) * math.comb(m, j + 1) for j in range(m)],
                dtype=float)
    for m in range(2, PREDICTOR_MAX_POINTS)}


def extrapolate(z, diffs):
    """The next point of the polynomial through the last len(diffs) + 1
    points, from the newest point z and the first differences
    d_j = z_{n-j} - z_{n-j-1}, newest first:
    z + sum_j (-1)^j C(m, j + 1) d_j for m = len(diffs) >= 2.

    A component whose differences are all +0.0 comes back bit for bit:
    its weighted sum is +0.0 (the weights alternate in sign), and
    x - 0.0 is x for every x, -0.0 included.
    """
    return z - _PREDICTOR_WEIGHTS[len(diffs)] @ np.array(diffs)


@dataclass(slots=True)
class PredictorLength:
    """The predictor's length in points, picked from the Newton iterations
    of the steps that start from the predictor.

    Those steps are counted in windows of PREDICTOR_WINDOW.  After
    PREDICTOR_PROBE_EVERY - 1 windows at the kept length, one window runs
    at a neighbour, kept + 1 and kept - 1 in turn, clamped to
    [PREDICTOR_MIN_POINTS, PREDICTOR_MAX_POINTS], and the neighbour is kept
    if its window took fewer iterations than the window before it.  Only
    Python integers change, so a rule step costs no numpy call.
    """

    points: int = PREDICTOR_POINTS   # the length of the next predicted step
    kept: int = PREDICTOR_POINTS     # the length between probes
    direction: int = -1              # of the last probe
    windows: int = 0                 # windows at kept since the last probe
    steps: int = 0                   # predicted steps in the open window
    iterations: int = 0              # and their Newton iterations
    last: int = 0                    # iterations of the last window at kept

    def record(self, iterations):
        """Count one predicted step that took iterations."""
        self.iterations += iterations
        self.steps += 1
        if self.steps < PREDICTOR_WINDOW:
            return
        total, self.steps, self.iterations = self.iterations, 0, 0
        if self.windows == PREDICTOR_PROBE_EVERY - 1:
            # the probe window closed
            if total < self.last:
                self.kept = self.points
            self.points = self.kept
            self.windows = 0
            return
        self.last = total
        self.windows += 1
        if self.windows == PREDICTOR_PROBE_EVERY - 1:
            self.direction = -self.direction
            self.points = min(max(self.kept + self.direction,
                                  PREDICTOR_MIN_POINTS), PREDICTOR_MAX_POINTS)


class TrapezoidalStepper:
    """Quasi-Newton implicit trapezoidal stepper over (f, g).

    Each step iterates in network.newton, at most MAX_ITER times.  The
    cached row-scaled inverse Jacobian starts as the inverse of a
    forward-difference Jacobian and is rebuilt at the current iterate after
    NEWTON_MAX_ITER iterations on it.  Before each further iteration of a
    step it takes Broyden's second update,
    inv -= (dz + inv @ dr) dr^T / (dr . dr), where the iterate moved by -dz
    and dr is the change of the scaled residual; afterwards inv @ dr = -dz,
    the secant condition.

    The iteration starts from extrapolate(z_n, d) over the first
    differences d of up to length.points accepted points, where length,
    a PredictorLength, moves between PREDICTOR_MIN_POINTS and
    PREDICTOR_MAX_POINTS: one window of PREDICTOR_WINDOW predicted steps
    in every PREDICTOR_PROBE_EVERY runs at the kept length plus or minus
    one, in turn, and the probed length is kept when its window took fewer
    Newton iterations than the window before it.  Two gates apply to the
    predictor: at least three points must be kept, and the previous step
    must have moved, max|z_n - z_{n-1}| >= newton_tol (else z_n itself is
    used); the history holds only consecutive accepted steps since the
    last invalidate(), so no step extrapolates across an event.  Only
    predicted steps count toward a window, so held steps, and
    fast_forward, leave the rule as it is; an event does not reset it.

    A step starts from dae.last when that evaluation is at z_old (the
    same object) and either is the one this stepper returned or was made
    at t_old; otherwise it evaluates fg at (t_old, z_old).  It takes f_old
    and the x rows from that start and, without a predictor and for a DAE
    that is not time_varying, its first residual.  An accepted step
    returns the z of dae.last, the accepted point, and keeps that
    evaluation and its motion max|z_n - z_{n-1}| for the next step.

    A step that reuses its start's residual and takes no iteration is
    held: it returns its start and leaves dae.last as it is, so the steps
    after it repeat it, and fast_forward(m) skips m of them.
    """

    # iterations on one Jacobian before it is rebuilt at the current iterate
    NEWTON_MAX_ITER = 20
    # Newton iterations one step may take
    MAX_ITER = 3 * NEWTON_MAX_ITER

    def __init__(self, dae, config: SimConfig):
        self.dae = dae
        self.cfg = config
        self.jac_inv = None
        # dae.last at the point the last step returned
        self._returned = None
        # first differences of the accepted points of this topology,
        # z_n - z_{n-1} first, at most PREDICTOR_MAX_POINTS - 1
        self._diffs = []
        # max|z_n - z_{n-1}|, the predictor's motion gate
        self._motion = 0.0
        self.length = PredictorLength()
        # whether the last step was held
        self._held = False
        self.stats = {"newton_iterations": 0, "jacobian_builds": 0,
                      "worst_residual": 0.0, "steps": 0,
                      "max_step_iterations": 0, "max_step_time": 0.0,
                      "residual_evaluations": 0,
                      "predictor_points": {
                          str(n): 0 for n in range(PREDICTOR_MIN_POINTS,
                                                   PREDICTOR_MAX_POINTS + 1)}}

    def invalidate(self):
        """Drop cached Jacobian, returned point, predictor history, motion
        and held flag after a topology change."""
        self.jac_inv = None
        self._returned = None
        self._diffs = []
        self._motion = 0.0
        self._held = False

    def fast_forward(self, m):
        """Take m more held steps at once if the last step was held;
        returns the number of steps taken, m or 0.

        Only the step counter, the differences and the motion change: a
        held step makes no fg call, takes no iteration, does not move and
        leaves dae.last as it is, its residual was already seen by
        worst_residual, and it starts from z_n, so the length rule does
        not count it.  The caller's point stays as it is.
        """
        if m <= 0 or not self._held:
            return 0
        zero = np.zeros_like(self._diffs[0])
        keep = PREDICTOR_MAX_POINTS - 1
        self._diffs = ([zero] * min(m, keep) + self._diffs)[:keep]
        self._motion = 0.0
        self.stats["steps"] += m
        return m

    def _residual(self, t_new, z, x_old, f_old, dt, evaluate=True):
        """The step residual at z as one array, from fg at (t_new, z) or,
        when not evaluate, from dae.last, which must be at z.

        The differential rows x_new - x_old - h (f_old + f_new), h = dt/2,
        take the IEEE operations of the array expression in its order, on
        Python floats, so they have its bits; x_new is read from fg's list
        of z, x_old up to len(f_old) entries.  g follows as fg gave it.
        """
        dae = self.dae
        if evaluate:
            dae.fg(t_new, z)
            self.stats["residual_evaluations"] += 1
        _, _, zs, f_new, g_new, _ = dae.last
        h = 0.5 * dt
        return np.array([xn - xo - h * (fo + fn) for xn, xo, fo, fn
                         in zip(zs, x_old, f_old, f_new)] + g_new)

    def _build_jacobian(self, t_new, z, x_old, f_old, dt, r0):
        """Row-equilibrated inverse of the forward-difference Jacobian.

        Equilibration keeps the inverse well conditioned when fault shunts
        and fast converter rows mix scales; returns (inv, row_scale) so the
        Newton update is inv @ (scale * r).  A zero row, or a singular
        scaled Jacobian, raises np.linalg.LinAlgError.
        """
        jac = fd_jacobian(
            lambda zp: self._residual(t_new, zp, x_old, f_old, dt), z, r0)
        self.stats["jacobian_builds"] += 1
        scale = np.max(np.abs(jac), axis=1)
        if np.any(scale == 0.0):
            raise np.linalg.LinAlgError("step Jacobian has a zero row")
        scale = 1.0 / scale
        return np.linalg.inv(jac * scale[:, None]), scale

    def step(self, t_old, z_old, dt):
        """Advance one step from z_old; returns (z_new, iterations)."""
        dae = self.dae
        start = dae.last
        if (start is None or start[1] is not z_old
                or (start is not self._returned and start[0] != t_old)):
            dae.fg(t_old, z_old)
            self.stats["residual_evaluations"] += 1
            start = dae.last
        _, _, zs_old, f_old, _, _ = start
        t_new = t_old + dt
        diffs = self._diffs
        tol = self.cfg.newton_tol
        # m: the differences the predictor uses, 0 for a start at z_n
        z, m = z_old, 0
        if len(diffs) >= 2 and self._motion >= tol:
            m = min(len(diffs), self.length.points - 1)
            z = extrapolate(z_old, diffs[:m])
        # a start at z_n reuses the start's residual unless f depends on t
        reuse = not m and not dae.time_varying
        r = self._residual(t_new, z, zs_old, f_old, dt, evaluate=not reuse)
        # iterations on self.jac_inv, and the last correction with its r
        served = self.NEWTON_MAX_ITER if self.jac_inv is None else 0
        last = None

        def correction(z, r, res):
            nonlocal served, last
            if served >= self.NEWTON_MAX_ITER:
                self.jac_inv = self._build_jacobian(t_new, z, zs_old, f_old,
                                                    dt, r)
                served, last = 0, None
            inv, scale = self.jac_inv
            if last is not None:
                # Broyden's second update: the inverse maps the scaled
                # residual change onto the step just taken (secant condition)
                dz, r_old = last
                dr = scale * (r - r_old)
                dr2 = dr @ dr
                if dr2 != 0.0:
                    inv -= (dz + inv @ dr)[:, None] * (dr / dr2)
            served += 1
            dz = inv @ (scale * r)
            last = dz, r
            return dz

        z, it, res = newton(
            lambda z: self._residual(t_new, z, zs_old, f_old, dt), z, r, tol,
            correction, self.MAX_ITER, t_new, dae.names)
        stats = self.stats
        stats["newton_iterations"] += it
        stats["worst_residual"] = max(stats["worst_residual"], res)
        stats["steps"] += 1
        if it > stats["max_step_iterations"] or stats["steps"] == 1:
            stats["max_step_iterations"] = it
            stats["max_step_time"] = t_new
        d0 = z - z_old
        self._motion = float(np.abs(d0).max())
        self._diffs = [d0] + diffs[:PREDICTOR_MAX_POINTS - 2]
        if m:
            stats["predictor_points"][str(m + 1)] += 1
            self.length.record(it)
        # the last evaluation was at the accepted z
        self._returned = dae.last
        self._held = reuse and it == 0
        return z, it


# --- recording ---------------------------------------------------------------


class Recorder:
    """The recorded samples of one run, kept by reference and converted in
    blocks.

    add() keeps the z and device injections of dae.last, the accepted
    point, and flush() turns the pending samples into the result arrays
    with one np.array each for z and the injections; a stamped shunt's
    current is computed there from the recorded bus voltages.  The
    pending samples must share the topology the flush sees, so the caller
    flushes before every event; add() flushes every BLOCK samples, which
    bounds the memory the references hold.  A device that is not active
    records no current and False.
    """

    # a smib run peaks 0.49 MB above the per-sample recorder at 256 and
    # 0.70 MB at 1024; the per-block cost is a few µs
    BLOCK = 256

    def __init__(self, dae, n_rec):
        self.dae = dae
        network = dae.network
        self._bus_cols = [(b.id, network.bus_index[b.id])
                          for b in network.buses]
        self.volts = {b: np.empty(n_rec, dtype=complex)
                      for b, _ in self._bus_cols}
        self.currs = {a.id: np.empty(n_rec, dtype=complex) for a in dae.adapters}
        self.states = {a.id: np.empty((n_rec, a.n_states)) for a in dae.stateful}
        self.active = {a.id: np.ones(n_rec, dtype=bool) for a in dae.adapters}
        self.pending = []
        self.slot = 0      # the slot of pending[0]

    def add(self, count=1):
        """Record dae.last in the next count slots."""
        _, z, _, _, _, injections = self.dae.last
        if count == 1:
            self.pending.append((z, injections))
            if len(self.pending) >= self.BLOCK:
                self.flush()
        elif count:
            self.flush()
            self._write([(z, injections)], count)

    def flush(self):
        if self.pending:
            self._write(self.pending, len(self.pending))
            self.pending = []

    def _write(self, samples, count):
        """Fill the next count slots from samples, one per slot, or from
        its one sample in every slot."""
        dae = self.dae
        rows = slice(self.slot, self.slot + count)
        self.slot += count
        zs, injections = zip(*samples)
        z = np.array(zs)
        v, i_src = dae.unpack_y(z[:, dae.n_x:])
        for b, col in self._bus_cols:
            self.volts[b][rows] = v[:, col]
        inj = np.array(injections, dtype=complex)
        for j, (a, _, _) in enumerate(dae._device_info):
            self.currs[a.id][rows] = inj[:, j]
        for a, k in dae._shunts:
            curr = self.currs[a.id]
            curr.real[rows], curr.imag[rows] = zip_shunt_current(a.y_shunt,
                                                                 v[:, k])
        for j, a in enumerate(dae.vsrc):
            if a.active:
                self.currs[a.id][rows] = i_src[:, j]
        for a in dae.adapters:
            if not a.active:
                self.currs[a.id][rows] = 0.0
                self.active[a.id][rows] = False
        for a in dae.stateful:
            self.states[a.id][rows] = z[:, dae.slices[a.id]]


# --- initialization and the main loop --------------------------------------


def initialize(scenario: Scenario, config: SimConfig | None = None):
    """Power flow plus device back-solve; returns (dae, z0).

    The combined DAE residual at the returned point is below 1e-8 or
    InitInfeasible is raised.
    """
    scenario.validate()
    config = config or SimConfig.from_scenario(scenario)
    network = scenario.build_network()
    adapters = build_adapters(scenario)

    v_vec = solve_power_flow(
        network, power_flow_specs(network, adapters, scenario.slack_device))
    idx = network.bus_index
    y_eq = assemble_y(network, include_dynamic_equivalent=True)

    dae = PowerSystemDae(network, adapters)
    # each ideal source holds the power-flow voltage of its bus from here on
    for a in dae.vsrc:
        a.emf = complex(v_vec[idx[a.bus]])

    # PQ devices first, in adapter order; a voltage-setting device takes
    # what they leave of the power its bus injects into the network
    order = sorted(adapters, key=lambda a: a.sets_voltage)

    def start_point(v_vec):
        """z at bus voltages v_vec, every state back-solved from them."""
        s_bus = (v_vec * np.conj(y_eq @ v_vec)).tolist()
        z0 = np.zeros(dae.n_x + dae.n_y)
        for a in order:
            k = idx[a.bus]
            v_bus = complex(v_vec[k])
            if not a.sets_voltage:
                st = None
                if a.n_states:
                    st = a.init(v_bus, None).tolist()
                    z0[dae.slices[a.id]] = st
                s_bus[k] -= v_bus * a.inj(0.0, st, v_bus).conjugate()
            elif a.n_states:
                z0[dae.slices[a.id]] = a.init(v_bus, s_bus[k])
        for br in dae.dyn_branches:
            sl = dae.branch_slices[br.id]
            st = dynamic_branch_init(br, complex(v_vec[idx[br.from_bus]]),
                                     complex(v_vec[idx[br.to_bus]]))
            z0[sl] = [st[0].real, st[0].imag, st[1].real, st[1].imag]
        z0[dae.n_x:dae.n_x + dae.n_bus] = v_vec.real
        z0[dae.n_x + dae.n_bus:dae.n_x + 2 * dae.n_bus] = v_vec.imag
        return z0

    # re-deriving device states from the refined algebraic solution converges
    # the combined residual in a couple of passes (the power flow uses static
    # equivalents, so the first algebraic solve can shift voltages slightly);
    # each pass solves the dynamic-branch states, algebraic at t = 0, with y
    resid = np.inf
    for _ in range(4):
        z0, _ = dae.solve_algebraic(0.0, start_point(v_vec),
                                    tol=config.newton_tol,
                                    n_free=4 * len(dae.dyn_branches))
        resid = float(np.abs(dae.last[3] + dae.last[4]).max())
        if resid <= 1e-9:
            break
        v_vec, _ = dae.unpack_y(z0[dae.n_x:])
    if resid > 1e-8:
        raise InitInfeasible(
            f"initialization residual {resid:.3e} exceeds 1e-8")
    return dae, z0


def run_simulation(scenario: Scenario, config: SimConfig | None = None) -> SimResult:
    """Integrate the scenario over [0, t_end], applying events at their instants."""
    config = config or SimConfig.from_scenario(scenario)
    # t_end and every event must lie on the grid of the dt actually used
    n_steps, event_steps = time_grid(config.dt, config.t_end,
                                     [ev.time for ev in scenario.events])
    dt = config.dt
    dec = config.record_decimation
    n_rec = n_steps // dec + 1
    if scenario.analytic is not None:
        from .scenarios.circuit import run_analytic
        check_record_size(n_rec, len(scenario.buses), len(scenario.devices), 0)
        return run_analytic(scenario, config)

    dae, z = initialize(scenario, config)
    check_record_size(n_rec, dae.n_bus, len(dae.adapters),
                      sum(a.n_states for a in dae.stateful))
    network = dae.network

    events_by_step = {}
    for k, ev in zip(event_steps, scenario.events):
        events_by_step.setdefault(k, []).append(ev)

    event_log = []
    # the first recorded sample at or after each event, also when the
    # decimation does not divide the event's step
    event_samples = sorted(s for s in {-(-k // dec) for k in event_steps}
                           if s < n_rec)

    stepper = TrapezoidalStepper(dae, config)
    recorder = Recorder(dae, n_rec)
    resolves = {"event_resolves": 0, "event_resolve_iterations": 0}
    # a fast-forward ends before the next event step, or at n_steps
    stops = iter(sorted(k for k in events_by_step if k <= n_steps)
                 + [n_steps + 1])
    stop = next(stops)
    recorder.add()
    k = 0
    while k < n_steps:
        k += 1
        t_new = k * dt
        z, _ = stepper.step((k - 1) * dt, z, dt)
        if k == stop:
            stop = next(stops)
            # the pending samples were taken in the topology ending here
            recorder.flush()
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
            z, iterations = dae.solve_algebraic(t_new, z,
                                                tol=config.newton_tol)
            resolves["event_resolves"] += 1
            resolves["event_resolve_iterations"] += iterations
        if k % dec == 0:
            recorder.add()
        skipped = stepper.fast_forward(stop - 1 - k)
        if skipped:
            # every skipped step holds the point of dae.last
            recorder.add((k + skipped) // dec - k // dec)
            k += skipped
    recorder.flush()

    return SimResult(
        scenario_name=scenario.name,
        t=np.arange(0, n_steps + 1, dec) * dt,
        dt=dt * dec,
        omega_b=network.omega_b,
        voltages=recorder.volts,
        currents=recorder.currs,
        states=recorder.states,
        state_names={a.id: tuple(a.state_names) for a in dae.stateful},
        active=recorder.active,
        device_bus={a.id: a.bus for a in dae.adapters},
        device_kind={a.id: a.kind for a in dae.adapters},
        events=event_log,
        event_samples=event_samples,
        diagnostics={**stepper.stats, **resolves},
    )
