"""Cross-route oracles: Norton folding, finite-difference derivative checks,
report schema over every built-in, the equal-area clearing time."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import kcl_reference
from synchrolens import sim
from synchrolens.network import EventKind, apply_event, assemble_y
from synchrolens.scenarios import (build_builtin, builtin_names, cct_sweep,
                                   with_clearing_time)
from synchrolens.sim import (SimConfig, TrapezoidalStepper, build_adapters,
                             initialize, run_simulation)


def test_norton_fold_matches_nonlinear_injection_path():
    """Machine folded as a real-linear Norton block vs the Newton solve."""
    scenario = build_builtin("smib")
    dae, z0 = initialize(scenario)
    v_newton, _ = dae.unpack_y(z0[dae.n_x:])
    net = dae.network
    idx = net.bus_index
    y_mat = assemble_y(net)

    machine = next(a for a in dae.adapters if a.id == "G1")
    state = z0[dae.slices["G1"]]

    # extract the real-linear injection block i(v) = i0 + A [v_d; v_q]
    # by probing the adapter, then assemble and solve the linear system
    def inj(v):
        return machine.inj(0.0, state, v)

    i0 = inj(0.0 + 0.0j)
    a_d = inj(1.0 + 0.0j) - i0
    a_q = inj(0.0 + 1.0j) - i0

    n = net.n_bus
    big = np.zeros((2 * n + 2, 2 * n + 2))
    rhs = np.zeros(2 * n + 2)
    # KCL rows: Re/Im of (injections - Y v) = 0, unknowns [v_d, v_q, i_src]
    for r in range(n):
        for c in range(n):
            big[r, c] = -y_mat[r, c].real
            big[r, n + c] = y_mat[r, c].imag
            big[n + r, c] = -y_mat[r, c].imag
            big[n + r, n + c] = -y_mat[r, c].real
    k = idx[machine.bus]
    big[k, k] += a_d.real
    big[k, n + k] += a_q.real
    big[n + k, k] += a_d.imag
    big[n + k, n + k] += a_q.imag
    rhs[k] -= i0.real
    rhs[n + k] -= i0.imag
    vsrc = next(a for a in dae.adapters if a.id == "IB")
    ks = idx[vsrc.bus]
    big[ks, 2 * n] = 1.0
    big[n + ks, 2 * n + 1] = 1.0
    big[2 * n, ks] = 1.0
    big[2 * n + 1, n + ks] = 1.0
    rhs[2 * n] = vsrc.emf.real
    rhs[2 * n + 1] = vsrc.emf.imag
    sol = np.linalg.solve(big, rhs)
    v_norton = sol[:n] + 1j * sol[n:2 * n]
    connected = dae.connected
    assert np.abs(v_norton[connected] - v_newton[connected]).max() <= 1e-9


@pytest.mark.parametrize("name", ["smib", "kundur", "motor_condenser",
                                  "gfl_seriescomp", "sustained_oscillation"])
def test_fg_kcl_matches_complex_reference(name):
    """fg assembles g on Python numbers; kcl_reference assembles it from
    complex arrays.  They agree bit for bit at t = 0, after every event's
    algebraic re-solve (the fault topology, then the cleared one with its
    isolated midpoint bus) and at a perturbed point in each of those
    topologies whose imaginary parts of every other bus voltage, source
    currents and dynamic-branch imaginary parts are -0.0."""
    scenario = build_builtin(name)
    dae, z = initialize(scenario)
    rng = np.random.default_rng(11)
    n = dae.n_bus

    def check(t, z):
        _, g = dae.fg(t, z)
        assert [v.hex() for v in g] == [
            v.hex() for v in kcl_reference(dae, t, z)], (name, t)
        n_x = dae.n_x
        zp = np.concatenate([
            z[:n_x] * (1.0 + 1e-3 * rng.standard_normal(n_x)),
            z[n_x:] * (1.0 + 1e-3 * rng.standard_normal(dae.n_y))])
        yp = zp[n_x:]
        yp[n:2 * n:2] = -0.0
        yp[2 * n:] = -0.0
        for sl in dae.branch_slices.values():
            zp[sl.start + 1] = zp[sl.start + 3] = -0.0
        _, g = dae.fg(t, zp)
        assert [v.hex() for v in g] == [
            v.hex() for v in kcl_reference(dae, t, zp)], (name, t)

    check(0.0, z)
    for ev in scenario.events:
        if ev.kind is EventKind.DISCONNECT_DEVICE:
            next(a for a in dae.adapters if a.id == ev.device).active = False
        else:
            apply_event(dae.network, ev)
        dae.refresh_topology()
        z, _ = dae.solve_algebraic(ev.time, z)
        check(ev.time, z)


@pytest.mark.parametrize("name,devices", [
    ("smib", ["G1"]),
    ("motor_condenser", ["M1", "SC1"]),
    ("gfl_seriescomp", ["C1"]),
])
def test_finite_difference_derivative_oracle(builtin_run, name, devices):
    """Central differences of recorded states vs the device RHS, O(dt^2)."""
    scenario, result, _ = builtin_run(name)
    adapters = {a.id: a for a in build_adapters(scenario)}
    idx_of = {dev: result.device_bus[dev] for dev in devices}
    dt = result.dt
    for dev in devices:
        a = adapters[dev]
        v_bus = result.voltages[idx_of[dev]]
        i_dev = result.currents[dev]
        a.init(complex(v_bus[0]), complex(v_bus[0] * np.conj(i_dev[0])))
        states = result.states[dev]
        # a quiet post-transient window away from events
        window = (result.t >= 0.2) & (result.t <= 0.8)
        ks = np.flatnonzero(window)[1:-1]
        worst = 0.0
        for k in ks[:: max(1, len(ks) // 200)]:
            if not result.active[dev][k]:
                continue
            fd = (states[k + 1] - states[k - 1]) / (2.0 * dt)
            rhs, _ = a.fg(result.t[k], states[k].tolist(), complex(v_bus[k]))
            worst = max(worst, float(np.max(np.abs(fd - rhs))))
        assert worst < 1e-6, (name, dev, worst)

    # and through a disturbed stretch, at a looser O(dt^2) scale
    for dev in devices:
        a = adapters[dev]
        v_bus = result.voltages[idx_of[dev]]
        states = result.states[dev]
        t_probe = (result.t >= 2.0) & (result.t <= 3.0)
        ks = np.flatnonzero(t_probe)[1:-1]
        worst = 0.0
        for k in ks[:: max(1, len(ks) // 200)]:
            if not (result.active[dev][k - 1:k + 2].all()):
                continue
            fd = (states[k + 1] - states[k - 1]) / (2.0 * dt)
            rhs, _ = a.fg(result.t[k], states[k].tolist(), complex(v_bus[k]))
            worst = max(worst, float(np.max(np.abs(fd - rhs))))
        assert worst < 5e-2, (name, dev, worst)


def test_report_schema_valid_for_every_builtin(builtin_run):
    import importlib.resources as resources

    from synchrolens.cli import build_report
    from tests.test_cli import _validate

    schema = json.loads(
        resources.files("synchrolens").joinpath("report_schema.json").read_text())
    reports = {}
    for name in builtin_names():
        scenario, result, _ = builtin_run(name)
        config = SimConfig.from_scenario(scenario)
        report, _, _ = build_report(scenario, result, config)
        # must serialize as strict JSON
        payload = json.loads(json.dumps(report, allow_nan=False))
        _validate(payload, schema)
        reports[name] = report

    # the two-area report: machines and impedance loads all keep local
    # synchronization while the system-level separation flag is raised
    kundur = reports["kundur"]
    verdicts = {v["device"]: v for v in kundur["verdicts"]}
    for dev in ("G1", "G2", "G3", "G4", "Zload7", "Zcap7", "Zload9", "Zcap9"):
        assert verdicts[dev]["als"]["passed"], dev
    assert kundur["system"]["instability_angle_separation"] is True


def test_gfm_master_oracle(gfm_probe_run):
    """Grid-forming closed form vs numeric chi on a load-step run."""
    from synchrolens.synccheck import analytic_chi_all, crosscheck_chi, numeric_chi
    scenario, result, _ = gfm_probe_run
    analytic = analytic_chi_all(result, scenario)
    cc = crosscheck_chi(analytic["F1"], numeric_chi(result, "F1"), "F1")
    assert cc.rms <= 1e-3 and cc.max <= 1e-2, (cc.rms, cc.max, cc.worst_time)
    # the load step leaves a real droop transient to anchor the check
    chi = numeric_chi(result, "F1")
    post = (chi.t > 1.0) & (chi.t < 2.0) & chi.mask
    assert np.abs(chi.values[post]).max() > 1e-4


def test_sm6_master_oracle_on_fault_run():
    """Subtransient machine chi vs numeric differentiation through a fault."""
    from synchrolens.devices import DeviceKind
    from synchrolens.network import Branch, Bus, Event, EventKind
    from synchrolens.scenarios import DeviceSpec, Scenario
    from synchrolens.sim import run_simulation
    from synchrolens.synccheck import analytic_chi_all, crosscheck_chi, numeric_chi

    scenario = Scenario(
        name="sm6_probe",
        buses=(Bus("GEN"), Bus("HV"), Bus("GRID")),
        branches=(
            Branch("T1", "GEN", "HV", 0.0, 0.15),
            Branch("L1", "HV", "GRID", 0.0, 0.5),
            Branch("L2", "HV", "GRID", 0.0, 0.5),
        ),
        devices=(
            DeviceSpec("G1", DeviceKind.SM6, "GEN",
                       {"r_s": 0.0025, "x_d": 1.8, "x_q": 1.7, "x1_d": 0.3,
                        "x1_q": 0.55, "x2_d": 0.25, "x2_q": 0.25, "x_l": 0.2,
                        "t1_d0": 8.0, "t1_q0": 0.4, "t2_d0": 0.03,
                        "t2_q0": 0.05, "m": 7.0, "d": 5.0, "p": 0.7,
                        "v": 1.0}),
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "GRID",
                       {"v": 0.97, "theta": 0.0}),
        ),
        events=(
            Event(1.0, EventKind.APPLY_FAULT, branch="L2"),
            Event(1.1, EventKind.CLEAR_FAULT, branch="L2", open_branch=True),
        ),
        slack_device="IB",
        t_end=6.0,
    ).validate()
    result = run_simulation(scenario)
    analytic = analytic_chi_all(result, scenario)
    cc = crosscheck_chi(analytic["G1"], numeric_chi(result, "G1"), "G1")
    assert cc.rms <= 1e-3 and cc.max <= 1e-2, (cc.rms, cc.max, cc.worst_time)


def _full_newton_step(stepper, t_old, z_old, dt):
    """Reference step: a fresh forward-difference Jacobian at every Newton
    iterate, nothing carried over from earlier iterations or steps."""
    f_old = stepper.dae.fg(t_old, z_old)[0]
    x_old = z_old[:stepper.dae.n_x]
    t_new = t_old + dt
    z = z_old
    r = stepper._residual(t_new, z, x_old, f_old, dt)
    for _ in range(stepper.NEWTON_MAX_ITER):
        if np.abs(r).max() < stepper.cfg.newton_tol:
            return z
        inv, scale = stepper._build_jacobian(t_new, z, x_old, f_old, dt, r)
        z = z - inv @ (scale * r)
        r = stepper._residual(t_new, z, x_old, f_old, dt)
    raise AssertionError(f"full Newton did not converge at t={t_new}")


class FullNewtonStepper(TrapezoidalStepper):
    def step(self, t_old, z_old, dt):
        z = _full_newton_step(self, t_old, z_old, dt)
        self.stats["steps"] += 1
        return z, 0


class CheckedStepper(TrapezoidalStepper):
    """The shipped stepper, with every step also taken by full Newton from
    the same point; the reference runs first so the recorder still sees the
    shipped stepper's last residual evaluation."""

    max_step_gap = 0.0

    def __init__(self, dae, config):
        super().__init__(dae, config)
        self.reference = TrapezoidalStepper(dae, config)

    def step(self, t_old, z_old, dt):
        z_ref = _full_newton_step(self.reference, t_old, z_old, dt)
        z, it = super().step(t_old, z_old, dt)
        gap = np.abs(z - z_ref).max()
        CheckedStepper.max_step_gap = max(CheckedStepper.max_step_gap, gap)
        return z, it


def _max_trajectory_gap(a, b):
    gaps = [np.abs(a.states[d] - b.states[d]).max() for d in a.states]
    gaps += [np.abs(a.voltages[k] - b.voltages[k]).max() for k in a.voltages]
    gaps += [np.abs(a.currents[d] - b.currents[d]).max() for d in a.currents]
    return max(gaps)


@pytest.mark.parametrize("t_clear", [1.12, 1.13])
def test_quasi_newton_steps_match_full_newton(monkeypatch, t_clear):
    """Every step of the Broyden-updated chord stepper lands within 1e-8 of a
    full Newton step taken from the same point, through the fault, the
    clearing and (at 1.13 s) the first pole slip."""
    scenario = with_clearing_time(build_builtin("smib"), t_clear)
    config = SimConfig.from_scenario(scenario, t_end=3.0)
    monkeypatch.setattr(sim, "TrapezoidalStepper", CheckedStepper)
    CheckedStepper.max_step_gap = 0.0
    result = run_simulation(scenario, config)
    assert result.diagnostics["steps"] == 3000
    assert CheckedStepper.max_step_gap <= 1e-8


def test_quasi_newton_trajectory_matches_full_newton(monkeypatch):
    """Whole kundur trajectory to 3 s against full Newton.  (On smib the
    clearing times straddle the stability boundary, which amplifies the
    per-step stopping error: there even the plain chord stepper ends about
    1e-6 away from full Newton, so smib is checked step by step above.)
    The Broyden update keeps the Jacobian builds to the start-up one or
    two."""
    scenario = build_builtin("kundur")
    config = SimConfig.from_scenario(scenario, t_end=3.0)
    quasi = run_simulation(scenario, config)
    monkeypatch.setattr(sim, "TrapezoidalStepper", FullNewtonStepper)
    full = run_simulation(scenario, config)
    assert _max_trajectory_gap(quasi, full) <= 1e-8
    assert quasi.diagnostics["jacobian_builds"] <= 3


def _transfer_reactance(x1_d, t1, lines, y_fault=None):
    """Reactance between the machine EMF and the infinite bus after Kron
    reduction of smib's network: nodes E', GEN, HV, the fault point F and
    GRID, lines as (node, node, reactance), a fault shunt at F if given."""
    y = np.zeros((5, 5), dtype=complex)
    for a, b, x in [(0, 1, x1_d), (1, 2, t1), *lines]:
        y_ab = 1.0 / (1j * x)
        y[[a, b], [a, b]] += y_ab
        y[[a, b], [b, a]] -= y_ab
    if y_fault is not None:
        y[3, 3] += y_fault
    keep = [0, 4]
    drop = [k for k in (1, 2, 3) if y[k, k] != 0.0]
    y_red = (y[np.ix_(keep, keep)] - y[np.ix_(keep, drop)]
             @ np.linalg.solve(y[np.ix_(drop, drop)], y[np.ix_(drop, keep)]))
    return 1.0 / y_red[0, 1].imag


def test_equal_area_critical_clearing_time_brackets_the_sweep_boundary():
    """Undamped smib against the equal-area criterion (Kundur 1994, 13.1).

    Kron reduction of the pre-fault, fault-on and post-fault networks gives
    the transfer reactances (0.700, 1.848, 0.950 pu); the equal areas give
    the critical angle, and a fixed-step RK4 of the 1-D fault-on swing
    M/omega_b * delta'' = P_m - P_2 sin(delta) the time it is reached,
    t_cr = 1.09612 s.  cct_sweep's stable flags at the dt-grid points next
    to t_cr must change once, from stable to pole slip, across t_cr.

    Tolerance: the trapezoidal rule's phase error for a swing of angular
    rate Omega is (Omega*dt)^2/12 per second; with Omega the fastest
    small-signal rate of the three topologies, sqrt(omega_b*P_1/M), over the
    run after the fault it shifts the simulated boundary by at most
    (t_end - t_fault)*(Omega*dt)^2/12, about 8e-5 s, less than one dt.
    """
    smib = build_builtin("smib")
    scenario = replace(smib, t_end=6.0, devices=tuple(
        replace(d, params={**d.params, "d": 0.0}) if d.id == "G1" else d
        for d in smib.devices))
    g1 = next(d for d in scenario.devices if d.id == "G1").params
    v_grid = next(d for d in scenario.devices if d.id == "IB").params["v"]
    fault = next(ev for ev in scenario.events
                 if ev.kind is EventKind.APPLY_FAULT)
    br = {b.id: b.x for b in scenario.branches}
    # L2 is faulted at its midpoint F and opened to clear it
    l2_halves = [(2, 3, br["L2"] / 2), (3, 4, br["L2"] / 2)]
    x_pre, x_on, x_post = (
        _transfer_reactance(g1["x1_d"], br["T1"], lines, y_fault)
        for lines, y_fault in (([(2, 4, br["L1"])] + l2_halves, None),
                               ([(2, 4, br["L1"])] + l2_halves, fault.y_fault),
                               ([(2, 4, br["L1"])], None)))
    assert (x_pre, x_on, x_post) == pytest.approx((0.700, 1.848, 0.950),
                                                  abs=5e-4)

    # the pre-fault operating point: P at |v| = 1 through the network
    # reactance behind the machine's x'_d, then E' = v + j x'_d i
    x_line = x_pre - g1["x1_d"]
    v_gen = g1["v"] * np.exp(1j * math.asin(g1["p"] * x_line
                                            / (g1["v"] * v_grid)))
    emf = v_gen + g1["x1_d"] * (v_gen - v_grid) / x_line
    e_mag, delta0 = abs(emf), float(np.angle(emf))
    p_m = g1["p"]
    p2, p3 = (e_mag * v_grid / x for x in (x_on, x_post))
    delta_max = math.pi - math.asin(p_m / p3)
    delta_cr = math.acos((p_m * (delta_max - delta0) + p3 * math.cos(delta_max)
                          - p2 * math.cos(delta0)) / (p3 - p2))
    assert (e_mag, delta0, delta_cr) == pytest.approx(
        (1.1215, 0.6493, 0.9707), abs=1e-4)

    omega_b = 2.0 * math.pi * scenario.f_nom
    gain = omega_b / g1["m"]

    def swing(z):
        return np.array([z[1], gain * (p_m - p2 * math.sin(z[0]))])

    h, t, z = 1e-5, fault.time, np.array([delta0, 0.0])
    while True:
        k1 = swing(z)
        k2 = swing(z + 0.5 * h * k1)
        k3 = swing(z + 0.5 * h * k2)
        k4 = swing(z + h * k3)
        z_next = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if z_next[0] >= delta_cr:
            t_cr = t + h * (delta_cr - z[0]) / (z_next[0] - z[0])
            break
        t, z = t + h, z_next
    assert t_cr == pytest.approx(1.09612, abs=1e-5)

    dt = scenario.dt
    omega_fast = math.sqrt(gain * e_mag * v_grid / x_pre)
    tol = (scenario.t_end - fault.time) * (omega_fast * dt) ** 2 / 12.0
    assert tol < dt
    k_cr = math.floor(t_cr / dt)
    sweep = cct_sweep(scenario, (k_cr - 1) * dt, (k_cr + 2) * dt, dt)
    stable = [p.t_clear for p in sweep.points if p.stable]
    slipped = [p.t_clear for p in sweep.points if p.stable is False]
    assert len(stable) + len(slipped) == len(sweep.points) == 4
    assert max(stable) < min(slipped)
    assert max(stable) <= t_cr + tol and min(slipped) >= t_cr - tol
