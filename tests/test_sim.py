"""Integrator properties: fixed points, exact amplification, convergence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import without_disturbances
from synchrolens.devices import DECLARATIONS, DeviceKind, zip_injection
from synchrolens.devices.sources import VsrcAdapter
from synchrolens import cli, sim
from synchrolens.errors import InitInfeasible, NewtonDivergence, SchemaError
from synchrolens.network import Event, EventKind, apply_event, assemble_y
from synchrolens.scenarios import (DeviceSpec, build_builtin, builtin_names,
                                  serialize_scenario, with_clearing_time)
from synchrolens.sim import (SimConfig, TrapezoidalStepper, initialize,
                             run_simulation)
from synchrolens.synccheck import evaluate_device, numeric_chi


class ScalarDecay:
    """Minimal DAE: x' = lam*x with no algebraic part; like PowerSystemDae
    it names its equations, returns f and g as lists and keeps its last
    evaluation in last."""

    n_x = 1
    n_y = 0
    names = ("x",)
    time_varying = False
    last = None

    def __init__(self, lam):
        self.lam = lam

    def fg(self, t, z):
        zs = z.tolist()
        f, g = [self.lam * v for v in zs], []
        self.last = (t, z, zs, f, g, [])
        return f, g


def test_trapezoidal_amplification_exact():
    lam, dt = -1.0, 1e-3
    stepper = TrapezoidalStepper(
        ScalarDecay(lam), SimConfig(dt=dt, t_end=1.0, newton_tol=1e-15))
    z, _ = stepper.step(0.0, np.array([1.0]), dt)
    expected = (1.0 + lam * dt / 2.0) / (1.0 - lam * dt / 2.0)
    assert z[0] == pytest.approx(expected, abs=1e-13)


class RecordingDecay(ScalarDecay):
    """ScalarDecay that logs every state it is evaluated at.  It declares
    itself time-varying, so the stepper evaluates every residual it needs
    instead of reusing the accepted point's."""

    time_varying = True

    def __init__(self, lam):
        super().__init__(lam)
        self.points = []

    def fg(self, t, z):
        self.points.append(float(z[0]))
        return super().fg(t, z)


def test_predictor_and_its_gates():
    """With m + 1 >= 3 accepted points kept (at most PREDICTOR_POINTS) and a
    previous step that moved by at least newton_tol, the first residual is
    evaluated at x_n + sum_j (-1)^j C(m, j + 1) (x_{n-j} - x_{n-j-1}), also
    after a step that converged at the predictor without iterating.  After
    a step that moved less, and for the first two steps after
    invalidate(), it is evaluated at x_n."""
    dt = 1e-3
    dae = RecordingDecay(-1.0)
    stepper = TrapezoidalStepper(dae, SimConfig(dt=dt, t_end=1.0))
    xs = [np.array([1.0])]

    def step():
        """One step from the last point; (states fg saw, iterations)."""
        dae.points.clear()
        x, it = stepper.step((len(xs) - 1) * dt, xs[-1], dt)
        xs.append(x)
        return list(dae.points), it

    def predicted(m):
        """The documented start over the m newest differences of xs."""
        x = [float(v[0]) for v in xs[::-1]]
        return x[0] + sum((-1) ** j * math.comb(m, j + 1) * (x[j] - x[j + 1])
                          for j in range(m))

    assert sim.PREDICTOR_POINTS == 6
    for _ in range(5):
        step()
    # five differences kept: the quintic through the last six points, which
    # meets the tolerance without an iteration; the start after such a
    # step is the quintic again (six points at most)
    for _ in range(2):
        start = predicted(5)
        points, it = step()
        assert points[0] == pytest.approx(start, rel=0, abs=1e-15)
        assert it == 0
    quadratic = 3.0 * xs[-2][0] - 3.0 * xs[-3][0] + xs[-4][0]
    assert abs(points[0] - quadratic) > 1e-11

    # the last step moved by about 1e-3, less than this tolerance, so the
    # next step starts from x_n
    stepper.cfg = SimConfig(dt=dt, t_end=1.0, newton_tol=1e-2)
    assert step()[0][0] == xs[-2][0]
    stepper.cfg = SimConfig(dt=dt, t_end=1.0)

    # f_old is recomputed at x_n after invalidate() and a topology change,
    # which drops dae.last, then the residual is evaluated at the start
    # iterate; the third step has three points
    stepper.invalidate()
    dae.last = None
    assert step()[0][:2] == [xs[-2][0]] * 2
    assert step()[0][0] == xs[-2][0]
    start = predicted(2)
    assert step()[0][0] == pytest.approx(start, rel=0, abs=1e-15)
    assert start != xs[-2][0]


@pytest.mark.parametrize("m", range(2, sim.PREDICTOR_MAX_POINTS))
def test_predictor_extrapolates_polynomials_exactly(m):
    """extrapolate continues integer samples of polynomials of every degree
    up to m bit for bit from the m newest first differences, and returns a
    constant component bit for bit, the sign of a zero included."""
    rng = np.random.default_rng(m)
    polys = [rng.integers(-50, 51, size=deg + 1).tolist()
             for deg in range(m + 1) for _ in range(3)]
    constants = [0.1, -0.0, 0.0, 5e-324, -1e300, 1.0 / 3.0]
    t0 = int(rng.integers(-10, 10))

    def sample(t):
        return np.array([float(sum(c * t ** k for k, c in enumerate(p)))
                         for p in polys] + constants)

    points = [sample(t0 + k) for k in range(m + 1)]
    diffs = [points[-1 - j] - points[-2 - j] for j in range(m)]
    predicted = sim.extrapolate(points[-1], diffs)
    assert predicted.tobytes() == sample(t0 + m + 1).tobytes()


class TurningPhasor:
    """Minimal DAE whose phasor turns at a constant rate: a rotor angle
    d' = w + k Im(v e^{-jd}) and its terminal phasor v = e^{jd}, algebraic,
    so d grows linearly and v turns by w dt per step; z = [d, Re v, Im v].
    Like PowerSystemDae it names its equations, returns f and g as lists
    and keeps its last evaluation in last."""

    n_x = 1
    n_y = 2
    names = ("d", "v.re", "v.im")
    time_varying = False
    last = None

    def __init__(self, w, k):
        self.w, self.k = w, k

    def fg(self, t, z):
        zs = z.tolist()
        d, re, im = zs
        c, s = math.cos(d), math.sin(d)
        f = [self.w + self.k * (im * c - re * s)]
        g = [re - c, im - s]
        self.last = (t, z, zs, f, g, [])
        return f, g


def test_predictor_length_follows_iterations():
    """The rule lengthens the predictor past six points where a phasor
    turns 0.07 rad per step, as a slipping rotor's does, and keeps it at
    six or fewer on a slowly decaying state; only predicted steps are
    counted, one length each."""
    dt, n = 1e-3, 1000
    config = SimConfig(dt=dt, t_end=n * dt)

    def run(dae, z):
        stepper = TrapezoidalStepper(dae, config)
        for k in range(n):
            z, _ = stepper.step(k * dt, z, dt)
        points = stepper.stats["predictor_points"]
        assert list(points) == [str(m) for m in range(3, 9)]
        assert sum(points.values()) <= n
        return stepper.length.kept, points

    kept, points = run(TurningPhasor(70.0, 10.0), np.array([0.0, 1.0, 0.0]))
    assert kept > sim.PREDICTOR_POINTS and points["8"] > 0
    kept, points = run(ScalarDecay(-1.0), np.array([1.0]))
    assert kept <= sim.PREDICTOR_POINTS and points["8"] == 0


def test_kundur_newton_iterations_bounded():
    """The predictor's gain, deterministically: kundur through its tie
    fault and clearing to 3 s in at most 3,000 Newton iterations (8,915
    starting every step from z_n, 4,798 from the quadratic predictor) and
    no step above 3 iterations."""
    scenario = build_builtin("kundur")
    result = run_simulation(scenario,
                            SimConfig.from_scenario(scenario, t_end=3.0))
    diag = result.diagnostics
    assert diag["steps"] == 3000
    assert diag["newton_iterations"] <= 3000
    assert diag["max_step_iterations"] <= 3


def test_smib_pole_slip_residual_evaluations_bounded():
    """smib cleared at 1.13 s or at 1.15 s slips poles after clearing; the
    predictor, lengthened by its rule, carries the stepper through in at
    most 26,000 residual evaluations each (32,226 and 32,452 from a fixed
    six-point predictor, 49,828 at 1.13 s from the quadratic one)."""
    for clearing in (1.13, 1.15):
        scenario = with_clearing_time(build_builtin("smib"), clearing)
        result = run_simulation(scenario, SimConfig.from_scenario(scenario))
        diag = result.diagnostics
        assert diag["steps"] == 12000
        assert diag["residual_evaluations"] <= 26000


@pytest.mark.parametrize("name, ceiling", [
    ("smib", 20_300), ("gfl_seriescomp", 39_600), ("motor_condenser", 7_600),
    ("kundur", 41_500)])
def test_residual_evaluations_bounded(builtin_run, name, ceiling):
    """A full built-in run's residual_evaluations, the report's count of
    stepper fg calls, stays below its ceiling (20,186, 39,295, 7,529 and
    41,316 from the predictor PredictorLength sizes)."""
    _, result, _ = builtin_run(name)
    assert result.diagnostics["residual_evaluations"] <= ceiling


def test_every_device_kind_is_declared_once():
    """Each device kind has exactly one declaration, in its model's module,
    with an adapter; the power-flow roles, the device-base kinds and the
    parameter keys with their defaults it declares are those the file
    format has always had."""
    from synchrolens.devices import (REQUIRED, Adapter, inverter, loads,
                                     machine, motor, sources)
    declared = [d for module in (machine, loads, motor, inverter, sources)
                for d in module.DECLARATIONS]
    assert sorted(d.kind.value for d in declared) == sorted(
        k.value for k in DeviceKind)
    assert all(issubclass(d.adapter, Adapter) for d in declared)
    kinds = DeviceKind
    assert {k for k, d in DECLARATIONS.items() if d.sets_voltage} == {
        kinds.SM2, kinds.SM4, kinds.SM6, kinds.GFM_IBR, kinds.VOLTAGE_SOURCE}
    assert {k for k, d in DECLARATIONS.items() if d.device_base} == set(
        kinds) - {kinds.ZIP, kinds.VOLTAGE_SOURCE, kinds.DC_CURRENT_SOURCE}
    r = REQUIRED
    sm = {"m": r, "d": 0.0, "p": 0.0, "v": 1.0, "theta": 0.0,
          "tau_mod_amp": 0.0, "tau_mod_hz": 0.0}
    sm4 = {"x_d": r, "x_q": r, "x1_d": r, "x1_q": r, "x_l": r, "t1_d0": r,
           "t1_q0": r, "r_s": 0.0, **sm, "avr_kp": 0.0, "avr_ki": 0.0}
    assert {k: d.keys for k, d in DECLARATIONS.items()} == {
        kinds.SM2: {"x1_d": r, **sm},
        kinds.SM4: sm4,
        kinds.SM6: {**sm4, "x2_d": r, "x2_q": r, "t2_d0": r, "t2_q0": r},
        kinds.ZIP: {"p0": r, "q0": 0.0, "k_pp": 0.0, "k_ip": 0.0,
                    "k_zp": 1.0, "k_pq": 0.0, "k_iq": 0.0, "k_zq": 1.0},
        kinds.INDUCTION_MOTOR: {"x_s": r, "r_r1": r, "x_r1": r, "x_mu": r,
                                "h_m": r, "tau_m": r, "r_s": 0.0},
        kinds.GFL_IBR: {"k_p": r, "k_i": r, "t_m": r, "k_p_pll": r,
                        "k_i_pll": r, "v_dc0": r, "z_f_x": r, "i_dref": r,
                        "z_f_r": 0.0, "y_f_g": 0.0, "y_f_b": 0.0,
                        "i_qref": 0.0},
        kinds.GFM_IBR: {"k_p": r, "k_i": r, "t_v": r, "m_p": r, "p_ref": r,
                        "v_ref": r, "z_t_x": r, "t_p": None, "z_t_r": 0.0},
        kinds.VOLTAGE_SOURCE: {"v": 1.0, "theta": 0.0, "p": 0.0},
        kinds.DC_CURRENT_SOURCE: {"i_mag": r, "phase": 0.0},
    }


def test_config_validation():
    with pytest.raises(SchemaError):
        SimConfig(dt=-1e-3, t_end=1.0)
    with pytest.raises(SchemaError):
        SimConfig(dt=1e-3, t_end=0.0)
    # two recorded samples are too few for the CF stencils; three suffice
    with pytest.raises(SchemaError, match="fewer than the 3"):
        SimConfig(dt=1e-3, t_end=4e-3, record_decimation=3)
    SimConfig(dt=1e-3, t_end=4e-3, record_decimation=2)


def test_equilibrium_is_a_fixed_point():
    scenario = without_disturbances(build_builtin("smib"))
    config = SimConfig.from_scenario(scenario, t_end=1.0)
    dae, z0 = initialize(scenario, config)
    stepper = TrapezoidalStepper(dae, config)
    z1, _ = stepper.step(0.0, z0, config.dt)
    assert np.max(np.abs(z1[:dae.n_x] - z0[:dae.n_x])) < 1e-12


def test_no_event_run_holds_equilibrium_ten_seconds():
    scenario = without_disturbances(build_builtin("smib"))
    result = run_simulation(scenario, SimConfig.from_scenario(scenario, t_end=10.0))
    drift = np.max(np.abs(result.states["G1"] - result.states["G1"][0]))
    assert drift <= 1e-9


def test_self_convergence_order_at_least_1_8():
    """Richardson study on the faulted machine-infinite-bus case."""
    scenario = with_clearing_time(build_builtin("smib"), 1.08)

    def final_state(dt):
        result = run_simulation(
            scenario, SimConfig(dt=dt, t_end=3.0, record_decimation=1))
        return result.states["G1"][-1]

    ref = final_state(1.25e-4)
    errors = [np.max(np.abs(final_state(dt) - ref))
              for dt in (1e-3, 5e-4, 2.5e-4)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert min(orders) >= 1.8


def test_determinism_bitwise():
    scenario = build_builtin("smib")
    a = run_simulation(scenario)
    b = run_simulation(scenario)
    assert np.array_equal(a.states["G1"], b.states["G1"])
    for bus in a.voltages:
        assert np.array_equal(a.voltages[bus], b.voltages[bus])
    for dev in a.currents:
        assert np.array_equal(a.currents[dev], b.currents[dev])


def test_event_snaps_to_step_boundary(builtin_run):
    _, result, _ = builtin_run("smib")
    for (t_event, _), sample in zip(result.events, result.event_samples):
        assert result.t[sample] == pytest.approx(t_event, abs=0.0)


def test_event_keeps_differential_states_continuous(builtin_run):
    _, result, _ = builtin_run("smib")
    k = result.event_samples[0]
    delta = result.states["G1"][:, 0]
    v_hv = np.abs(result.voltages["HV"])
    # algebraic variables jump at the fault instant, states move only O(dt)
    assert abs(delta[k] - delta[k - 1]) < 5e-3
    assert v_hv[k - 1] - v_hv[k] > 0.3


def test_event_resolves_are_counted(builtin_run):
    """The diagnostics count the algebraic re-solves after events and their
    Newton iterations: kundur re-solves once at its fault and once at its
    clearing, and a run to just past the clearing repeats both counts."""
    scenario, result, _ = builtin_run("kundur")
    diag = result.diagnostics
    assert diag["event_resolves"] == len(scenario.events) == 2
    assert diag["event_resolve_iterations"] >= 2
    short = run_simulation(scenario,
                           SimConfig.from_scenario(scenario, t_end=1.2))
    for key in ("event_resolves", "event_resolve_iterations"):
        assert short.diagnostics[key] == diag[key], key


def test_kcl_residual_within_tolerance(builtin_run):
    _, result, _ = builtin_run("smib")
    assert result.diagnostics["worst_residual"] <= 1e-10


def test_initialize_smib_residual_and_speed():
    scenario = build_builtin("smib")
    dae, z0 = initialize(scenario)
    f0, g0 = dae.fg(0.0, z0)
    assert max(np.max(np.abs(f0)), np.max(np.abs(g0))) <= 1e-8
    assert z0[dae.slices["G1"].start + 1] == pytest.approx(1.0)


def _smib_with_t1(dynamic, r):
    """smib with its machine transformer T1 given resistance r, and made a
    dynamic branch when dynamic."""
    scenario = build_builtin("smib")
    branches = tuple(replace(br, dynamic=dynamic, r=r) if br.id == "T1"
                     else br for br in scenario.branches)
    return replace(scenario, branches=branches).validate()


def test_dynamic_branch_at_machine_bus_initializes():
    """At t = 0 the dynamic-branch states are solved together with y, so
    smib with a dynamic T1 at the machine bus starts at an equilibrium
    (re-deriving them from the last pass's voltages diverged).  With a
    little resistance on T1, G1 and IB get the verdicts of a static T1."""
    dae, z0 = initialize(_smib_with_t1(True, 0.0))
    f0, g0 = dae.fg(0.0, z0)
    assert max(np.max(np.abs(f0)), np.max(np.abs(g0))) <= 1e-8
    verdicts = {}
    for dynamic in (False, True):
        result = run_simulation(_smib_with_t1(dynamic, 0.005))
        verdicts[dynamic] = [
            (verdict.bls.passed, verdict.als.passed)
            for verdict in (evaluate_device(result, dev, numeric_chi(result, dev))
                            for dev in ("G1", "IB"))]
    assert verdicts[True] == verdicts[False] == [(True, True), (True, True)]


def test_ideal_source_emf_is_the_power_flow_voltage():
    """gfl_seriescomp needs several initialization passes; the infinite
    bus keeps the slack voltage of its file exactly, not the noise of the
    later algebraic solves."""
    dae, _ = initialize(build_builtin("gfl_seriescomp"))
    source = next(a for a in dae.adapters if a.id == "IB")
    assert source.emf == 1.0 + 0.0j


@pytest.mark.parametrize("name", ["motor_condenser", "kundur",
                                  "gfl_seriescomp"])
def test_each_device_is_back_solved_once_per_pass(monkeypatch, name):
    """initialize back-solves every device with states once per algebraic
    pass, also the motor M1 that shares its bus with the condenser SC1 in
    motor_condenser, and over gfl_seriescomp's several passes."""
    counts, passes = {}, [0]
    build, solve = sim.build_adapters, sim.PowerSystemDae.solve_algebraic

    def counting_adapters(scenario):
        adapters = build(scenario)
        # only an adapter with states has an init
        for a in (a for a in adapters if hasattr(a, "init")):
            def counted(*args, a=a, init=a.init):
                counts[a.id] = counts.get(a.id, 0) + 1
                return init(*args)
            a.init = counted
        return adapters

    def counting_solve(self, *args, **kwargs):
        passes[0] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(sim, "build_adapters", counting_adapters)
    monkeypatch.setattr(sim.PowerSystemDae, "solve_algebraic", counting_solve)
    dae, _ = initialize(build_builtin(name))
    assert passes[0] >= (2 if name == "gfl_seriescomp" else 1)
    assert counts == {a.id: passes[0] for a in dae.stateful}


def test_every_init_gets_python_complex(monkeypatch):
    """initialize hands every device's init a Python complex bus voltage,
    and a voltage-setting device a Python complex injection, also where a
    PQ neighbour's injection was subtracted first (motor_condenser's SC1,
    sustained_oscillation's G1): sm_init rounds a numpy complex128
    differently."""
    seen = []
    build = sim.build_adapters

    def typed_adapters(scenario):
        adapters = build(scenario)
        for a in (a for a in adapters if hasattr(a, "init")):
            def typed(v_bus, s_dev, a=a, init=a.init):
                seen.append((a.id, a.kind, type(v_bus), type(s_dev)))
                return init(v_bus, s_dev)
            a.init = typed
        return adapters

    monkeypatch.setattr(sim, "build_adapters", typed_adapters)
    for name in builtin_names():
        scenario = build_builtin(name)
        if scenario.analytic is None:
            initialize(scenario)
    assert {"SC1", "G1", "M1"} <= {dev for dev, *_ in seen}
    for dev, kind, v_type, s_type in seen:
        assert v_type is complex, dev
        assert s_type is (complex if DECLARATIONS[kind].sets_voltage
                          else type(None)), dev


def test_initialize_kundur_tie_flow_matches_power_flow():
    scenario = build_builtin("kundur")
    from synchrolens.network import solve_power_flow
    from synchrolens.sim import build_adapters, power_flow_specs
    net = scenario.build_network()
    v_pf = solve_power_flow(net, power_flow_specs(
        net, build_adapters(scenario), scenario.slack_device))

    dae, z0 = initialize(scenario)
    v_init, _ = dae.unpack_y(z0[dae.n_x:])
    assert np.abs(v_init - v_pf).max() < 1e-6

    # tie flow leaving bus 7 over both circuits at the initial point (the
    # faulted circuit is pre-split, so sum the half-sections leaving B7)
    idx = net.bus_index
    tie = 0.0
    for br in net.branches:
        if (br.id.startswith("L79") or br.parent == "L79A") and br.from_bus == "B7":
            ys = 1.0 / complex(br.r, br.x)
            v_f, v_t = v_pf[idx[br.from_bus]], v_pf[idx[br.to_bus]]
            flow = v_f * np.conj((v_f - v_t) * ys + v_f * 0.5j * br.b)
            tie += flow.real
    assert 3.0 < tie < 4.5   # exporting area sends a few pu across the tie


def test_voltage_source_setpoint_is_taken_as_given():
    """An ideal source hands the power flow its v, theta and p unrounded
    (v*exp(j*theta) taken apart again returns v = 0.9599999999999999)."""
    spec = DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "B0",
                      {"v": 0.96, "theta": 0.3})
    assert VsrcAdapter(spec, 100.0, 377.0).pf_setpoint() == (0.96, 0.3, 0.0)


def test_motor_above_pullout_raises():
    scenario = build_builtin("motor_condenser")
    devices = tuple(replace(d, params={**d.params, "tau_m": 2.2})
                    if d.id == "M1" else d for d in scenario.devices)
    with pytest.raises(InitInfeasible):
        initialize(replace(scenario, devices=devices))


def test_disconnect_event_zeroes_current(builtin_run):
    _, result, _ = builtin_run("motor_condenser")
    k = result.event_samples[0]
    assert abs(result.currents["SC1"][k]) == 0.0
    assert abs(result.currents["SC1"][k - 1]) > 1e-3
    assert not result.active["SC1"][k:].any()
    # frozen states after the trip
    assert np.array_equal(result.states["SC1"][k], result.states["SC1"][-1])


def test_ideal_source_disconnect_zeroes_its_current():
    """smib's infinite bus disconnected at 1.5 s carries no current from
    then on, and the run goes on to its end with G1 alone."""
    scenario = build_builtin("smib")
    scenario = replace(scenario, events=scenario.events + (
        Event(1.5, EventKind.DISCONNECT_DEVICE, device="IB"),)).validate()
    result = run_simulation(scenario,
                            SimConfig.from_scenario(scenario, t_end=2.0))
    k = result.event_samples[-1]
    assert result.t[k] == 1.5 and result.t[-1] == pytest.approx(2.0)
    assert result.active["IB"][:k].all() and not result.active["IB"][k:].any()
    assert abs(result.currents["IB"][k - 1]) > 0.5
    assert not result.currents["IB"][k:].any()


@pytest.mark.parametrize("name", ["smib", "kundur", "motor_condenser",
                                  "gfl_seriescomp", "sustained_oscillation"])
def test_recorded_currents_equal_injections(builtin_run, name):
    """The recorder reuses the stepper's injections at the accepted iterate;
    they must be bitwise what each device's inj gives at the recorded
    states and voltages, handed over as the stepper hands them: a list of
    Python floats and a Python complex."""
    scenario, result, _ = builtin_run(name)
    dae, _ = initialize(scenario)
    for a in dae.adapters:
        if a.kind is DeviceKind.VOLTAGE_SOURCE:
            continue
        v = result.voltages[a.bus]
        states = result.states.get(a.id)
        for k in np.flatnonzero(result.active[a.id]):
            expected = a.inj(result.t[k],
                             None if states is None else states[k].tolist(),
                             complex(v[k]))
            got = result.currents[a.id][k]
            assert (got.real.tobytes(), got.imag.tobytes()) == (
                np.float64(expected.real).tobytes(),
                np.float64(expected.imag).tobytes()), (a.id, k)


# --- constant-impedance loads stamped into Y ---------------------------------


def _g_from_zip_polynomials(dae, t, z):
    """g rebuilt without stamps: the network's own Y and every active
    device's injection, each ZIP load's through zip_injection (for a DAE
    without dynamic branches and ideal sources)."""
    assert not dae.dyn_branches and not dae.vsrc
    v, _ = dae.unpack_y(z[dae.n_x:])
    mismatch = -assemble_y(dae.network) @ v
    for a in dae.adapters:
        if a.active:
            k = dae.network.bus_index[a.bus]
            if a.kind is DeviceKind.ZIP:
                mismatch[k] += zip_injection(a.params, complex(v[k]))
            else:
                mismatch[k] += a.fg(t, z[dae.slices[a.id]].tolist(),
                                    complex(v[k]))[1]
    mismatch[~dae.connected] = v[~dae.connected]
    return np.concatenate([mismatch.real, mismatch.imag])


def test_stamped_loads_match_zip_polynomials():
    """kundur's four constant-impedance loads are stamped into Y and left
    out of the device pass; fg's g matches g built from the unstamped Y and
    each load's zip_injection at the initial point and inside the fault."""
    scenario = build_builtin("kundur")
    config = SimConfig.from_scenario(scenario)
    dae, z = initialize(scenario, config)
    loads = ["Zload7", "Zcap7", "Zload9", "Zcap9"]
    assert [a.id for a, _ in dae._shunts] == loads
    assert not {a.id for a, _, _ in dae._device_info} & set(loads)
    _, g = dae.fg(0.0, z)
    assert np.abs(g - _g_from_zip_polynomials(dae, 0.0, z)).max() <= 1e-12
    fault = scenario.events[0]
    assert fault.kind is EventKind.APPLY_FAULT and fault.time == 1.0
    apply_event(dae.network, fault)
    dae.refresh_topology()
    z, _ = dae.solve_algebraic(1.0, z)
    stepper = TrapezoidalStepper(dae, config)
    for k in range(50):
        z, _ = stepper.step(1.0 + k * config.dt, z, config.dt)
    t = 1.0 + 50 * config.dt
    _, g = dae.fg(t, z)
    assert np.abs(g - _g_from_zip_polynomials(dae, t, z)).max() <= 1e-12


@pytest.mark.parametrize("shares", [
    {"k_zp": 1.0 - 1e-10, "k_pp": 1e-10},
    {"k_zp": 1.0, "k_pp": 0.5, "k_ip": -0.5},
    {"k_zq": 1.0, "k_pq": 5e-10},
], ids=["near-one", "negative-share", "tiny-q-share"])
def test_only_exact_impedance_shares_are_stamped(shares):
    """A load whose shares are not exactly (0, 0, 1) for both P and Q
    stays in the device pass on the zip_injection path: a share at most
    1e-9 off, which the share-sum check accepts, or k_zp = 1 next to a
    pair of shares that cancel, one of them negative."""
    scenario = build_builtin("kundur")
    devices = tuple(replace(d, params={**d.params, **shares})
                    if d.id == "Zload7" else d for d in scenario.devices)
    dae, z = initialize(replace(scenario, devices=devices))
    near = next(a for a in dae.adapters if a.id == "Zload7")
    assert near.y_shunt is None
    assert near in [a for a, _, _ in dae._device_info]
    assert [a.id for a, _ in dae._shunts] == ["Zcap7", "Zload9", "Zcap9"]
    v = complex(dae.unpack_y(z[dae.n_x:])[0][dae.network.bus_index["B7"]])
    assert near.inj(0.0, None, v) == zip_injection(near.params, v)


def test_disconnected_stamped_load_leaves_y(monkeypatch, tmp_path):
    """kundur with Zcap7 disconnected at the fault (t = 1 s) runs to
    t = 1.5 s with exit 0; from the event sample on Zcap7 records no
    current and inactive, and B7's diagonal of Y holds Zload7's shunt
    only."""
    base = build_builtin("kundur")
    trip = Event(1.0, EventKind.DISCONNECT_DEVICE, device="Zcap7")
    scenario = replace(base, t_end=1.5,
                       events=(base.events[0], trip, base.events[1]))
    path = tmp_path / "kundur.ini"
    path.write_text(serialize_scenario(scenario))
    daes, results = [], []

    def init(*args, initialize=sim.initialize, **kwargs):
        out = initialize(*args, **kwargs)
        daes.append(out[0])
        return out

    def run(*args, run_simulation=cli.run_simulation, **kwargs):
        results.append(run_simulation(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sim, "initialize", init)
    monkeypatch.setattr(cli, "run_simulation", run)
    assert cli.main(["run", "--file", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    (dae,), (result,) = daes, results
    k = result.event_samples[0]
    assert result.t[k] == 1.0
    current = result.currents["Zcap7"]
    assert abs(current[k - 1]) > 1.0
    assert not current[k:].any() and not result.active["Zcap7"][k:].any()
    assert result.active["Zcap7"][:k].all()
    assert [a.id for a, _ in dae._shunts] == ["Zload7", "Zload9", "Zcap9"]
    b7 = dae.network.bus_index["B7"]
    zload7 = next(a for a in dae.adapters if a.id == "Zload7")
    assert dae.y_mat[b7, b7] == assemble_y(dae.network)[b7, b7] + zload7.y_shunt


def test_dae_names_every_equation():
    """One name per row of [x; g], in that order."""
    scenario = build_builtin("gfl_seriescomp")
    dae, _ = initialize(scenario)
    assert len(dae.names) == len(set(dae.names)) == dae.n_x + dae.n_y
    assert dae.names[dae.slices["C1"].start + 5] == "C1:theta_pll"
    assert dae.names[dae.branch_slices["LC"].start + 2] == "dyn:LC:v_c.re"
    k = dae.network.bus_index["POC"]
    assert dae.names[dae.n_x + dae.n_bus + k] == "KCL:POC.im"
    assert dae.names[-1] == "vsrc:IB.im"


def test_newton_stall_names_equation_and_time():
    """A machine whose speed derivative jumps against its own sign at
    omega_r = 1 leaves the step without a root; the stall names the
    equation and the time."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=0.01)
    dae, z0 = initialize(scenario, config)
    g1 = next(a for a in dae.adapters if a.id == "G1")
    fg = g1.fg

    def kinked(t, states, v):
        d, i = fg(t, states, v)
        d[1] += -1e-3 if states[1] >= 1.0 else 1e-3
        return d, i

    g1.fg = kinked
    dae.last = None   # initialize's last evaluation used the unkinked fg
    with pytest.raises(NewtonDivergence) as info:
        TrapezoidalStepper(dae, config).step(0.0, z0, config.dt)
    exc = info.value
    assert dae.names[exc.worst_equation] == "G1:omega_r"
    assert "t=0.001000s" in str(exc) and "worst equation G1:omega_r" in str(exc)


def test_step_jacobian_singular_names_equation_and_time():
    """smib's KCL:HV.re row held at 1.0 gives the step Jacobian a zero row,
    which stops the step before its first iteration as a singular
    Jacobian, naming the time and that equation."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=0.01)
    dae, z0 = initialize(scenario, config)
    hv = dae.network.bus_index["HV"]
    fg = dae.fg

    def edited(t, z):
        f, g = fg(t, z)
        g[hv] = 1.0   # in place: the stepper reads g from dae.last
        return f, g

    dae.fg = edited
    dae.last = None   # initialize's last evaluation used the unedited fg
    stepper = TrapezoidalStepper(dae, config)
    with pytest.raises(NewtonDivergence) as info:
        stepper.step(0.0, z0, config.dt)
    exc = info.value
    assert isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert dae.names[exc.worst_equation] == "KCL:HV.re"
    assert str(exc) == ("Newton Jacobian singular at t=0.001000s; residual "
                        "1.000e+00, worst equation KCL:HV.re")
    assert stepper.stats["jacobian_builds"] == 1


def test_algebraic_resolve_failure_names_equation(monkeypatch):
    """The re-solve at fixed states shifts the worst g row into the [x; g]
    order of the name table and names it with the time."""
    scenario = build_builtin("smib")
    dae, z0 = initialize(scenario)

    def diverge(*args, **kwargs):
        raise NewtonDivergence("interface solve did not converge",
                               residual=1.0, worst_equation=dae.n_bus + 1)

    monkeypatch.setattr(sim, "interface_solve", diverge)
    with pytest.raises(NewtonDivergence) as info:
        dae.solve_algebraic(1.25, z0)
    assert info.value.worst_equation == dae.n_x + dae.n_bus + 1
    assert str(info.value) == ("interface solve did not converge "
                               "(at t=1.250000s), worst equation KCL:HV.im")


def test_solve_algebraic_leaves_its_start_unchanged():
    """solve_algebraic returns a new z, the point of dae.last, and writes
    nothing into the z it is given, also when it solves gfl_seriescomp's
    dynamic-branch states with y, as initialization does; the device
    states stay as given."""
    dae, z0 = initialize(build_builtin("gfl_seriescomp"))
    n_free = 4 * len(dae.dyn_branches)
    m = dae.n_x - n_free
    start = z0.copy()
    start[m:] *= 1.0 + 1e-3 * np.arange(start.size - m)
    given = start.copy()
    z, iterations = dae.solve_algebraic(0.0, start, n_free=n_free)
    assert iterations > 0 and z is not start and dae.last[1] is z
    assert start.tobytes() == given.tobytes()
    assert z[:m].tobytes() == given[:m].tobytes()
    assert np.abs(z[m:] - z0[m:]).max() < 1e-8


@pytest.mark.parametrize("name", ["kundur", "gfl_seriescomp", "motor_condenser",
                                  "sustained_oscillation"])
def test_stepper_samples_stay_python_numbers(name):
    """The residual hands every device a list of Python floats and a Python
    complex voltage, and gets back Python floats and complexes; fg keeps z's
    list, f and g as lists of Python floats.  A numpy scalar slipping in (a
    parameter, an initial value, a numpy call on the sample) keeps the
    results bitwise equal but makes each call several times slower, which
    only this check sees."""
    scenario = build_builtin(name)
    config = SimConfig.from_scenario(scenario, t_end=0.01)
    dae, z = initialize(scenario, config)
    seen = []
    for a in dae.stateful:
        def traced(t, states, v, fg=a.fg):
            d, i = fg(t, states, v)
            seen.append((states, v, d, i))
            return d, i
        a.fg = traced
    dae.last = None   # evaluate the first step instead of reusing initialize's
    stepper = TrapezoidalStepper(dae, config)
    for k in range(5):
        z, _ = stepper.step(k * config.dt, z, config.dt)
    assert seen
    for states, v, d, i in seen:
        assert type(states) is list and type(v) is complex
        assert {type(e) for e in states} == {float}
        assert type(d) is list and {type(e) for e in d} == {float}
        assert type(i) is complex
    assert dae.last[5] and {type(i) for i in dae.last[5]} == {complex}
    for values in dae.last[2:5]:
        assert type(values) is list and {type(e) for e in values} == {float}


# --- reuse of the accepted point's residual ---------------------------------


def _run_keeping_dae(monkeypatch, scenario, config=None, force_time_varying=False):
    """(result, dae) of one run; with force_time_varying every adapter
    claims to depend on t, so the stepper evaluates every residual."""
    built = []

    def build(sc, build_adapters=sim.build_adapters):
        adapters = build_adapters(sc)
        if force_time_varying:
            for a in adapters:
                a.time_varying = True
        return adapters

    def init(*args, initialize=sim.initialize, **kwargs):
        dae, z = initialize(*args, **kwargs)
        built.append(dae)
        return dae, z

    with monkeypatch.context() as m:
        m.setattr(sim, "build_adapters", build)
        m.setattr(sim, "initialize", init)
        result = run_simulation(scenario, config)
    if force_time_varying:
        assert built[0].time_varying
    return result, built[0]


def _assert_same_run(a, b):
    for name in ("t", "voltages", "currents", "states", "active"):
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, dict):
            assert left.keys() == right.keys()
            pairs = [(left[k], right[k]) for k in left]
        else:
            pairs = [(left, right)]
        for u, v in pairs:
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name
    assert a.events == b.events and a.event_samples == b.event_samples


@pytest.mark.parametrize("name", ["gfl_seriescomp", "motor_condenser", "smib"])
def test_residual_reuse_is_bitwise_invisible(monkeypatch, name):
    """Reusing the accepted point's (f, g) changes no recorded bit and no
    injection; it only saves fg calls, over 50,000 of them on
    gfl_seriescomp, which sits at its equilibrium from t = 5.27 s on."""
    scenario = build_builtin(name)
    reused, dae = _run_keeping_dae(monkeypatch, scenario)
    fresh, dae_fresh = _run_keeping_dae(monkeypatch, scenario,
                                        force_time_varying=True)
    assert not dae.time_varying
    _assert_same_run(reused, fresh)
    assert [(i.real.hex(), i.imag.hex()) for i in dae.last[5]] == [
        (i.real.hex(), i.imag.hex()) for i in dae_fresh.last[5]]
    saved = (fresh.diagnostics["residual_evaluations"]
             - reused.diagnostics["residual_evaluations"])
    for key in ("steps", "newton_iterations", "jacobian_builds",
                "max_step_iterations", "max_step_time", "worst_residual"):
        assert reused.diagnostics[key] == fresh.diagnostics[key], key
    assert saved > 0
    if name == "gfl_seriescomp":
        assert saved >= 50_000


def _count_fg(monkeypatch):
    """Counter of PowerSystemDae.fg calls, installed for the test."""
    calls = [0]
    fg = sim.PowerSystemDae.fg

    def counted(self, *args):
        calls[0] += 1
        return fg(self, *args)

    monkeypatch.setattr(sim.PowerSystemDae, "fg", counted)
    return calls


def test_time_varying_device_evaluates_every_residual(monkeypatch):
    """sustained_oscillation's torque modulation makes its machines depend
    on t, so forcing every adapter time-varying changes no fg call."""
    scenario = build_builtin("sustained_oscillation")
    config = SimConfig.from_scenario(scenario, t_end=2.0)
    calls = _count_fg(monkeypatch)
    _, dae = _run_keeping_dae(monkeypatch, scenario, config)
    plain = calls[0]
    calls[0] = 0
    _run_keeping_dae(monkeypatch, scenario, config, force_time_varying=True)
    assert dae.time_varying and plain == calls[0]
    held, _ = initialize(without_disturbances(scenario))
    assert not held.time_varying


def test_start_evaluation_is_reused_only_at_its_time():
    """A step of a time-varying system that starts at the point the DAE
    last evaluated, but at another time, evaluates f there again: from
    sustained_oscillation's initial point (evaluated at t = 0) a step at
    t = 0.137 s gives the bits of a step with nothing to reuse."""
    scenario = build_builtin("sustained_oscillation")
    config = SimConfig.from_scenario(scenario, t_end=1.0)
    dae, z0 = initialize(scenario, config)
    assert dae.time_varying and dae.last[0] == 0.0
    reused = TrapezoidalStepper(dae, config).step(0.137, z0, config.dt)
    dae.last = None
    fresh = TrapezoidalStepper(dae, config).step(0.137, z0, config.dt)
    assert reused[1] == fresh[1]
    assert reused[0].tobytes() == fresh[0].tobytes()


def test_first_step_after_event_evaluates_fg(monkeypatch):
    """The step that starts at smib's fault clearing takes f at its start
    and its first residual from the algebraic re-solve's last evaluation,
    which is at that point; the step after it, which starts where that one
    was accepted, reuses that step's last evaluation."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=1.2)
    calls = _count_fg(monkeypatch)
    per_step = {}
    step = TrapezoidalStepper.step

    def traced(self, t_old, z_old, dt):
        before, stats = calls[0], dict(self.stats)
        out = step(self, t_old, z_old, dt)
        n_z = self.dae.n_x + self.dae.n_y
        # fg calls beyond the iterations and the Jacobian columns
        per_step[round(t_old / dt)] = (
            calls[0] - before
            - (self.stats["newton_iterations"] - stats["newton_iterations"])
            - n_z * (self.stats["jacobian_builds"] - stats["jacobian_builds"]),
            self.stats["residual_evaluations"]
            - stats["residual_evaluations"] - (calls[0] - before))
        return out

    monkeypatch.setattr(TrapezoidalStepper, "step", traced)
    run_simulation(scenario, config)
    clear = 1120   # 1.12 s at dt = 1 ms
    assert per_step[clear] == (0, 0)       # the re-solve's evaluation
    assert per_step[clear + 1] == (0, 0)   # reused
    assert per_step[clear - 1] == (1, 0)   # the fault-on step iterates
    assert {extra for _, extra in per_step.values()} == {0}


def test_foreign_evaluation_costs_one_start_evaluation(monkeypatch):
    """An fg call at another point between two smib steps makes the next
    step evaluate fg at its own start again: one more stepper fg call for
    each of the step after the clearing (which starts at z_n and reuses
    its start's residual) and a predicted step at 1.5 s, and every
    recorded bit and every other counter as in an uninterrupted run."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=2.0)
    plain = run_simulation(scenario, config)
    step = TrapezoidalStepper.step
    interrupted = []

    def interrupting(self, t_old, z_old, dt):
        if round(t_old / dt) not in (1121, 1500):
            return step(self, t_old, z_old, dt)
        self.dae.fg(t_old, z_old + 1e-3)
        points = self.stats["predictor_points"]
        predicted = sum(points.values())
        out = step(self, t_old, z_old, dt)
        interrupted.append(sum(points.values()) - predicted)
        return out

    monkeypatch.setattr(TrapezoidalStepper, "step", interrupting)
    other = run_simulation(scenario, config)
    assert interrupted == [0, 1]
    _assert_same_run(plain, other)
    evaluations = plain.diagnostics["residual_evaluations"]
    assert other.diagnostics == {**plain.diagnostics,
                                 "residual_evaluations": evaluations + 2}


_FAST_FORWARD = TrapezoidalStepper.fast_forward


def _run_spying_fast_forward(monkeypatch, scenario, config, fast=True):
    """(result, stepper, steps each fast_forward call took) of one run; with
    fast false every call takes none, so every step is stepped."""
    calls, stepper = [], []

    def spied(self, m):
        stepper[:] = [self]
        calls.append(_FAST_FORWARD(self, m) if fast else 0)
        return calls[-1]

    monkeypatch.setattr(TrapezoidalStepper, "fast_forward", spied)
    result = run_simulation(scenario, config)
    return result, stepper[0], calls


def _assert_fast_forward_invisible(monkeypatch, scenario, config):
    """Fast-forwarding changes no recorded bit, no counter, no bit of the
    f of dae.last (the next step's f_old) and the stepper's predictor
    differences and no state of its length rule; returns (steps each
    fast_forward call took, the stepper)."""
    fast, stepper, calls = _run_spying_fast_forward(monkeypatch, scenario,
                                                    config)
    stepped, reference, _ = _run_spying_fast_forward(monkeypatch, scenario,
                                                     config, fast=False)
    assert sum(calls) > 0
    _assert_same_run(fast, stepped)
    assert fast.diagnostics == stepped.diagnostics
    assert ([v.hex() for v in stepper.dae.last[3]]
            == [v.hex() for v in reference.dae.last[3]])
    assert ([d.tobytes() for d in stepper._diffs]
            == [d.tobytes() for d in reference._diffs])
    assert stepper.length == reference.length
    return calls, stepper


@pytest.mark.parametrize("dec", [1, 7])
def test_fast_forward_is_bitwise_invisible(monkeypatch, dec):
    """smib holds its equilibrium for the pre-fault second, which is
    fast-forwarded up to the fault step; decimation 7 does not divide that
    step (1000), so the skipped slots end between samples."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=2.0,
                                     record_decimation=dec)
    calls, _ = _assert_fast_forward_invisible(monkeypatch, scenario, config)
    assert sum(calls) == 998


def test_accepted_step_hands_on_its_points_f(monkeypatch):
    """Every accepted smib step returns the z of dae.last and keeps that
    evaluation as the one it returned, so the next step takes its f as
    f_old: the very list, with the bits of a fresh evaluation there."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=2.0)
    step = TrapezoidalStepper.step
    checked = []

    def checking(self, t_old, z_old, dt):
        z, it = step(self, t_old, z_old, dt)
        dae = self.dae
        last = dae.last
        assert self._returned is last and last[1] is z
        f, _ = dae.fg(t_old + dt, z)
        dae.last = last
        checked.append([v.hex() for v in f] == [v.hex() for v in last[3]])
        return z, it

    monkeypatch.setattr(TrapezoidalStepper, "step", checking)
    run_simulation(scenario, config)
    assert len(checked) == 2000 - 998 and all(checked)


def test_held_tail_is_fast_forwarded_in_one_call(monkeypatch):
    """gfl_seriescomp is held from step 26,349 (t = 5.2698 s) on.  Its first
    held step leaves dae.last as it is, so one fast_forward call skips the
    rest of a run to 6 s or one step further, and leaves the f of dae.last
    and the differences with the bits of stepping every held step."""
    scenario = build_builtin("gfl_seriescomp")
    for t_end in (6.0, 6.0002):
        config = SimConfig.from_scenario(scenario, t_end=t_end)
        calls, stepper = _assert_fast_forward_invisible(monkeypatch, scenario,
                                                        config)
        n_steps = round(t_end / config.dt)
        assert [m for m in calls if m] == [4998, n_steps - 26349]
        assert stepper._held is True


def test_time_varying_run_never_fast_forwards(monkeypatch):
    """sustained_oscillation's machines depend on t, so no step reuses its
    start's residual, none is held and none is skipped."""
    scenario = build_builtin("sustained_oscillation")
    config = SimConfig.from_scenario(scenario, t_end=2.0)
    result, stepper, calls = _run_spying_fast_forward(monkeypatch, scenario,
                                                      config)
    assert len(calls) == result.diagnostics["steps"] == 2000
    assert not any(calls) and stepper._held is False


def test_recorder_flushes_in_blocks(monkeypatch):
    """The pending samples never outgrow Recorder.BLOCK, and blocks of 5
    record the bits of the default blocks."""
    scenario = build_builtin("smib")
    config = SimConfig.from_scenario(scenario, t_end=2.0)
    sizes = []
    flush = sim.Recorder.flush

    def spied(self):
        sizes.append(len(self.pending))
        flush(self)

    monkeypatch.setattr(sim.Recorder, "flush", spied)
    default = run_simulation(scenario, config)
    assert max(sizes) == sim.Recorder.BLOCK
    sizes.clear()
    monkeypatch.setattr(sim.Recorder, "BLOCK", 5)
    small = run_simulation(scenario, config)
    assert max(sizes) == 5 and sizes.count(5) > 100
    _assert_same_run(default, small)
