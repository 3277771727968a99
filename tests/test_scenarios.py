"""Scenario construction, the file grammar and the analytic circuit."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import exact_voltage_cf, gfm_probe_scenario, without_disturbances
from synchrolens.cf import cf_arrays
from synchrolens.errors import (ParamDomain, ParseError, SchemaError,
                                UnknownScenario)
from synchrolens.network import EventKind
from synchrolens.scenarios import (build_builtin, builtin_names, cct_sweep,
                                   circuit_dc_waveforms, load_scenario,
                                   run_analytic, serialize_scenario,
                                   with_clearing_time)
from synchrolens.sim import SimConfig, initialize, run_simulation

OMEGA_B = 2.0 * np.pi * 60.0


def test_six_builtins():
    assert len(builtin_names()) == 6
    with pytest.raises(UnknownScenario):
        build_builtin("nope")


def test_builtin_contents_smib():
    sc = build_builtin("smib")
    kinds = {d.id: d.kind.value for d in sc.devices}
    assert kinds == {"G1": "sm2", "IB": "voltage_source"}
    fault = [e for e in sc.events if e.kind is EventKind.APPLY_FAULT]
    clear = [e for e in sc.events if e.kind is EventKind.CLEAR_FAULT]
    assert fault[0].time == 1.0 and fault[0].branch == "L2"
    assert clear[0].time == 1.12 and clear[0].open_branch
    assert len([b for b in sc.branches if b.id in ("L1", "L2")]) == 2


def test_builtin_contents_kundur():
    sc = build_builtin("kundur")
    machines = [d for d in sc.devices if d.kind.value == "sm4"]
    zips = [d for d in sc.devices if d.kind.value == "zip"]
    assert len(machines) == 4 and len(zips) == 4
    clear = [e for e in sc.events if e.kind is EventKind.CLEAR_FAULT][0]
    assert clear.time - 1.0 == pytest.approx(0.12)


def test_builtin_contents_motor():
    sc = build_builtin("motor_condenser")
    device = {d.id: d for d in sc.devices}
    motor = device["M1"]
    assert motor.params["tau_m"] == 0.9
    trip = sc.events[0]
    assert trip.kind is EventKind.DISCONNECT_DEVICE and trip.time == 1.0
    condenser = device["SC1"]
    assert condenser.params["v"] == 1.0 and "avr_kp" in condenser.params


def test_round_trip_all_builtins():
    for name in builtin_names():
        scenario = build_builtin(name)
        assert load_scenario(serialize_scenario(scenario)) == scenario


def test_round_trip_numpy_floats():
    """validate accepts numpy floats, in a device parameter, a branch field
    and the step; the file form holds them as plain numbers."""
    sc = build_builtin("smib")
    devices = tuple(replace(d, params={**d.params, "m": np.float64(3.0)})
                    if d.id == "G1" else d for d in sc.devices)
    branches = tuple(replace(br, x=np.float64(br.x)) for br in sc.branches)
    sc = replace(sc, devices=devices, branches=branches,
                 dt=np.float64(sc.dt)).validate()
    text = serialize_scenario(sc)
    assert "np." not in text
    assert load_scenario(text) == sc


def test_schema_device_on_unknown_bus():
    text = """
[system]
name = bad
slack_device = S

[bus.B1]

[device.S]
kind = voltage_source
bus = B2
v = 1.0
"""
    with pytest.raises(SchemaError) as err:
        load_scenario(text)
    assert "B2" in str(err.value)


def test_schema_duplicate_event():
    sc = build_builtin("smib")
    text = serialize_scenario(sc)
    dup = text + """
[event.3]
t = 1.0
kind = apply_fault
branch = L2
"""
    with pytest.raises(SchemaError):
        load_scenario(dup)


def test_strict_unknown_key():
    sc = build_builtin("smib")
    text = serialize_scenario(sc).replace("[sim]", "[sim]\nbogus_key = 1")
    with pytest.raises(SchemaError):
        load_scenario(text)


@pytest.mark.parametrize("old, new", [
    ("analytic = circuit_dc", "analytic = circuit_ac"),
    ("b = 0.0", "b = 0.5"),
])
def test_circuit_dc_rules_checked_at_load(old, new):
    """load_scenario rejects an unknown analytic kind and a circuit_dc
    branch whose charging the closed form would ignore, before any run."""
    text = serialize_scenario(build_builtin("circuit_dc"))
    assert text.count(old) == 1
    with pytest.raises(SchemaError):
        load_scenario(text.replace(old, new))


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        load_scenario("[system]\nname bad-line\n")
    assert err.value.line == 2


def test_validate_rejects_parameters_outside_the_kind():
    """A scenario built in code is held to its device kinds' parameter keys
    as a file is: a misspelled key on kundur's G2 is rejected, not run with
    the default in its place, and several are named in sorted order."""
    from dataclasses import replace
    sc = build_builtin("kundur")

    def with_g2_params(**extra):
        return replace(sc, devices=tuple(
            replace(d, params={**d.params, **extra}) if d.id == "G2" else d
            for d in sc.devices))

    with pytest.raises(SchemaError) as err:
        with_g2_params(x1d=0.3).validate()
    assert str(err.value) == "G2: unknown parameter 'x1d' for kind sm4"
    with pytest.raises(SchemaError) as err:
        with_g2_params(zeta=1.0, alpha=2.0).validate()
    assert str(err.value) == ("G2: unknown parameters 'alpha', 'zeta' for "
                              "kind sm4")


def _with_params(scenario, device, **params):
    """The scenario with params laid over device's given parameters."""
    return replace(scenario, devices=tuple(
        replace(d, params={**d.params, **params}) if d.id == device else d
        for d in scenario.devices))


@pytest.mark.parametrize("name, device, key, value, reason", [
    ("kundur", "G1", "x_d", 0.1, "d-axis reactances must satisfy"),
    ("gfl_seriescomp", "C1", "v_dc0", 0.0, "dc-link voltage must be positive"),
])
def test_validate_runs_the_domain_check(name, device, key, value, reason):
    """A scenario built in code is held to its models' parameter domains
    by validate, with the check the run makes, before any power flow."""
    scenario = _with_params(build_builtin(name), device, **{key: value})
    with pytest.raises(ParamDomain) as err:
        scenario.validate()
    assert str(err.value).startswith(f"{device}: {reason}")


@pytest.mark.parametrize("name, device, key, value", [
    ("smib", "G1", "d", "5"),
    ("smib", "G1", "d", float("nan")),
    ("gfm_probe", "F1", "t_p", None),
])
def test_validate_rejects_a_value_that_is_not_a_finite_real(name, device, key,
                                                           value):
    """A given parameter of a scenario built in code is a finite int or
    float, as a file's is: a string would fail inside the model, a NaN stall
    Newton, and a None be written out as a file that does not load."""
    base = gfm_probe_scenario() if name == "gfm_probe" else build_builtin(name)
    with pytest.raises(SchemaError) as err:
        _with_params(base, device, **{key: value}).validate()
    assert str(err.value).startswith(f"{device}: parameter {key!r} ")


def test_unknown_device_kind():
    text = """
[system]
name = bad

[bus.B1]

[device.X]
kind = flux_capacitor
bus = B1
"""
    with pytest.raises(SchemaError):
        load_scenario(text)


def test_event_off_grid_rejected():
    sc = build_builtin("smib")
    text = serialize_scenario(sc).replace("t = 1.12", "t = 1.1205")
    with pytest.raises(SchemaError):
        load_scenario(text)


# --- analytic circuit --------------------------------------------------------


def test_circuit_voltage_source_only_pure_synchronous():
    from dataclasses import replace
    sc = build_builtin("circuit_dc")
    devices = tuple(replace(d, params={**d.params, "i_mag": 0.0})
                    if d.id == "CS" else d for d in sc.devices)
    quiet = replace(sc, devices=devices)
    result = run_analytic(quiet)
    rho, omega = cf_arrays(result.voltages["INJ"], result.dt,
                           result.frame_omega, result.omega_b)
    assert np.abs(rho).max() < 1e-12
    assert np.abs(omega - 1.0).max() < 1e-12
    # the source current is identically zero: chi is masked, not a failure
    from synchrolens.synccheck import numeric_chi
    chi = numeric_chi(result, "CS")
    assert not chi.mask.any()


def test_circuit_waveforms_satisfy_branch_kvl():
    """Closed form re-substituted into the series-branch dynamics, <= 1e-12."""
    sc = build_builtin("circuit_dc")
    branch = sc.branches[0]
    t, v1, v2, i_cs, i_vs = circuit_dc_waveforms(sc, 1e-4, 0.5)
    i_branch = -i_cs      # source side to injection side carries -i_cs
    di = 1j * OMEGA_B * i_cs   # d/dt of -I*exp(-j w t), exact
    # KVL of an r-L branch in the rotating frame
    resid = v1 - v2 - (branch.r + 1j * branch.x) * i_branch \
        - (branch.x / OMEGA_B) * di
    assert np.abs(resid).max() < 1e-12
    # KCL at the injection bus: branch current carries the whole injection
    assert np.abs(i_cs + i_vs).max() < 1e-15


def test_circuit_exact_cf_matches_sampled():
    sc = build_builtin("circuit_dc")
    result = run_analytic(sc)
    rho, omega = cf_arrays(result.voltages["INJ"], result.dt,
                           result.frame_omega, result.omega_b)
    rho_x, omega_x = exact_voltage_cf(sc, result.t)
    assert np.abs(rho - rho_x).max() < 10 * result.dt ** 2
    assert np.abs(omega - omega_x).max() < 10 * result.dt ** 2


# --- sweeps ------------------------------------------------------------------


def test_sweep_range_below_boundary_all_pass():
    sc = build_builtin("smib")
    out = cct_sweep(sc, 1.05, 1.06, 0.01)
    assert all(p.als_pass for p in out.points)
    assert out.first_failing is None


def test_sweep_range_above_boundary_all_fail():
    sc = build_builtin("smib")
    out = cct_sweep(sc, 1.20, 1.21, 0.01)
    assert all(p.als_pass is False for p in out.points)
    assert out.last_passing is None


def test_sweep_needs_fault_pair():
    with pytest.raises(SchemaError):
        cct_sweep(build_builtin("sustained_oscillation"), 1.0, 1.1, 0.05)
    with pytest.raises(SchemaError):
        with_clearing_time(build_builtin("smib"), 0.5)


def test_equilibrium_hold_all_builtins():
    """Disturbance-free variants stay at their initial point for 10 s."""
    for name in builtin_names():
        scenario = build_builtin(name)
        if scenario.analytic is not None:
            continue
        quiet = without_disturbances(scenario)
        config = SimConfig(dt=1e-3, t_end=10.0)
        result = run_simulation(quiet, config)
        for dev, states in result.states.items():
            drift = np.max(np.abs(states - states[0]))
            assert drift <= 1e-9, (name, dev, drift)
        for bus, volts in result.voltages.items():
            assert np.abs(volts - volts[0]).max() <= 1e-9, (name, bus)


def test_initialize_residual_all_builtins():
    for name in builtin_names():
        scenario = build_builtin(name)
        if scenario.analytic is not None:
            continue
        dae, z0 = initialize(scenario)
        f0, g0 = dae.fg(0.0, z0)
        resid = max(np.max(np.abs(f0)) if len(f0) else 0.0,
                    np.max(np.abs(g0)))
        assert resid <= 1e-8, (name, resid)


def test_record_decimation_thins_uniformly():
    from dataclasses import replace
    sc = replace(build_builtin("smib"), record_decimation=5, t_end=2.0)
    result = run_simulation(sc)
    assert result.dt == pytest.approx(5e-3)
    assert np.allclose(np.diff(result.t), 5e-3)
    assert len(result.t) == int(round(2.0 / 1e-3)) // 5 + 1


def test_fault_on_dynamic_branch_rejected():
    from dataclasses import replace
    from synchrolens.network import Event, EventKind
    sc = build_builtin("gfl_seriescomp")
    events = tuple(replace(e, branch="LC") for e in sc.events)
    with pytest.raises(SchemaError):
        replace(sc, events=events).validate()
