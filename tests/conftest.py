"""Shared fixtures: cached scenario runs reused across the suite."""

import time
from dataclasses import replace

import pytest

from helpers import gfm_probe_scenario
from synchrolens.devices import DeviceKind
from synchrolens.network import Branch, Bus, Event, EventKind
from synchrolens.scenarios import DeviceSpec, Scenario, build_builtin, with_clearing_time
from synchrolens.sim import run_simulation

_CACHE = {}


def _cached_run(key, scenario):
    if key not in _CACHE:
        t0 = time.perf_counter()
        result = run_simulation(scenario)
        _CACHE[key] = (scenario, result, time.perf_counter() - t0)
    return _CACHE[key]


@pytest.fixture(scope="session")
def builtin_run():
    """builtin_run(name) -> (scenario, result, wall_seconds), cached."""
    def factory(name):
        return _cached_run(("builtin", name), build_builtin(name))
    return factory


@pytest.fixture(scope="session")
def smib_failing_run():
    scenario = with_clearing_time(build_builtin("smib"), 1.13)
    return _cached_run(("smib", 1.13), scenario)


@pytest.fixture(scope="session")
def motor_stall_run():
    base = build_builtin("motor_condenser")
    devices = tuple(
        replace(d, params={**d.params, "tau_m": 1.0}) if d.id == "M1" else d
        for d in base.devices
    )
    scenario = replace(base, devices=devices, name="motor_condenser_stall")
    return _cached_run(("motor", 1.0), scenario)


def zip_probe_scenario():
    """Machine swing exciting rho at three buses carrying pure Z, I, P loads."""
    return Scenario(
        name="zip_probe",
        buses=(Bus("B0"), Bus("B1"), Bus("B2"), Bus("B3")),
        branches=(
            Branch("LA", "B0", "B1", 0.0, 0.3),
            Branch("LB", "B0", "B1", 0.0, 0.3),
            Branch("L12", "B1", "B2", 0.01, 0.2),
            Branch("L23", "B2", "B3", 0.01, 0.2),
        ),
        devices=(
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "B0",
                       {"v": 1.0, "theta": 0.0}),
            DeviceSpec("G1", DeviceKind.SM2, "B1",
                       {"x1_d": 0.3, "m": 4.0, "d": 3.0, "p": 0.5, "v": 1.02}),
            DeviceSpec("Zl", DeviceKind.ZIP, "B1",
                       {"p0": 0.3, "q0": 0.05, "k_zp": 1.0, "k_zq": 1.0}),
            DeviceSpec("Il", DeviceKind.ZIP, "B2",
                       {"p0": 0.3, "q0": 0.05, "k_zp": 0.0, "k_ip": 1.0,
                        "k_zq": 0.0, "k_iq": 1.0}),
            DeviceSpec("Pl", DeviceKind.ZIP, "B3",
                       {"p0": 0.3, "q0": 0.05, "k_zp": 0.0, "k_pp": 1.0,
                        "k_zq": 0.0, "k_pq": 1.0}),
        ),
        events=(Event(1.0, EventKind.OPEN_BRANCH, branch="LB"),),
        slack_device="IB",
        t_end=6.0,
    ).validate()


@pytest.fixture(scope="session")
def zip_probe_run():
    return _cached_run(("zip_probe",), zip_probe_scenario())


@pytest.fixture(scope="session")
def gfm_probe_run():
    return _cached_run(("gfm_probe",), gfm_probe_scenario())
