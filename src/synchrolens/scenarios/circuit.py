"""Closed-form generator for the DC-injection circuit study.

An ideal nominal-frequency source feeds a bus through an r + jx branch; a
current source injects a current that is constant in the stationary frame,
i.e. a Park vector rotating at -1 pu in the synchronous frame.  Superposing
the two single-frequency responses gives the exact bus voltage: the source
tone sees no load current, and the stationary tone sees only the branch
resistance (the inductor drops nothing at zero stationary frequency).

The circuit is linear, so the sampled waveforms are exact; no integration is
involved and the admittance CF of the current source can be cross-checked
against a symbolic oracle (the tests' ``exact_voltage_cf``).
"""

from __future__ import annotations

import numpy as np

from ..devices import DeviceKind
from ..errors import ParamDomain, SchemaError
from .model import Scenario

ANALYTIC_KIND = "circuit_dc"


def circuit_elements(scenario: Scenario):
    """(EMF, I_dc, branch) extracted from a circuit_dc scenario; SchemaError
    for another analytic kind and for what the closed form would ignore:
    line charging, a tap, a dynamic branch or an event."""
    if scenario.analytic != ANALYTIC_KIND:
        raise SchemaError(f"unsupported analytic scenario {scenario.analytic!r}")
    vs = [d for d in scenario.devices if d.kind is DeviceKind.VOLTAGE_SOURCE]
    cs = [d for d in scenario.devices if d.kind is DeviceKind.DC_CURRENT_SOURCE]
    if len(vs) != 1 or len(cs) != 1 or len(scenario.branches) != 1:
        raise SchemaError("circuit_dc needs one voltage source, one DC current "
                          "source and one branch")
    branch = scenario.branches[0]
    if {branch.from_bus, branch.to_bus} != {vs[0].bus, cs[0].bus}:
        raise SchemaError("circuit_dc branch must join the two source buses")
    if branch.b != 0.0 or branch.tap != 1.0 or branch.dynamic:
        raise SchemaError("circuit_dc takes a static branch with b = 0 and "
                          f"tap = 1, got b = {branch.b!r}, tap = {branch.tap!r}"
                          f", dynamic = {branch.dynamic!r}", element=branch.id)
    if scenario.events:
        ev = scenario.events[0]
        raise SchemaError("circuit_dc takes no events",
                          element=f"{ev.kind.value} at t={ev.time!r}")
    v, c = vs[0].values(), cs[0].values()
    emf = v["v"] * np.exp(1j * v["theta"])
    i_dc = c["i_mag"] * np.exp(1j * c["phase"])
    if branch.x <= 0.0:
        raise ParamDomain("circuit branch needs positive reactance")
    return emf, i_dc, branch, vs[0], cs[0]


def circuit_dc_waveforms(scenario: Scenario, dt: float, t_end: float,
                         decimation: int = 1):
    """(times, v_source_bus, v_injection_bus, i_source, i_injection) at
    every decimation-th step of dt."""
    emf, i_dc, branch, _, _ = circuit_elements(scenario)
    omega_b = 2.0 * np.pi * scenario.f_nom
    t = dt * np.arange(0, int(round(t_end / dt)) + 1, decimation)
    rot = np.exp(-1j * omega_b * t)
    v1 = np.full_like(rot, emf)
    v2 = emf + branch.r * i_dc * rot
    i_cs = i_dc * rot
    i_vs = -i_dc * rot
    return t, v1, v2, i_cs, i_vs


def run_analytic(scenario: Scenario, config=None):
    """SimResult built from the closed form of a validated circuit_dc
    scenario (run_simulation dispatch target)."""
    from ..sim import SimConfig, SimResult

    config = config or SimConfig.from_scenario(scenario)
    _, _, branch, vs, cs = circuit_elements(scenario)
    dec = config.record_decimation
    t, v1, v2, i_cs, i_vs = circuit_dc_waveforms(scenario, config.dt,
                                                 config.t_end, dec)
    n = len(t)
    return SimResult(
        scenario_name=scenario.name,
        t=t,
        dt=config.dt * dec,
        omega_b=2.0 * np.pi * scenario.f_nom,
        voltages={vs.bus: v1, cs.bus: v2},
        currents={vs.id: i_vs, cs.id: i_cs},
        states={},
        state_names={},
        active={vs.id: np.ones(n, dtype=bool), cs.id: np.ones(n, dtype=bool)},
        device_bus={vs.id: vs.bus, cs.id: cs.bus},
        device_kind={vs.id: vs.kind, cs.id: cs.kind},
        events=[],
        event_samples=[],
        diagnostics={"closed_form": True},
    )
