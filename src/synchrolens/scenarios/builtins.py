"""Built-in study cases.

Numeric parameters the source material leaves open (machine constants, line
impedances, loadings) are standard published values or were calibrated so
the documented qualitative behavior is robust at the default step size; the
stated disturbance facts (fault instants, clearing times, torque levels) are
honored exactly.
"""

from __future__ import annotations

from ..devices import DeviceKind
from ..errors import UnknownScenario
from ..network import Branch, Bus, Event, EventKind
from .circuit import ANALYTIC_KIND
from .model import DeviceSpec, Scenario

BUILTIN_NAMES = ("circuit_dc", "smib", "kundur", "motor_condenser",
                 "gfl_seriescomp", "sustained_oscillation")

_DESCRIPTIONS = {
    "circuit_dc": "stationary current injection against a nominal-frequency "
                  "grid: bounded waveforms, no average power, chi stuck near "
                  "1 pu (stable but never locally synchronous)",
    "smib": "classical machine vs infinite bus; fault on one of two parallel "
            "lines cleared by opening it (clearing-time dichotomy)",
    "kundur": "two-area four-machine system; tie-line fault separates the "
              "areas while every device stays locally synchronous",
    "motor_condenser": "induction motor whose condenser trips: rides through "
                       "at 0.9 pu torque, stalls at 1.0 pu",
    "gfl_seriescomp": "grid-following converter behind a series-compensated "
                      "weak line: poorly damped resonance after fault "
                      "clearing, eventual local synchronization",
    "sustained_oscillation": "bounded forced oscillation (torque modulation) "
                             "that never satisfies bounded local "
                             "synchronization at tight tolerance",
}


def builtin_names():
    return BUILTIN_NAMES


def builtin_description(name):
    return _DESCRIPTIONS[name]


def build_builtin(name: str) -> Scenario:
    """Fully parameterized built-in scenario by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownScenario(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return builder().validate()


def _circuit_dc() -> Scenario:
    # branch resistance and injection level keep the stationary-tone voltage
    # ripple small (clean differentiation) and the average power negligible
    return Scenario(
        name="circuit_dc",
        buses=(Bus("SRC"), Bus("INJ")),
        branches=(Branch("Z1", "SRC", "INJ", 0.001, 0.3),),
        devices=(
            DeviceSpec("VS", DeviceKind.VOLTAGE_SOURCE, "SRC",
                       {"v": 1.0, "theta": 0.0}),
            DeviceSpec("CS", DeviceKind.DC_CURRENT_SOURCE, "INJ",
                       {"i_mag": 0.1, "phase": 0.0}),
        ),
        slack_device="VS",
        analytic=ANALYTIC_KIND,
        t_end=5.0,
        monitored=("CS",),
    )


def _smib() -> Scenario:
    # classical machine: H = 1.5 s on its own base; damping sized so the
    # post-clearing swing settles below 1e-4 within the run, loading sized so
    # the clearing-time boundary falls in (1.127, 1.128) s, inside the
    # (1.12, 1.13) s interval of the 0.01 s sweep grid
    return Scenario(
        name="smib",
        buses=(Bus("GEN"), Bus("HV"), Bus("GRID")),
        branches=(
            Branch("T1", "GEN", "HV", 0.0, 0.15),
            Branch("L1", "HV", "GRID", 0.0, 0.5),
            Branch("L2", "HV", "GRID", 0.0, 0.5),
        ),
        devices=(
            DeviceSpec("G1", DeviceKind.SM2, "GEN",
                       {"x1_d": 0.3, "m": 3.0, "d": 5.0, "p": 0.93, "v": 1.0}),
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "GRID",
                       {"v": 0.96, "theta": 0.0}),
        ),
        events=(
            Event(1.0, EventKind.APPLY_FAULT, branch="L2"),
            Event(1.12, EventKind.CLEAR_FAULT, branch="L2", open_branch=True),
        ),
        slack_device="IB",
        t_end=12.0,
        monitored=("G1",),
    )


def _kundur() -> Scenario:
    # classic two-area data on 100 MVA / 900 MVA bases; the 7-9 corridor is
    # the double-circuit tie (220 km per circuit); lumped damping D = 12
    # stands in for the absent governors so the separated areas settle
    def sm(p, v, m):
        return {"r_s": 0.0025, "x_d": 1.8, "x_q": 1.7, "x1_d": 0.3,
                "x1_q": 0.55, "x_l": 0.2, "t1_d0": 8.0, "t1_q0": 0.4,
                "m": m, "d": 12.0, "p": p, "v": v}

    buses = tuple(Bus(f"B{k}") for k in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11))
    branches = (
        Branch("T1", "B1", "B5", 0.0, 0.15 / 9.0),
        Branch("T2", "B2", "B6", 0.0, 0.15 / 9.0),
        Branch("T3", "B3", "B11", 0.0, 0.15 / 9.0),
        Branch("T4", "B4", "B10", 0.0, 0.15 / 9.0),
        Branch("L56", "B5", "B6", 0.0025, 0.025, 0.04375),
        Branch("L67", "B6", "B7", 0.001, 0.01, 0.0175),
        Branch("L79A", "B7", "B9", 0.022, 0.22, 0.385),
        Branch("L79B", "B7", "B9", 0.022, 0.22, 0.385),
        Branch("L910", "B9", "B10", 0.001, 0.01, 0.0175),
        Branch("L1011", "B10", "B11", 0.0025, 0.025, 0.04375),
    )
    devices = (
        DeviceSpec("G1", DeviceKind.SM4, "B1", sm(7.0, 1.03, 13.0), base_mva=900.0),
        DeviceSpec("G2", DeviceKind.SM4, "B2", sm(7.0, 1.01, 13.0), base_mva=900.0),
        DeviceSpec("G3", DeviceKind.SM4, "B3", sm(0.0, 1.03, 12.35), base_mva=900.0),
        DeviceSpec("G4", DeviceKind.SM4, "B4", sm(7.0, 1.01, 12.35), base_mva=900.0),
        DeviceSpec("Zload7", DeviceKind.ZIP, "B7", {"p0": 10.0, "q0": 1.0}),
        DeviceSpec("Zcap7", DeviceKind.ZIP, "B7", {"p0": 0.0, "q0": -2.0}),
        DeviceSpec("Zload9", DeviceKind.ZIP, "B9", {"p0": 17.34, "q0": 1.0}),
        DeviceSpec("Zcap9", DeviceKind.ZIP, "B9", {"p0": 0.0, "q0": -3.5}),
    )
    events = (
        Event(1.0, EventKind.APPLY_FAULT, branch="L79A"),
        Event(1.12, EventKind.CLEAR_FAULT, branch="L79A", open_branch=True),
    )
    return Scenario("kundur", buses, branches, devices, events,
                    slack_device="G3", t_end=20.0,
                    monitored=("G1", "G2", "G3", "G4"))


def _motor_condenser() -> Scenario:
    # the run is cut at 5.5 s so the stall-case divergence (which fades once
    # the slip runs deep) still dominates the verdict tail
    return Scenario(
        name="motor_condenser",
        buses=(Bus("GRID"), Bus("MOTOR")),
        branches=(Branch("T1", "GRID", "MOTOR", 0.01, 0.2),),
        devices=(
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "GRID",
                       {"v": 1.0, "theta": 0.0}),
            DeviceSpec("M1", DeviceKind.INDUCTION_MOTOR, "MOTOR",
                       {"r_s": 0.01, "x_s": 0.1, "r_r1": 0.02, "x_r1": 0.18,
                        "x_mu": 3.0, "h_m": 0.6, "tau_m": 0.9}),
            DeviceSpec("SC1", DeviceKind.SM4, "MOTOR",
                       {"r_s": 0.0, "x_d": 1.8, "x_q": 1.7, "x1_d": 0.3,
                        "x1_q": 0.55, "x_l": 0.2, "t1_d0": 8.0, "t1_q0": 0.4,
                        "m": 4.0, "d": 2.0, "p": 0.0, "v": 1.0,
                        "avr_kp": 20.0, "avr_ki": 5.0}),
        ),
        events=(Event(1.0, EventKind.DISCONNECT_DEVICE, device="SC1"),),
        slack_device="IB",
        t_end=5.5,
        monitored=("M1",),
    )


def _gfl_seriescomp() -> Scenario:
    # current-loop gain calibrated for a per-cycle decay ratio near 0.93
    # after the line opens (poorly damped sub/super-synchronous ringing);
    # the fault is high-impedance so the admittance CF stays resolvable at
    # the 0.2 ms step this scenario runs at
    return Scenario(
        name="gfl_seriescomp",
        buses=(Bus("GRID"), Bus("POC")),
        branches=(
            Branch("LC", "GRID", "POC", 0.06, 0.6, dynamic=True, x_c=0.35),
            Branch("L2", "GRID", "POC", 0.01, 0.3),
        ),
        devices=(
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "GRID",
                       {"v": 1.0, "theta": 0.0}),
            DeviceSpec("C1", DeviceKind.GFL_IBR, "POC",
                       {"k_p": 0.2, "k_i": 16.0, "t_m": 0.002,
                        "k_p_pll": 0.5, "k_i_pll": 20.0, "v_dc0": 2.0,
                        "z_f_r": 0.005, "z_f_x": 0.15, "y_f_b": 0.05,
                        "i_dref": 0.5, "i_qref": 0.05}),
        ),
        events=(
            Event(1.0, EventKind.APPLY_FAULT, branch="L2", y_fault=-2.0j),
            Event(1.1, EventKind.CLEAR_FAULT, branch="L2", open_branch=True),
        ),
        slack_device="IB",
        dt=2e-4,
        t_end=15.0,
        monitored=("C1",),
    )


def _sustained_oscillation() -> Scenario:
    # bounded forced response: a 5 percent torque modulation above the swing
    # frequency keeps chi oscillating with a flat envelope forever
    return Scenario(
        name="sustained_oscillation",
        buses=(Bus("GRID"), Bus("GEN")),
        branches=(Branch("L1", "GRID", "GEN", 0.01, 0.4),),
        devices=(
            DeviceSpec("GS", DeviceKind.SM2, "GRID",
                       {"x1_d": 0.25, "m": 50.0, "d": 50.0, "v": 1.0}),
            DeviceSpec("G1", DeviceKind.SM2, "GEN",
                       {"x1_d": 0.3, "m": 7.0, "d": 8.0, "p": 0.6, "v": 1.0,
                        "tau_mod_amp": 0.05, "tau_mod_hz": 2.0}),
            DeviceSpec("Zload", DeviceKind.ZIP, "GEN", {"p0": 0.8, "q0": 0.2}),
        ),
        slack_device="GS",
        t_end=20.0,
        monitored=("G1",),
    )


_BUILDERS = {
    "circuit_dc": _circuit_dc,
    "smib": _smib,
    "kundur": _kundur,
    "motor_condenser": _motor_condenser,
    "gfl_seriescomp": _gfl_seriescomp,
    "sustained_oscillation": _sustained_oscillation,
}
