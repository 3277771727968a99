"""CLI surface: files, determinism, exit codes, report schema."""

import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import gfm_probe_scenario
from synchrolens import errors, sim
from synchrolens.cli import main
from synchrolens.errors import NewtonDivergence
from synchrolens.scenarios import build_builtin, serialize_scenario
from synchrolens.synccheck import ORACLE_RMS_TOL


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def smib_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_smib")
    code = run_cli("run", "--builtin", "smib", "--out", str(out), "--t-end", "6.0")
    assert code == 0
    return out


def test_list_has_six_builtins(capsys):
    assert run_cli("list") == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6


def test_list_json(capsys):
    assert run_cli("list", "--json") == 0
    catalogue = json.loads(capsys.readouterr().out)
    assert sorted(c["name"] for c in catalogue) == sorted(
        ["circuit_dc", "smib", "kundur", "motor_condenser",
         "gfl_seriescomp", "sustained_oscillation"])


def test_unknown_flag_exit_2(capsys):
    assert run_cli("list", "--bogus") == 2


def test_unknown_builtin_exit_2(capsys):
    assert run_cli("run", "--builtin", "nope", "--out", "/tmp") == 2


def test_missing_file_exit_4(capsys):
    assert run_cli("run", "--file", "/nonexistent/sc.ini", "--out", "/tmp") == 4


def test_bad_scenario_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\nname = x\n\n[device.D]\nkind = zip\nbus = NOPE\np0 = 1.0\n")
    assert run_cli("run", "--file", str(bad), "--out", str(tmp_path)) == 2


def test_sweep_without_fault_pair_exit_2(tmp_path, capsys):
    assert run_cli("sweep", "--builtin", "sustained_oscillation",
                   "--out", str(tmp_path), "--from", "1.05", "--to", "1.06",
                   "--step", "0.01") == 2


def _scenario(name):
    """The built-in `name`, or the grid-forming probe (no built-in has a
    grid-forming converter)."""
    return gfm_probe_scenario() if name == "gfm_probe" else build_builtin(name)


def _scenario_file(tmp_path, name, edits):
    """The scenario `name` as a scenario file in which every line equal to
    a key of edits reads the matching value instead."""
    lines = serialize_scenario(_scenario(name)).splitlines()
    assert set(edits) <= set(lines)
    path = tmp_path / "in" / f"{name}.ini"
    path.parent.mkdir()
    path.write_text("\n".join(edits.get(line, line) for line in lines) + "\n")
    return str(path)


def _smib_edit(old, new):
    return ("file", "smib", {old: new})


def _device_edit(name, edits, device):
    """A file case whose error message must name device."""
    return ("file", name, edits, f"{device}: ")


def _rule_edit(name, edits, message):
    """A file case whose error message must begin with message."""
    return ("file", name, edits, message)


def _cli_rule(message, *argv):
    """A command-line case whose error message must begin with message."""
    return ("args", message) + argv


# an apply/clear fault pair on circuit_dc's branch, ahead of its [sim]
_CIRCUIT_DC_FAULT = """[event.1]
t = 1.0
kind = apply_fault
branch = Z1

[event.2]
t = 1.1
kind = clear_fault
branch = Z1

[sim]"""

_SWEEP = ("sweep", "--builtin", "smib")
_RUN = ("run", "--builtin", "smib")


@pytest.mark.parametrize("argv", [
    pytest.param(_RUN + ("--dt", "nan"), id="dt-nan"),
    pytest.param(_RUN + ("--t-end", "inf"), id="t-end-inf"),
    pytest.param(_RUN + ("--epsilon", "-1"), id="epsilon-negative"),
    pytest.param(_RUN + ("--tail-tol", "nan"), id="run-tail-tol-nan"),
    pytest.param(_RUN + ("--clear-time", "nan"), id="clear-time-nan"),
    pytest.param(_smib_edit("record_decimation = 1", "record_decimation = 0"),
                 id="decimation-zero"),
    pytest.param(_smib_edit("record_decimation = 1", "record_decimation = -1"),
                 id="decimation-negative"),
    pytest.param(_smib_edit("record_decimation = 1", "record_decimation = 2.7"),
                 id="decimation-fractional"),
    pytest.param(_smib_edit("dt = 0.001", "dt = 0.0"), id="file-dt-zero"),
    pytest.param(_smib_edit("m = 3.0", "m = -3"), id="inertia-negative"),
    pytest.param(("file", "motor_condenser", {"x_s = 0.1": "x_s = 0"}),
                 id="motor-reactance-zero"),
    pytest.param(("file", "kundur", {"p0 = 10.0": "p0 = 10.0\nk_pp = 0.5"}),
                 id="zip-shares-not-one"),
    pytest.param(_smib_edit("base_mva = 100.0", "base_mva = 0.0"),
                 id="base-mva-zero"),
    pytest.param(_smib_edit("f_nom = 60.0", "f_nom = 2.2250738585e-313"),
                 id="f-nom-subnormal"),
    pytest.param(("file", "gfl_seriescomp", {"v_dc0 = 2.0": "v_dc0 = 0.0"}),
                 id="dc-link-voltage-zero"),
    pytest.param(_smib_edit("[bus.GEN]", "[bus.GEN]\narea = 1"), id="area-inf"),
    pytest.param(_smib_edit("tap = 1.0", "tap = 0"), id="tap-zero"),
    pytest.param(_smib_edit("tap = 1.0", "tap = nan"), id="tap-nan"),
    pytest.param(_smib_edit("branch = L2", "bus = HV"),
                 id="open-branch-on-bus-fault"),
    pytest.param(_smib_edit("y_fault_b = -10000.0",
                            "y_fault_b = -10000.0\nopen_branch = true"),
                 id="open-branch-on-apply-fault"),
    pytest.param(_smib_edit("kind = clear_fault", "kind = open_branch"),
                 id="open-branch-on-open-branch-event"),
    pytest.param(("file", "motor_condenser",
                  {"device = SC1": "device = SC1\nopen_branch = true"}),
                 id="open-branch-on-disconnect"),
    pytest.param(("file", "smib", {"branch = L2": "# no fault location",
                                   "open_branch = true": ""}),
                 id="fault-names-neither-bus-nor-branch"),
    pytest.param(_smib_edit("branch = L2", "branch = L2\nbus = HV"),
                 id="fault-names-bus-and-branch"),
    pytest.param(_smib_edit("x1_d = 0.3", "x1_d = 0.3\nx_l = 5.0"),
                 id="sm2-leakage-reactance"),
    pytest.param(_smib_edit("d = 5.0", "d = nan"), id="damping-nan"),
    pytest.param(_smib_edit("x = 0.15", "x = inf"), id="reactance-inf"),
    pytest.param(_RUN + ("--dt", "1e-300"), id="dt-tiny-record-cap"),
    pytest.param(_smib_edit("t = 1.0", "t = 1e-9"), id="event-at-step-0"),
    pytest.param(_SWEEP + ("--from", "1.10", "--to", "1.11", "--step", "nan"),
                 id="sweep-step-nan"),
    pytest.param(_SWEEP + ("--from", "nan", "--to", "1.11", "--step", "0.01"),
                 id="sweep-from-nan"),
    pytest.param(_SWEEP + ("--from", "1.10", "--to", "inf", "--step", "0.01"),
                 id="sweep-to-inf"),
    pytest.param(_SWEEP + ("--from", "1.10", "--to", "1.11", "--step", "0.01",
                           "--tail-tol", "0"), id="sweep-tail-tol-zero"),
    pytest.param(_SWEEP + ("--from", "1.2", "--to", "1.1", "--step", "0.01"),
                 id="sweep-empty-range"),
    pytest.param(_SWEEP + ("--from", "1.1005", "--to", "1.1005", "--step",
                           "0.01"), id="sweep-from-off-grid"),
    pytest.param(_SWEEP + ("--from", "1.10", "--to", "1.12", "--step",
                           "0.0105"), id="sweep-step-off-grid"),
    pytest.param(_SWEEP + ("--from", "1.12", "--to", "1.12", "--step",
                           "0.0105"), id="sweep-step-off-grid-one-point"),
    pytest.param(_SWEEP + ("--from", "1.12", "--to", "1.12", "--step",
                           "4e-10"), id="sweep-step-below-one-dt"),
    pytest.param(_SWEEP + ("--from", "1.10", "--to", "1.11", "--step", "0.01",
                           "--workers", "0"), id="sweep-workers-zero"),
    pytest.param(_RUN + ("--dt", "7e-4"), id="events-off-dt-grid"),
    pytest.param(_RUN + ("--dt", "3e-3", "--t-end", "0.0101"),
                 id="t-end-off-dt-grid"),
    pytest.param(_RUN + ("--dt", "0.01", "--t-end", "0.01"),
                 id="too-few-samples"),
    pytest.param(_device_edit("sustained_oscillation",
                              {"tau_mod_hz = 2.0": ""}, "G1"),
                 id="torque-mod-amp-without-hz"),
    pytest.param(_device_edit("sustained_oscillation",
                              {"tau_mod_amp = 0.05": ""}, "G1"),
                 id="torque-mod-hz-without-amp"),
    pytest.param(_device_edit("sustained_oscillation",
                              {"tau_mod_amp = 0.05": "tau_mod_amp = 0.0"}, "G1"),
                 id="torque-mod-amp-zero"),
    pytest.param(_device_edit("sustained_oscillation",
                              {"tau_mod_hz = 2.0": "tau_mod_hz = 0.0"}, "G1"),
                 id="torque-mod-hz-zero"),
    pytest.param(_device_edit("sustained_oscillation",
                              {"tau_mod_hz = 2.0": "tau_mod_hz = -2.0"}, "G1"),
                 id="torque-mod-hz-negative"),
    pytest.param(_device_edit("motor_condenser", {"tau_m = 0.9": "tau_m = 0.0"},
                              "M1"), id="motor-torque-zero"),
    pytest.param(_device_edit("motor_condenser",
                              {"tau_m = 0.9": "tau_m = -0.5"}, "M1"),
                 id="motor-torque-negative"),
    pytest.param(_device_edit("gfm_probe",
                              {"t_v = 0.02": "t_v = 0.02\nt_p = 0.0"}, "F1"),
                 id="gfm-power-lag-zero"),
    pytest.param(_device_edit("gfm_probe",
                              {"t_v = 0.02": "t_v = 0.02\nt_p = -0.02"}, "F1"),
                 id="gfm-power-lag-negative"),
    pytest.param(_smib_edit("[sim]", "[expect.NOSUCH]\nals = banana\n\n[sim]"),
                 id="expect-section"),
    pytest.param(_device_edit("kundur", {"slack_device = G3":
                                         "slack_device = Zload7"}, "Zload7"),
                 id="slack-zip-load"),
    pytest.param(_device_edit("motor_condenser", {"slack_device = IB":
                                                  "slack_device = M1"}, "M1"),
                 id="slack-induction-motor"),
    # one required parameter missing, per device kind that has one
    pytest.param(_device_edit("smib", {"x1_d = 0.3": ""}, "G1"),
                 id="missing-sm2-x1_d"),
    pytest.param(_device_edit("kundur", {"x_d = 1.8": ""}, "G1"),
                 id="missing-sm4-x_d"),
    pytest.param(_device_edit("motor_condenser",
                              {"kind = sm4": "kind = sm6"}, "SC1"),
                 id="missing-sm6-subtransient"),
    pytest.param(_device_edit("kundur", {"p0 = 10.0": ""}, "Zload7"),
                 id="missing-zip-p0"),
    pytest.param(_device_edit("motor_condenser", {"tau_m = 0.9": ""}, "M1"),
                 id="missing-induction-motor-tau_m"),
    pytest.param(_device_edit("gfl_seriescomp", {"i_dref = 0.5": ""}, "C1"),
                 id="missing-gfl-i_dref"),
    pytest.param(_device_edit("gfm_probe", {"t_v = 0.02": ""}, "F1"),
                 id="missing-gfm-t_v"),
    pytest.param(_device_edit("circuit_dc", {"i_mag = 0.1": ""}, "CS"),
                 id="missing-dc-current-source-i_mag"),
    pytest.param(_device_edit("circuit_dc", {"b = 0.0": "b = 0.5",
                                             "tap = 1.0": "tap = 1.2"}, "Z1"),
                 id="circuit-dc-charging-and-tap"),
    pytest.param(_device_edit("circuit_dc", {"[sim]": _CIRCUIT_DC_FAULT},
                              "apply_fault at t=1.0"),
                 id="circuit-dc-fault"),
    pytest.param(_device_edit("kundur", {"[device.Zload7]":
                                         "[device.Zload7]\nbase_mva = 50"},
                              "Zload7"),
                 id="base-mva-on-zip-load"),
    # [system] and [sim] each come once and without a label
    pytest.param(_device_edit("smib", {"record_decimation = 1":
                                       "record_decimation = 1\n\n[sim]\n"
                                       "dt = 0.002"}, "sim"),
                 id="second-sim-section"),
    pytest.param(_device_edit("smib", {"[sim]": "[system]\nname = other\n"
                                                "slack_device = IB\n\n[sim]"},
                              "system"),
                 id="second-system-section"),
    pytest.param(_device_edit("smib", {"[sim]": "[sim.extra]"}, "sim.extra"),
                 id="labelled-sim-section"),
    # every element section needs a label
    pytest.param(_device_edit("smib", {"[sim]": "[bus]\n\n[sim]"}, "bus"),
                 id="unlabelled-bus-section"),
    pytest.param(_device_edit("smib", {"[sim]": "[branch]\nfrom = GEN\n"
                                                "to = HV\nx = 0.1\n\n[sim]"},
                              "branch"),
                 id="unlabelled-branch-section"),
    pytest.param(_device_edit("smib", {"[sim]": "[device]\nkind = zip\n"
                                                "bus = HV\np0 = 0.1\n\n[sim]"},
                              "device"),
                 id="unlabelled-device-section"),
    pytest.param(_device_edit("smib", {"[sim]": "[event]\nt = 5.0\n"
                                                "kind = open_branch\n"
                                                "branch = L2\n\n[sim]"},
                              "event"),
                 id="unlabelled-event-section"),
    # every element id is declared once
    pytest.param(_device_edit("smib", {"[sim]": "[bus.GEN]\n\n[sim]"}, "GEN"),
                 id="duplicate-bus-id"),
    pytest.param(_device_edit("smib", {"[sim]": "[branch.T1]\nfrom = GEN\n"
                                                "to = HV\nx = 0.1\n\n[sim]"},
                              "T1"),
                 id="duplicate-branch-id"),
    # the fault split of L2 adds the bus L2_mid and the branches L2#a, L2#b
    pytest.param(_device_edit("smib", {"[sim]": "[bus.L2_mid]\n\n"
                                                "[branch.X9]\nfrom = GRID\n"
                                                "to = L2_mid\nx = 0.5\n\n"
                                                "[sim]"}, "L2_mid"),
                 id="bus-id-of-a-fault-midpoint"),
    pytest.param(_device_edit("smib", {"[sim]": "[branch.L2#a]\nfrom = HV\n"
                                                "to = GRID\nx = 5.0\n\n"
                                                "[sim]"}, "L2#a"),
                 id="branch-id-of-a-fault-half"),
    pytest.param(_smib_edit("kind = apply_fault", "kind = clear_fault"),
                 id="clear-fault-without-apply-fault"),
    pytest.param(_smib_edit("branch = L2", "branch = L9"),
                 id="fault-on-unknown-branch"),
    pytest.param(_smib_edit("branch = L2", "bus = NOPE"),
                 id="fault-on-unknown-bus"),
    pytest.param(_smib_edit("kind = clear_fault", "kind = clear_all"),
                 id="unknown-event-kind"),
    pytest.param(_smib_edit("[sim]", "[event.3]\nt = 5.0\nkind = open_branch\n"
                                     "branch = NOPE\n\n[sim]"),
                 id="open-unknown-branch"),
    pytest.param(("file", "circuit_dc",
                  {"analytic = circuit_dc": "analytic = circuit_ac"}),
                 id="unknown-analytic-kind"),
    # every element a scenario names is declared, and each bus has at most
    # one device that sets its voltage
    pytest.param(_rule_edit("smib", {"from = GEN": "from = NOPE"},
                            "T1: references undeclared bus NOPE"),
                 id="branch-on-undeclared-bus"),
    pytest.param(_rule_edit("smib", {"bus = GEN": "bus = NOPE"},
                            "G1: device on undeclared bus NOPE"),
                 id="device-on-undeclared-bus"),
    pytest.param(_rule_edit("smib", {"slack_device = IB":
                                     "slack_device = NOPE"},
                            "slack device 'NOPE' is not declared"),
                 id="undeclared-slack-device"),
    pytest.param(_rule_edit("smib", {"[sim]": "[device.IB2]\n"
                                              "kind = voltage_source\n"
                                              "bus = GRID\nv = 1.0\n\n[sim]"},
                            "bus GRID has multiple voltage-setting devices "
                            "['IB', 'IB2']"),
                 id="two-voltage-setting-devices-on-one-bus"),
    pytest.param(_rule_edit("smib", {"[sim]": "[event.3]\nt = 5.0\n"
                                              "kind = open_branch\n"
                                              "branch = L1\n\n[event.4]\n"
                                              "t = 5.0\nkind = open_branch\n"
                                              "branch = L1\n\n[sim]"},
                            "duplicate event (5.0, "),
                 id="duplicate-event"),
    pytest.param(_rule_edit("motor_condenser", {"device = SC1":
                                                "device = NOPE"},
                            "disconnect of unknown device NOPE"),
                 id="disconnect-unknown-device"),
    pytest.param(_rule_edit("smib", {"monitored = G1": "monitored = NOPE"},
                            "monitored device NOPE is not declared"),
                 id="undeclared-monitored-device"),
    # the file grammar: section headers, keys and values
    pytest.param(_rule_edit("smib", {"[bus.GEN]": "[bus.GEN"},
                            "malformed section header '[bus.GEN' (line "),
                 id="malformed-section-header"),
    pytest.param(_rule_edit("smib", {"[system]": "f_nom = 60.0\n[system]"},
                            "key outside any section (line 1, column 1)"),
                 id="key-outside-any-section"),
    pytest.param(_rule_edit("smib", {"d = 5.0": "D = 5.0"},
                            "invalid key 'D' (line "),
                 id="invalid-key"),
    pytest.param(_rule_edit("smib", {"d = 5.0": "d = 5.0\nd = 6.0"},
                            "duplicate key 'd' (line "),
                 id="duplicate-key"),
    pytest.param(_rule_edit("smib", {"open_branch = true": "open_branch = yes"},
                            "open_branch: expected true/false, got 'yes' "),
                 id="boolean-not-true-or-false"),
    pytest.param(_rule_edit("smib", {"x = 0.15": ""},
                            "branch.T1: missing key 'x'"),
                 id="missing-key"),
    # what the closed form of circuit_dc and its current source need
    pytest.param(_rule_edit("smib", {"[sim]": "[device.CS]\n"
                                              "kind = dc_current_source\n"
                                              "bus = HV\ni_mag = 0.1\n"
                                              "phase = 0.0\n\n[sim]"},
                            "CS: DC current sources exist only in analytic "
                            "scenarios"),
                 id="dc-current-source-outside-circuit-dc"),
    pytest.param(_rule_edit("circuit_dc", {"[device.VS]": "[branch.Z2]\n"
                                                          "from = SRC\n"
                                                          "to = INJ\n"
                                                          "x = 0.3\n\n"
                                                          "[device.VS]"},
                            "circuit_dc needs one voltage source, one DC "
                            "current source and one branch"),
                 id="circuit-dc-second-branch"),
    pytest.param(_rule_edit("circuit_dc", {"[bus.INJ]": "[bus.INJ]\n\n"
                                                        "[bus.MID]",
                                           "to = INJ": "to = MID"},
                            "circuit_dc branch must join the two source "
                            "buses"),
                 id="circuit-dc-branch-off-the-sources"),
    pytest.param(_rule_edit("circuit_dc", {"x = 0.3": "x = 0.0"},
                            "circuit branch needs positive reactance"),
                 id="circuit-dc-reactance-zero"),
    pytest.param(_cli_rule("sweep needs --from, --to and --step",
                           *_SWEEP, "--from", "1.10", "--to", "1.11"),
                 id="sweep-without-step"),
])
def test_invalid_input_exit_2(tmp_path, capsys, monkeypatch, request, argv):
    """Bad settings are rejected with exit 2 and a message, before any
    simulation and without a traceback or partial output; a device case's
    message names the device, and a rule case's begins as given.  Only the
    recording cap, which counts the initialized DAE's states, is checked
    once sim.initialize has run."""
    initialized = []
    real_initialize = sim.initialize

    def spy(*args, **kwargs):
        initialized.append(args[0].name)
        return real_initialize(*args, **kwargs)

    monkeypatch.setattr(sim, "initialize", spy)
    prefix = "error: "
    if argv[0] == "args":
        prefix += argv[1]
        argv = argv[2:]
    if argv[0] == "file":
        if len(argv) > 3:
            prefix += argv[3]
        argv = ("run", "--file", _scenario_file(tmp_path, *argv[1:3]))
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith(prefix)
    assert not out.exists() or not list(out.iterdir())
    after_init = request.node.callspec.id == "dt-tiny-record-cap"
    assert initialized == (["smib"] if after_init else [])


@pytest.mark.parametrize("name, edits, branch", [
    pytest.param("smib", {"x = 0.15": "x = 0.15\nx_c = 0.05"}, "T1",
                 id="static-series-capacitor"),
    pytest.param("gfl_seriescomp", {"x = 0.6": "x = 0.0"}, "LC",
                 id="dynamic-inductance-zero"),
    pytest.param("gfl_seriescomp", {"x_c = 0.35": "x_c = -0.35"}, "LC",
                 id="dynamic-capacitor-negative"),
    pytest.param("gfl_seriescomp", {"b = 0.0": "b = 0.01"}, "LC",
                 id="dynamic-charging"),
    pytest.param("gfl_seriescomp", {"tap = 1.0": "tap = 1.05"}, "LC",
                 id="dynamic-tap"),
    pytest.param("gfl_seriescomp", {"r = 0.06": "r = 0.0",
                                    "x_c = 0.35": "x_c = 0.6"}, "LC",
                 id="dynamic-zero-series-impedance"),
    pytest.param("smib", {"x = 0.15": "x = 0.0"}, "T1",
                 id="static-zero-series-impedance"),
])
def test_unmodelled_branch_field_exit_2(tmp_path, capsys, name, edits, branch):
    """A branch field the DAE would ignore or cannot integrate is rejected
    before any simulation with exit 2, and the message names the branch."""
    out = tmp_path / "out"
    assert run_cli("run", "--file", _scenario_file(tmp_path, name, edits),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {branch}: ")
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("edit", [
    pytest.param({"dt = 0.001": "dt = 1e-300"}, id="dt-tiny-record-cap"),
    pytest.param({"m = 3.0": "m = -3"}, id="inertia-negative"),
])
def test_sweep_stops_on_input_error(tmp_path, capsys, edit, workers):
    """An input error holds at every clearing time, so a sweep exits 2 with
    a message instead of writing a CSV of error rows."""
    path = _scenario_file(tmp_path, "smib", edit)
    out = tmp_path / "out"
    assert run_cli("sweep", "--file", path, "--from", "1.12", "--to", "1.13",
                   "--step", "0.01", "--workers", workers,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    assert not (out / "smib_sweep.csv").exists()


def test_sweep_checks_the_domain_before_the_pool(tmp_path, capsys,
                                                monkeypatch):
    """A device outside its model's domain fails validation, so a sweep
    exits 2 naming it before it starts a worker pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("the sweep started a worker pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    path = _scenario_file(tmp_path, "smib", {"m = 3.0": "m = -3"})
    out = tmp_path / "out"
    assert run_cli("sweep", "--file", path, "--from", "1.12", "--to", "1.13",
                   "--step", "0.01", "--workers", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: G1: m must be positive")


def test_run_writes_three_files(smib_outputs, capsys):
    for suffix in ("_traj.csv", "_chi.csv", "_report.json"):
        assert (smib_outputs / f"smib{suffix}").exists()


def test_traj_csv_golden_header(smib_outputs):
    # the faulted branch is pre-split, so its midpoint bus is recorded too
    header = (smib_outputs / "smib_traj.csv").read_text().splitlines()[0]
    assert header == ("t,v_d:GEN,v_d:HV,v_d:GRID,v_d:L2_mid,"
                      "v_q:GEN,v_q:HV,v_q:GRID,v_q:L2_mid,"
                      "i_d:G1,i_d:IB,i_q:G1,i_q:IB,"
                      "state:G1:delta,state:G1:omega_r")


def test_chi_csv_header_stable(smib_outputs):
    header = (smib_outputs / "smib_chi.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert "chi_rho_numeric:G1" in header
    assert "chi_rho_analytic:G1" in header
    assert "mask:G1" in header
    assert "chi_rho_analytic:IB" not in header   # no closed form for sources


def test_csv_rows_match_cell_by_cell_reference(builtin_run):
    """Both CSVs equal a row-by-row writer that formats each recorded value
    as repr(float(x)) and each mask flag as 1/0; smib's 12,001 rows span
    many of the writers' conversion blocks."""
    from synchrolens import cli
    from synchrolens.synccheck import analytic_chi_all, numeric_chi
    scenario, result, _ = builtin_run("smib")
    numeric = {d: numeric_chi(result, d) for d in result.currents}
    analytic = analytic_chi_all(result, scenario)
    fmt = lambda x: repr(float(x))   # noqa: E731
    traj = cli._traj_csv(result).splitlines()
    chi = cli._chi_csv(result, numeric, analytic).splitlines()
    assert len(traj) == len(chi) == len(result.t) + 1 > 3 * cli._CSV_BLOCK
    for k in range(len(result.t)):
        row = [result.t[k]]
        row += [v[k].real for v in result.voltages.values()]
        row += [v[k].imag for v in result.voltages.values()]
        row += [i[k].real for i in result.currents.values()]
        row += [i[k].imag for i in result.currents.values()]
        row += [x for s in result.states.values() for x in s[k]]
        assert traj[k + 1] == ",".join(map(fmt, row)), k
        cells = [fmt(result.t[k])]
        for dev, ch in numeric.items():
            series = [ch] + ([analytic[dev]] if dev in analytic else [])
            cells += [fmt(f(c.values[k])) for c in series
                      for f in (np.real, np.imag)]
            cells.append("1" if ch.mask[k] else "0")
        assert chi[k + 1] == ",".join(cells), k



def _assert_rows(text, columns):
    """The rows of CSV text (header skipped) equal a writer that formats
    each cell of the columns as repr of its Python number, and the text
    ends with one newline."""
    assert text.endswith("\n") and not text.endswith("\n\n")
    rows = text.splitlines()[1:]
    reference = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    assert len(rows) == len(columns[0])
    for k, (row, want) in enumerate(zip(rows, reference)):
        assert row == want, k


def test_csv_edge_values_match_repr():
    """_csv on synthetic columns spanning three blocks and a partial one:
    signed zeros alternating and in a -0.0 run that crosses a block
    boundary into 0.0 (a cache keyed by value would merge them, as
    -0.0 == 0.0), NaNs with two payloads and a sign bit (all print nan),
    infinities, the smallest subnormal, a constant column, runs that end
    at rows 255, 256 and 257, columns read through a complex array's
    strided .real/.imag views, and an int mask column."""
    from synchrolens import cli
    block = cli._CSV_BLOCK
    n = 3 * block + 5
    rows = np.arange(n)
    rng = np.random.default_rng(3)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                     0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    signed_run = np.full(n, 1.5)
    signed_run[block - 3:block + 3] = -0.0
    signed_run[block + 3:2 * block] = 0.0
    mixed = np.resize([np.inf, np.inf, -np.inf, 5e-324, 5e-324, -5e-324,
                       -0.0, 0.0], n)
    complex_col = np.empty(n, dtype=complex)
    complex_col.real = np.resize(nans.repeat(7), n)
    complex_col.imag = mixed
    columns = [
        rows * 1e-3,
        np.where(rows % 2, -0.0, 0.0),
        signed_run,
        np.resize(nans.repeat(5), n),
        mixed,
        complex_col.real,
        complex_col.imag,
        np.full(n, 0.1),
        rng.random(n),
        np.repeat(rng.random(n), 2)[:n],
        *[np.where(rows <= end, 1 / 3, 2 / 3)
          for end in (block - 1, block, block + 1)],
        (rows % 3 == 0).astype(int),
    ]
    _assert_rows(cli._csv([f"c{k}" for k in range(len(columns))], columns),
                 columns)


def _bits(pattern):
    """The float64 whose bits are the 64-bit integer pattern."""
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0].item()


def _near(anchor):
    """Values within 1000 ulps of +-anchor."""
    base = int(np.array([anchor]).view(np.uint64)[0])
    return st.builds(lambda k, sign: sign * _bits(base + k),
                     st.integers(-1000, 1000), st.sampled_from([1.0, -1.0]))


# the magnitudes where repr's layout changes (1e-05 vs 0.0001, 1e+16 vs
# 1e15 in full) or its exponent takes a padding zero (1e-06 to 1e-09)
_LAYOUT_EDGES = (1e-10, 1e-9, 1e-6, 1e-5, 1e-4, 1e15, 1e16)

_float64s = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),
    *map(_near, _LAYOUT_EDGES),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    # NaNs with any payload and either sign
    st.builds(lambda payload, sign: _bits(sign | 0x7FF0000000000000 | payload),
              st.integers(1, 2**52 - 1), st.sampled_from([0, 1 << 63])),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_float64s, min_size=1, max_size=48),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
def test_csv_matches_repr_on_any_float64(values, ints):
    """_csv on float columns that cross a block boundary, beside an int
    column, writes every row as the repr of its Python numbers."""
    from synchrolens import cli
    n = cli._CSV_BLOCK + 5
    floats = np.resize(np.array(values), (3, n))
    columns = [*floats, np.resize(np.array(ints, dtype=np.int64), n)]
    _assert_rows(cli._csv(["a", "b", "c", "mask"], columns), columns)


def test_csv_held_stretch_matches_reference(builtin_run):
    """gfl_seriescomp is held at its equilibrium from t = 5.27 s on, so
    almost every state cell there repeats the one above and the writers
    format it once per run; both CSVs still equal a writer that formats
    every cell."""
    from synchrolens import cli
    from synchrolens.synccheck import analytic_chi_all, numeric_chi
    scenario, result, _ = builtin_run("gfl_seriescomp")
    held = result.states["C1"][result.t >= 5.27]
    assert (held[1:] == held[:-1]).mean() > 0.99
    traj = [result.t]
    for series in (result.voltages, result.currents):
        traj += [s.real for s in series.values()]
        traj += [s.imag for s in series.values()]
    traj += [x for s in result.states.values() for x in s.T]
    _assert_rows(cli._traj_csv(result), traj)
    numeric = {d: numeric_chi(result, d) for d in result.currents}
    analytic = analytic_chi_all(result, scenario)
    chi = [result.t]
    for dev, ch in numeric.items():
        for c in [ch] + ([analytic[dev]] if dev in analytic else []):
            chi += [c.values.real, c.values.imag]
        chi.append(ch.mask.astype(int))
    _assert_rows(cli._chi_csv(result, numeric, analytic), chi)


def test_traj_csv_holds_its_text_once():
    """_traj_csv of a 4 s smib run allocates at most 1.3 times the text it
    returns: the text grows in place, with no list of row strings beside
    it (a join of such a list peaked at 2.3 times)."""
    from synchrolens import cli
    scenario = build_builtin("smib")
    result = sim.run_simulation(scenario, sim.SimConfig.from_scenario(
        scenario, t_end=4.0))
    tracemalloc.start()
    try:
        text = cli._traj_csv(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.isascii() and peak <= 1.3 * len(text)


def test_atomic_write_encodes_in_slices(tmp_path):
    """Writing an 8 MiB str allocates at most 2.5 MiB (a slice and its
    bytes), not the whole file's bytes, and writes every character."""
    from synchrolens import cli
    data = ("x" * 63 + "\n") * (1 << 17)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli._atomic_write(str(path), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (1 << 20)
    assert path.read_text() == data
    assert os.listdir(tmp_path) == ["big.csv"]


def test_failed_write_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    """An OSError on a run's second output write exits 4, and the outputs
    are committed together or not at all: --out holds no new or staged
    file, and an earlier, shorter run's three files stay byte for byte."""
    from synchrolens import cli
    out = tmp_path / "out"
    assert run_cli(*_RUN, "--t-end", "1.5", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 3
    real_write, calls = cli._atomic_write, []

    def failing_write(path, data):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", path)
        real_write(path, data)

    monkeypatch.setattr(cli, "_atomic_write", failing_write)
    capsys.readouterr()
    assert run_cli(*_RUN, "--t-end", "2.0", "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("i/o failure: ")
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_directory_in_the_way_replaces_nothing(tmp_path, capsys):
    """A directory named like one of a run's outputs exits 4 before any
    rename, so an earlier run's other two files stay byte for byte and no
    staged file is left."""
    out = tmp_path / "out"
    assert run_cli(*_RUN, "--t-end", "1.5", "--out", str(out)) == 0
    (out / "smib_chi.csv").unlink()
    (out / "smib_chi.csv").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert sorted(before) == ["smib_report.json", "smib_traj.csv"]
    capsys.readouterr()
    assert run_cli(*_RUN, "--t-end", "2.0", "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith("i/o failure: ")
    assert sorted(os.listdir(out)) == ["smib_chi.csv", "smib_report.json",
                                       "smib_traj.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.is_file()} == before


def test_traj_csv_is_written_before_the_chi_analysis(tmp_path, capsys,
                                                    monkeypatch):
    """The trajectory text is formatted, written and released before
    build_report computes the chi series, so the two never coexist: at
    build_report's entry the memory allocated since the simulation
    returned is under a tenth of that text."""
    from synchrolens import cli
    real_run, real_traj = cli.run_simulation, cli._traj_csv
    real_write, real_report = cli._atomic_write, cli.build_report
    traj, events = {}, []

    def run_simulation(*args, **kwargs):
        result = real_run(*args, **kwargs)
        tracemalloc.start()
        return result

    def traj_csv(result):
        text = real_traj(result)
        traj.update(id=id(text), length=len(text))   # no reference kept
        return text

    def atomic_write(path, data):
        if id(data) == traj.get("id") and len(data) == traj["length"]:
            events.append("traj written")
        real_write(path, data)

    def build_report(*args, **kwargs):
        events.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        return real_report(*args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", run_simulation)
    monkeypatch.setattr(cli, "_traj_csv", traj_csv)
    monkeypatch.setattr(cli, "_atomic_write", atomic_write)
    monkeypatch.setattr(cli, "build_report", build_report)
    try:
        assert run_cli(*_RUN, "--t-end", "4.0", "--out", str(tmp_path)) == 0
    finally:
        tracemalloc.stop()
    assert events[0] == "traj written" and len(events) == 2
    assert events[1] < traj["length"] / 10


def test_outputs_follow_the_umask(tmp_path, capsys):
    """Under umask 022 a run's three outputs are mode 0644, as a plain
    open() would create them, not owner-only."""
    old = os.umask(0o022)
    try:
        assert run_cli("run", "--builtin", "circuit_dc",
                       "--out", str(tmp_path)) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(tmp_path))
    assert names == ["circuit_dc_chi.csv", "circuit_dc_report.json",
                     "circuit_dc_traj.csv"]
    for name in names:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", ""])
def test_scenario_name_cannot_leave_out_dir(tmp_path, capsys, name):
    """A scenario name begins the output file names, so one holding a path
    separator, or an empty one, exits 2 naming the field, and nothing is
    written in --out or its parent."""
    path = _scenario_file(tmp_path, "smib",
                          {"name = smib": f"name = {name}".rstrip()})
    parent = tmp_path / "parent"
    parent.mkdir()
    assert run_cli("run", "--file", path, "--out", str(parent / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: name {name!r} must be")
    assert [p for p in parent.rglob("*") if not p.is_dir()] == []

def test_report_schema_valid(smib_outputs):
    report = json.loads((smib_outputs / "smib_report.json").read_text())
    import importlib.resources as resources
    schema = json.loads(
        resources.files("synchrolens").joinpath("report_schema.json").read_text())
    _validate(report, schema)
    assert report["exit_status"] == 0


def test_unevaluable_device_writes_null(tmp_path, capsys):
    """A run too short for a device's verdict windows writes chi_at_t0 as
    null, not NaN, which is no JSON number; --json prints the same text."""
    assert run_cli("run", "--builtin", "smib", "--t-end", "3",
                   "--out", str(tmp_path), "--json") == 0
    text = (tmp_path / "smib_report.json").read_text()
    assert capsys.readouterr().out == text
    report = _strict_json(text)
    short = [v for v in report["verdicts"] if v["bls"] is None]
    assert len(short) == 2
    assert all(v["chi_at_t0"] is None for v in short)


def test_report_solver_block(smib_outputs, tmp_path, monkeypatch):
    """The report carries the stepper's counters; a closed-form scenario,
    which is not integrated, carries them as nulls.  residual_evaluations
    is every fg call the stepper makes; each step makes at least one unless
    it reuses the last accepted point's.  predictor_points counts the
    steps that started from the predictor by its length, so they sum to at
    most steps.  A fast-forward counts its held steps without calling
    step(), and the counters are those of a run that steps each of them."""
    import importlib.resources as resources
    schema = json.loads(
        resources.files("synchrolens").joinpath("report_schema.json").read_text())
    solver = json.loads((smib_outputs / "smib_report.json").read_text())["solver"]
    assert solver["steps"] == 6000
    # 8,102 from the quadratic predictor
    assert solver["newton_iterations"] <= 5_500
    assert 1 <= solver["max_step_iterations"] <= 4
    assert 1.0 <= solver["max_step_time"] <= 6.0
    assert solver["jacobian_builds"] <= 3
    assert 0.0 <= solver["worst_residual"] < 1e-10
    assert solver["residual_evaluations"] >= solver["newton_iterations"]
    _validate(solver, schema["properties"]["solver"])
    points = solver["predictor_points"]
    assert list(points) == [str(n) for n in range(3, 9)]
    assert 0 < sum(points.values()) <= solver["steps"]

    # fg calls made inside each step, counted from outside the stepper
    calls, per_step, skipped = [0], [], []
    fg, step = sim.PowerSystemDae.fg, sim.TrapezoidalStepper.step
    fast_forward = sim.TrapezoidalStepper.fast_forward

    def counted_fg(self, *args):
        calls[0] += 1
        return fg(self, *args)

    def counted_step(self, *args):
        before = calls[0]
        out = step(self, *args)
        per_step.append(calls[0] - before)
        return out

    def counted_fast_forward(self, m):
        before = calls[0]
        taken = fast_forward(self, m)
        assert calls[0] == before
        skipped.append(taken)
        return taken

    def solver_block(name):
        out = tmp_path / name
        assert run_cli("run", "--builtin", "smib", "--out", str(out),
                       "--t-end", "2.0") == 0
        return json.loads((out / "smib_report.json").read_text())["solver"]

    monkeypatch.setattr(sim.PowerSystemDae, "fg", counted_fg)
    monkeypatch.setattr(sim.TrapezoidalStepper, "step", counted_step)
    monkeypatch.setattr(sim.TrapezoidalStepper, "fast_forward",
                        counted_fast_forward)
    spied = solver_block("spied")
    # a step without an fg call reused the accepted point's residual (a
    # reusing step that iterates makes calls, so this counts fewer)
    reused = per_step.count(0)
    assert spied["steps"] == len(per_step) + sum(skipped) == 2000
    assert reused > 0 and sum(skipped) > 0
    assert spied["residual_evaluations"] == sum(per_step)
    assert spied["residual_evaluations"] >= len(per_step) - reused
    assert sum(spied["predictor_points"].values()) <= spied["steps"]
    assert solver_block("again") == spied
    # the fault and its clearing, each followed by one algebraic re-solve
    assert spied["event_resolves"] == 2
    assert spied["event_resolve_iterations"] >= 2
    # every step taken one by one: the same block
    monkeypatch.setattr(sim.TrapezoidalStepper, "fast_forward",
                        lambda self, m: 0)
    assert solver_block("stepped") == spied
    assert run_cli("run", "--builtin", "circuit_dc", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "circuit_dc_report.json").read_text())
    _validate(report, schema)
    assert set(report["solver"]) == set(schema["properties"]["solver"]["required"])
    assert all(value is None for value in report["solver"].values())


def _validate(value, schema, path="$"):
    """Minimal JSON-schema subset checker (type/required/properties/items);
    a list of types accepts a value of any of them."""
    kind = schema.get("type")
    if isinstance(kind, list):
        if value is None:
            assert "null" in kind, path
            return
        kind = next(k for k in kind if k != "null")
    if kind == "object":
        assert isinstance(value, dict), path
        for key in schema.get("required", ()):
            assert key in value, f"{path}.{key} missing"
        for key, sub in schema.get("properties", {}).items():
            if key in value and value[key] is not None:
                _validate(value[key], sub, f"{path}.{key}")
    elif kind == "array":
        assert isinstance(value, list), path
        for j, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{path}[{j}]")
    elif kind == "string":
        assert isinstance(value, str), path
    elif kind == "number":
        assert isinstance(value, (int, float)), path
    elif kind == "integer":
        assert isinstance(value, int), path
    elif kind == "boolean":
        assert isinstance(value, bool), path


def test_run_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("run", "--builtin", "circuit_dc", "--out", str(out)) == 0
    for name in ("circuit_dc_traj.csv", "circuit_dc_chi.csv",
                 "circuit_dc_report.json"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        if name.endswith("report.json"):
            # output paths differ by directory; compare with them stripped
            a = a.replace(str(out_a).encode(), b"OUT")
            b = b.replace(str(out_b).encode(), b"OUT")
        assert a == b, name


def test_env_var_default_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNCHROLENS_OUT", str(tmp_path))
    assert run_cli("run", "--builtin", "circuit_dc") == 0
    assert (tmp_path / "circuit_dc_report.json").exists()


def test_run_clear_time_verdicts(tmp_path, capsys):
    """The paper-anchored dichotomy through the CLI."""
    out = tmp_path / "cct"
    assert run_cli("run", "--builtin", "smib", "--out", str(out),
                   "--clear-time", "1.12", "--json") == 0
    passing = json.loads(capsys.readouterr().out)
    g1 = next(v for v in passing["verdicts"] if v["device"] == "G1")
    assert g1["als"]["passed"] is True
    assert passing["system"]["instability_angle_separation"] is False

    assert run_cli("run", "--builtin", "smib", "--out", str(out),
                   "--clear-time", "1.13", "--json") == 0
    failing = json.loads(capsys.readouterr().out)
    g1 = next(v for v in failing["verdicts"] if v["device"] == "G1")
    assert g1["als"]["passed"] is False
    assert failing["system"]["instability_angle_separation"] is True


def test_run_from_file_round_trip(tmp_path, capsys):
    path = tmp_path / "circuit.ini"
    path.write_text(serialize_scenario(build_builtin("circuit_dc")))
    assert run_cli("run", "--file", str(path), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "circuit_dc_report.json").read_text())
    cs = next(v for v in report["verdicts"] if v["device"] == "CS")
    assert cs["bls"]["passed"] is False and cs["als"]["passed"] is False


def test_solver_failure_exit_3(tmp_path, capsys):
    from dataclasses import replace
    from synchrolens.scenarios import serialize_scenario as ser
    base = build_builtin("motor_condenser")
    devices = tuple(
        replace(d, params={**d.params, "tau_m": 2.5}) if d.id == "M1" else d
        for d in base.devices
    )
    path = tmp_path / "infeasible.ini"
    path.write_text(ser(replace(base, devices=devices)))
    assert run_cli("run", "--file", str(path), "--out", str(tmp_path)) == 3


_ISLANDED_ZIP = """\
[system]
name = island
slack_device = IB

[bus.B0]

[bus.B1]

[branch.L1]
from = B0
to = B1
r = 0.01
x = 0.2

[device.IB]
kind = voltage_source
bus = B0
v = 1.0

[device.Z1]
kind = zip
bus = B1
p0 = 0.3
q0 = 0.05

[event.1]
t = 1.0
kind = open_branch
branch = L1

[sim]
dt = 0.001
t_end = 2.0
"""


def test_islanded_zip_bus_exit_3(tmp_path, capsys):
    """Opening the only line to a ZIP bus drives its voltage to zero; the load
    model's error names the device and the time and exits 3."""
    path = tmp_path / "island.ini"
    path.write_text(_ISLANDED_ZIP)
    out = tmp_path / "out"
    assert run_cli("run", "--file", str(path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Z1" in err and "t=1.000000s" in err
    assert not out.exists() or not list(out.iterdir())


def test_event_resolve_failure_names_time(tmp_path, capsys, monkeypatch):
    """A Newton failure in the algebraic re-solve after the fault names the
    event time and exits 3."""
    def diverge(*args, **kwargs):
        raise NewtonDivergence("interface solve did not converge")

    initialize = sim.initialize

    def initialize_then_fail(*args, **kwargs):
        out = initialize(*args, **kwargs)
        monkeypatch.setattr(sim, "interface_solve", diverge)
        return out

    monkeypatch.setattr(sim, "initialize", initialize_then_fail)
    out = tmp_path / "out"
    assert run_cli(*_RUN, "--t-end", "1.5", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "interface solve did not converge (at t=1.000000s)" in err
    assert not out.exists() or not list(out.iterdir())


def test_non_finite_residual_names_its_equation(tmp_path, capsys, monkeypatch):
    """smib's G1 returning a NaN rate of omega_r after t = 1.2 s stops the
    run at the first residual that holds it, with exit 3 and no output
    file: the message names G1:omega_r and the time (a NaN inverse
    Jacobian made every entry NaN, and the worst equation read row 0,
    G1:delta), and no Jacobian is rebuilt for it."""
    build = sim.build_adapters

    def poisoned_adapters(scenario):
        adapters = build(scenario)
        g1 = next(a for a in adapters if a.id == "G1")

        def fg(t, states, v, fg=g1.fg):
            d, i = fg(t, states, v)
            if t > 1.2005:
                d[1] = math.nan
            return d, i
        g1.fg = fg
        return adapters

    raised = []
    step = sim.TrapezoidalStepper.step

    def spied(self, *args):
        builds = self.stats["jacobian_builds"]
        try:
            return step(self, *args)
        except NewtonDivergence as exc:
            raised.append((self.dae.names[exc.worst_equation], exc.residual,
                           self.stats["jacobian_builds"] - builds))
            raise

    monkeypatch.setattr(sim, "build_adapters", poisoned_adapters)
    monkeypatch.setattr(sim.TrapezoidalStepper, "step", spied)
    out = tmp_path / "out"
    assert run_cli(*_RUN, "--t-end", "1.5", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "solver failure: residual not finite at t=1.201000s: nan in "
        "equation G1:omega_r\n")
    (worst, residual, builds), = raised
    assert worst == "G1:omega_r" and math.isnan(residual) and builds == 0
    assert not out.exists() or not list(out.iterdir())


def test_record_cap_names_record_decimation(tmp_path, capsys, monkeypatch):
    """The recorded arrays' size is estimated before they are allocated: a
    run whose recording would exceed the cap by one byte exits 2 and names
    record_decimation, the same run at the cap runs, and so does a run over
    the cap once record_decimation thins its samples.  The cap is lowered
    to the exact recorded bytes of a 0.2 s smib run, so nothing large is
    allocated."""
    scenario = build_builtin("smib")
    result = sim.run_simulation(scenario, sim.SimConfig.from_scenario(
        scenario, t_end=0.2))
    recorded = sum(a.nbytes for table in (result.voltages, result.currents,
                                          result.states, result.active)
                   for a in table.values())
    out = tmp_path / "out"
    monkeypatch.setattr(sim, "MAX_RECORD_BYTES", recorded - 1)
    assert run_cli(*_RUN, "--t-end", "0.2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record_decimation" in err
    assert not out.exists() or not list(out.iterdir())
    path = _scenario_file(tmp_path, "smib", {
        "t_end = 12.0": "t_end = 0.4",
        "record_decimation = 1": "record_decimation = 4"})
    assert run_cli("run", "--file", path, "--out", str(out)) == 0
    monkeypatch.setattr(sim, "MAX_RECORD_BYTES", recorded)
    assert run_cli(*_RUN, "--t-end", "0.2", "--out", str(out)) == 0


def test_device_without_current_has_no_crosscheck(tmp_path, capsys):
    """A load drawing nothing has no sample where its chi is defined, so
    the report carries no cross-check row for it instead of failing."""
    text = _ISLANDED_ZIP.replace("p0 = 0.3\nq0 = 0.05", "p0 = 0.0\nq0 = 0.0")
    text = text.split("[event.1]")[0] + "[sim]\ndt = 0.001\nt_end = 0.01\n"
    path = tmp_path / "idle.ini"
    path.write_text(text)
    assert run_cli("run", "--file", str(path), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "island_report.json").read_text())
    assert [c["device"] for c in report["crosschecks"]] == []


@pytest.mark.parametrize("shares, rms_bound", [
    ("k_pp = 0.3\nk_ip = 0.3\nk_zp = 0.4\nk_pq = 0.1\nk_iq = 0.2\nk_zq = 0.7",
     ORACLE_RMS_TOL),
    ("k_zp = 1.0\nk_pp = 0.5\nk_ip = -0.5", 1e-6),
], ids=["mixed", "negative-share"])
def test_mixed_zip_load_is_crosschecked(tmp_path, capsys, shares, rms_bound):
    """kundur with Zload7 a mixed ZIP load, or with k_zp = 1 next to a
    negative share, writes Zload7's closed-form chi columns and a passing
    cross-check row.  The negative-share load's rms is also below 1e-6:
    the constant-impedance chi of 0 misses its numeric chi by 1.7e-4."""
    path = _scenario_file(tmp_path, "kundur",
                          {"p0 = 10.0": "p0 = 10.0\n" + shares})
    out = tmp_path / "out"
    assert run_cli("run", "--file", path, "--out", str(out),
                   "--t-end", "5.0") == 0
    with open(out / "kundur_chi.csv") as f:
        header = f.readline().rstrip("\n").split(",")
    assert {"chi_rho_analytic:Zload7",
            "chi_omega_analytic:Zload7"} <= set(header)
    report = json.loads((out / "kundur_report.json").read_text())
    row = next(c for c in report["crosschecks"] if c["device"] == "Zload7")
    assert row["passed"] and row["rms"] <= rms_bound


def test_every_error_has_an_exit_code():
    """Every SynchroLensError the package defines exits 2 or 3, or is one
    that build_report handles, so none ends a run in a traceback; none is
    defined that nothing raises."""
    handled = {*errors.USAGE_ERRORS, *errors.SOLVER_ERRORS,
               errors.WindowTooShort, errors.AxisMismatch}
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SynchroLensError)
               and c is not errors.SynchroLensError}
    assert defined - handled == set()
    # and every one is raised somewhere in the package
    source = "".join(path.read_text() for path in
                     Path(errors.__file__).parent.rglob("*.py"))
    assert {c for c in defined if f"raise {c.__name__}(" not in source} == set()


_OVERLOAD = """\
[system]
name = overload
slack_device = IB

[bus.B0]

[bus.B1]

[branch.L]
from = B0
to = B1
r = 0.0
x = 0.5

[device.IB]
kind = voltage_source
bus = B0
v = 1.0

[device.P1]
kind = zip
bus = B1
p0 = 5.0
k_pp = 1.0
k_zp = 0.0
"""


def test_infeasible_power_flow_exit_3(tmp_path, capsys):
    """A 5 pu constant-power load behind x = 0.5 pu (at most 1 pu can be
    delivered) has no power-flow solution; the message names the worst
    mismatch equation."""
    path = tmp_path / "overload.ini"
    path.write_text(_OVERLOAD)
    out = tmp_path / "out"
    assert run_cli("run", "--file", str(path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "power flow not converged" in err
    assert "worst equation PF:Q:B1" in err
    assert not out.exists() or not list(out.iterdir())


def test_initialization_residual_exit_3(tmp_path, capsys, monkeypatch):
    """smib with G1's omega_r initialized 1e-6 off its steady state leaves
    a DAE residual that no algebraic re-solve at fixed states removes:
    initialization stops with exit 3, stating the residual and its 1e-8
    bound, and writes no output file."""
    build = sim.build_adapters

    def offset_adapters(scenario):
        adapters = build(scenario)
        g1 = next(a for a in adapters if a.id == "G1")

        def init(v, s, init=g1.init):
            states = np.array(init(v, s), dtype=float)
            states[1] += 1e-6
            return states
        g1.init = init
        return adapters

    monkeypatch.setattr(sim, "build_adapters", offset_adapters)
    out = tmp_path / "out"
    assert run_cli(*_RUN, "--t-end", "0.2", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver failure: initialization residual "
                        r"\d\.\d{3}e-0[45] exceeds 1e-8\n", err), err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("section, line, stop", [
    pytest.param("device.G1", "p = 1e300", "Newton Jacobian singular",
                 id="G1-p-huge"),
    pytest.param("branch.T1", "x = 1e300", "Newton Jacobian singular",
                 id="T1-x-huge"),
    pytest.param("device.IB", "v = 1e-300", "Newton Jacobian singular",
                 id="IB-v-tiny"),
    pytest.param("branch.T1", "tap = 1e300", "Newton Jacobian singular",
                 id="T1-tap-huge"),
    pytest.param("device.IB", "v = 1e300", "residual not finite",
                 id="IB-v-huge"),
    pytest.param("branch.T1", "tap = 1e-300", "residual not finite",
                 id="T1-tap-tiny"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_flow_stop_names_its_equation(tmp_path, capsys, section, line,
                                            stop):
    """smib with one extreme value exits 3 when its power flow meets a
    singular Newton Jacobian or a residual that is not finite, and the
    one-line message names the power flow, why it stopped and a mismatch
    equation; numpy warns nothing on the way; a residual that is not finite
    stops the iteration at once, not after PF_MAX_ITER iterations on NaN."""
    key = line.split(" = ")[0] + " = "
    lines, current = [], None
    for text in serialize_scenario(_scenario("smib")).splitlines():
        if text.startswith("["):
            current = text[1:-1]
        elif current == section and text.startswith(key):
            text = line
        lines.append(text)
    path = tmp_path / "extreme.ini"
    path.write_text("\n".join(lines) + "\n")
    assert line in path.read_text().splitlines()
    out = tmp_path / "out"
    assert run_cli("run", "--file", str(path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "iterations" not in err
    [message] = err.splitlines()
    assert message.startswith(f"solver failure: power flow {stop}")
    assert re.search(r", worst equation PF:[PQ]:[A-Z]+$", message), message
    assert not out.exists() or not list(out.iterdir())


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-3])


def _flag(name, regular):
    """None (flag left out), a special value, or a regular draw."""
    return st.one_of(st.none(), _SPECIAL, regular).map(
        lambda value: () if value is None else (f"--{name}={value!r}",))


@settings(max_examples=100, deadline=None)
@given(dt=_flag("dt", st.one_of(st.sampled_from([1e-3, 5e-4, 2e-3, 0.01]),
                                st.floats(2e-4, 0.05))),
       t_end=_flag("t-end", st.one_of(st.sampled_from([0.01, 0.02, 0.05]),
                                      st.floats(1e-4, 0.05))),
       epsilon=_flag("epsilon", st.floats(1e-6, 1.0)),
       tail_tol=_flag("tail-tol", st.floats(1e-8, 1.0)),
       clear_time=_flag("clear-time", st.one_of(
           st.sampled_from([1.05, 1.12, 1.13]), st.floats(0.5, 2.0))))
def test_run_flags_property(dt, t_end, epsilon, tail_tol, clear_time):
    """Any flag values either run or are rejected with a documented exit
    code and a message; no traceback and no partial output either way.
    Without --t-end the built-in's 12 s span would be simulated, so the
    default case draws a short span instead."""
    if not t_end:
        t_end = ("--t-end=0.02",)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = _RUN + (*dt, *t_end, *epsilon, *tail_tol, *clear_time)
        if _assert_clean_exit(argv, out) == 0:
            assert sorted(os.listdir(out)) == [
                "smib_chi.csv", "smib_report.json", "smib_traj.csv"]


def test_sweep_pool_is_bounded_by_points(tmp_path, capsys, monkeypatch):
    """--workers beyond the number of clearing times starts one process per
    point; a single point runs in-process.  A recording stand-in replaces
    the process pool, so no worker is ever started here."""
    from synchrolens.scenarios import sweep
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(sweep, "_run_point", lambda job: sweep.SweepPoint(
        job[1], True, True, 0.0, 0.1))
    for t_to in ("1.11", "1.10"):
        assert run_cli(*_SWEEP, "--from", "1.10", "--to", t_to, "--step",
                       "0.01", "--workers", "100000",
                       "--out", str(tmp_path)) == 0
    assert pools == [2]


# Run in a fresh interpreter (pytest itself may have loaded multiprocessing):
# argv[1] is an output directory, argv[2:] one CLI invocation per ';'-joined
# argument list.  Prints, after the import and after each invocation, its
# exit code and the process-pool modules then loaded, one JSON line each;
# the invocations' own output is dropped.
_POOL_PROBE = """
import contextlib, io, json, sys
from synchrolens.cli import main

def loaded(code):
    print(json.dumps([code, sorted(m for m in sys.modules
                                   if m.split(".")[0] in
                                   ("multiprocessing", "concurrent"))]))

loaded(None)
for call in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(call.split(";") + ["--out", sys.argv[1]])
    loaded(code)
"""


def test_pool_modules_load_only_for_a_pool(tmp_path):
    """Importing the CLI, a run and a sweep with one clearing time (which
    runs in-process whatever --workers says) load neither multiprocessing
    nor concurrent.futures; a sweep over two clearing times with
    --workers 2 loads the process pool."""
    path = _scenario_file(tmp_path, "smib", {"t_end = 12.0": "t_end = 2.0"})
    calls = [("run", "--builtin", "smib", "--t-end", "0.2"),
             ("sweep", "--file", path, "--from", "1.12", "--to", "1.12",
              "--step", "0.01", "--workers", "4"),
             ("sweep", "--file", path, "--from", "1.12", "--to", "1.13",
              "--step", "0.01", "--workers", "2")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _POOL_PROBE,
                           str(tmp_path / "out")]
                          + [";".join(call) for call in calls],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *in_process, pooled = [json.loads(line)
                           for line in done.stdout.splitlines()]
    assert in_process == [[None, []], [0, []], [0, []]]
    assert pooled[0] == 0 and "concurrent.futures.process" in pooled[1]


# Run in a fresh interpreter: argv[1:] is one CLI invocation per ';'-joined
# argument list.  Prints, after the import and after each invocation, its
# exit code and whether orjson is loaded, one JSON line each; the
# invocations' own output is dropped.
_ORJSON_PROBE = """
import contextlib, io, json, sys
from synchrolens.cli import main

print(json.dumps([None, "orjson" in sys.modules]))
for call in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(call.split(";"))
    print(json.dumps([code, "orjson" in sys.modules]))
"""


def test_orjson_loads_only_to_write_a_csv(tmp_path):
    """Importing the CLI, list and a one-point sweep leave orjson unloaded;
    a run, which writes two CSVs, loads it."""
    path = _scenario_file(tmp_path, "smib", {"t_end = 12.0": "t_end = 2.0"})
    out = str(tmp_path / "out")
    calls = [("list",),
             ("sweep", "--file", path, "--from", "1.12", "--to", "1.12",
              "--step", "0.01", "--out", out),
             ("run", "--builtin", "smib", "--t-end", "0.2", "--out", out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _ORJSON_PROBE]
                          + [";".join(call) for call in calls],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line) for line in done.stdout.splitlines()] == [
        [None, False], [0, False], [0, False], [0, True]]


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which RFC 8259
    does not allow."""
    def reject(token):
        raise AssertionError(f"{token} in a JSON file")
    return json.loads(text, parse_constant=reject)


def _assert_clean_exit(argv, out):
    """Run argv; the exit code is documented, stderr has no traceback, a
    non-zero exit leaves no output files and every report written is strict
    JSON.  Returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*argv, "--out", out)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    left = os.listdir(out) if os.path.isdir(out) else []
    if code != 0:
        assert left == [] and err.getvalue()
    for name in left:
        if name.endswith("_report.json"):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                _strict_json(handle.read())
    return code


def _numeric_lines(name):
    """(lines of the built-in's file with t_end = 1.2, indices of the lines
    holding a number other than dt and t_end).  A random dt or t_end would
    only change the step count, and a tiny dt would run for hours."""
    lines = ["t_end = 1.2" if line.startswith("t_end = ") else line
             for line in serialize_scenario(_scenario(name)).splitlines()]
    numeric = []
    for k, line in enumerate(lines):
        key, sep, value = line.partition(" = ")
        if not sep or key in ("dt", "t_end"):
            continue
        try:
            float(value)
        except ValueError:
            continue
        numeric.append(k)
    return lines, numeric


def _flip(lines, k, key):
    """Flip the boolean key in the section headed by lines[k]; an absent key
    reads false, so flipping it adds key = true."""
    end = next((j for j in range(k + 1, len(lines)) if not lines[j]),
               len(lines))
    for j in range(k + 1, end):
        name, _, value = lines[j].partition(" = ")
        if name == key:
            lines[j] = f"{key} = {'false' if value == 'true' else 'true'}"
            return
    lines.insert(k + 1, f"{key} = true")


_MUTANT = st.one_of(_SPECIAL, st.sampled_from([-3.0, 1e-9, 1e9]),
                    st.floats(-1e3, 1e3))
_FLAGS = {"[branch.": "dynamic", "[event.": "open_branch"}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["smib", "motor_condenser", "gfm_probe"]),
       data=st.data(),
       value=_MUTANT, boolean=st.booleans())
def test_mutated_file_property(name, data, value, boolean):
    """A scenario file with one number replaced, or one boolean flipped,
    either runs or is rejected with a documented exit code, without a
    traceback or partial output.  The booleans are each branch's `dynamic`
    and each event's `open_branch`, so open_branch = true reaches every
    event kind.  A non-finite number is a parse error (exit 2) whatever
    its key."""
    lines, numeric = _numeric_lines(name)
    if boolean:
        flags = [(k, key) for k, line in enumerate(lines)
                 for head, key in _FLAGS.items() if line.startswith(head)]
        k, key = data.draw(st.sampled_from(flags), label="flag")
        _flip(lines, k, key)
    else:
        k = data.draw(st.sampled_from(numeric), label="line")
        key = lines[k].partition(" = ")[0]
        lines[k] = f"{key} = {value!r}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.ini")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        code = _assert_clean_exit(("run", "--file", path),
                                  os.path.join(tmp, "out"))
    if not boolean and not math.isfinite(value):
        assert code == 2


def _mostly(good, bad):
    """Three draws in four from good: a sweep runs only when every flag is
    valid, so uniform draws would almost never run one."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


@settings(max_examples=40, deadline=None)
@given(t_from=_mostly(st.sampled_from([1.05, 1.1, 1.12, 1.13]),
                      st.one_of(_SPECIAL, st.floats(1.0, 1.3))),
       step=_mostly(st.sampled_from([0.01, 0.02]),
                    st.one_of(_SPECIAL, st.just(0.0105), st.floats(1e-3, 0.1))),
       extra=_mostly(st.integers(0, 2), _SPECIAL),
       tail_tol=_mostly(st.one_of(st.none(), st.floats(1e-8, 1.0)), _SPECIAL),
       workers=st.sampled_from([1, 2]))
def test_sweep_flags_property(t_from, step, extra, tail_tol, workers):
    """Any sweep flags either run or are rejected with a documented exit
    code, without a traceback or partial output, and the clearing times of
    a written CSV strictly increase.  --to is --from plus 0 to 2 steps (at
    most 3 clearing times) or a special value; the smib file runs to
    t_end = 1.2 s, so each point is short."""
    if isinstance(extra, int) and math.isfinite(t_from + extra * step):
        t_to = t_from + extra * step
    else:
        t_to = extra if not isinstance(extra, int) else 1.12
    lines, _ = _numeric_lines("smib")
    flags = [f"--from={t_from!r}", f"--to={t_to!r}", f"--step={step!r}",
             f"--workers={workers}"]
    if tail_tol is not None:
        flags.append(f"--tail-tol={tail_tol!r}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smib.ini")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        if _assert_clean_exit(("sweep", "--file", path, *flags), out) == 0:
            assert os.listdir(out) == ["smib_sweep.csv"]
            with open(os.path.join(out, "smib_sweep.csv")) as handle:
                t_cl = [float(line.split(",")[0])
                        for line in handle.read().splitlines()[1:]]
            assert t_cl and all(a < b for a, b in zip(t_cl, t_cl[1:]))
