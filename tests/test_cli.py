"""CLI surface: files, determinism, exit codes, report schema."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from synchrolens.cli import main
from synchrolens.scenarios import build_builtin, serialize_scenario


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


def _smib_file(tmp_path, key, value):
    """smib as a scenario file with one [sim] key set to the given text."""
    lines = serialize_scenario(build_builtin("smib")).splitlines()
    k = next(j for j, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[k] = f"{key} = {value}"
    path = tmp_path / "in" / "smib.ini"
    path.parent.mkdir()
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_SWEEP = ("sweep", "--builtin", "smib")
_RUN = ("run", "--builtin", "smib")


@pytest.mark.parametrize("argv", [
    pytest.param(_RUN + ("--dt", "nan"), id="dt-nan"),
    pytest.param(_RUN + ("--t-end", "inf"), id="t-end-inf"),
    pytest.param(_RUN + ("--epsilon", "-1"), id="epsilon-negative"),
    pytest.param(_RUN + ("--tail-tol", "nan"), id="run-tail-tol-nan"),
    pytest.param(_RUN + ("--clear-time", "nan"), id="clear-time-nan"),
    pytest.param(("file", "record_decimation", "0"), id="decimation-zero"),
    pytest.param(("file", "record_decimation", "-1"), id="decimation-negative"),
    pytest.param(("file", "record_decimation", "2.7"),
                 id="decimation-fractional"),
    pytest.param(("file", "dt", "0.0"), id="file-dt-zero"),
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
    pytest.param(_RUN + ("--dt", "7e-4"), id="events-off-dt-grid"),
    pytest.param(_RUN + ("--dt", "3e-3", "--t-end", "0.0101"),
                 id="t-end-off-dt-grid"),
    pytest.param(_RUN + ("--dt", "0.01", "--t-end", "0.01"),
                 id="too-few-samples"),
])
def test_invalid_input_exit_2(tmp_path, capsys, argv):
    """Bad settings are rejected with exit 2 and a message, before any
    simulation and without a traceback or partial output."""
    if argv[0] == "file":
        argv = ("run", "--file", _smib_file(tmp_path, *argv[1:]))
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    assert not out.exists() or not list(out.glob("smib_*"))


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


def test_report_schema_valid(smib_outputs):
    report = json.loads((smib_outputs / "smib_report.json").read_text())
    import importlib.resources as resources
    schema = json.loads(
        resources.files("synchrolens").joinpath("report_schema.json").read_text())
    _validate(report, schema)
    assert report["exit_status"] == 0


def _validate(value, schema, path="$"):
    """Minimal JSON-schema subset checker (type/required/properties/items)."""
    kind = schema.get("type")
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(*_RUN, "--out", out, *dt, *t_end, *epsilon,
                           *tail_tol, *clear_time)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        left = os.listdir(out) if os.path.isdir(out) else []
        assert not [f for f in left if f.startswith(".synchrolens-")]
        if code == 0:
            assert sorted(left) == ["smib_chi.csv", "smib_report.json",
                                    "smib_traj.csv"]
        else:
            assert left == [] and err.getvalue()
