"""The program names that perfbench's tracer wraps stay where it looks,
and the benchmark's set-up probe still runs.

perfbench/tracer.py replaces each binding of its BINDINGS table in its
owner's __dict__ to time a layer.  A refactor that moves or drops one would
silently drop that layer's span (sim.step, sim.fg, sim.run, ...), which
perfbench/selftest.py needs; this guard fails first.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "perfbench" / "tracer.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


@pytest.mark.parametrize("module, owner, attr, span", _bindings(),
                         ids=lambda value: str(value))
def test_traced_binding_exists(module, owner, attr, span):
    found = importlib.import_module(module)
    if owner is not None:
        found = found.__dict__[owner]
    assert callable(found.__dict__.get(attr)), f"{module}.{owner}.{attr}"


def test_perfbench_selftest_passes():
    """perfbench's self-test runs every workload under the tracer and
    checks its output checks and spans, so a writer that breaks the
    tracer's str contract or drops a span fails here rather than in a
    benchmark run."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=_ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def _workloads():
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


@pytest.mark.parametrize("workload", _workloads())
def test_setup_probe_runs(tmp_path, workload):
    """perfbench/probe.py times each workload's set-up through
    SimConfig.from_scenario and sim.initialize, and a benchmark run stops
    when it fails; perfbench/selftest.py does not run it.  So it runs here
    as the benchmark runs it, --prepare and then one probe, each exiting 0,
    the probe's last line a JSON object with its setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                else []))
    probe = [sys.executable, str(_ROOT / "perfbench" / "probe.py"),
             "--workload", workload, "--seed", "0", "--out", str(tmp_path)]
    for extra in (["--prepare"], ["--probe", "0"]):
        done = subprocess.run(probe + extra, cwd=_ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["setup_s"] > 0.0
