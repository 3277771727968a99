"""The program names that perfbench's tracer wraps stay where it looks.

perfbench/tracer.py replaces each binding of its BINDINGS table in its
owner's __dict__ to time a layer.  A refactor that moves or drops one would
silently drop that layer's span (sim.step, sim.fg, sim.run, ...), which
perfbench/selftest.py needs; this guard fails first.
"""

import importlib
import importlib.util
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
