"""The program names that perfbench's tracer wraps stay where it looks.

perfbench/tracer.py replaces each binding of its BINDINGS table in its
owner's __dict__ to time a layer.  A refactor that moves or drops one would
silently drop that layer's span (sim.step, sim.fg, sim.run, ...), which
perfbench/selftest.py needs; this guard fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
