"""Scenario construction: built-ins, file IO, analytic circuit, sweeps."""

from .builtins import build_builtin, builtin_description, builtin_names
from .circuit import circuit_dc_waveforms, run_analytic
from .fileio import load_scenario, serialize_scenario
from .model import DeviceSpec, Scenario
from .sweep import SweepPoint, SweepResult, cct_sweep, with_clearing_time

__all__ = [
    "Scenario", "DeviceSpec",
    "builtin_names", "builtin_description", "build_builtin",
    "load_scenario", "serialize_scenario",
    "circuit_dc_waveforms", "run_analytic",
    "cct_sweep", "with_clearing_time", "SweepPoint", "SweepResult",
]
