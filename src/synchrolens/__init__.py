"""Phasor-domain transient simulation and complex-frequency synchronization analysis."""

from .cf import MIN_MAG
from .errors import SynchroLensError
from .network import Branch, Bus, Event, EventKind, Network
from .scenarios import (DeviceSpec, Scenario, build_builtin, builtin_names,
                        cct_sweep, load_scenario, serialize_scenario)
from .sim import SimConfig, SimResult, initialize, run_simulation
from .synccheck import (ChiSeries, SyncVerdict, analytic_chi_all, check_als,
                        check_bls, crosscheck_chi, evaluate_device,
                        numeric_chi, system_unstable)

__version__ = "0.1.0"

__all__ = [
    "MIN_MAG",
    "SynchroLensError",
    "Bus", "Branch", "Event", "EventKind", "Network",
    "Scenario", "DeviceSpec", "build_builtin", "builtin_names",
    "load_scenario", "serialize_scenario", "cct_sweep",
    "SimConfig", "SimResult", "initialize", "run_simulation",
    "ChiSeries", "SyncVerdict", "numeric_chi", "analytic_chi_all",
    "check_bls", "check_als", "crosscheck_chi", "evaluate_device",
    "system_unstable",
]
