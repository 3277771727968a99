"""Clearing-time sweep: one run per candidate clearing time."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ..errors import SchemaError, SynchroLensError
from ..network import EventKind
from ..sim import run_simulation
from ..synccheck import evaluate_device, system_unstable
from .model import Scenario, grid_steps


@dataclass(frozen=True)
class SweepPoint:
    t_clear: float
    stable: bool | None           # None when the run itself failed
    als_pass: bool | None
    als_tail_max: float | None
    max_swing: float | None = None   # largest |delta - delta0| of the device, rad
    im_chi_5s: float | None = None   # sup |Im chi| within 5 s of clearing
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    monotone: bool
    last_passing: float | None
    first_failing: float | None

    @property
    def boundary(self):
        return (self.last_passing, self.first_failing)


def with_clearing_time(scenario: Scenario, t_clear: float) -> Scenario:
    """Copy of the scenario with its fault-clearing event moved to t_clear."""
    clear_events = [ev for ev in scenario.events
                    if ev.kind is EventKind.CLEAR_FAULT]
    apply_events = [ev for ev in scenario.events
                    if ev.kind is EventKind.APPLY_FAULT]
    if len(clear_events) != 1 or len(apply_events) != 1:
        raise SchemaError("clearing-time sweeps need exactly one "
                          "apply_fault/clear_fault pair")
    if t_clear <= apply_events[0].time:
        raise SchemaError(f"clearing time {t_clear} not after the fault at "
                          f"t={apply_events[0].time}")
    events = tuple(replace(ev, time=t_clear)
                   if ev.kind is EventKind.CLEAR_FAULT else ev
                   for ev in scenario.events)
    return replace(scenario, events=events)


def _run_point(args):
    scenario, t_clear, device_id, tail_tol = args
    try:
        run = run_simulation(with_clearing_time(scenario, t_clear))
        verdict = evaluate_device(run, device_id, tail_tol=tail_tol)
        swing = None
        names = run.state_names.get(device_id, ())
        if "delta" in names:
            delta = run.states[device_id][:, names.index("delta")]
            swing = float(np.abs(delta - delta[0]).max())
        from ..synccheck import numeric_chi
        chi = numeric_chi(run, device_id)
        window = (chi.t > t_clear) & (chi.t <= t_clear + 5.0) & chi.mask
        im_5s = float(np.abs(chi.values[window].imag).max()) if window.any() else None
        return SweepPoint(t_clear, not system_unstable(run),
                          verdict.als.passed, verdict.als.tail_max, swing, im_5s)
    except SynchroLensError as exc:
        return SweepPoint(t_clear, None, None, None, error=str(exc))


def cct_sweep(scenario: Scenario, t_from: float, t_to: float, step: float,
              device_id: str | None = None, tail_tol: float = 1e-4,
              workers: int = 1) -> SweepResult:
    """ALS/stability verdicts over a clearing-time range.

    Runs keep going past individual failures; the returned boundary is the
    (largest passing, smallest failing) pair by ALS verdict, with a flag for
    whether the verdicts are monotone in the clearing time.
    """
    if not all(math.isfinite(x) for x in (t_from, t_to, step)):
        raise SchemaError("sweep bounds and step must be finite")
    if step <= 0.0 or t_to < t_from:
        raise SchemaError("empty or inverted sweep range")
    if device_id is None:
        if not scenario.monitored:
            raise SchemaError("no monitored device to sweep on")
        device_id = scenario.monitored[0]
    with_clearing_time(scenario, max(t_to, t_from))   # fault-pair validation
    # every clearing time must lie on the dt grid, checked before any point
    # runs; on-grid times are reported as the grid instant
    times = []
    t = t_from
    while t <= t_to + 1e-9:
        k = grid_steps("clearing time", t, scenario.dt)
        times.append(round(k * scenario.dt, 12))
        t += step
    jobs = [(scenario, tc, device_id, tail_tol) for tc in times]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_run_point, jobs))
    else:
        points = [_run_point(job) for job in jobs]

    passes = [p.t_clear for p in points if p.als_pass is True]
    fails = [p.t_clear for p in points if p.als_pass is False]
    last_passing = max(passes) if passes else None
    first_failing = min(fails) if fails else None
    flags = [p.als_pass for p in points if p.als_pass is not None]
    monotone = all(not (a is False and b is True)
                   for a, b in zip(flags, flags[1:]))
    return SweepResult(tuple(points), monotone, last_passing, first_failing)
