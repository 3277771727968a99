"""Clearing-time sweep: one run per candidate clearing time."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import USAGE_ERRORS, SchemaError, SynchroLensError
from ..network import EventKind
from ..sim import run_simulation
from ..synccheck import DEFAULT_TAIL_TOL, evaluate_device, system_unstable
from .model import Scenario, grid_steps


@dataclass(frozen=True)
class SweepPoint:
    t_clear: float
    stable: bool | None           # None when the run itself failed
    als_pass: bool | None
    max_swing: float | None = None   # largest |delta - delta0| of the device, rad
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    monotone: bool
    last_passing: float | None
    first_failing: float | None


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
        # bound at call time, so a wrapper on synccheck.numeric_chi sees it
        from ..synccheck import numeric_chi
        chi = numeric_chi(run, device_id)
        verdict = evaluate_device(run, device_id, chi, tail_tol=tail_tol)
        swing = None
        names = run.state_names.get(device_id, ())
        if "delta" in names:
            delta = run.states[device_id][:, names.index("delta")]
            swing = float(np.abs(delta - delta[0]).max())
        return SweepPoint(t_clear, not system_unstable(run),
                          verdict.als.passed, swing)
    except USAGE_ERRORS:
        raise   # an input error holds at every clearing time
    except SynchroLensError as exc:
        return SweepPoint(t_clear, None, None, error=str(exc))


def cct_sweep(scenario: Scenario, t_from: float, t_to: float, step: float,
              tail_tol: float = DEFAULT_TAIL_TOL,
              workers: int = 1) -> SweepResult:
    """ALS/stability verdicts of the first monitored device over a
    clearing-time range.

    Runs keep going past individual failures; the returned boundary is the
    (largest passing, smallest failing) pair by ALS verdict, with a flag for
    whether the verdicts are monotone in the clearing time.
    """
    if not all(math.isfinite(x) for x in (t_from, t_to, step)):
        raise SchemaError("sweep bounds and step must be finite")
    if step <= 0.0 or t_to < t_from:
        raise SchemaError("empty or inverted sweep range")
    if workers < 1:
        raise SchemaError(f"workers must be at least 1, got {workers}")
    if not scenario.monitored:
        raise SchemaError("no monitored device to sweep on")
    with_clearing_time(scenario, max(t_to, t_from))   # fault-pair validation
    # the first clearing time and the step must lie on the dt grid, checked
    # before any point runs; the times are whole steps apart, so none
    # repeats, and are reported as the grid instant
    k_step = grid_steps("sweep --step", step, scenario.dt)
    if k_step < 1:
        raise SchemaError(f"sweep --step {step} is less than one step "
                          f"(dt={scenario.dt})")
    times = []
    k = grid_steps("clearing time", t_from, scenario.dt)
    while k * scenario.dt <= t_to + 1e-9:
        times.append(round(k * scenario.dt, 12))
        k += k_step
    jobs = [(scenario, tc, scenario.monitored[0], tail_tol) for tc in times]
    # the pool starts all its processes at once: no more than there are points
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which every other
        # command and a one-process sweep would load at start-up for nothing
        from concurrent.futures import ProcessPoolExecutor
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
