"""Numeric admittance-CF extraction, BLS/ALS verdicts and cross-checks.

The two synchronization criteria are finite-horizon operationalizations: BLS
passes when the supremum of ||chi|| beyond the settling window stays below
epsilon; ALS passes when the tail maximum is below the tail tolerance and
the log-envelope slope over the tail is non-positive.  Samples around
discrete events or with near-zero magnitudes are masked, never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cf import MIN_MAG, cf_arrays
from .errors import AxisMismatch, WindowTooShort
from .sim import SimResult, build_adapters

EVENT_MASK_HALF_WIDTH = 2
DEFAULT_EPSILON = 1e-4
DEFAULT_TAIL_TOL = 1e-4
DEFAULT_SETTLE = 2.0
DEFAULT_TAIL_WINDOW = 3.0

# ||chi|| floor below which the envelope slope is treated as settled
_SLOPE_FLOOR = 1e-12

# master-oracle bounds on the RMS and sup of |closed-form chi - numeric chi|
ORACLE_RMS_TOL = 1e-3
ORACLE_MAX_TOL = 1e-2


@dataclass(frozen=True)
class ChiSeries:
    """Per-sample complex chi with a validity mask on a shared time axis."""

    t: np.ndarray
    values: np.ndarray
    mask: np.ndarray        # True where the sample is usable


@dataclass(frozen=True)
class BlsCheck:
    passed: bool
    epsilon: float
    sup_norm: float
    window: tuple


@dataclass(frozen=True)
class AlsCheck:
    passed: bool
    tail_tol: float
    tail_max: float
    slope: float
    window: tuple


@dataclass(frozen=True)
class SyncVerdict:
    device: str
    bls: BlsCheck
    als: AlsCheck
    chi_at_t0: float | None   # None when no sample has a valid chi
    notes: str = ""


@dataclass(frozen=True)
class ChiCrossCheck:
    device: str
    rms: float
    max: float
    worst_time: float
    n_samples: int
    passed: bool


def event_mask(n_samples, event_samples):
    """Validity mask excluding EVENT_MASK_HALF_WIDTH samples around events."""
    w = EVENT_MASK_HALF_WIDTH
    mask = np.ones(n_samples, dtype=bool)
    for s in event_samples:
        mask[max(0, s - w):min(n_samples, s + w + 1)] = False
    return mask


def _cf_with_mask(values, result: SimResult, valid=True):
    """CF arrays of a recorded signal and where they are usable: where
    |values| >= MIN_MAG and valid hold at the sample and at both neighbours,
    as the derivative stencil reaches across them (mask erosion by one)."""
    big = np.abs(values) >= MIN_MAG
    safe = np.where(big, values, 1.0 + 0.0j)
    rho, omega = cf_arrays(safe, result.dt, result.frame_omega, result.omega_b)
    valid = big & valid
    ok = valid.copy()
    ok[1:] &= valid[:-1]
    ok[:-1] &= valid[1:]
    return rho, omega, ok


def voltage_cf(result: SimResult, bus_id: str):
    """(rho, omega, valid) of a bus voltage; samples of a small voltage,
    next to one, or within +-2 samples of an event are not valid."""
    v = result.voltages[bus_id]
    rho, omega, ok = _cf_with_mask(v, result)
    return rho, omega, ok & event_mask(len(v), result.event_samples)


def numeric_chi(result: SimResult, device_id: str) -> ChiSeries:
    """chi = CF(injected current) - CF(bus voltage) on the recorded grid.

    Samples where the bus voltage's CF is not valid (voltage_cf), or where
    the current is small or the device inactive there or at a neighbour, are
    masked rather than reported as failures.
    """
    rho_v, om_v, ok_v = voltage_cf(result, result.device_bus[device_id])
    rho_i, om_i, ok_i = _cf_with_mask(result.currents[device_id], result,
                                      result.active[device_id])
    chi = (rho_i - rho_v) + 1j * (om_i - om_v)
    return ChiSeries(result.t, chi, ok_v & ok_i)


def analytic_chi_all(result: SimResult, scenario):
    """Closed-form chi for every device that has one: dict id -> ChiSeries.

    Each adapter evaluates its model's chi kernel once over the whole sample
    axis, from the recorded states, terminal voltage and injected current.
    Device inputs (tau_m, field voltage, references) are re-derived from the
    t=0 operating point, which run_simulation guarantees is an equilibrium.
    """
    out = {}
    eta_cache = {}
    for a in build_adapters(scenario):
        bus = result.device_bus[a.id]
        v = result.voltages[bus]
        i = result.currents[a.id]
        states = None
        if a.n_states:
            s0 = v[0] * np.conj(i[0])
            a.init(complex(v[0]), complex(s0))
            states = result.states[a.id]
        if bus not in eta_cache:
            eta_cache[bus] = voltage_cf(result, bus)
        rho_v, om_v, ok_v = eta_cache[bus]
        chi = a.chi(states, v, i, rho_v, om_v)
        if chi is not None:
            valid = ok_v & (np.abs(i) >= MIN_MAG) & result.active[a.id]
            out[a.id] = ChiSeries(result.t, chi, valid)
    return out


def check_bls(chi: ChiSeries, t0: float, epsilon: float,
              settle: float = DEFAULT_SETTLE) -> BlsCheck:
    """Pass iff sup of ||chi|| over t > t0 + settle stays below epsilon."""
    start = t0 + settle
    t_end = float(chi.t[-1])
    if t_end - start < 1.0:
        raise WindowTooShort(
            f"bls window ({start:.2f}, {t_end:.2f}) shorter than 1 s")
    sel = (chi.t > start) & chi.mask
    if not sel.any():
        raise WindowTooShort("bls window has no unmasked samples")
    sup = float(np.abs(chi.values[sel]).max())
    return BlsCheck(sup < epsilon, epsilon, sup, (start, t_end))


def _envelope_slope(t, norm, n_bins=8):
    """Least-squares slope of log10 sub-window maxima, 1/s."""
    edges = np.linspace(t[0], t[-1], n_bins + 1)
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (t >= a) & (t <= b)
        if sel.any():
            peak = norm[sel].max()
            xs.append(0.5 * (a + b))
            ys.append(np.log10(max(peak, _SLOPE_FLOOR)))
    if len(xs) < 2 or max(ys) <= np.log10(_SLOPE_FLOOR) + 1.0:
        return 0.0
    coef = np.polyfit(xs, ys, 1)
    return float(coef[0])


def check_als(chi: ChiSeries, tail_tol: float = DEFAULT_TAIL_TOL,
              tail_window: float = DEFAULT_TAIL_WINDOW) -> AlsCheck:
    """Pass iff the final tail_window of ||chi|| stays below tail_tol and the
    log-envelope slope keeps the extrapolated envelope below tail_tol for at
    least one more window (a signal exactly at tolerance must therefore have
    a non-positive slope).  A late divergence hidden by masking also fails:
    the last unmasked sample may not exceed 10x the run median."""
    t_end = float(chi.t[-1])
    start = t_end - tail_window
    if start <= float(chi.t[0]):
        raise WindowTooShort(
            f"tail window {tail_window} s exceeds the simulated span")
    sel = (chi.t >= start) & chi.mask
    if not sel.any():
        raise WindowTooShort("als tail has no unmasked samples")
    norm_tail = np.abs(chi.values[sel])
    tail_max = float(norm_tail.max())
    slope = _envelope_slope(chi.t[sel], norm_tail)
    passed = bool(tail_max < tail_tol
                  and slope * tail_window
                  <= np.log10(tail_tol / max(tail_max, _SLOPE_FLOOR)))

    all_norm = np.abs(chi.values[chi.mask])
    if len(all_norm):
        median = float(np.median(all_norm))
        last = float(all_norm[-1])
        if median > 0.0 and last > 10.0 * median and last > tail_tol:
            passed = False
    return AlsCheck(passed, tail_tol, tail_max, slope, (start, t_end))


def crosscheck_chi(analytic: ChiSeries, numeric: ChiSeries,
                   device: str = "") -> ChiCrossCheck:
    """RMS and sup norm of the componentwise difference on shared valid
    samples, passed when within ORACLE_RMS_TOL and ORACLE_MAX_TOL."""
    if len(analytic.t) != len(numeric.t) or not np.array_equal(analytic.t, numeric.t):
        raise AxisMismatch("chi series do not share a time axis")
    both = analytic.mask & numeric.mask
    if not both.any():
        raise AxisMismatch("no commonly valid samples")
    diff = np.abs(analytic.values[both] - numeric.values[both])
    worst = int(np.argmax(diff))
    rms, sup = float(np.sqrt(np.mean(diff ** 2))), float(diff.max())
    return ChiCrossCheck(device=device, rms=rms, max=sup,
                         worst_time=float(numeric.t[both][worst]),
                         n_samples=int(both.sum()),
                         passed=rms <= ORACLE_RMS_TOL and sup <= ORACLE_MAX_TOL)


def last_event_time(result: SimResult):
    return max((t for t, _ in result.events), default=0.0)


def evaluate_device(result: SimResult, device_id: str, chi: ChiSeries,
                    epsilon: float = DEFAULT_EPSILON,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> SyncVerdict:
    """BLS + ALS verdict for one device from its numeric chi.

    The BLS window is anchored so it never starts before the ALS tail does;
    with that alignment an ALS pass implies a BLS pass for every epsilon at
    or above the tail tolerance.
    """
    t_end = float(chi.t[-1])
    bls_start = max(last_event_time(result) + DEFAULT_SETTLE,
                    t_end - DEFAULT_TAIL_WINDOW)
    bls = check_bls(chi, bls_start - DEFAULT_SETTLE, epsilon, DEFAULT_SETTLE)
    als = check_als(chi, tail_tol, DEFAULT_TAIL_WINDOW)
    first = np.flatnonzero(chi.mask)
    chi_t0 = float(np.abs(chi.values[first[0]])) if len(first) else None
    notes = ""
    if not result.active[device_id][-1]:
        notes = "device disconnected during the run; verdict covers active span"
    return SyncVerdict(device_id, bls, als, chi_t0, notes)


def angle_spread(result: SimResult):
    """Largest drift-relative angle spread between rotating devices, rad."""
    series = []
    for dev, names in result.state_names.items():
        if "delta" in names:
            col = names.index("delta")
            series.append(result.states[dev][:, col])
    for dev, kind in result.device_kind.items():
        if kind.value == "voltage_source":
            series.append(np.zeros(len(result.t)))
    if len(series) < 2:
        return 0.0
    rel = np.stack([s - s[0] for s in series])
    spread = rel.max(axis=0) - rel.min(axis=0)
    return float(spread.max())


def system_unstable(result: SimResult):
    """Angle-separation instability flag (spread beyond 180 degrees)."""
    return bool(angle_spread(result) > np.pi)
