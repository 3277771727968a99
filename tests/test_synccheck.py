"""Verdict logic and the analytic-vs-numeric cross-check machinery."""

import numpy as np
import pytest

from helpers import (chi_from_xi_terms, gfl_xi_terms, rotate_result,
                     sm_xi_terms)
from synchrolens.errors import AxisMismatch, WindowTooShort
from synchrolens.synccheck import (ChiSeries, analytic_chi_all, check_als,
                                   check_bls, crosscheck_chi, evaluate_device,
                                   numeric_chi)


def series(values, dt=1e-2, mask=None):
    values = np.asarray(values, dtype=complex)
    t = dt * np.arange(len(values))
    mask = np.ones(len(values), dtype=bool) if mask is None else mask
    return ChiSeries(t, values, mask)


def test_bls_zero_series_passes_any_epsilon():
    chi = series(np.zeros(1200))
    for eps in (1e-12, 1e-6, 1e-2):
        assert check_bls(chi, 0.0, eps, settle=1.0).passed


def test_bls_flat_oscillation_fails_small_epsilon():
    t = 1e-2 * np.arange(1500)
    chi = series(0.05 * np.sin(2 * np.pi * 2 * t))
    out = check_bls(chi, 0.0, 1e-4, settle=1.0)
    assert not out.passed
    assert out.sup_norm == pytest.approx(0.05, rel=1e-2)


def test_bls_decaying_exponential_passes():
    t = 1e-2 * np.arange(1001)   # 10 s span
    chi = series(0.1 * np.exp(-t))
    assert check_bls(chi, 0.0, 1e-3, settle=8.0).passed


def test_bls_window_too_short():
    with pytest.raises(WindowTooShort):
        check_bls(series(np.zeros(100)), 0.0, 1e-4, settle=0.5)


def test_als_zero_series_passes():
    out = check_als(series(np.zeros(1000)), tail_tol=1e-4, tail_window=3.0)
    assert out.passed and out.slope == 0.0


def test_als_divergence_fails():
    t = 1e-2 * np.arange(1000)
    chi = series(1e-6 * np.exp(t))
    out = check_als(chi, tail_tol=1e-4, tail_window=3.0)
    assert not out.passed


def test_als_limit_cycle_above_tol_fails_with_flat_slope():
    t = 1e-2 * np.arange(2000)
    chi = series(0.02 * np.sin(2 * np.pi * 5 * t) + 0.02j)
    out = check_als(chi, tail_tol=1e-4, tail_window=3.0)
    assert not out.passed
    assert abs(out.slope) < 1e-2


def test_als_masked_divergence_guard():
    # decays below tolerance, but the very last unmasked samples jump 100x
    t = 1e-2 * np.arange(1000)
    values = 1e-6 * np.ones(1000)
    values[-3:] = 5e-5
    out = check_als(series(values), tail_tol=1e-4, tail_window=3.0)
    assert not out.passed


def test_als_tail_without_unmasked_samples():
    """No verdict from a tail with every sample masked.  evaluate_device
    never gets here, as check_bls stops such a series first."""
    mask = np.ones(1000, dtype=bool)
    mask[-400:] = False
    with pytest.raises(WindowTooShort,
                       match="^als tail has no unmasked samples$"):
        check_als(series(np.zeros(1000), mask=mask), tail_tol=1e-4,
                  tail_window=3.0)


def test_crosscheck_identical_series():
    chi = series(np.full(5000, 0.1 + 0.05j))
    out = crosscheck_chi(chi, chi)
    assert out.rms == 0.0 and out.max == 0.0 and out.passed


def test_crosscheck_single_spike_arithmetic():
    a = series(np.zeros(10000))
    values = np.zeros(10000, dtype=complex)
    values[4321] = 1e-2
    b = series(values)
    out = crosscheck_chi(a, b)
    assert out.max == pytest.approx(1e-2)
    assert out.rms == pytest.approx(1e-4)
    assert out.worst_time == pytest.approx(43.21)


def test_crosscheck_axis_mismatch():
    with pytest.raises(AxisMismatch):
        crosscheck_chi(series(np.zeros(10)), series(np.zeros(11)))


def test_constant_impedance_chi_tiny_everywhere(zip_probe_run):
    _, result, _ = zip_probe_run
    chi = numeric_chi(result, "Zl")
    assert np.abs(chi.values[chi.mask]).max() < 1e-6


def test_verdict_consistency_als_implies_bls(builtin_run):
    for name in ("smib", "kundur", "gfl_seriescomp"):
        _, result, _ = builtin_run(name)
        for dev in result.currents:
            if not result.active[dev][-1]:
                continue
            verdict = evaluate_device(result, dev, numeric_chi(result, dev))
            if verdict.als.passed:
                assert verdict.bls.passed, (name, dev)


def test_frame_invariance_of_chi_and_verdicts(builtin_run):
    scenario, result, _ = builtin_run("smib")
    rotated = rotate_result(result, 0.05)
    base = numeric_chi(result, "G1")
    rot = numeric_chi(rotated, "G1")
    both = base.mask & rot.mask
    assert np.abs(base.values[both] - rot.values[both]).max() < 1e-9
    v0 = evaluate_device(result, "G1", base)
    v1 = evaluate_device(rotated, "G1", rot)
    assert v0.bls.passed == v1.bls.passed
    assert v0.als.passed == v1.als.passed
    an0 = analytic_chi_all(result, scenario)["G1"]
    an1 = analytic_chi_all(rotated, scenario)["G1"]
    assert np.abs(an0.values[both] - an1.values[both]).max() < 1e-9


def test_numeric_chi_sign_convention_blind(builtin_run):
    from dataclasses import replace
    _, result, _ = builtin_run("smib")
    flipped = replace(result,
                      currents={d: -i for d, i in result.currents.items()})
    a = numeric_chi(result, "G1")
    b = numeric_chi(flipped, "G1")
    assert np.array_equal(a.mask, b.mask)
    assert np.abs(a.values[a.mask] - b.values[b.mask]).max() < 1e-12


def test_low_magnitude_masked_not_raised(builtin_run):
    from dataclasses import replace
    _, result, _ = builtin_run("smib")
    currents = {d: i.copy() for d, i in result.currents.items()}
    currents["G1"][100:110] = 1e-9   # force a near-zero stretch
    poked = replace(result, currents=currents)
    chi = numeric_chi(poked, "G1")
    assert not chi.mask[100:110].any()
    assert np.isfinite(chi.values[chi.mask]).all()


@pytest.mark.parametrize("name", ["kundur", "gfl_seriescomp", "motor_condenser"])
def test_analytic_chi_matches_xi_terms_composition(builtin_run, name):
    """The production chi kernels, sample by sample, against the independent
    xi-terms route composed with chi_from_xi_terms."""
    from synchrolens.devices.inverter import GflAdapter
    from synchrolens.devices.machine import SmAdapter
    from synchrolens.sim import build_adapters
    from synchrolens.synccheck import voltage_cf
    scenario, result, _ = builtin_run(name)
    chi_all = analytic_chi_all(result, scenario)
    for a in build_adapters(scenario):
        if not isinstance(a, (SmAdapter, GflAdapter)):
            continue
        v = result.voltages[a.bus]
        i = result.currents[a.id]
        a.init(complex(v[0]), complex(v[0] * np.conj(i[0])))
        rho, om, _ = voltage_cf(result, a.bus)
        chi = chi_all[a.id]
        checked = 0
        for k in np.flatnonzero(chi.mask)[::25]:
            st, v_k, i_k = result.states[a.id][k], v[k], i[k] / a.ratio
            if isinstance(a, SmAdapter):
                terms = sm_xi_terms(st[:a.params.order], a.params, v_k, i_k,
                                    v_f=a.v_field(st[-1], v_k))
            else:
                terms = gfl_xi_terms(st, a.params, v_k, i_k)
            composed = chi_from_xi_terms(terms.xi_a, terms.k_rho,
                                         terms.k_omega, float(rho[k]),
                                         float(om[k]))
            assert abs(composed - chi.values[k]) < 1e-9, (a.id, k)
            checked += 1
        assert checked >= 20, a.id


@pytest.mark.parametrize("decimation, samples", [(3, [334, 374]),
                                                 (7, [143, 160])])
def test_events_between_recorded_samples_are_masked(decimation, samples):
    """An event whose step the decimation does not divide masks the first
    recorded sample after it, so the closed form still matches."""
    from dataclasses import replace
    from synchrolens.scenarios import build_builtin
    from synchrolens.sim import run_simulation
    scenario = replace(build_builtin("smib"), record_decimation=decimation)
    result = run_simulation(scenario)
    assert result.event_samples == samples
    cc = crosscheck_chi(analytic_chi_all(result, scenario)["G1"],
                        numeric_chi(result, "G1"), "G1")
    assert cc.passed, (cc.rms, cc.max)
