"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with -s (or rely on pytest's
captured output on failure) to see the summary.
"""

import time

import numpy as np
import pytest

from helpers import rotate_result
from synchrolens.cf import cf_arrays
from synchrolens.scenarios import build_builtin, builtin_names, cct_sweep
from synchrolens.sim import SimConfig, run_simulation
from synchrolens.synccheck import (ORACLE_MAX_TOL, ORACLE_RMS_TOL,
                                   analytic_chi_all, angle_spread,
                                   check_als, crosscheck_chi, evaluate_device,
                                   numeric_chi, system_unstable)

RMS_TOL = 1e-3
MAX_TOL = 1e-2
EPSILON = 1e-4
TAIL_TOL = 1e-4


def _report(criterion, passed, detail=""):
    print(f"[acceptance] criterion {criterion}: "
          f"{'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_master_oracle_all_builtins(builtin_run):
    """Analytic vs numerically differentiated chi on every built-in."""
    assert (ORACLE_RMS_TOL, ORACLE_MAX_TOL) == (RMS_TOL, MAX_TOL)
    worst_rms, worst_max, total_runtime = 0.0, 0.0, 0.0
    checked = 0
    for name in builtin_names():
        scenario, result, runtime = builtin_run(name)
        total_runtime += runtime
        analytic = analytic_chi_all(result, scenario)
        assert analytic, f"{name}: no device offered a closed form"
        for dev, series in analytic.items():
            cc = crosscheck_chi(series, numeric_chi(result, dev), dev)
            worst_rms = max(worst_rms, cc.rms)
            worst_max = max(worst_max, cc.max)
            checked += 1
            assert cc.passed, (name, dev, cc.rms, cc.max, cc.worst_time)
    _report(1, worst_rms <= RMS_TOL and worst_max <= MAX_TOL
            and total_runtime < 60.0,
            f"{checked} device series, worst rms={worst_rms:.2e}, "
            f"worst max={worst_max:.2e}, runtime={total_runtime:.1f}s")


def test_criterion_2_zip_closed_forms(zip_probe_run):
    """Z/I/P loads against the numerically measured rho at their buses."""
    scenario, result, _ = zip_probe_run
    chi_z = numeric_chi(result, "Zl")
    err_z = np.abs(chi_z.values[chi_z.mask]).max()

    def rho_at(bus):
        from synchrolens.synccheck import voltage_cf
        return voltage_cf(result, bus)

    errs = {}
    for dev, factor in (("Il", -1.0), ("Pl", -2.0)):
        chi = numeric_chi(result, dev)
        rho, _, ok = rho_at(result.device_bus[dev])
        both = chi.mask & ok
        errs[dev] = np.abs(chi.values[both] - factor * rho[both]).max()
    _report(2, err_z <= 1e-6 and errs["Il"] <= 1e-4 and errs["Pl"] <= 1e-4,
            f"Z={err_z:.2e}, I={errs['Il']:.2e}, P={errs['Pl']:.2e}")


def test_criterion_3_smib_clearing_time_dichotomy(monkeypatch):
    """One monotone boundary in [1.05, 1.25]; the boundary is pinned."""
    chis = []   # a one-process sweep computes one chi per point, in order

    def recording(result, device_id):
        chis.append(numeric_chi(result, device_id))
        return chis[-1]

    monkeypatch.setattr("synchrolens.synccheck.numeric_chi", recording)
    scenario = build_builtin("smib")
    sweep = cct_sweep(scenario, 1.05, 1.25, 0.01, tail_tol=TAIL_TOL)
    assert all(p.error == "" for p in sweep.points)
    assert len(chis) == len(sweep.points)
    flags = [p.als_pass for p in sweep.points]
    transitions = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    boundary = (sweep.last_passing, sweep.first_failing)
    boundary_ok = (sweep.monotone and transitions == 1
                   and boundary == (1.12, 1.13))

    tails_ok = all(check_als(chi, TAIL_TOL).tail_max <= TAIL_TOL
                   for p, chi in zip(sweep.points, chis) if p.als_pass)

    # divergence side: Im chi beyond 1 pu within 5 s of clearing
    def im_chi_5s(t_clear, chi):
        window = (chi.t > t_clear) & (chi.t <= t_clear + 5.0) & chi.mask
        return float(np.abs(chi.values[window].imag).max())

    im_ok = all(im_chi_5s(p.t_clear, chi) > 1.0
                for p, chi in zip(sweep.points, chis) if not p.als_pass)
    _report(3, boundary_ok and tails_ok and im_ok,
            f"boundary={boundary}, monotone={sweep.monotone}, "
            f"tails_ok={tails_ok}, divergence_ok={im_ok}")


def test_criterion_4_kundur_separation_with_local_sync(builtin_run):
    scenario, result, _ = builtin_run("kundur")
    separated = system_unstable(result)
    machines_ok = all(
        evaluate_device(result, g, numeric_chi(result, g), epsilon=EPSILON,
                        tail_tol=TAIL_TOL).als.passed
        for g in ("G1", "G2", "G3", "G4"))
    z_ok = True
    z_worst = 0.0
    for dev, kind in result.device_kind.items():
        if kind.value != "zip":
            continue
        chi = numeric_chi(result, dev)
        variation = np.abs(chi.values[chi.mask]).max()
        z_worst = max(z_worst, variation)
        z_ok &= variation <= 1e-6
        z_ok &= evaluate_device(result, dev, chi).als.passed
    _report(4, separated and machines_ok and z_ok,
            f"spread={angle_spread(result):.1f} rad, machines_als={machines_ok}, "
            f"zip_variation={z_worst:.1e}")


def test_criterion_5_motor_stall_dichotomy(builtin_run, motor_stall_run):
    _, ride, _ = builtin_run("motor_condenser")
    ride_verdict = evaluate_device(ride, "M1", numeric_chi(ride, "M1"),
                                   tail_tol=TAIL_TOL)

    _, stall, _ = motor_stall_run
    sigma = stall.states["M1"][:, 0]
    stalled = bool((sigma >= 1.0).any())
    chi = numeric_chi(stall, "M1")
    pre = chi.mask & (chi.t < 1.0)
    pre_median = float(np.median(np.abs(chi.values[pre].real)))
    tail = chi.mask & (chi.t >= stall.t[-1] - 3.0)
    tail_re_max = float(np.abs(chi.values[tail].real).max())
    stall_verdict = evaluate_device(stall, "M1", chi, tail_tol=TAIL_TOL)
    ratio_ok = tail_re_max > 10.0 * max(pre_median, 1e-30)
    _report(5, ride_verdict.als.passed and stalled and ratio_ok
            and not stall_verdict.als.passed,
            f"ride tail={ride_verdict.als.tail_max:.1e}, sigma_max={sigma.max():.2f}, "
            f"tail_re={tail_re_max:.1e} vs pre={pre_median:.1e}, "
            f"stall_als={stall_verdict.als.passed}")


def test_criterion_6_stable_but_not_synchronous(builtin_run):
    scenario, result, _ = builtin_run("circuit_dc")
    bounded = all(np.abs(series).max() < 2.0
                  for series in result.voltages.values())
    bounded &= all(np.abs(series).max() < 2.0
                   for series in result.currents.values())

    p = (result.voltages["INJ"] * np.conj(result.currents["CS"])).real
    window = int(round(0.1 / result.dt))
    rolling = np.convolve(p, np.ones(window) / window, mode="valid")
    power_ok = np.abs(rolling).max() <= 1e-3

    chi = numeric_chi(result, "CS")
    persistent = np.abs(chi.values[chi.mask]).min() >= 0.9
    verdict = evaluate_device(result, "CS", chi, epsilon=EPSILON,
                              tail_tol=TAIL_TOL)
    _report(6, bounded and power_ok and persistent
            and not verdict.bls.passed and not verdict.als.passed,
            f"max 0.1s avg power={np.abs(rolling).max():.1e}, "
            f"min||chi||={np.abs(chi.values[chi.mask]).min():.3f}")


def test_criterion_7_bounded_but_not_bls(builtin_run):
    scenario, result, _ = builtin_run("sustained_oscillation")
    bounded = all(np.isfinite(s).all() and np.abs(s).max() < 10.0
                  for s in result.states.values())
    bounded &= all(np.abs(v).max() < 2.0 for v in result.voltages.values())
    verdict = evaluate_device(result, "G1", numeric_chi(result, "G1"),
                              epsilon=EPSILON, tail_tol=TAIL_TOL)
    slope_flat = abs(verdict.als.slope) <= 1e-3
    _report(7, bounded and not verdict.bls.passed and slope_flat,
            f"bls_sup={verdict.bls.sup_norm:.2e}, slope={verdict.als.slope:+.2e}/s")


def test_criterion_8_gfl_resonance(builtin_run):
    scenario, result, _ = builtin_run("gfl_seriescomp")
    t_clear = 1.1
    chi = numeric_chi(result, "C1")
    sel = (chi.t >= t_clear + 0.02) & (chi.t <= t_clear + 1.0) & chi.mask
    y = np.abs(chi.values[sel])
    t = chi.t[sel]
    peaks = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] > 1e-9)
    pt, pv = t[1:-1][peaks], y[1:-1][peaks]
    lam = np.polyfit(pt, np.log(pv), 1)[0]
    ratio = float(np.exp(lam * np.median(np.diff(pt))))
    verdict = evaluate_device(result, "C1", chi, tail_tol=TAIL_TOL)
    _report(8, 0.9 < ratio < 1.0 and verdict.als.passed
            and verdict.als.tail_max <= TAIL_TOL,
            f"decay ratio/cycle={ratio:.3f}, tail={verdict.als.tail_max:.1e} "
            f"by t_end={result.t[-1]:.0f}s")


def test_criterion_9_numerics(builtin_run):
    # integrator self-convergence (order >= 1.8) on the faulted SMIB
    from synchrolens.scenarios import with_clearing_time
    scenario = with_clearing_time(build_builtin("smib"), 1.08)

    def final_state(dt):
        run = run_simulation(scenario, SimConfig(dt=dt, t_end=3.0))
        return run.states["G1"][-1]

    ref = final_state(1.25e-4)
    errs = [np.max(np.abs(final_state(dt) - ref))
            for dt in (1e-3, 5e-4, 2.5e-4)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    order_ok = float(min(orders)) >= 1.8

    # differentiation error drops at least 3.5x when halving dt
    omega_b = 2.0 * np.pi * 60.0

    def cf_err(dt):
        t = dt * np.arange(int(round(0.5 / dt)) + 1)
        vals = np.exp(0.02 * np.sin(2 * np.pi * 3 * t)
                      + 1j * omega_b * (0.01 * t + 0.004 * np.sin(2 * np.pi * 2 * t)))
        cf_rho, cf_om = cf_arrays(vals, dt, 1.0, omega_b)
        rho = 0.02 * 2 * np.pi * 3 * np.cos(2 * np.pi * 3 * t) / omega_b
        om = 1.01 + 0.004 * 2 * np.pi * 2 * np.cos(2 * np.pi * 2 * t)
        return max(np.abs(cf_rho - rho).max(), np.abs(cf_om - om).max())

    cf_ratio = cf_err(1e-3) / cf_err(5e-4)

    # frame invariance of chi series and verdicts
    _, result, _ = builtin_run("smib")
    rotated = rotate_result(result, 0.05)
    a = numeric_chi(result, "G1")
    b = numeric_chi(rotated, "G1")
    both = a.mask & b.mask
    frame_err = np.abs(a.values[both] - b.values[both]).max()
    va, vb = evaluate_device(result, "G1", a), evaluate_device(rotated, "G1", b)
    verdicts_same = (va.bls.passed == vb.bls.passed
                     and va.als.passed == vb.als.passed)
    _report(9, order_ok and cf_ratio >= 3.5 and frame_err <= 1e-9
            and verdicts_same,
            f"order={min(orders):.2f}, cf_ratio={cf_ratio:.1f}, "
            f"frame_err={frame_err:.1e}")


def test_criterion_10_model_reduction_chain():
    from synchrolens.devices import (SmParams, sm2_params, sm4_params,
                                     sm_admittance_cf, sm_fg, sm_init)
    from tests.test_devices import _sm6_on_manifold

    def sm_current(state, params, v):
        return sm_fg(state, params, v, 0.0, 0.0)[1]

    omega_b = 2.0 * np.pi * 60.0
    p6 = SmParams(order=6, r_s=0.0025, x_d=1.8, x_q=1.7, x1_d=0.3, x1_q=0.55,
                  x2_d=0.3, x2_q=0.55, x_l=0.2, t1_d0=8.0, t1_q0=0.4,
                  t2_d0=0.01, t2_q0=0.01, m=13.0, d=2.0, omega_b=omega_b)
    p4 = sm4_params(r_s=0.0025, x_d=1.8, x_q=1.7, x1_d=0.3, x1_q=0.55,
                    x_l=0.2, t1_d0=8.0, t1_q0=0.4, m=13.0, d=2.0,
                    omega_b=omega_b)
    v = 1.02 * np.exp(0.2j)
    _, _, v_f = sm_init(p4, v, 0.8 + 0.2j)
    rng = np.random.default_rng(23)
    worst64 = 0.0
    for _ in range(100):
        s6 = _sm6_on_manifold(p6, rng, v, v_f)
        s4 = np.array([s6[0], s6[1], s6[4], s6[5]])
        i_net = sm_current(s6, p6, v)
        rho, omega = rng.normal(0, 0.02), 1 + rng.normal(0, 0.02)
        chi6 = sm_admittance_cf(s6, p6, v, i_net, rho, omega, v_f)
        chi4 = sm_admittance_cf(s4, p4, v, i_net, rho, omega, v_f)
        worst64 = max(worst64, abs(chi6 - chi4))

    p4c = sm4_params(r_s=0.0, x_d=0.3, x_q=0.3, x1_d=0.3, x1_q=0.3, x_l=0.15,
                     t1_d0=8.0, t1_q0=0.4, m=7.0, d=0.0, omega_b=omega_b)
    worst42 = 0.0
    for _ in range(100):
        delta = rng.normal(0.3, 0.3)
        omega_r = 1.0 + rng.normal(0.0, 0.01)
        e_q = abs(rng.normal(1.05, 0.1)) + 0.2
        s4 = np.array([delta, omega_r, 0.0, e_q])
        p2 = sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=omega_b, e_q0=e_q)
        i_net = sm_current(s4, p4c, v)
        if abs(i_net) < 1e-3:
            continue
        rho, omega = rng.normal(0, 0.02), 1 + rng.normal(0, 0.02)
        i_m = 1j * np.exp(-1j * delta) * i_net
        vf2 = e_q + (p4c.x_d - p4c.x1_d) * i_m.real
        chi4 = sm_admittance_cf(s4, p4c, v, i_net, rho, omega, vf2)
        chi2 = sm_admittance_cf(np.array([delta, omega_r]), p2, v, i_net, rho,
                      omega)
        worst42 = max(worst42, abs(chi4 - chi2))
    _report(10, worst64 <= 1e-12 and worst42 <= 1e-12,
            f"sm6->sm4 worst={worst64:.1e}, sm4->sm2 worst={worst42:.1e}")
