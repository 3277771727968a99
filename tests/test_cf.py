"""CF extraction (cf_arrays) against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chi_from_xi_terms
from synchrolens.cf import cf_arrays
from synchrolens.errors import TooFewSamples

OMEGA_B = 2.0 * np.pi * 60.0


def sample(fn, dt=1e-3, t_end=0.5):
    """(samples of fn on a uniform grid from t = 0, the time axis)."""
    t = dt * np.arange(int(round(t_end / dt)) + 1)
    return np.asarray(fn(t), dtype=complex), t


def cf(values, dt=1e-3, frame_omega=1.0):
    return cf_arrays(values, dt, frame_omega, OMEGA_B)


def rotate(values, t, delta_omega):
    """Samples re-expressed in a frame rotating delta_omega pu faster."""
    return values * np.exp(-1j * delta_omega * OMEGA_B * t)


def test_constant_trajectory_cf_is_frame_speed():
    values, _ = sample(lambda t: np.full_like(t, 1.0 + 0.0j, dtype=complex))
    rho, omega = cf(values)
    assert np.allclose(rho, 0.0, atol=1e-12)
    assert np.allclose(omega, 1.0, atol=1e-12)


def test_exponential_recovers_growth_and_speed():
    sigma = 0.05 * OMEGA_B
    d_omega = 0.01
    values, _ = sample(
        lambda t: np.exp(sigma * t) * np.exp(1j * d_omega * OMEGA_B * t))
    rho, omega = cf(values)
    interior = slice(1, -1)
    assert np.abs(rho[interior] - 0.05).max() < 1e-6
    assert np.abs(omega[interior] - 1.01).max() < 1e-6


def test_halving_dt_reduces_error_at_least_3_5x():
    # curved log-magnitude and phase so the second-order truncation error is
    # visible; the exact CF follows from the differentiable exponent
    am, wm = 0.02, 2.0 * np.pi * 3.0
    fm, wf = 0.004, 2.0 * np.pi * 2.0

    def signal(t):
        return np.exp(am * np.sin(wm * t)
                      + 1j * OMEGA_B * (0.01 * t + fm * np.sin(wf * t)))

    def exact(t):
        rho = am * wm * np.cos(wm * t) / OMEGA_B
        omega = 1.0 + 0.01 + fm * wf * np.cos(wf * t)
        return rho, omega

    def worst_error(dt):
        values, t = sample(signal, dt=dt)
        rho, omega = cf(values, dt)
        rho_x, omega_x = exact(t)
        return max(np.abs(rho - rho_x).max(), np.abs(omega - omega_x).max())

    e1, e2 = worst_error(1e-3), worst_error(5e-4)
    assert e1 / e2 >= 3.5


def test_two_tone_matches_symbolic_oracle():
    """Circuit-style waveform vs a sympy-differentiated CF, <= 10*dt^2."""
    import sympy as sp

    emf, ripple = 1.0, 1e-4
    dt = 1e-3
    values, t = sample(lambda t: emf + ripple * np.exp(-1j * OMEGA_B * t),
                       dt=dt, t_end=0.2)

    ts = sp.symbols("t", real=True)
    wb = sp.Float(OMEGA_B)
    v_d = emf + ripple * sp.cos(wb * ts)
    v_q = -ripple * sp.sin(wb * ts)
    mag2 = v_d ** 2 + v_q ** 2
    rho_sym = sp.diff(sp.log(sp.sqrt(mag2)), ts) / wb
    omega_sym = (v_d * sp.diff(v_q, ts) - v_q * sp.diff(v_d, ts)) / mag2 / wb + 1
    rho_fn = sp.lambdify(ts, sp.simplify(rho_sym), "numpy")
    omega_fn = sp.lambdify(ts, sp.simplify(omega_sym), "numpy")

    rho, omega = cf(values, dt)
    err = max(np.abs(rho - rho_fn(t)).max(),
              np.abs(omega - omega_fn(t)).max())
    assert err <= 10.0 * dt ** 2


def test_cf_rejects_small_magnitude_and_short_series():
    # near-zero magnitudes are masked by the callers, not rejected here
    # (test_synccheck::test_low_magnitude_masked_not_raised)
    with pytest.raises(TooFewSamples):
        cf(np.array([1.0, 1.0], dtype=complex))


def test_angle_unwrap_across_pi():
    # steady rotation at -1 pu crosses +-pi every cycle; omega must stay flat
    values, _ = sample(lambda t: np.exp(-1j * OMEGA_B * t), t_end=0.1)
    _, omega = cf(values)
    assert np.abs(omega).max() < 1e-9


def test_chi_from_xi_terms_load_signatures():
    rho, omega = 0.03, 1.0
    z = chi_from_xi_terms(0.0, 1.0, 1.0j, rho, omega)
    assert abs(z.real) < 1e-15 and abs(z.imag) < 1e-15
    i = chi_from_xi_terms(0.0, 0.0, 1.0j, rho, omega)
    assert abs(i.real - (-0.03)) < 1e-15 and abs(i.imag) < 1e-15
    p = chi_from_xi_terms(0.0, -1.0, 1.0j, rho, omega)
    assert abs(p.real - (-0.06)) < 1e-15 and abs(p.imag) < 1e-15


def test_rotate_frame_identity_and_bookkeeping():
    values, t = sample(lambda t: np.full_like(t, 0.9 + 0.1j, dtype=complex))
    assert np.array_equal(rotate(values, t, 0.0), values)
    rho, omega = cf(rotate(values, t, 0.1), frame_omega=1.0 + 0.1)
    assert np.abs(omega - 1.0).max() < 1e-9
    assert np.abs(rho).max() < 1e-9


def test_rotate_frame_preserves_chi_of_synthetic_pair():
    v, t = sample(lambda t: 1.0 + 0.05 * np.exp(0.2j + 2.0 * t))
    i, _ = sample(lambda t: 0.6 * np.exp(-1.0 * t + 0.4j))

    def chi(i, v, frame_omega):
        rho_i, om_i = cf(i, frame_omega=frame_omega)
        rho_v, om_v = cf(v, frame_omega=frame_omega)
        return (rho_i - rho_v) + 1j * (om_i - om_v)

    chi0 = chi(i, v, 1.0)
    chi1 = chi(rotate(i, t, 0.05), rotate(v, t, 0.05), 1.05)
    assert np.abs(chi0 - chi1).max() < 1e-9


@given(st.floats(1e-3, 1e3))
@settings(max_examples=25, deadline=None)
def test_scaling_invariance(scale):
    values, _ = sample(lambda t: (0.8 + 0.2j) * np.exp((3.0 + 5.0j) * t),
                       t_end=0.05)
    rho, omega = cf(values)
    rho_s, omega_s = cf(values * scale)
    assert np.abs(rho - rho_s).max() < 1e-12
    assert np.abs(omega - omega_s).max() < 1e-12
