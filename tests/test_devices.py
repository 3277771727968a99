"""Device models: equilibria, CF terms, closed-form chi and degenerations."""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from helpers import (CurrentTooSmall, chi_from_xi_terms, gfl_xi_terms,
                     gfm_xi_terms, sm_xi_terms)
from synchrolens.devices import (GflParams, GfmParams, ImParams, SmParams,
                                 ZipParams, gfl_admittance_cf, gfl_fg,
                                 gfl_init, gfm_admittance_cf, gfm_fg, gfm_init,
                                 im_admittance, im_admittance_cf, im_fg,
                                 im_init, im_pullout, im_torque, sm2_params,
                                 sm4_params, sm_admittance_cf, sm_fg, sm_init,
                                 to_machine_frame,
                                 zip_admittance_cf, zip_injection, zip_power,
                                 zip_shunt_current)
from synchrolens.errors import (InitInfeasible, ParamDomain, SlipSingular,
                                VoltageTooSmall)
from synchrolens.devices.base import DeviceKind, cdiv
from synchrolens.devices.machine import SmAdapter, _stator_current
from synchrolens.network import (Branch, dynamic_branch_derivatives,
                                 dynamic_branch_init)
from synchrolens.scenarios import DeviceSpec

OMEGA_B = 2.0 * np.pi * 60.0
ETA_SYNC = (0.0, 1.0)   # (rho, omega) of a synchronous terminal voltage


def composed_chi(terms, eta):
    """The xi-terms route: chi = xi_a + (k_rho - 1)*rho + (k_omega - j)*omega."""
    return chi_from_xi_terms(terms.xi_a, terms.k_rho, terms.k_omega, *eta)


def random_eta(rng, scale):
    """(rho, omega) of a terminal voltage near the synchronous one."""
    return rng.normal(0.0, scale), 1.0 + rng.normal(0.0, scale)


def sm_current(state, params, v):
    """Injected current of the machine, from its one fg kernel (the current
    depends on neither tau_m nor v_f)."""
    return sm_fg(state, params, v, 0.0, 0.0)[1]


def sm6():
    return SmParams(order=6, r_s=0.0025, x_d=1.8, x_q=1.7, x1_d=0.3,
                    x1_q=0.55, x2_d=0.25, x2_q=0.25, x_l=0.2, t1_d0=8.0,
                    t1_q0=0.4, t2_d0=0.03, t2_q0=0.05, m=13.0, d=2.0,
                    omega_b=OMEGA_B)


def sm4():
    return sm4_params(r_s=0.0025, x_d=1.8, x_q=1.7, x1_d=0.3, x1_q=0.55,
                      x_l=0.2, t1_d0=8.0, t1_q0=0.4, m=13.0, d=2.0,
                      omega_b=OMEGA_B)


# --- synchronous machines ---------------------------------------------------


@pytest.mark.parametrize("params", [sm6(), sm4()], ids=["sm6", "sm4"])
def test_machine_equilibrium_init(params):
    v = 1.02 * np.exp(0.2j)
    s = 0.8 + 0.2j
    state, tau_m, v_f = sm_init(params, v, s)
    deriv, i_net = sm_fg(state, params, v, tau_m, v_f)
    assert np.max(np.abs(deriv)) < 1e-9
    assert abs(i_net - np.conj(s / v)) < 1e-12
    terms = sm_xi_terms(state, params, v, np.conj(s / v), v_f=v_f)
    assert abs(composed_chi(terms, ETA_SYNC)) < 1e-12


def test_no_load_angle_is_voltage_angle():
    params = sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B)
    state, tau_m, e_q0 = sm_init(params, 1.0 + 0.0j, 0.0j)
    assert state[0] == pytest.approx(0.0, abs=1e-12)
    assert state[1] == 1.0
    assert tau_m == pytest.approx(0.0, abs=1e-12)
    assert e_q0 == pytest.approx(1.0)


def test_torque_step_accelerates_by_swing_equation():
    params = sm4()
    v = 1.0 + 0.0j
    state, tau_m, v_f = sm_init(params, v, 0.7 + 0.1j)
    deriv, _ = sm_fg(state, params, v, 1.1 * tau_m, v_f)
    assert deriv[1] == pytest.approx(0.1 * tau_m / params.m, rel=1e-9)


@pytest.mark.parametrize("params", [
    sm6(), sm4(), sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B,
                             e_q0=1.1)], ids=["sm6", "sm4", "sm2"])
def test_sm_fg_rotates_current_back_by_exp_j_delta(params):
    """sm_fg takes exp(-j*delta) once and rotates its current out of the
    machine frame by the conjugate; that is bitwise -1j*exp(1j*delta)*i_m,
    over angles within +-4 rad and pole-slip angles of tens of radians."""
    rng = np.random.default_rng(43)
    state0, _, _ = sm_init(params, 1.02 * np.exp(0.2j), 0.8 + 0.2j)
    for reach in (4.0, 50.0):
        for _ in range(2000):
            state = (state0 + rng.normal(0.0, 0.05, len(state0))).tolist()
            state[0] = float(rng.uniform(-reach, reach))
            v = complex(*rng.normal(0.0, 0.6, 2))
            i_m = _stator_current(state, params, to_machine_frame(v, state[0]))
            expected = -1j * cmath.exp(1j * state[0]) * i_m
            got = sm_fg(state, params, v, 0.0, 0.0)[1]
            assert _bits(got) == _bits(expected), state[0]


def test_reactance_ordering_rejected():
    with pytest.raises(ParamDomain):
        SmParams(order=6, r_s=0.0, x_d=0.2, x_q=1.7, x1_d=0.3, x1_q=0.55,
                 x2_d=0.25, x2_q=0.25, x_l=0.2, t1_d0=8.0, t1_q0=0.4,
                 t2_d0=0.03, t2_q0=0.05, m=13.0, d=0.0, omega_b=OMEGA_B)


def test_xi_terms_reject_small_current():
    params = sm4()
    state, _, v_f = sm_init(params, 1.0 + 0.0j, 0.5 + 0.1j)
    with pytest.raises(CurrentTooSmall):
        sm_xi_terms(state, params, 1.0 + 0.0j, 1e-9j, v_f=v_f)


def test_sm6_composition_equals_direct_form():
    """Eq-(6)-style composition vs the boxed grouping, 20 random states."""
    params = sm6()
    v = 1.02 * np.exp(0.2j)
    state0, _, v_f = sm_init(params, v, 0.8 + 0.2j)
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = state0 + rng.normal(0.0, 0.05, len(state0))
        i_net = sm_current(state, params, v)
        eta = random_eta(rng, 0.03)
        composed = composed_chi(sm_xi_terms(state, params, v, i_net, v_f=v_f), eta)
        direct = sm_admittance_cf(state, params, v, i_net, *eta, v_f)
        assert abs(composed - direct) < 1e-12


def test_sm2_chi_frozen_independent_value():
    # chi = (-j*s/(x'*i^2) + 1)*(-rho + j(w_r - w)) evaluated by plain
    # complex arithmetic: s = 0.8+0.2j, x' = 0.3, i = 1, rho = 0, w_r - w = 0.01
    # (delta = 0 maps v = 0.2-0.8j, i = -j to machine-frame v = 0.8+0.2j, i = 1)
    expected = (-1j * (0.8 + 0.2j) / 0.3 + 1.0) * (1j * 0.01)
    params = sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B)
    state = np.array([0.0, 1.01])
    chi = sm_admittance_cf(state, params, 0.2 - 0.8j, -1j, 0.0, 1.0)
    assert chi == pytest.approx(expected, abs=1e-15)
    assert chi.real == pytest.approx(0.8 / 30.0)
    assert chi.imag == pytest.approx(0.5 / 30.0)


def test_sm2_chi_als_fixed_point():
    params = sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B)
    chi = sm_admittance_cf(np.array([0.1, 1.0]), params, 1.0 * np.exp(0.3j),
                 1.1 * np.exp(0.1j), 0.0, 1.0)
    assert chi == 0.0


def test_machine_convention_twin_invariance():
    """The load-convention twin (delta + pi, flipped EMF states) leaves chi
    unchanged, which is what sign-convention independence means here."""
    params = sm6()
    v = 1.01 * np.exp(0.15j)
    state, _, v_f = sm_init(params, v, 0.7 + 0.25j)
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = state + rng.normal(0.0, 0.04, 6)
        i_net = sm_current(st, params, v)
        eta = random_eta(rng, 0.02)
        twin = st.copy()
        twin[0] += np.pi
        twin[2:] = -twin[2:]
        a = sm_admittance_cf(st, params, v, i_net, *eta, v_f)
        b = sm_admittance_cf(twin, params, v, i_net, *eta, -v_f)
        assert abs(a - b) < 1e-12
        assert abs(sm_current(twin, params, v) - i_net) < 1e-12


def _sm6_on_manifold(params, rng, v, v_f):
    """Random SM6 state with the subtransient fluxes on their T''->0 manifold."""
    state0, _, _ = sm_init(params, v, 0.8 + 0.2j)
    state = state0 + rng.normal(0.0, 0.05, 6)
    for _ in range(50):  # fixed-point: psi'' depends on the stator currents
        i_m = to_machine_frame(sm_current(state, params, v), state[0])
        psi2_d = state[5] - (params.x1_d - params.x_l) * i_m.real
        psi2_q = -state[4] - (params.x1_q - params.x_l) * i_m.imag
        if abs(psi2_d - state[2]) + abs(psi2_q - state[3]) < 1e-14:
            break
        state[2], state[3] = psi2_d, psi2_q
    return state


def test_reduction_sm6_to_sm4_100_states():
    p6 = SmParams(order=6, r_s=0.0025, x_d=1.8, x_q=1.7, x1_d=0.3, x1_q=0.55,
                  x2_d=0.3, x2_q=0.55, x_l=0.2, t1_d0=8.0, t1_q0=0.4,
                  t2_d0=0.01, t2_q0=0.01, m=13.0, d=2.0, omega_b=OMEGA_B)
    p4 = sm4()
    v = 1.02 * np.exp(0.2j)
    _, _, v_f = sm_init(p4, v, 0.8 + 0.2j)
    rng = np.random.default_rng(11)
    for _ in range(100):
        s6 = _sm6_on_manifold(p6, rng, v, v_f)
        s4 = np.array([s6[0], s6[1], s6[4], s6[5]])
        i_net = sm_current(s6, p6, v)
        assert abs(i_net - sm_current(s4, p4, v)) < 1e-12
        eta = random_eta(rng, 0.02)
        t6 = sm_xi_terms(s6, p6, v, i_net, v_f=v_f)
        t4 = sm_xi_terms(s4, p4, v, i_net, v_f=v_f)
        assert abs(t6.xi_a - t4.xi_a) < 1e-12
        assert abs(t6.k_rho - t4.k_rho) < 1e-12
        assert abs(t6.k_omega - t4.k_omega) < 1e-12
        chi6 = sm_admittance_cf(s6, p6, v, i_net, *eta, v_f)
        chi4 = sm_admittance_cf(s4, p4, v, i_net, *eta, v_f)
        assert abs(chi6 - chi4) < 1e-12


def test_reduction_sm4_to_sm2_100_states():
    p4 = sm4_params(r_s=0.0, x_d=0.3, x_q=0.3, x1_d=0.3, x1_q=0.3, x_l=0.15,
                    t1_d0=8.0, t1_q0=0.4, m=7.0, d=0.0, omega_b=OMEGA_B)
    v = 1.0 * np.exp(0.1j)
    rng = np.random.default_rng(13)
    for _ in range(100):
        delta = rng.normal(0.3, 0.3)
        omega_r = 1.0 + rng.normal(0.0, 0.01)
        e_q = abs(rng.normal(1.05, 0.1)) + 0.2
        s4 = np.array([delta, omega_r, 0.0, e_q])   # e'_d = 0 on the manifold
        p2 = sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B, x_l=0.15,
                        e_q0=e_q)
        s2 = np.array([delta, omega_r])
        i_net = sm_current(s4, p4, v)
        assert abs(i_net - sm_current(s2, p2, v)) < 1e-12
        if abs(i_net) < 1e-3:
            continue
        eta = random_eta(rng, 0.02)
        # v_f chosen so e'_q is stationary: the classical model's constant EMF
        i_m = 1j * np.exp(-1j * delta) * i_net
        v_f = e_q + (p4.x_d - p4.x1_d) * i_m.real
        chi4 = sm_admittance_cf(s4, p4, v, i_net, *eta, v_f)
        chi2 = sm_admittance_cf(s2, p2, v, i_net, *eta)
        assert abs(chi4 - chi2) < 1e-12


# --- ZIP loads ---------------------------------------------------------------


def test_zip_shares_must_sum_to_one():
    with pytest.raises(ParamDomain):
        ZipParams(p0=1.0, q0=0.0, k_pp=0.5, k_ip=0.0, k_zp=0.4)


def test_zip_current_pure_z_unit_voltage():
    params = ZipParams(p0=0.5, q0=0.1)
    inj = zip_injection(params, 1.0 + 0.0j)
    # current into the load is the negative of the injection
    assert -inj == pytest.approx(0.5 - 0.1j, abs=1e-15)


def test_zip_current_pure_p_scales_inverse_voltage():
    params = ZipParams(p0=0.5, q0=0.1, k_zp=0.0, k_pp=1.0, k_zq=0.0, k_pq=1.0)
    i_1 = zip_injection(params, 1.0 + 0.0j)
    i_09 = zip_injection(params, 0.9 + 0.0j)
    assert i_09 == pytest.approx(i_1 / 0.9, abs=1e-15)


def test_zip_current_mixed_matches_polynomials():
    params = ZipParams(p0=0.6, q0=0.2, k_pp=0.2, k_ip=0.3, k_zp=0.5,
                       k_pq=0.1, k_iq=0.4, k_zq=0.5)
    v = complex(0.95 * np.cos(np.deg2rad(10)), 0.95 * np.sin(np.deg2rad(10)))
    vm = abs(v)
    p = 0.6 * (0.2 + 0.3 * vm + 0.5 * vm ** 2)
    q = 0.2 * (0.1 + 0.4 * vm + 0.5 * vm ** 2)
    expected = -np.conj(complex(p, q) / v)
    assert zip_injection(params, v) == pytest.approx(expected, abs=1e-15)
    assert zip_power(params, vm) == pytest.approx((p, q))


def test_zip_current_rejects_small_voltage():
    with pytest.raises(VoltageTooSmall):
        zip_injection(ZipParams(p0=1.0, q0=0.0), 1e-9 + 0.0j)


def test_zip_shunt_current_is_the_pure_z_injection():
    """zip_shunt_current is -conj(S0)*v: within rounding of zip_injection of
    the constant-impedance load, and bitwise the same for a voltage array
    as for each of its elements."""
    rng = np.random.default_rng(47)
    params = ZipParams(p0=0.7, q0=-0.3)
    y_l = complex(params.p0, -params.q0)
    v = rng.normal(0.0, 0.6, 500) + 1j * rng.normal(0.0, 0.6, 500)
    re, im = zip_shunt_current(y_l, v)
    for k, v_k in enumerate(v.tolist()):
        got = complex(*zip_shunt_current(y_l, v_k))
        assert _bits(got) == _bits(complex(re[k], im[k]))
        assert abs(got - zip_injection(params, v_k)) <= 1e-14 * abs(y_l * v_k)


def test_zip_chi_boxed_values():
    """0, -rho and -2*rho for pure Z, I and P loads; -rho/(1 + u) for a
    half-Z, half-I active load without reactive power; 0 for a load that
    draws nothing.  Exact zeros are +0.0, also for a negative rho."""
    rho = np.array([0.07, -0.07])
    v = np.array([1.0 + 0.0j, 1.0j])     # u = 1
    z = zip_admittance_cf(ZipParams(p0=1.0, q0=0.1), v, rho)
    assert _bits(z) == _bits(np.zeros(2, dtype=complex))
    i = zip_admittance_cf(ZipParams(p0=1.0, q0=0.1, k_zp=0.0, k_ip=1.0,
                                    k_zq=0.0, k_iq=1.0), v, rho)
    np.testing.assert_allclose(i, -rho, rtol=1e-15, atol=0.0)
    p = zip_admittance_cf(ZipParams(p0=1.0, q0=0.1, k_zp=0.0, k_pp=1.0,
                                    k_zq=0.0, k_pq=1.0), v, rho)
    np.testing.assert_allclose(p, -2.0 * rho, rtol=1e-15, atol=0.0)
    half = ZipParams(p0=1.0, q0=0.0, k_zp=0.5, k_ip=0.5)
    assert zip_admittance_cf(half, v, rho).tolist() == (-0.5 * rho).tolist()
    mixed = zip_admittance_cf(half, np.array([2.0 + 0.0j]), np.array([0.07]))
    assert mixed[0] == pytest.approx(-0.07 / 3.0, rel=1e-15)
    idle = zip_admittance_cf(ZipParams(p0=0.0, q0=0.0, k_zp=0.0, k_pp=1.0,
                                       k_zq=0.0, k_pq=1.0), v, rho)
    assert _bits(idle) == _bits(np.zeros(2, dtype=complex))


def test_zip_chi_matches_symbolic_derivative():
    """zip_admittance_cf against rho*u*Y'(u)/Y(u) of Y = conj(S(u))/u**2,
    differentiated by sympy and evaluated at 30 digits, at random voltages
    and random shares, negative shares included, to 1e-12 relative."""
    import mpmath
    import sympy as sp

    u, rho, p0, q0 = sp.symbols("u rho p0 q0", real=True)
    k = sp.symbols("k_pp k_ip k_zp k_pq k_iq k_zq", real=True)
    s_u = (p0 * (k[0] + k[1] * u + k[2] * u ** 2)
           + sp.I * q0 * (k[3] + k[4] * u + k[5] * u ** 2))
    y_u = sp.conjugate(s_u) / u ** 2
    oracle = sp.lambdify((u, rho, p0, q0, *k),
                         rho * u * sp.diff(y_u, u) / y_u, "mpmath")

    rng = np.random.default_rng(19)
    with mpmath.workdps(30):
        for _ in range(40):
            shares = rng.uniform(-1.0, 2.0, 4)
            params = ZipParams(p0=rng.uniform(-2.0, 2.0),
                               q0=rng.uniform(-2.0, 2.0),
                               k_pp=shares[0], k_ip=shares[1],
                               k_zp=1.0 - shares[0] - shares[1],
                               k_pq=shares[2], k_iq=shares[3],
                               k_zq=1.0 - shares[2] - shares[3])
            v = (rng.uniform(0.5, 1.5, 8)
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, 8)))
            rhos = rng.normal(0.0, 0.05, 8)
            got = zip_admittance_cf(params, v, rhos)
            for g, v_k, r in zip(got, v, rhos):
                want = complex(oracle(abs(v_k), r, params.p0, params.q0,
                                      params.k_pp, params.k_ip, params.k_zp,
                                      params.k_pq, params.k_iq, params.k_zq))
                assert abs(g - want) <= 1e-12 * abs(want)


# --- induction motor ---------------------------------------------------------


def motor():
    return ImParams(r_s=0.01, x_s=0.1, r_r1=0.02, x_r1=0.18, x_mu=3.0,
                    h_m=0.6, tau_m=0.9, omega_b=OMEGA_B)


def test_im_equilibrium_and_voltage_square_law():
    params = motor()
    sigma = im_init(params, 1.0, 0.9)
    state = np.array([sigma])
    assert im_fg(state, params, 1.0 + 0.0j, 0.9)[0][0] == pytest.approx(0.0, abs=1e-10)
    tau_low = im_torque(params, sigma, 0.8)
    assert tau_low == pytest.approx(0.64 * 0.9, rel=1e-12)
    assert im_fg(state, params, 0.8 + 0.0j, 0.9)[0][0] > 0.0


def test_im_init_bisection_against_independent_root():
    params = motor()
    tau_m = 0.85
    sigma = im_init(params, 1.0, tau_m)
    # independent oracle: dense scan + local refinement on the stable branch
    grid = np.linspace(1e-6, im_pullout(params, 1.0)[0], 20001)
    torques = np.array([im_torque(params, s, 1.0) for s in grid])
    k = int(np.argmin(np.abs(torques - tau_m)))
    assert abs(sigma - grid[k]) < 2 * (grid[1] - grid[0])
    assert im_torque(params, sigma, 1.0) == pytest.approx(tau_m, abs=1e-10)


def test_im_init_above_pullout_infeasible():
    with pytest.raises(InitInfeasible):
        im_init(motor(), 1.0, 1.2 * im_pullout(motor(), 1.0)[1])


def test_im_chi_zero_at_torque_balance():
    tau_m = im_torque(motor(), 0.02, 1.0)
    chi = im_admittance_cf(np.array([0.02]), motor(), 1.0 + 0.0j, tau_m)
    assert (chi.real, chi.imag) == (0.0, 0.0)


def test_im_chi_matches_admittance_derivative_oracle():
    """Boxed grouping vs d/dt ln(y) of the equivalent admittance."""
    params = motor()
    rng = np.random.default_rng(5)
    for _ in range(25):
        sigma = rng.uniform(0.005, 0.3)
        v = rng.uniform(0.8, 1.1) * np.exp(1j * rng.uniform(-0.5, 0.5))
        # torque imbalance giving a slip rate of about N(0, 0.2) 1/s
        tau_m = (im_torque(params, sigma, abs(v))
                 + 2.0 * params.h_m * rng.normal(0.0, 0.2))
        state = np.array([sigma])
        deriv, i_net = im_fg(state, params, v, tau_m)
        sigma_dot = deriv[0]
        chi = im_admittance_cf(state, params, v, tau_m)
        r = params.r_s + params.r_r1 / sigma
        r_dot = -(params.r_r1 / sigma ** 2) * sigma_dot
        # y = 1/(j*x_mu) + 1/(r + jx); dy/dt = -r_dot/(r+jx)^2
        y = im_admittance(params, sigma)
        dy = -r_dot / (r + 1j * params.x) ** 2
        assert chi == pytest.approx(dy / y / OMEGA_B, abs=1e-15)


def test_im_zero_slip_singular():
    with pytest.raises(SlipSingular):
        im_torque(motor(), 0.0, 1.0)


# --- converters --------------------------------------------------------------


def gfl():
    return GflParams(k_p=0.2, k_i=16.0, t_m=0.002, k_p_pll=0.5, k_i_pll=20.0,
                     v_dc0=2.0, z_f_r=0.005, z_f_x=0.15, y_f_b=0.05,
                     i_dref=0.5, i_qref=0.05, omega_b=OMEGA_B)


def test_gfl_locked_equilibrium():
    params = gfl()
    v = 1.01 * np.exp(0.2j)
    state = gfl_init(params, v)
    deriv, i_net = gfl_fg(state, params, v)
    assert np.max(np.abs(deriv)) < 1e-12
    chi = gfl_admittance_cf(state, params, v, i_net, *ETA_SYNC)
    assert abs(chi) < 1e-12


def test_gfl_pll_correction_sign():
    params = gfl()
    v = 1.0 * np.exp(0.05j)          # positive v_q in the PLL frame
    state = gfl_init(params, 1.0 + 0.0j)
    deriv, _ = gfl_fg(state, params, v)
    assert deriv[4] > 0.0 and deriv[5] > 0.0


def test_gfl_terms_compose_to_boxed_chi():
    params = gfl()
    v = 1.0 + 0.0j
    state0 = gfl_init(params, v)
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = state0 + rng.normal(0.0, 0.03, 6)
        i_net = gfl_fg(state, params, v)[1]
        eta = random_eta(rng, 0.02)
        composed = composed_chi(gfl_xi_terms(state, params, v, i_net), eta)
        direct = gfl_admittance_cf(state, params, v, i_net, *eta)
        assert abs(composed - direct) < 1e-12


def gfm():
    return GfmParams(k_p=1.0, k_i=8.0, t_v=0.02, m_p=0.04, p_ref=0.5,
                     v_ref=1.0, z_t_r=0.01, z_t_x=0.2, omega_b=OMEGA_B)


def test_gfm_equilibrium_and_droop_sign():
    params = gfm()
    v = 1.0 * np.exp(0.1j)
    state = gfm_init(params, v, 0.5 + 0.1j)
    i_net = gfm_fg(state, params, v)[1]
    assert abs(i_net - np.conj((0.5 + 0.1j) / v)) < 1e-12
    deriv, i_fg = gfm_fg(state, params, v)
    assert i_fg == i_net
    assert np.max(np.abs(deriv)) < 1e-12
    chi = gfm_admittance_cf(state, params, v, i_net, *ETA_SYNC)
    assert abs(chi) < 1e-12
    low_pm = state.copy()
    low_pm[3] = 0.4   # measured power below reference -> speeds up
    assert gfm_fg(low_pm, params, v)[0][1] > 0.0


def test_gfm_terms_compose_to_boxed_chi():
    params = gfm()
    v = 1.0 + 0.0j
    state0 = gfm_init(params, v, 0.5 + 0.1j)
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = state0 + rng.normal(0.0, 0.03, 4)
        i_net = gfm_fg(state, params, v)[1]
        eta = random_eta(rng, 0.02)
        composed = composed_chi(gfm_xi_terms(state, params, v, i_net), eta)
        direct = gfm_admittance_cf(state, params, v, i_net, *eta)
        assert abs(composed - direct) < 1e-12


# --- broadcasting ------------------------------------------------------------


def _sm_case(params, rng):
    v = 1.02 * np.exp(0.2j)
    state0, tau_m, v_f = sm_init(params, v, 0.8 + 0.2j)
    states = state0 + rng.normal(0.0, 0.03, (16, len(state0)))
    return (states, v * (1.0 + rng.normal(0.0, 0.02, 16)),
            lambda st, vv: sm_fg(st, params, vv, tau_m, v_f),
            lambda st, vv, ii, rho, om: sm_admittance_cf(st, params, vv, ii, rho, om, v_f))


def _gfl_case(rng):
    params = gfl()
    v = 1.01 * np.exp(0.2j)
    states = gfl_init(params, v) + rng.normal(0.0, 0.03, (16, 6))
    return (states, v * (1.0 + rng.normal(0.0, 0.02, 16)),
            lambda st, vv: gfl_fg(st, params, vv),
            lambda st, vv, ii, rho, om: gfl_admittance_cf(st, params, vv, ii, rho, om))


def _gfm_case(rng):
    params = gfm()
    v = 1.0 * np.exp(0.1j)
    states = gfm_init(params, v, 0.5 + 0.1j) + rng.normal(0.0, 0.03, (16, 4))
    return (states, v * (1.0 + rng.normal(0.0, 0.02, 16)),
            lambda st, vv: gfm_fg(st, params, vv),
            lambda st, vv, ii, rho, om: gfm_admittance_cf(st, params, vv, ii, rho, om))


def _motor_case(rng):
    params = motor()
    states = im_init(params, 1.0, 0.9) * (1.0 + rng.uniform(-0.3, 0.3, (16, 1)))
    return (states, np.exp(0.1j) * (1.0 + rng.normal(0.0, 0.02, 16)),
            lambda st, vv: im_fg(st, params, vv, 0.9),
            lambda st, vv, ii, rho, om: im_admittance_cf(st, params, vv, 0.9))


@pytest.mark.parametrize("case", ["sm6", "sm4", "sm2", "gfl", "gfm", "motor"])
def test_kernels_broadcast_over_samples(case):
    """One chi call over a stack of samples equals one call per sample,
    at the currents the fg kernel injects sample by sample."""
    rng = np.random.default_rng(29)
    if case.startswith("sm"):
        params = {"sm6": sm6(), "sm4": sm4(),
                  "sm2": sm2_params(x1_d=0.3, m=7.0, d=0.0, omega_b=OMEGA_B)}[case]
        states, v, fg, chi = _sm_case(params, rng)
    else:
        states, v, fg, chi = {"gfl": _gfl_case, "gfm": _gfm_case,
                              "motor": _motor_case}[case](rng)
    rho = rng.normal(0.0, 0.02, len(v))
    om = 1.0 + rng.normal(0.0, 0.02, len(v))
    i_net = np.array([fg(states[k].tolist(), complex(v[k]))[1]
                      for k in range(len(v))])
    chi_all = chi(states, v, i_net, rho, om)
    assert chi_all.shape == v.shape
    for k in range(len(v)):
        assert abs(chi_all[k] - chi(states[k], v[k], i_net[k], rho[k],
                                    om[k])) < 1e-12


# --- Python-number samples ---------------------------------------------------


def _bits(values):
    """The IEEE bytes of a number or a sequence of numbers, as complex128."""
    return np.asarray(values, dtype=complex).tobytes()


def _adapter_with_avr():
    """A subtransient condenser with voltage regulator and torque modulation,
    initialized through its adapter."""
    spec = DeviceSpec("SC", DeviceKind.SM6, "B", {
        "r_s": 0.0025, "x_d": 1.8, "x_q": 1.7, "x1_d": 0.3, "x1_q": 0.55,
        "x2_d": 0.25, "x2_q": 0.25, "x_l": 0.2, "t1_d0": 8.0, "t1_q0": 0.4,
        "t2_d0": 0.03, "t2_q0": 0.05, "m": 13.0, "d": 2.0, "v": 1.02,
        "avr_kp": 2.0, "avr_ki": 10.0, "tau_mod_amp": 0.01, "tau_mod_hz": 1.3})
    adapter = SmAdapter(spec, 100.0, OMEGA_B)
    v = 1.02 * np.exp(0.2j)
    return adapter, adapter.init(v, 0.3 + 0.2j), v


def test_integral_gain_alone_turns_the_regulator_on():
    """A condenser given avr_ki without avr_kp runs a pure integral
    regulator: it has the integrator state, which integrates the voltage
    error, and the field voltage has no proportional part."""
    spec = DeviceSpec("SC", DeviceKind.SM4, "B", {
        "x_d": 1.8, "x_q": 1.7, "x1_d": 0.3, "x1_q": 0.55, "x_l": 0.2,
        "t1_d0": 8.0, "t1_q0": 0.4, "m": 4.0, "v": 1.0, "avr_ki": 5.0})
    adapter = SmAdapter(spec, 100.0, OMEGA_B)
    assert adapter.state_names[-1] == "x_avr" and adapter.n_states == 5
    state = adapter.init(1.0 + 0.0j, 0.1j)
    deriv, _ = adapter.fg(0.0, state.tolist(), 0.9 + 0.0j)
    assert deriv[-1] == pytest.approx(5.0 * 0.1, rel=1e-12)
    assert adapter.v_field(state[-1], 0.9 + 0.0j) == adapter.v_f0


def _sample_case(case):
    """(kernel of (states, v), the operating point's states as an array,
    terminal voltage)."""
    v1 = 1.02 * np.exp(0.2j)
    if case in ("sm2", "sm4", "sm6"):
        params = {"sm2": sm2_params(x1_d=0.3, m=7.0, d=0.5, omega_b=OMEGA_B),
                  "sm4": sm4(), "sm6": sm6()}[case]
        state, tau_m, fld = sm_init(params, v1, 0.8 + 0.2j)
        if case == "sm2":
            params, fld = replace(params, e_q0=float(fld)), 0.0
        return (lambda st, v: sm_fg(st, params, v, float(tau_m), float(fld)),
                state, v1)
    if case == "sm6_avr":
        adapter, state, v = _adapter_with_avr()
        return lambda st, v: adapter.fg(0.37, st, v), state, v
    if case == "gfl":
        return (lambda st, v: gfl_fg(st, gfl(), v), gfl_init(gfl(), v1), v1)
    if case == "gfm":
        return (lambda st, v: gfm_fg(st, gfm(), v),
                gfm_init(gfm(), v1, 0.5 + 0.1j), v1)
    if case == "motor":
        return (lambda st, v: im_fg(st, motor(), v, 0.9),
                np.array([im_init(motor(), 1.0, 0.9)]), 1.0 + 0.0j)
    if case == "zip":
        params = ZipParams(p0=0.8, q0=0.3, k_pp=0.2, k_ip=0.3, k_zp=0.5,
                           k_pq=0.1, k_iq=0.6, k_zq=0.3)
        return lambda st, v: (None, zip_injection(params, v)), np.empty(0), v1
    branch = Branch("C1", "1", "2", 0.01, 0.6, dynamic=True,
                    x_c=0.35 if case == "branch_comp" else 0.0)
    state = dynamic_branch_init(branch, 1.0 + 0.0j, v1)
    return (lambda st, v: (dynamic_branch_derivatives(st, branch, 1.0 + 0.05j,
                                                      v, OMEGA_B), None),
            state, v1)


@pytest.mark.parametrize("case", ["sm2", "sm4", "sm6", "sm6_avr", "gfl", "gfm",
                                  "motor", "zip", "branch", "branch_comp"])
def test_kernels_return_python_numbers(case):
    """A kernel given the stepper's sample (a list of Python floats, or of
    complexes for a branch, and a Python complex voltage) returns Python
    numbers: the derivatives as a list of floats (complexes for a branch)
    and the injection as a complex, at 60 random points around the
    operating point."""
    kernel, state0, v0 = _sample_case(case)
    rng = np.random.default_rng(53)
    for _ in range(60):
        state = state0 * (1.0 + rng.normal(0.0, 0.05, state0.shape))
        v = complex(v0 * (1.0 + rng.normal(0.0, 0.05))
                    * np.exp(1j * rng.normal(0.0, 0.1)))
        deriv, inj = kernel(state.tolist(), v)
        if deriv is not None:
            assert type(deriv) is list
            kinds = {type(d) for d in deriv}
            assert kinds == ({complex} if case.startswith("branch") else {float})
        if inj is not None:
            assert type(inj) is complex


def test_cdiv_rounds_like_numpy():
    """cdiv against numpy's complex quotient on 10,000 draws spanning six
    decades: complex divisors with |real| > |imag| and with |imag| > |real|,
    real divisors and real numerators.  Python's own quotient differs on a
    large share of them, so a plain '/' in place of cdiv fails here."""
    rng = np.random.default_rng(61)
    parts = (rng.normal(size=(10_000, 4))
             * 10.0 ** rng.uniform(-3.0, 3.0, (10_000, 4)))
    python_differs = 0
    for k, (ar, ai, br, bi) in enumerate(parts.tolist()):
        a = complex(ar, ai) if k % 5 else ar
        if k % 4 == 0:
            b = br                                    # real divisor
        elif k % 4 == 1:
            b = complex(max(br, bi, key=abs), min(br, bi, key=abs))
        else:
            b = complex(min(br, bi, key=abs), max(br, bi, key=abs))
        expected = np.complex128(a) / np.complex128(b)
        got = cdiv(a, b)
        assert type(got) is complex
        assert _bits(got) == _bits(expected), (a, b)
        python_differs += _bits(a / b) != _bits(expected)
    assert python_differs > 2_000
