"""Network assembly, solvers and the dynamic series-RLC branch."""

import numpy as np
import pytest

from synchrolens.errors import NewtonDivergence, PfDivergence
from synchrolens.network import (Branch, Bus, Event, EventKind, Network,
                                 PfBusSpec, apply_event, assemble_y,
                                 connected_bus_mask,
                                 dynamic_branch_derivatives,
                                 dynamic_branch_init, interface_solve, newton,
                                 solve_power_flow)

OMEGA_B = 2.0 * np.pi * 60.0


def test_textbook_two_bus_assembly():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.0, 0.5)])
    assert np.allclose(assemble_y(net), [[-2j, 2j], [2j, -2j]])


def test_fault_shunt_lands_on_diagonal():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.0, 0.5)])
    net.fault_admittance["2"] = -1e4j
    y = assemble_y(net)
    assert y[1, 1] == pytest.approx(-2j - 1e4j)


def test_y_symmetric_without_taps():
    rng = np.random.default_rng(2)
    buses = [Bus(f"B{k}") for k in range(6)]
    branches = [Branch(f"L{k}", f"B{k}", f"B{(k + 1) % 6}",
                       rng.uniform(0.001, 0.05), rng.uniform(0.05, 0.6),
                       rng.uniform(0.0, 0.4)) for k in range(6)]
    y = assemble_y(Network(buses, branches))
    assert np.abs(y - y.T).max() < 1e-12


def _kundur_network():
    from synchrolens.scenarios import build_builtin
    return build_builtin("kundur")


def test_kundur_matrix_matches_independent_assembly():
    """Entry-by-entry check against a plain dict-based stamping routine."""
    scenario = _kundur_network()
    net = scenario.build_network()
    y = assemble_y(net)

    idx = net.bus_index
    expected = np.zeros_like(y)
    for br in net.branches:
        if br.dynamic or not net.in_service[br.id]:
            continue
        f, t = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.b
        expected[f, f] += (ys + ysh) / br.tap ** 2
        expected[t, t] += ys + ysh
        expected[f, t] -= ys / br.tap
        expected[t, f] -= ys / br.tap
    assert np.abs(y - expected).max() < 1e-12


def _source_residual(y, emf, y_load=0.0, connected=None):
    """KCL residual over z = [Re v, Im v, Re i_src, Im i_src]: an ideal
    source of EMF emf at bus 0 and a load drawing y_load * v at the last bus;
    rows of buses outside connected read v = 0."""
    n = y.shape[0]

    def residual(z):
        v = z[:n] + 1j * z[n:2 * n]
        mismatch = -y @ v
        mismatch[0] += z[2 * n] + 1j * z[2 * n + 1]
        mismatch[-1] -= y_load * v[-1]
        if connected is not None:
            mismatch[~connected] = v[~connected]
        dv = v[0] - emf
        return np.concatenate([mismatch.real, mismatch.imag, [dv.real, dv.imag]])
    return residual


def _flat_start(n):
    return np.concatenate([np.ones(n), np.zeros(n + 2)])


def test_interface_solve_single_source_radial():
    net = Network([Bus("1"), Bus("2")],
                  [Branch("L", "1", "2", 0.0, 0.4)])
    y = assemble_y(net)
    z, _ = interface_solve(_source_residual(y, 0.98 + 0.02j), _flat_start(2))
    v, i_src = z[:2] + 1j * z[2:4], complex(z[4], z[5])
    assert np.abs(v - (0.98 + 0.02j)).max() < 1e-9
    assert abs(i_src) < 1e-9


def test_interface_solve_divider_closed_form():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.1, 0.5)])
    y = assemble_y(net)
    y_load = 0.5 - 0.1j
    z, _ = interface_solve(_source_residual(y, 1.0 + 0.0j, y_load),
                           _flat_start(2))
    z_load, z_src = 1.0 / y_load, 0.1 + 0.5j
    assert abs(complex(z[1], z[3]) - z_load / (z_load + z_src)) < 1e-12


def test_interface_solve_accepts_converged_last_iterate():
    """The forward-difference step leaves about 1e-9 after iteration 1 and
    iteration 2 converges: the budget of 2 iterations suffices, and both
    budgets report the 2 iterations taken."""
    z, iterations = interface_solve(lambda z: z - 1.0, np.zeros(1), max_iter=2)
    assert abs(z[0] - 1.0) < 1e-10 and iterations == 2
    assert interface_solve(lambda z: z - 1.0, np.zeros(1), max_iter=3)[1] == 2
    assert np.array_equal(interface_solve(lambda z: z - 1.0, np.zeros(1),
                                          max_iter=3)[0], z)


def test_interface_solve_stops_at_once():
    """A residual with a NaN or an infinity ends the iteration at its first
    evaluation, naming its first such row, and a singular Jacobian ends it
    naming the worst row, both as NewtonDivergence with the residual; the
    message says why it stopped and claims no iteration budget."""
    calls = []

    def not_finite(z):
        calls.append(z)
        return np.array([1.0, np.inf, np.nan])

    with pytest.raises(NewtonDivergence,
                       match=r"^residual not finite: inf$") as info:
        interface_solve(not_finite, np.zeros(3))
    assert len(calls) == 1 and info.value.worst_equation == 1
    assert np.isnan(info.value.residual)
    singular = r"^Newton Jacobian singular; residual 3\.000e\+00$"
    with pytest.raises(NewtonDivergence, match=singular) as info:
        interface_solve(lambda z: np.array([z[0] + z[1] - 1.0,
                                            z[0] + z[1] - 3.0]), np.zeros(2))
    assert info.value.worst_equation == 1 and info.value.residual == 3.0


@pytest.mark.parametrize("t, names, at, name", [
    (None, None, "", None),
    (0.25, ("a", "b", "c"), " at t=0.250000s", "b"),
])
@pytest.mark.parametrize("stop", ["not finite", "singular", "budget"])
def test_newton_stops(stop, t, names, at, name):
    """newton stops at a residual with a NaN or an infinity, naming its
    first such row; at a correction that raises LinAlgError; and after
    max_iter iterations, each of the last two naming the row of largest
    |r|.  Each message adds the time and the equation's name when given,
    and no stop calls the correction once more."""
    corrections = []

    def halve(z, r, res):
        corrections.append(res)
        if stop == "singular":
            raise np.linalg.LinAlgError("singular")
        return 0.5 * r

    def residual(z):
        if stop == "not finite":
            return np.array([1.0, np.inf, np.nan])
        return z - 1.0

    z0 = np.array([1.5, 9.0, 0.0])
    with pytest.raises(NewtonDivergence) as info:
        newton(residual, z0, z0 - 1.0, 1e-10, halve, 3, t, names)
    exc = info.value
    assert exc.worst_equation == 1
    if stop == "not finite":
        message = f"residual not finite{at}: inf"
        message += "" if name is None else f" in equation {name}"
        assert np.isnan(exc.residual) and len(corrections) == 1
    else:
        why, res, calls = {"singular": ("Newton Jacobian singular", 8.0, 1),
                           "budget": ("not converged after 3 iterations",
                                      1.0, 3)}[stop]
        message = f"{why}{at}; residual {res:.3e}"
        message += "" if name is None else f", worst equation {name}"
        assert exc.residual == res and len(corrections) == calls
    assert str(exc) == message
    if stop == "singular":
        assert isinstance(exc.__cause__, np.linalg.LinAlgError)


def test_interface_solve_counts_iterations():
    """A start at the root takes no iteration; a linear residual takes one
    Newton step to about 1e-9 (the forward difference) and one more."""
    assert interface_solve(lambda z: z - 1.0, np.ones(1))[1] == 0
    _, iterations = interface_solve(lambda z: 3.0 * z - 1.5, np.zeros(2))
    assert iterations == 2


def test_power_flow_no_load_flat():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.0, 0.4)])
    specs = {"1": PfBusSpec(kind="slack", v_set=1.02), "2": PfBusSpec()}
    v = solve_power_flow(net, specs)
    assert np.abs(v - 1.02).max() < 1e-10
    slack_s = v[0] * np.conj(assemble_y(net, include_dynamic_equivalent=True)
                             @ v)[0]
    assert abs(slack_s) < 1e-10


def test_power_flow_two_bus_closed_form():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.0, 0.5)])
    specs = {"1": PfBusSpec(kind="slack", v_set=1.0),
             "2": PfBusSpec(kind="pv", v_set=1.0, s_fns=[lambda v: 0.5])}
    v = solve_power_flow(net, specs)
    assert np.angle(v[1]) == pytest.approx(np.arcsin(0.25), abs=1e-10)


def test_power_flow_kundur_residual():
    scenario = _kundur_network()
    from synchrolens.sim import build_adapters, power_flow_specs
    net = scenario.build_network()
    specs = power_flow_specs(net, build_adapters(scenario),
                             scenario.slack_device)
    v = solve_power_flow(net, specs)
    y = assemble_y(net, include_dynamic_equivalent=True)
    s_net = v * np.conj(y @ v)
    s_spec = np.zeros(len(v), dtype=complex)
    for k, b in enumerate(net.buses):
        for fn in specs[b.id].s_fns:
            s_spec[k] += fn(abs(v[k]))
    p_spec, q_spec = s_spec.real, s_spec.imag
    slack_idx = net.bus_index["B3"]
    pq = [k for k, b in enumerate(net.buses) if specs[b.id].kind == "pq"]
    non_slack = [k for k in range(len(v)) if k != slack_idx]
    assert np.abs(p_spec[non_slack] - s_net.real[non_slack]).max() < 1e-9
    assert np.abs(q_spec[pq] - s_net.imag[pq]).max() < 1e-9


def test_power_flow_infeasible_load_diverges():
    """5 pu drawn over x = 0.5 exceeds the 1 pu the line can carry; the
    message names the worst mismatch equation."""
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0, 0.5)])
    specs = {"1": PfBusSpec(kind="slack"),
             "2": PfBusSpec(s_fns=[lambda vm: -5.0])}
    with pytest.raises(PfDivergence, match=r"power flow not converged .*"
                                           r"worst equation PF:Q:2$"):
        solve_power_flow(net, specs)


def test_open_branch_doubles_transfer_impedance():
    net = Network([Bus("1"), Bus("2")],
                  [Branch("LA", "1", "2", 0.0, 0.5),
                   Branch("LB", "1", "2", 0.0, 0.5)])
    y_before = assemble_y(net)
    apply_event(net, Event(1.0, EventKind.OPEN_BRANCH, branch="LB"))
    y_after = assemble_y(net)
    assert y_before[0, 1] == pytest.approx(4j)
    assert y_after[0, 1] == pytest.approx(2j)


def test_midpoint_fault_collapses_voltage():
    net = Network([Bus("1"), Bus("2")], [Branch("L", "1", "2", 0.0, 0.5)])
    net.split_branch_for_fault("L")
    apply_event(net, Event(1.0, EventKind.APPLY_FAULT, branch="L"))
    y = assemble_y(net)
    residual = _source_residual(y, 1.0 + 0.0j,
                                connected=connected_bus_mask(net, ["1"]))
    z, _ = interface_solve(residual, _flat_start(3))
    k = net.bus_index["L_mid"]
    assert abs(complex(z[k], z[3 + k])) < 0.1


def test_islanded_bus_masked_as_disconnected():
    net = Network([Bus("1"), Bus("2"), Bus("3")],
                  [Branch("LA", "1", "2", 0.0, 0.5),
                   Branch("LB", "2", "3", 0.0, 0.5)])
    net.open_branch("LB")
    mask = connected_bus_mask(net, ["1"])
    assert mask.tolist() == [True, True, False]


def test_dynamic_branch_steady_state_zero_derivative():
    br = Branch("C1", "1", "2", 0.01, 0.6, dynamic=True, x_c=0.35)
    v_f, v_t = 1.0 + 0.0j, 0.95 * np.exp(-0.08j)
    state = dynamic_branch_init(br, v_f, v_t)
    deriv = dynamic_branch_derivatives(state, br, v_f, v_t, OMEGA_B)
    assert np.max(np.abs(deriv)) < 1e-12


def test_dynamic_branch_eigenvalues_match_rlc_discriminant():
    """Shorted-terminal mode pair vs the stationary-frame RLC closed form."""
    br = Branch("C1", "1", "2", 0.05, 0.6, dynamic=True, x_c=0.35)
    c = 1.0 / br.x_c
    m = OMEGA_B * np.array([
        [-(br.r + 1j * br.x) / br.x, -1.0 / br.x],
        [1.0 / c, -1j],
    ])
    eigs = np.linalg.eigvals(m) + 1j * OMEGA_B   # back to the stationary frame
    l_h = br.x / OMEGA_B
    c_f = c / OMEGA_B
    alpha = br.r / (2.0 * l_h)
    disc = alpha ** 2 - 1.0 / (l_h * c_f)
    expected = sorted([-alpha + np.emath.sqrt(disc), -alpha - np.emath.sqrt(disc)],
                      key=lambda z: z.imag)
    got = sorted(eigs, key=lambda z: z.imag)
    assert np.allclose(got, expected, atol=1e-9 * OMEGA_B)


def test_dynamic_branch_energy_decays_when_shorted():
    br = Branch("C1", "1", "2", 0.05, 0.6, dynamic=True, x_c=0.35)
    state = np.array([0.5 + 0.2j, 0.1 - 0.3j])
    dt = 1e-5
    energies = []
    for _ in range(20000):
        # classic RK4 on the 2-state complex system
        k1 = np.array(dynamic_branch_derivatives(state, br, 0.0, 0.0, OMEGA_B))
        k2 = np.array(dynamic_branch_derivatives(state + 0.5 * dt * k1, br, 0, 0,
                                                 OMEGA_B))
        k3 = np.array(dynamic_branch_derivatives(state + 0.5 * dt * k2, br, 0, 0,
                                                 OMEGA_B))
        k4 = np.array(dynamic_branch_derivatives(state + dt * k3, br, 0, 0,
                                                 OMEGA_B))
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        energies.append(0.5 * br.x * abs(state[0]) ** 2
                        + 0.5 * (1.0 / br.x_c) * abs(state[1]) ** 2)
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12)
    assert energies[-1] < 0.05 * energies[0]
