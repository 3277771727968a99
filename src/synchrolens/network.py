"""Static phasor network, dynamic series-RLC branches, events and solvers.

Bus voltages are Park vectors in the synchronous frame.  Static branches are
lumped pi sections folded into the bus admittance matrix; branches flagged
dynamic keep their series current (and capacitor voltage, when compensated)
as differential states and inject at their terminal buses instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .devices.base import cdiv
from .errors import NewtonDivergence, PfDivergence


@dataclass(frozen=True)
class Bus:
    id: str


@dataclass(frozen=True)
class Branch:
    """Series r + jx with total line charging b, optional off-nominal tap.

    dynamic branches carry x as the series inductive reactance L and x_c as
    the series-capacitor reactance (0 = no compensation); they are excluded
    from the static Y matrix during dynamic simulation.
    """

    id: str
    from_bus: str
    to_bus: str
    r: float
    x: float
    b: float = 0.0
    tap: float = 1.0
    dynamic: bool = False
    x_c: float = 0.0
    parent: str | None = None   # set on fault-split halves

    def series_admittance(self):
        return 1.0 / complex(self.r, self.x - (self.x_c if self.dynamic else 0.0))


class EventKind(enum.Enum):
    APPLY_FAULT = "apply_fault"
    CLEAR_FAULT = "clear_fault"
    OPEN_BRANCH = "open_branch"
    DISCONNECT_DEVICE = "disconnect_device"


@dataclass(frozen=True)
class Event:
    """Timed network disturbance.

    Faults land either on a bus or on the midpoint of a static branch (the
    branch is pre-split at scenario build time).  A clear_fault with
    open_branch=True also takes the faulted branch out of service, matching
    fault clearing by breaker opening.
    """

    time: float
    kind: EventKind
    bus: str | None = None
    branch: str | None = None
    device: str | None = None
    y_fault: complex = -1e4j
    open_branch: bool = False


def fault_split_ids(branch_id):
    """(midpoint bus, first half, second half): the ids the fault split of
    branch branch_id adds."""
    return branch_id + "_mid", branch_id + "#a", branch_id + "#b"


class Network:
    """Mutable carrier of topology state during a run, made from a validated
    scenario's elements by Scenario.build_network."""

    def __init__(self, buses, branches, f_nom=60.0):
        self.buses = list(buses)
        self.branches = list(branches)
        self.f_nom = f_nom
        self.bus_index = {b.id: k for k, b in enumerate(self.buses)}
        self.in_service = {br.id: True for br in self.branches}
        self.fault_admittance: dict[str, complex] = {}

    @property
    def omega_b(self):
        return 2.0 * np.pi * self.f_nom

    @property
    def n_bus(self):
        return len(self.buses)

    def static_branches(self):
        return (br for br in self.branches
                if not br.dynamic and self.in_service[br.id])

    def dynamic_branches(self, in_service_only=True):
        for br in self.branches:
            if not br.dynamic:
                continue
            if in_service_only and not self.in_service[br.id]:
                continue
            yield br

    def split_branch_for_fault(self, branch_id):
        """Replace a static branch with two half-impedance segments.

        The midpoint bus hosts the fault shunt later; pre-splitting keeps the
        algebraic system size constant across the event.
        """
        mid_id, id_a, id_b = fault_split_ids(branch_id)
        br = next(br for br in self.branches if br.id == branch_id)
        half_a = replace(br, id=id_a, to_bus=mid_id,
                         r=0.5 * br.r, x=0.5 * br.x, b=0.5 * br.b,
                         parent=branch_id)
        half_b = replace(br, id=id_b, from_bus=mid_id, tap=1.0,
                         r=0.5 * br.r, x=0.5 * br.x, b=0.5 * br.b,
                         parent=branch_id)
        self.buses.append(Bus(mid_id))
        self.bus_index[mid_id] = len(self.buses) - 1
        self.branches.remove(br)
        self.branches.extend([half_a, half_b])
        del self.in_service[branch_id]
        for h in (half_a, half_b):
            self.in_service[h.id] = True

    def open_branch(self, branch_id):
        """Take a branch (or both halves of a split branch) out of service."""
        for br in self.branches:
            if br.id == branch_id or br.parent == branch_id:
                self.in_service[br.id] = False


def assemble_y(network: Network, include_dynamic_equivalent=False):
    """Bus admittance matrix over in-service elements and fault shunts.

    include_dynamic_equivalent folds dynamic branches in as their static
    equivalents r + j(x - x_c); used for power-flow initialization only.
    """
    n = network.n_bus
    y = np.zeros((n, n), dtype=complex)
    idx = network.bus_index
    for br in network.static_branches():
        _stamp_branch(y, idx, br)
    if include_dynamic_equivalent:
        for br in network.dynamic_branches():
            _stamp_branch(y, idx, replace(br, dynamic=False,
                                          x=br.x - br.x_c, x_c=0.0))
    for bus_id, y_f in network.fault_admittance.items():
        y[idx[bus_id], idx[bus_id]] += y_f
    return y


def _stamp_branch(y, idx, br: Branch):
    f, t = idx[br.from_bus], idx[br.to_bus]
    ys = br.series_admittance()
    ysh = 0.5j * br.b
    tap = br.tap
    y[f, f] += (ys + ysh) / tap / tap   # no tap ** 2: it underflows to 0
    y[t, t] += ys + ysh
    y[f, t] -= ys / tap
    y[t, f] -= ys / tap


def apply_event(network: Network, event: Event):
    """Mutate the topology for one event of a validated scenario; the
    algebraic re-solve and disconnect_device are the simulator's job."""
    # a fault's bus: its own, or the midpoint of its branch
    bus = event.bus if event.branch is None else fault_split_ids(event.branch)[0]
    if event.kind is EventKind.APPLY_FAULT:
        network.fault_admittance[bus] = network.fault_admittance.get(bus, 0.0) + event.y_fault
    elif event.kind is EventKind.CLEAR_FAULT:
        del network.fault_admittance[bus]
        if event.open_branch:
            network.open_branch(event.branch)
    elif event.kind is EventKind.OPEN_BRANCH:
        network.open_branch(event.branch)


def connected_bus_mask(network: Network, device_buses=()):
    """True for buses that still touch an in-service element or a device.

    Buses with no incident element get their KCL row replaced by v = 0 so the
    algebraic system keeps a fixed size across events.
    """
    n = network.n_bus
    mask = np.zeros(n, dtype=bool)
    idx = network.bus_index
    for br in network.branches:
        if network.in_service[br.id]:
            mask[idx[br.from_bus]] = True
            mask[idx[br.to_bus]] = True
    for bus_id in network.fault_admittance:
        mask[idx[bus_id]] = True
    for bus_id in device_buses:
        mask[idx[bus_id]] = True
    return mask


# --- dynamic series-RLC branch -------------------------------------------

def dynamic_branch_derivatives(state, branch: Branch, v_from, v_to, omega_b):
    """d/dt of [i_branch, v_cap] (complex) in the synchronous frame, 1/s.

    (L/omega_b) di/dt = v_from - v_to - (R + jL) i - v_c
    (C/omega_b) dv_c/dt = i - j C v_c        with C = 1/x_c (susceptance pu)

    For branches without compensation the capacitor state is carried but
    pinned at zero.  state is [i_branch, v_cap] as two complex numbers, and
    so is the returned list.
    """
    i_b, v_c = state
    di = cdiv(omega_b * (v_from - v_to - complex(branch.r, branch.x) * i_b - v_c),
              branch.x)
    if branch.x_c > 0.0:
        c = 1.0 / branch.x_c
        dv_c = cdiv(omega_b * (i_b - 1j * c * v_c), c)
    else:
        dv_c = -omega_b * v_c   # unused state decays to zero
    return [di, dv_c]


def dynamic_branch_init(branch: Branch, v_from, v_to):
    """Phasor steady state of a dynamic branch from terminal voltages."""
    z_eq = complex(branch.r, branch.x - branch.x_c)
    i_b = (v_from - v_to) / z_eq
    v_c = i_b * branch.x_c / 1j if branch.x_c > 0.0 else 0.0j
    return np.array([i_b, v_c])


# --- Newton on a residual ---------------------------------------------------

# max-norm residual below which every Newton iteration stops by default
NEWTON_TOL = 1e-10
# Newton iterations the power flow may take
PF_MAX_ITER = 50


def newton(residual, z, r, tol, correction, max_iter, t=None, names=None):
    """Newton iteration z <- z - correction(z, r, res), r = residual(z) and
    res = max|r|, from z and its r until res < tol; returns (the root, the
    iterations taken, its res).

    correction, the caller's Jacobian policy, runs only when the iteration
    goes on.  NewtonDivergence, with res and a worst row, ends at once a
    residual with a NaN or an infinity (its first such row), and max_iter
    iterations short of tol or a correction that raises
    np.linalg.LinAlgError, a singular Jacobian (the row of largest |r|).
    Its message adds the time t and the row's name in names when given.
    """
    it = 0
    res = float(np.abs(r).max())
    while not res < tol:
        if not math.isfinite(res):
            raise _stop(r, res, t, names)
        if it == max_iter:
            raise _stop(r, res, t, names,
                        f"not converged after {max_iter} iterations")
        try:
            dz = correction(z, r, res)
        except np.linalg.LinAlgError as exc:
            raise _stop(r, res, t, names, "Newton Jacobian singular") from exc
        z = z - dz
        r = residual(z)
        res = float(np.abs(r).max())
        it += 1
    return z, it, res


def _stop(r, res, t, names, why=None):
    """newton's NewtonDivergence for why, or for a residual that is not
    finite when why is None."""
    at = "" if t is None else f" at t={t:.6f}s"
    if why is None:
        row = int(np.flatnonzero(~np.isfinite(r))[0])
        message, named = f"residual not finite{at}: {float(r[row])}", " in"
    else:
        row = int(np.argmax(np.abs(r)))
        message, named = f"{why}{at}; residual {res:.3e}", ", worst"
    if names is not None:
        message += f"{named} equation {names[row]}"
    return NewtonDivergence(message, residual=res, worst_equation=row)


def interface_solve(residual, z0, tol=NEWTON_TOL, max_iter=30):
    """newton on residual(z) = 0 from z0 with a forward-difference Jacobian,
    kept while each iteration at least halves max|r| and rebuilt otherwise;
    returns (the root, the iterations taken); the root is residual's last z."""
    jac, last = None, None

    def correction(z, r, res):
        nonlocal jac, last
        if jac is None or res > 0.5 * last:
            jac = fd_jacobian(residual, z, r)
        last = res
        return np.linalg.solve(jac, r)

    return newton(residual, z0, residual(z0), tol, correction, max_iter)[:2]


def fd_jacobian(fn, z, f0):
    """Forward-difference Jacobian of fn at z, given f0 = fn(z)."""
    eps = 1e-7
    jac = np.empty((len(f0), len(z)))
    for k in range(len(z)):
        zp = z.copy()
        zp[k] += eps
        jac[:, k] = (fn(zp) - f0) / eps
    return jac


# --- power flow ------------------------------------------------------------

@dataclass
class PfBusSpec:
    """Per-bus power-flow role.

    kind: 'slack' (v, theta fixed), 'pv' (v fixed, p specified) or 'pq'.
    s_fns are callables of the bus voltage magnitude returning injected
    complex power (system base); constants wrap as lambdas upstream.
    """

    kind: str = "pq"
    v_set: float = 1.0
    theta_set: float = 0.0
    s_fns: list = field(default_factory=list)


def solve_power_flow(network: Network, specs):
    """Newton-Raphson power flow on polar mismatches, flat start, to
    NEWTON_TOL in at most PF_MAX_ITER iterations.

    specs maps bus id -> PfBusSpec with exactly one slack, the bus of a
    validated scenario's slack device.  Returns the complex bus voltages v;
    bus k injects (v * conj(Y @ v))[k], Y = assemble_y with
    include_dynamic_equivalent.  A Newton failure is raised again as
    PfDivergence naming its worst mismatch equation.
    """
    n = network.n_bus
    y = assemble_y(network, include_dynamic_equivalent=True)
    kinds = np.array([specs[b.id].kind for b in network.buses])
    slack = int(np.flatnonzero(kinds == "slack")[0])

    vm = np.array([specs[b.id].v_set if specs[b.id].kind != "pq" else 1.0
                   for b in network.buses])
    va = np.full(n, specs[network.buses[slack].id].theta_set)
    th_idx = [k for k in range(n) if k != slack]
    vm_idx = [k for k in range(n) if kinds[k] == "pq"]
    # names[j] names mismatch equation j: P balance per angle, Q per magnitude
    names = ([f"PF:P:{network.buses[k].id}" for k in th_idx]
             + [f"PF:Q:{network.buses[k].id}" for k in vm_idx])

    def voltages(x):
        """(bus voltages, their magnitudes) for unknown angles and magnitudes x."""
        va2, vm2 = va.copy(), vm.copy()
        va2[th_idx] = x[:len(th_idx)]
        vm2[vm_idx] = x[len(th_idx):]
        return vm2 * np.exp(1j * va2), vm2

    @np.errstate(all="ignore")   # newton names a non-finite row
    def mismatch(x):
        v, vmag = voltages(x)
        s_net = v * np.conj(y @ v)
        s = np.zeros(n, dtype=complex)
        for k, b in enumerate(network.buses):
            for fn in specs[b.id].s_fns:
                s[k] += fn(vmag[k])
        return np.concatenate([(s.real - s_net.real)[th_idx],
                               (s.imag - s_net.imag)[vm_idx]])

    try:
        x, _ = interface_solve(mismatch,
                               np.concatenate([va[th_idx], vm[vm_idx]]),
                               max_iter=PF_MAX_ITER)
    except NewtonDivergence as exc:
        raise PfDivergence(f"power flow {exc}, "
                           f"worst equation {names[exc.worst_equation]}") from exc
    return voltages(x)[0]
