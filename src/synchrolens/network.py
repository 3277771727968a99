"""Static phasor network, dynamic series-RLC branches, events and solvers.

Bus voltages are Park vectors in the synchronous frame.  Static branches are
lumped pi sections folded into the bus admittance matrix; branches flagged
dynamic keep their series current (and capacitor voltage, when compensated)
as differential states and inject at their terminal buses instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (NewtonDivergence, PfDivergence, SingularY, UnknownElement)


@dataclass(frozen=True)
class Bus:
    id: str
    v_nom_kv: float = 1.0
    area: int = 1


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
        z = complex(self.r, self.x - (self.x_c if self.dynamic else 0.0))
        if z == 0.0:
            raise SingularY(f"branch {self.id} has zero series impedance")
        return 1.0 / z


@dataclass(frozen=True)
class Shunt:
    bus: str
    g: float = 0.0
    b: float = 0.0


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
    at_midpoint: bool = True
    open_branch: bool = False


class Network:
    """Mutable carrier of topology state during a run."""

    MIDPOINT_SUFFIX = "_mid"

    def __init__(self, buses, branches, shunts=(), base_mva=100.0, f_nom=60.0):
        self.buses = list(buses)
        self.branches = list(branches)
        self.shunts = list(shunts)
        self.base_mva = base_mva
        self.f_nom = f_nom
        self.bus_index = {b.id: k for k, b in enumerate(self.buses)}
        if len(self.bus_index) != len(self.buses):
            raise SingularY("duplicate bus ids")
        self.branch_by_id = {br.id: br for br in self.branches}
        if len(self.branch_by_id) != len(self.branches):
            raise SingularY("duplicate branch ids")
        self.in_service = {br.id: True for br in self.branches}
        self.fault_admittance: dict[str, complex] = {}

    @property
    def omega_b(self):
        return 2.0 * np.pi * self.f_nom

    @property
    def n_bus(self):
        return len(self.buses)

    def copy(self):
        other = Network(self.buses, self.branches, self.shunts,
                        self.base_mva, self.f_nom)
        other.in_service = dict(self.in_service)
        other.fault_admittance = dict(self.fault_admittance)
        return other

    def static_branches(self, in_service_only=True):
        for br in self.branches:
            if br.dynamic:
                continue
            if in_service_only and not self.in_service[br.id]:
                continue
            yield br

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
        algebraic system size constant across the event.  Returns the
        midpoint bus id; idempotent.
        """
        mid_id = branch_id + self.MIDPOINT_SUFFIX
        if mid_id in self.bus_index:
            return mid_id
        br = self.branch_by_id.get(branch_id)
        if br is None:
            raise UnknownElement(f"unknown branch {branch_id}")
        if br.dynamic:
            raise UnknownElement(f"cannot split dynamic branch {branch_id}")
        mid = Bus(mid_id, self.buses[self.bus_index[br.from_bus]].v_nom_kv)
        half_a = replace(br, id=branch_id + "#a", to_bus=mid_id,
                         r=0.5 * br.r, x=0.5 * br.x, b=0.5 * br.b,
                         parent=branch_id)
        half_b = replace(br, id=branch_id + "#b", from_bus=mid_id, tap=1.0,
                         r=0.5 * br.r, x=0.5 * br.x, b=0.5 * br.b,
                         parent=branch_id)
        self.buses.append(mid)
        self.bus_index[mid_id] = len(self.buses) - 1
        self.branches.remove(br)
        self.branches.extend([half_a, half_b])
        del self.branch_by_id[branch_id]
        del self.in_service[branch_id]
        for h in (half_a, half_b):
            self.branch_by_id[h.id] = h
            self.in_service[h.id] = True
        return mid_id

    def open_branch(self, branch_id):
        """Take a branch (or both halves of a split branch) out of service."""
        hit = False
        for br in self.branches:
            if br.id == branch_id or br.parent == branch_id:
                self.in_service[br.id] = False
                hit = True
        if not hit:
            raise UnknownElement(f"unknown branch {branch_id}")

    def fault_bus_for(self, event: Event):
        if event.bus is not None:
            if event.bus not in self.bus_index:
                raise UnknownElement(f"unknown bus {event.bus}")
            return event.bus
        if event.branch is None:
            raise UnknownElement("fault event names neither bus nor branch")
        return event.branch + self.MIDPOINT_SUFFIX


def assemble_y(network: Network, include_dynamic_equivalent=False,
               extra_shunts=None):
    """Bus admittance matrix over in-service elements.

    include_dynamic_equivalent folds dynamic branches in as their static
    equivalents r + j(x - x_c); used for power-flow initialization only.
    extra_shunts maps bus id -> admittance (fault shunts).
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
    for sh in network.shunts:
        y[idx[sh.bus], idx[sh.bus]] += complex(sh.g, sh.b)
    for bus_id, y_f in network.fault_admittance.items():
        y[idx[bus_id], idx[bus_id]] += y_f
    if extra_shunts:
        for bus_id, y_f in extra_shunts.items():
            y[idx[bus_id], idx[bus_id]] += y_f
    return y


def _stamp_branch(y, idx, br: Branch):
    f, t = idx[br.from_bus], idx[br.to_bus]
    ys = br.series_admittance()
    ysh = 0.5j * br.b
    tap = br.tap
    y[f, f] += (ys + ysh) / tap ** 2
    y[t, t] += ys + ysh
    y[f, t] -= ys / tap
    y[t, f] -= ys / tap


def apply_event(network: Network, event: Event):
    """Mutate the topology for one event; algebraic re-solve is the caller's job."""
    if event.kind is EventKind.APPLY_FAULT:
        bus = network.fault_bus_for(event)
        if bus not in network.bus_index:
            raise UnknownElement(f"unknown fault location {bus}")
        network.fault_admittance[bus] = network.fault_admittance.get(bus, 0.0) + event.y_fault
    elif event.kind is EventKind.CLEAR_FAULT:
        bus = network.fault_bus_for(event)
        if bus not in network.fault_admittance:
            raise UnknownElement(f"no fault applied at {bus}")
        del network.fault_admittance[bus]
        if event.open_branch:
            if event.branch is None:
                raise UnknownElement("open_branch clearing requires a branch fault")
            network.open_branch(event.branch)
    elif event.kind is EventKind.OPEN_BRANCH:
        network.open_branch(event.branch)
    elif event.kind is EventKind.DISCONNECT_DEVICE:
        pass  # device activity is tracked by the simulator
    else:
        raise UnknownElement(f"unsupported event kind {event.kind}")


def connected_bus_mask(network: Network, device_buses=()):
    """True for buses that still touch an in-service element or a device.

    Buses with no incident element get their KCL row replaced by v = 0 so the
    algebraic system keeps a fixed size across events.
    """
    n = network.n_bus
    mask = np.zeros(n, dtype=bool)
    idx = network.bus_index
    for br in network.static_branches():
        mask[idx[br.from_bus]] = True
        mask[idx[br.to_bus]] = True
    for br in network.dynamic_branches():
        mask[idx[br.from_bus]] = True
        mask[idx[br.to_bus]] = True
    for sh in network.shunts:
        mask[idx[sh.bus]] = True
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
    pinned at zero.
    """
    i_b, v_c = state
    if branch.x <= 0.0:
        raise SingularY(f"dynamic branch {branch.id} needs positive inductance")
    di = omega_b * (v_from - v_to - complex(branch.r, branch.x) * i_b - v_c) / branch.x
    if branch.x_c > 0.0:
        c = 1.0 / branch.x_c
        dv_c = omega_b * (i_b - 1j * c * v_c) / c
    else:
        dv_c = -omega_b * v_c   # unused state decays to zero
    return np.array([di, dv_c])


def dynamic_branch_init(branch: Branch, v_from, v_to):
    """Phasor steady state of a dynamic branch from terminal voltages."""
    z_eq = complex(branch.r, branch.x - branch.x_c)
    i_b = (v_from - v_to) / z_eq
    v_c = i_b * branch.x_c / 1j if branch.x_c > 0.0 else 0.0j
    return np.array([i_b, v_c])


# --- Newton on a residual ---------------------------------------------------

def interface_solve(residual, z0, tol=1e-10, max_iter=30):
    """Newton iteration for residual(z) = 0 from z0; returns the root.

    The forward-difference Jacobian is kept while each iteration at least
    halves the residual's max norm and is rebuilt otherwise.  The last
    residual call is at the returned point.
    """
    z = z0
    r = residual(z)
    jac = None
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return z
        if jac is None:
            jac = fd_jacobian(residual, z, r)
        try:
            dz = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularY(f"Newton Jacobian singular: {exc}") from exc
        z = z + dz
        r_new = residual(z)
        if np.max(np.abs(r_new)) > 0.5 * np.max(np.abs(r)) and np.max(np.abs(r_new)) > tol:
            jac = None  # stale Jacobian; rebuild next pass
        r = r_new
    raise NewtonDivergence("interface solve did not converge",
                           residual=float(np.max(np.abs(r))),
                           worst_equation=int(np.argmax(np.abs(r))))


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
    p_fns/q_fns are callables of the bus voltage magnitude returning injected
    power (system base); constants wrap as lambdas upstream.
    """

    kind: str = "pq"
    v_set: float = 1.0
    theta_set: float = 0.0
    p_fns: list = field(default_factory=list)
    q_fns: list = field(default_factory=list)


def solve_power_flow(network: Network, specs, tol=1e-10, max_iter=50):
    """Newton-Raphson power flow on polar mismatches, flat start.

    specs maps bus id -> PfBusSpec with exactly one slack.  Returns
    (v complex array, slack complex power, per-bus injected complex power).
    """
    n = network.n_bus
    y = assemble_y(network, include_dynamic_equivalent=True)
    kinds = np.array([specs[b.id].kind for b in network.buses])
    slack = np.where(kinds == "slack")[0]
    if len(slack) != 1:
        raise PfDivergence(f"exactly one slack required, got {len(slack)}")
    slack = int(slack[0])

    vm = np.array([specs[b.id].v_set if specs[b.id].kind != "pq" else 1.0
                   for b in network.buses])
    va = np.full(n, specs[network.buses[slack].id].theta_set)
    th_idx = [k for k in range(n) if k != slack]
    vm_idx = [k for k in range(n) if kinds[k] == "pq"]

    def voltages(x):
        """(bus voltages, their magnitudes) for unknown angles and magnitudes x."""
        va2, vm2 = va.copy(), vm.copy()
        va2[th_idx] = x[:len(th_idx)]
        vm2[vm_idx] = x[len(th_idx):]
        return vm2 * np.exp(1j * va2), vm2

    def mismatch(x):
        v, vmag = voltages(x)
        s_net = v * np.conj(y @ v)
        p, q = np.zeros(n), np.zeros(n)
        for k, b in enumerate(network.buses):
            sp = specs[b.id]
            for fn in sp.p_fns:
                p[k] += fn(vmag[k])
            for fn in sp.q_fns:
                q[k] += fn(vmag[k])
        return np.concatenate([(p - s_net.real)[th_idx],
                               (q - s_net.imag)[vm_idx]])

    try:
        x = interface_solve(mismatch, np.concatenate([va[th_idx], vm[vm_idx]]),
                            tol=tol, max_iter=max_iter)
    except NewtonDivergence as exc:
        raise PfDivergence(f"power flow not converged after {max_iter} "
                           f"iterations; residual {exc.residual:.3e}") from exc
    v = voltages(x)[0]
    s_all = v * np.conj(y @ v)
    return v, complex(s_all[slack]), s_all
