"""Declarative scenario description consumed by the simulator."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ..devices import DECLARATIONS, REQUIRED, DeviceKind
from ..errors import ParamDomain, SchemaError
from ..network import Branch, Bus, Event, EventKind, Network, fault_split_ids

# a scenario's name begins its output file names, so it holds no path
# separator and is neither empty nor hidden
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def check_positive(name, value, element=None):
    """SchemaError unless value is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise SchemaError(f"{name} must be finite and positive, got {value!r}",
                          element=element)


# the nominal frequencies a scenario may declare, Hz; chi is scaled by
# 1/omega_b, which for a vanishing f_nom overflows the report's numbers
F_NOM_RANGE = (1.0, 1000.0)


# an instant is on the dt grid when it is within this many steps of one
GRID_TOL_STEPS = 1e-6

# the recorded samples a run needs, as the CF stencils span three
MIN_SAMPLES = 3


def check_run_settings(dt, t_end, record_decimation):
    """SchemaError unless dt and t_end are finite and positive, the
    recording decimation is an integer of at least 1 and the run records at
    least MIN_SAMPLES samples."""
    check_positive("dt", dt)
    check_positive("t_end", t_end)
    if (isinstance(record_decimation, bool)
            or not isinstance(record_decimation, int) or record_decimation < 1):
        raise SchemaError("record_decimation must be an integer >= 1, "
                          f"got {record_decimation!r}")
    steps = t_end / dt
    if steps < (MIN_SAMPLES - 1) * record_decimation - GRID_TOL_STEPS:
        samples = math.floor(steps + GRID_TOL_STEPS) // record_decimation + 1
        raise SchemaError(
            f"t_end = {t_end!r} records {samples} samples at dt = {dt!r} "
            f"and record_decimation = {record_decimation}, fewer than the "
            f"{MIN_SAMPLES} the CF stencils need")


def grid_steps(name, time, dt):
    """Whole dt steps to the instant time; SchemaError when it lies off the
    grid, as nothing is rounded to the nearest step."""
    exact = time / dt
    if not (math.isfinite(exact)
            and abs(exact - round(exact)) <= GRID_TOL_STEPS):
        raise SchemaError(f"{name} {time} is not a multiple of dt={dt}")
    return round(exact)


def time_grid(dt, t_end, event_times):
    """(steps to t_end, step of each event) on the dt grid; an event must
    lie at least one step after t = 0, where the step loop applies it."""
    n_steps = grid_steps("t_end", t_end, dt)
    event_steps = [grid_steps("event time", t, dt) for t in event_times]
    for t, k in zip(event_times, event_steps):
        if k < 1:
            raise SchemaError(f"event time {t} is less than one step "
                              f"(dt={dt}) after t=0")
    return n_steps, event_steps


def _check_branch_model(br):
    """SchemaError for branch fields the DAE would ignore or cannot
    integrate: a static branch is a pi section without series capacitor, a
    dynamic one a series R-L(-C) with positive inductance, no charging and
    no tap; neither has zero series impedance."""
    if not br.dynamic:
        if br.x_c != 0.0:
            raise SchemaError(f"x_c = {br.x_c!r} applies only to a dynamic "
                              "branch", element=br.id)
    elif not (br.x > 0.0 and br.x_c >= 0.0 and br.b == 0.0 and br.tap == 1.0):
        raise SchemaError(
            "a dynamic branch needs x > 0, x_c >= 0, b = 0 and tap = 1, got "
            f"x = {br.x!r}, x_c = {br.x_c!r}, b = {br.b!r}, tap = {br.tap!r}",
            element=br.id)
    if complex(br.r, br.x - br.x_c) == 0.0:
        raise SchemaError("zero series impedance r + j(x - x_c)",
                          element=br.id)


def _by_id(kind, elements):
    """{id: element}; SchemaError naming an id declared twice."""
    by_id = {}
    for e in elements:
        if e.id in by_id:
            raise SchemaError(f"duplicate {kind} id {e.id}", element=e.id)
        by_id[e.id] = e
    return by_id


def _check_params(d):
    """SchemaError for the parameters the device's kind does not take, in
    sorted order, for the required ones it lacks (its declaration's keys)
    and for a given value that is not a finite real number."""
    table = d.declaration.keys
    unknown = sorted(set(d.params) - set(table))
    missing = [k for k in table if table[k] is REQUIRED and k not in d.params]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise SchemaError(f"{problem} parameter{'s' * (len(keys) > 1)} "
                              f"{', '.join(map(repr, keys))} for kind "
                              f"{d.kind.value}", element=d.id)
    for key, value in d.params.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise SchemaError(f"parameter {key!r} must be a finite real "
                              f"number, got {value!r}", element=d.id)


@dataclass(frozen=True)
class DeviceSpec:
    """One device instance: kind, terminal bus and raw numeric parameters.

    params holds the given values of the keys the kind's declaration
    (devices.DECLARATIONS) lists; base_mva of None means the device runs on
    the system base, and only a kind declared device_base takes another.
    """

    id: str
    kind: DeviceKind
    bus: str
    params: dict
    base_mva: float | None = None

    @property
    def declaration(self):
        return DECLARATIONS[self.kind]

    def values(self):
        """The params laid over the kind's defaults."""
        return {**self.declaration.keys, **self.params}


@dataclass(frozen=True)
class Scenario:
    name: str
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    devices: tuple[DeviceSpec, ...]
    events: tuple[Event, ...] = ()
    slack_device: str = ""
    f_nom: float = 60.0
    base_mva: float = 100.0
    dt: float = 1e-3
    t_end: float = 10.0
    record_decimation: int = 1
    analytic: str | None = None
    monitored: tuple[str, ...] = ()

    def build_network(self) -> Network:
        """Fresh Network with fault branches pre-split at their midpoints."""
        net = Network(self.buses, self.branches, f_nom=self.f_nom)
        for branch_id in self.fault_branches():
            net.split_branch_for_fault(branch_id)
        return net

    def fault_branches(self):
        """Ids of the branches an apply_fault names, once each, in order."""
        return dict.fromkeys(ev.branch for ev in self.events
                             if ev.kind is EventKind.APPLY_FAULT
                             and ev.branch is not None)

    def validate(self):
        """Every structural rule, each device's domain check (ParamDomain)
        and an analytic scenario's closed-form rules, before any run or sweep
        point; the network layer and the simulator trust what passes."""
        if not _NAME.fullmatch(self.name):
            raise SchemaError(f"name {self.name!r} must be letters, digits, "
                              "'_', '-' and '.', not starting with '.'")
        check_run_settings(self.dt, self.t_end, self.record_decimation)
        lo, hi = F_NOM_RANGE
        if not lo <= self.f_nom <= hi:
            raise SchemaError(f"f_nom must lie in [{lo}, {hi}] Hz, "
                              f"got {self.f_nom!r}")
        check_positive("base_mva", self.base_mva)
        buses = _by_id("bus", self.buses)
        branches = _by_id("branch", self.branches)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in buses:
                    raise SchemaError(f"references undeclared bus {end}",
                                      element=br.id)
            check_positive("tap", br.tap, element=br.id)
            _check_branch_model(br)
        omega_b = 2.0 * math.pi * self.f_nom
        devices = _by_id("device", self.devices)
        for d in self.devices:
            if d.bus not in buses:
                raise SchemaError(f"device on undeclared bus {d.bus}",
                                  element=d.id)
            if d.base_mva is not None:
                if not d.declaration.device_base:
                    raise SchemaError(f"kind {d.kind.value} takes no base_mva",
                                      element=d.id)
                check_positive("base_mva", d.base_mva, element=d.id)
            _check_params(d)
            try:   # the run's own domain check: its adapter's parameters
                d.declaration.adapter(d, self.base_mva, omega_b)
            except ParamDomain as exc:
                raise ParamDomain(f"{d.id}: {exc}") from exc
            if (d.kind is DeviceKind.DC_CURRENT_SOURCE
                    and self.analytic is None):
                raise SchemaError(
                    "DC current sources exist only in analytic scenarios",
                    element=d.id)
        if self.analytic is not None:   # its kind and closed-form rules
            from .circuit import circuit_elements
            circuit_elements(self)
        else:
            if self.slack_device not in devices:
                raise SchemaError(
                    f"slack device {self.slack_device!r} is not declared")
            slack = devices[self.slack_device]
            if not slack.declaration.sets_voltage:
                raise SchemaError(f"slack device of kind {slack.kind.value} "
                                  "cannot hold its bus voltage", element=slack.id)
        per_bus_vset = {}
        for d in self.devices:
            if d.declaration.sets_voltage:
                per_bus_vset.setdefault(d.bus, []).append(d.id)
        for bus, ids in per_bus_vset.items():
            if len(ids) > 1:
                raise SchemaError(
                    f"bus {bus} has multiple voltage-setting devices {ids}")
        last_t = -float("inf")
        seen = set()
        open_faults = set()
        for ev in self.events:
            if not (math.isfinite(ev.time) and ev.time > 0.0):
                raise SchemaError(f"event at t={ev.time} must be finite and after t=0")
            if ev.time < last_t:
                raise SchemaError("event times must be non-decreasing")
            last_t = ev.time
            key = (ev.time, ev.kind, ev.bus, ev.branch, ev.device)
            if key in seen:
                raise SchemaError(f"duplicate event {key}")
            seen.add(key)
            if (ev.kind in (EventKind.APPLY_FAULT, EventKind.CLEAR_FAULT)
                    and (ev.bus is None) == (ev.branch is None)):
                raise SchemaError(f"{ev.kind.value} at t={ev.time} must name "
                                  "either a bus or a branch")
            if ev.open_branch and ev.kind is not EventKind.CLEAR_FAULT:
                raise SchemaError("open_branch = true applies only to "
                                  f"clear_fault, not {ev.kind.value} events")
            if ev.kind is EventKind.APPLY_FAULT:
                if ev.bus is not None and ev.bus not in buses:
                    raise SchemaError(f"fault on unknown bus {ev.bus}")
                open_faults.add((ev.bus, ev.branch))
            elif ev.kind is EventKind.CLEAR_FAULT:
                if (ev.bus, ev.branch) not in open_faults:
                    raise SchemaError("clear_fault without a prior apply_fault")
                if ev.open_branch and ev.branch is None:
                    raise SchemaError("open_branch clearing needs a branch "
                                      "fault, not a bus fault")
                open_faults.discard((ev.bus, ev.branch))
            elif ev.kind is EventKind.OPEN_BRANCH:
                if ev.branch not in branches:
                    raise SchemaError(f"open_branch on unknown branch {ev.branch}")
            elif ev.kind is EventKind.DISCONNECT_DEVICE:
                if ev.device not in devices:
                    raise SchemaError(f"disconnect of unknown device {ev.device}")
        for branch_id in self.fault_branches():
            if branch_id not in branches:
                raise SchemaError(f"fault on unknown branch {branch_id}")
            if branches[branch_id].dynamic:
                raise SchemaError(
                    f"faults on dynamic branches unsupported ({branch_id})")
            mid_id, *half_ids = fault_split_ids(branch_id)
            if mid_id in buses:
                raise SchemaError("bus id reserved for the midpoint of "
                                  f"faulted branch {branch_id}", element=mid_id)
            for half_id in half_ids:
                if half_id in branches:
                    raise SchemaError("branch id reserved for a half of "
                                      f"faulted branch {branch_id}",
                                      element=half_id)
        for dev_id in self.monitored:
            if dev_id not in devices:
                raise SchemaError(f"monitored device {dev_id} is not declared")
        time_grid(self.dt, self.t_end, [ev.time for ev in self.events])
        return self
