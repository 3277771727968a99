"""Declarative scenario description consumed by the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..devices import DeviceKind
from ..errors import SchemaError
from ..network import Branch, Bus, Event, EventKind, Network

# Device kinds whose power-flow role fixes the bus voltage magnitude.
_VOLTAGE_SETTING = (DeviceKind.SM2, DeviceKind.SM4, DeviceKind.SM6,
                    DeviceKind.GFM_IBR, DeviceKind.VOLTAGE_SOURCE)


def check_run_settings(dt, t_end, record_decimation):
    """SchemaError unless dt and t_end are finite and positive and the
    recording decimation is an integer of at least 1."""
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0.0):
            raise SchemaError(f"{name} must be finite and positive, got {value!r}")
    if (isinstance(record_decimation, bool)
            or not isinstance(record_decimation, int) or record_decimation < 1):
        raise SchemaError("record_decimation must be an integer >= 1, "
                          f"got {record_decimation!r}")


# an instant is on the dt grid when it is within this many steps of one
GRID_TOL_STEPS = 1e-6


def grid_steps(name, time, dt):
    """Whole dt steps to the instant time; SchemaError when it lies off the
    grid, as nothing is rounded to the nearest step."""
    exact = time / dt
    if not (math.isfinite(exact)
            and abs(exact - round(exact)) <= GRID_TOL_STEPS):
        raise SchemaError(f"{name} {time} is not a multiple of dt={dt}")
    return round(exact)


def time_grid(dt, t_end, event_times):
    """(steps to t_end, step of each event) on the dt grid."""
    return (grid_steps("t_end", t_end, dt),
            [grid_steps("event time", t, dt) for t in event_times])


@dataclass(frozen=True)
class DeviceSpec:
    """One device instance: kind, terminal bus and raw numeric parameters.

    params keys are kind-specific and documented in the scenario-file
    grammar; base_mva of None means the device runs on the system base.
    """

    id: str
    kind: DeviceKind
    bus: str
    params: dict
    base_mva: float | None = None


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
    expectations: dict = field(default_factory=dict)

    def device(self, device_id) -> DeviceSpec:
        for d in self.devices:
            if d.id == device_id:
                return d
        raise SchemaError(f"unknown device {device_id}")

    def build_network(self) -> Network:
        """Fresh Network with fault branches pre-split at their midpoints."""
        net = Network(self.buses, self.branches, base_mva=self.base_mva,
                      f_nom=self.f_nom)
        for ev in self.events:
            if ev.kind is EventKind.APPLY_FAULT and ev.branch is not None:
                net.split_branch_for_fault(ev.branch)
        return net

    def without_disturbances(self) -> "Scenario":
        """Events removed and torque modulations zeroed (equilibrium-hold runs)."""
        devices = tuple(
            replace(d, params={**d.params, "tau_mod_amp": 0.0})
            if "tau_mod_amp" in d.params else d
            for d in self.devices
        )
        return replace(self, events=(), devices=devices)

    def validate(self):
        """Structural checks; raises SchemaError on the first violation."""
        check_run_settings(self.dt, self.t_end, self.record_decimation)
        bus_ids = {b.id for b in self.buses}
        if len(bus_ids) != len(self.buses):
            raise SchemaError("duplicate bus ids")
        branch_ids = set()
        for br in self.branches:
            if br.id in branch_ids:
                raise SchemaError(f"duplicate branch id {br.id}", element=br.id)
            branch_ids.add(br.id)
            for end in (br.from_bus, br.to_bus):
                if end not in bus_ids:
                    raise SchemaError(f"references undeclared bus {end}",
                                      element=br.id)
        dev_ids = set()
        for d in self.devices:
            if d.id in dev_ids:
                raise SchemaError(f"duplicate device id {d.id}", element=d.id)
            dev_ids.add(d.id)
            if d.bus not in bus_ids:
                raise SchemaError(f"device on undeclared bus {d.bus}",
                                  element=d.id)
            if (d.kind is DeviceKind.DC_CURRENT_SOURCE
                    and self.analytic is None):
                raise SchemaError(
                    "DC current sources exist only in analytic scenarios",
                    element=d.id)
        if self.analytic is None:
            if self.slack_device not in dev_ids:
                raise SchemaError(
                    f"slack device {self.slack_device!r} is not declared")
        per_bus_vset = {}
        for d in self.devices:
            if d.kind in _VOLTAGE_SETTING:
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
            if ev.kind is EventKind.APPLY_FAULT:
                if ev.branch is not None and ev.branch not in branch_ids:
                    raise SchemaError(f"fault on unknown branch {ev.branch}")
                if ev.branch is not None:
                    br = next(b for b in self.branches if b.id == ev.branch)
                    if br.dynamic:
                        raise SchemaError(
                            f"faults on dynamic branches unsupported ({ev.branch})")
                if ev.bus is not None and ev.bus not in bus_ids:
                    raise SchemaError(f"fault on unknown bus {ev.bus}")
                open_faults.add((ev.bus, ev.branch))
            elif ev.kind is EventKind.CLEAR_FAULT:
                if (ev.bus, ev.branch) not in open_faults:
                    raise SchemaError("clear_fault without a prior apply_fault")
                open_faults.discard((ev.bus, ev.branch))
            elif ev.kind is EventKind.OPEN_BRANCH:
                if ev.branch not in branch_ids:
                    raise SchemaError(f"open_branch on unknown branch {ev.branch}")
            elif ev.kind is EventKind.DISCONNECT_DEVICE:
                if ev.device not in dev_ids:
                    raise SchemaError(f"disconnect of unknown device {ev.device}")
        for dev_id in self.monitored:
            if dev_id not in dev_ids:
                raise SchemaError(f"monitored device {dev_id} is not declared")
        time_grid(self.dt, self.t_end, [ev.time for ev in self.events])
        return self
