"""Declarative scenario description consumed by the simulator."""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields

from ..devices import DeviceKind, ZipParams
from ..errors import SchemaError
from ..network import Branch, Bus, Event, EventKind, Network

# Device kinds whose power-flow role fixes the bus voltage magnitude.
VOLTAGE_SETTING = (DeviceKind.SM2, DeviceKind.SM4, DeviceKind.SM6,
                   DeviceKind.GFM_IBR, DeviceKind.VOLTAGE_SOURCE)

# marks a device parameter that has no default
REQUIRED = object()

# a scenario's name begins its output file names, so it holds no path
# separator and is neither empty nor hidden
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def _required(*keys):
    return dict.fromkeys(keys, REQUIRED)


# what every machine takes: inertia, damping, power-flow setpoints (v and
# theta as the slack, p as PV) and a torque modulation
_SM = {"m": REQUIRED, "d": 0.0, "p": 0.0, "v": 1.0, "theta": 0.0,
       "tau_mod_amp": 0.0, "tau_mod_hz": 0.0}
_SM4 = {**_required("x_d", "x_q", "x1_d", "x1_q", "x_l", "t1_d0", "t1_q0"),
        "r_s": 0.0, **_SM, "avr_kp": 0.0, "avr_ki": 0.0}

# each device kind's parameter keys: key -> default, or REQUIRED; GFM's t_p
# defaults to t_v (GfmParams), and the ZIP shares to constant impedance
DEVICE_PARAMS = {
    DeviceKind.SM2: {"x1_d": REQUIRED, **_SM},
    DeviceKind.SM4: _SM4,
    DeviceKind.SM6: {**_SM4, **_required("x2_d", "x2_q", "t2_d0", "t2_q0")},
    DeviceKind.ZIP: {"p0": REQUIRED, "q0": 0.0,
                     **{f.name: f.default for f in fields(ZipParams)
                        if f.default is not MISSING}},
    DeviceKind.INDUCTION_MOTOR: {
        **_required("x_s", "r_r1", "x_r1", "x_mu", "h_m", "tau_m"),
        "r_s": 0.0},
    DeviceKind.GFL_IBR: {
        **_required("k_p", "k_i", "t_m", "k_p_pll", "k_i_pll", "v_dc0",
                    "z_f_x", "i_dref"),
        "z_f_r": 0.0, "y_f_g": 0.0, "y_f_b": 0.0, "i_qref": 0.0},
    DeviceKind.GFM_IBR: {
        **_required("k_p", "k_i", "t_v", "m_p", "p_ref", "v_ref", "z_t_x"),
        "t_p": None, "z_t_r": 0.0},
    DeviceKind.VOLTAGE_SOURCE: {"v": 1.0, "theta": 0.0, "p": 0.0},
    DeviceKind.DC_CURRENT_SOURCE: {"i_mag": REQUIRED, "phase": 0.0},
}
# the kinds whose models are on a device base (DeviceSpec.base_mva); the
# others' equations do not scale with one
DEVICE_BASE_KINDS = frozenset(DEVICE_PARAMS) - {
    DeviceKind.ZIP, DeviceKind.VOLTAGE_SOURCE, DeviceKind.DC_CURRENT_SOURCE}


def check_positive(name, value, element=None):
    """SchemaError unless value is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise SchemaError(f"{name} must be finite and positive, got {value!r}",
                          element=element)


# the nominal frequencies a scenario may declare, Hz; chi is scaled by
# 1/omega_b, which for a vanishing f_nom overflows the report's numbers
F_NOM_RANGE = (1.0, 1000.0)


def check_run_settings(dt, t_end, record_decimation):
    """SchemaError unless dt and t_end are finite and positive and the
    recording decimation is an integer of at least 1."""
    check_positive("dt", dt)
    check_positive("t_end", t_end)
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


def _check_params(d):
    """SchemaError for the parameters the device's kind does not take, in
    sorted order, and for the required ones it lacks (DEVICE_PARAMS)."""
    table = DEVICE_PARAMS[d.kind]
    unknown = sorted(set(d.params) - set(table))
    missing = [k for k in table if table[k] is REQUIRED and k not in d.params]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise SchemaError(f"{problem} parameter{'s' * (len(keys) > 1)} "
                              f"{', '.join(map(repr, keys))} for kind "
                              f"{d.kind.value}", element=d.id)


def _check_torque_modulation(d):
    """SchemaError unless a torque modulation, if any, has a finite nonzero
    tau_mod_amp and a finite positive tau_mod_hz (one alone does nothing)."""
    amp, hz = d.params.get("tau_mod_amp"), d.params.get("tau_mod_hz")
    if (amp is not None or hz is not None) and not (
            amp and hz and math.isfinite(amp) and math.isfinite(hz) and hz > 0.0):
        raise SchemaError("a torque modulation needs tau_mod_amp != 0 and "
                          f"tau_mod_hz > 0, got tau_mod_amp = {amp!r}, "
                          f"tau_mod_hz = {hz!r}", element=d.id)


@dataclass(frozen=True)
class DeviceSpec:
    """One device instance: kind, terminal bus and raw numeric parameters.

    params keys are kind-specific (DEVICE_PARAMS); base_mva of None means
    the device runs on the system base, and only DEVICE_BASE_KINDS take
    another.
    """

    id: str
    kind: DeviceKind
    bus: str
    params: dict
    base_mva: float | None = None

    def values(self):
        """The params laid over the kind's defaults (DEVICE_PARAMS)."""
        return {**DEVICE_PARAMS[self.kind], **self.params}


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
        for ev in self.events:
            if ev.kind is EventKind.APPLY_FAULT and ev.branch is not None:
                net.split_branch_for_fault(ev.branch)
        return net

    def validate(self):
        """Structural checks; raises SchemaError on the first violation."""
        if not _NAME.fullmatch(self.name):
            raise SchemaError(f"name {self.name!r} must be letters, digits, "
                              "'_', '-' and '.', not starting with '.'")
        check_run_settings(self.dt, self.t_end, self.record_decimation)
        lo, hi = F_NOM_RANGE
        if not lo <= self.f_nom <= hi:
            raise SchemaError(f"f_nom must lie in [{lo}, {hi}] Hz, "
                              f"got {self.f_nom!r}")
        check_positive("base_mva", self.base_mva)
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
            check_positive("tap", br.tap, element=br.id)
            _check_branch_model(br)
        dev_ids = set()
        for d in self.devices:
            if d.id in dev_ids:
                raise SchemaError(f"duplicate device id {d.id}", element=d.id)
            dev_ids.add(d.id)
            if d.bus not in bus_ids:
                raise SchemaError(f"device on undeclared bus {d.bus}",
                                  element=d.id)
            if d.base_mva is not None:
                if d.kind not in DEVICE_BASE_KINDS:
                    raise SchemaError(f"kind {d.kind.value} takes no base_mva",
                                      element=d.id)
                check_positive("base_mva", d.base_mva, element=d.id)
            _check_params(d)
            _check_torque_modulation(d)
            if (d.kind is DeviceKind.DC_CURRENT_SOURCE
                    and self.analytic is None):
                raise SchemaError(
                    "DC current sources exist only in analytic scenarios",
                    element=d.id)
        if self.analytic is None:
            if self.slack_device not in dev_ids:
                raise SchemaError(
                    f"slack device {self.slack_device!r} is not declared")
            slack = next(d for d in self.devices if d.id == self.slack_device)
            if slack.kind not in VOLTAGE_SETTING:
                raise SchemaError(f"slack device of kind {slack.kind.value} "
                                  "cannot hold its bus voltage", element=slack.id)
        per_bus_vset = {}
        for d in self.devices:
            if d.kind in VOLTAGE_SETTING:
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
                if ev.open_branch and ev.branch is None:
                    raise SchemaError("open_branch clearing needs a branch "
                                      "fault, not a bus fault")
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
