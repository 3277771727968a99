"""Scenario file format: flat INI-style sections, strictly parsed.

Sections: [system], [bus.<id>], [branch.<id>], [device.<id>], [event.<n>]
and [sim].  Keys are lower_snake_case; quantities are per-unit on the
declared bases.  Unknown sections or keys are errors.  The grammar is
documented in the README.
"""

from __future__ import annotations

import math
import re

from ..devices import DeviceKind
from ..errors import ParseError, SchemaError
from ..network import Branch, Bus, Event, EventKind
from .model import DeviceSpec, Scenario

_SECTION_RE = re.compile(r"^\[([a-z_]+)(?:\.([A-Za-z0-9_#-]+))?\]$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_SYSTEM_KEYS = {"name", "f_nom", "base_mva", "slack_device", "analytic",
                "monitored"}
_BRANCH_KEYS = {"from", "to", "r", "x", "b", "tap", "dynamic", "x_c"}
_EVENT_KEYS = {"t", "kind", "bus", "branch", "device", "y_fault_g",
               "y_fault_b", "open_branch"}
_SIM_KEYS = {"dt", "t_end", "record_decimation"}

_DEVICE_KEYS = {
    DeviceKind.SM2: {"x1_d", "m", "d", "p", "v", "theta", "tau_mod_amp",
                     "tau_mod_hz"},
    DeviceKind.SM4: {"r_s", "x_d", "x_q", "x1_d", "x1_q", "x_l", "t1_d0",
                     "t1_q0", "m", "d", "p", "v", "theta", "avr_kp", "avr_ki",
                     "tau_mod_amp", "tau_mod_hz"},
    DeviceKind.SM6: {"r_s", "x_d", "x_q", "x1_d", "x1_q", "x2_d", "x2_q",
                     "x_l", "t1_d0", "t1_q0", "t2_d0", "t2_q0", "m", "d", "p",
                     "v", "theta", "avr_kp", "avr_ki", "tau_mod_amp",
                     "tau_mod_hz"},
    DeviceKind.ZIP: {"p0", "q0", "k_pp", "k_ip", "k_zp", "k_pq", "k_iq",
                     "k_zq"},
    DeviceKind.INDUCTION_MOTOR: {"r_s", "x_s", "r_r1", "x_r1", "x_mu", "h_m",
                                 "tau_m"},
    DeviceKind.GFL_IBR: {"k_p", "k_i", "t_m", "k_p_pll", "k_i_pll", "v_dc0",
                         "z_f_r", "z_f_x", "y_f_g", "y_f_b", "i_dref",
                         "i_qref"},
    DeviceKind.GFM_IBR: {"k_p", "k_i", "t_v", "t_p", "m_p", "p_ref", "v_ref",
                         "z_t_r", "z_t_x"},
    DeviceKind.VOLTAGE_SOURCE: {"v", "theta", "p"},
    DeviceKind.DC_CURRENT_SOURCE: {"i_mag", "phase"},
}


def _parse_sections(text):
    """[(kind, label, {key: (value, line)}), ...] in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ParseError(f"malformed section header {line!r}",
                                 line=lineno, column=1)
            current = (m.group(1), m.group(2), {})
            sections.append(current)
            continue
        if current is None:
            raise ParseError("key outside any section", line=lineno, column=1)
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}",
                             line=lineno, column=1)
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ParseError(f"invalid key {key!r}",
                             line=lineno, column=raw.index(key) + 1)
        if key in current[2]:
            raise ParseError(f"duplicate key {key!r}", line=lineno, column=1)
        current[2][key] = (value.strip(), lineno)
    return sections


def _float(entry, name):
    value, lineno = entry
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ParseError(f"{name}: expected a finite number, got {value!r}",
                         line=lineno, column=1)
    return number


def _int(entry, name):
    number = _float(entry, name)
    if not number.is_integer():
        raise SchemaError(f"{name}: expected an integer, got {entry[0]!r}")
    return int(number)


def _bool(entry, name):
    value, lineno = entry
    if value in ("true", "false"):
        return value == "true"
    raise ParseError(f"{name}: expected true/false, got {value!r}",
                     line=lineno, column=1)


def _check_keys(kind, label, data, allowed):
    for key in data:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}",
                              element=f"{kind}.{label}" if label else kind)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file."""
    sections = _parse_sections(text)
    system = {}
    sim = {}
    buses, branches, devices, events = [], [], [], []
    for kind, label, data in sections:
        if kind == "system":
            _check_keys(kind, label, data, _SYSTEM_KEYS)
            system = data
        elif kind == "bus":
            _check_keys(kind, label, data, ())   # a bus is only its id
            buses.append(Bus(label))
        elif kind == "branch":
            _check_keys(kind, label, data, _BRANCH_KEYS)
            for req in ("from", "to", "x"):
                if req not in data:
                    raise SchemaError(f"missing key {req!r}",
                                      element=f"branch.{label}")
            branches.append(Branch(
                label, data["from"][0], data["to"][0],
                r=_float(data["r"], "r") if "r" in data else 0.0,
                x=_float(data["x"], "x"),
                b=_float(data["b"], "b") if "b" in data else 0.0,
                tap=_float(data["tap"], "tap") if "tap" in data else 1.0,
                dynamic=_bool(data["dynamic"], "dynamic")
                if "dynamic" in data else False,
                x_c=_float(data["x_c"], "x_c") if "x_c" in data else 0.0))
        elif kind == "device":
            if "kind" not in data or "bus" not in data:
                raise SchemaError("device needs kind and bus",
                                  element=f"device.{label}")
            try:
                dev_kind = DeviceKind(data["kind"][0])
            except ValueError:
                raise SchemaError(f"unknown device kind {data['kind'][0]!r}",
                                  element=f"device.{label}")
            allowed = _DEVICE_KEYS[dev_kind] | {"kind", "bus", "base_mva"}
            _check_keys("device", label, data, allowed)
            params = {k: _float(v, k) for k, v in data.items()
                      if k not in ("kind", "bus", "base_mva")}
            devices.append(DeviceSpec(
                label, dev_kind, data["bus"][0], params,
                base_mva=_float(data["base_mva"], "base_mva")
                if "base_mva" in data else None))
        elif kind == "event":
            _check_keys(kind, label, data, _EVENT_KEYS)
            if "t" not in data or "kind" not in data:
                raise SchemaError("event needs t and kind",
                                  element=f"event.{label}")
            try:
                ev_kind = EventKind(data["kind"][0])
            except ValueError:
                raise SchemaError(f"unknown event kind {data['kind'][0]!r}",
                                  element=f"event.{label}")
            y_fault = complex(
                _float(data["y_fault_g"], "y_fault_g") if "y_fault_g" in data else 0.0,
                _float(data["y_fault_b"], "y_fault_b") if "y_fault_b" in data else -1e4)
            events.append(Event(
                time=_float(data["t"], "t"), kind=ev_kind,
                bus=data["bus"][0] if "bus" in data else None,
                branch=data["branch"][0] if "branch" in data else None,
                device=data["device"][0] if "device" in data else None,
                y_fault=y_fault,
                open_branch=_bool(data["open_branch"], "open_branch")
                if "open_branch" in data else False))
        elif kind == "sim":
            _check_keys(kind, label, data, _SIM_KEYS)
            sim = data
        else:
            raise SchemaError(f"unknown section [{kind}]")
    if "name" not in system:
        raise SchemaError("missing [system] name")
    scenario = Scenario(
        name=system["name"][0],
        buses=tuple(buses),
        branches=tuple(branches),
        devices=tuple(devices),
        events=tuple(events),
        slack_device=system["slack_device"][0] if "slack_device" in system else "",
        f_nom=_float(system["f_nom"], "f_nom") if "f_nom" in system else 60.0,
        base_mva=_float(system["base_mva"], "base_mva")
        if "base_mva" in system else 100.0,
        dt=_float(sim["dt"], "dt") if "dt" in sim else 1e-3,
        t_end=_float(sim["t_end"], "t_end") if "t_end" in sim else 10.0,
        record_decimation=_int(sim["record_decimation"], "record_decimation")
        if "record_decimation" in sim else 1,
        analytic=system["analytic"][0] if "analytic" in system else None,
        monitored=tuple(v for v in system["monitored"][0].split(",") if v)
        if "monitored" in system else (),
    )
    return scenario.validate()


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Deterministic textual form; load_scenario round-trips it."""
    out = ["[system]", f"name = {scenario.name}",
           f"f_nom = {_fmt(scenario.f_nom)}",
           f"base_mva = {_fmt(scenario.base_mva)}"]
    if scenario.slack_device:
        out.append(f"slack_device = {scenario.slack_device}")
    if scenario.analytic:
        out.append(f"analytic = {scenario.analytic}")
    if scenario.monitored:
        out.append(f"monitored = {','.join(scenario.monitored)}")
    for bus in scenario.buses:
        out += ["", f"[bus.{bus.id}]"]
    for br in scenario.branches:
        out += ["", f"[branch.{br.id}]", f"from = {br.from_bus}",
                f"to = {br.to_bus}", f"r = {_fmt(br.r)}", f"x = {_fmt(br.x)}",
                f"b = {_fmt(br.b)}", f"tap = {_fmt(br.tap)}"]
        if br.dynamic:
            out += [f"dynamic = true", f"x_c = {_fmt(br.x_c)}"]
    for dev in scenario.devices:
        out += ["", f"[device.{dev.id}]", f"kind = {dev.kind.value}",
                f"bus = {dev.bus}"]
        if dev.base_mva is not None:
            out.append(f"base_mva = {_fmt(dev.base_mva)}")
        for key in sorted(dev.params):
            out.append(f"{key} = {_fmt(dev.params[key])}")
    for n, ev in enumerate(scenario.events, start=1):
        out += ["", f"[event.{n}]", f"t = {_fmt(ev.time)}",
                f"kind = {ev.kind.value}"]
        for field, value in (("bus", ev.bus), ("branch", ev.branch),
                             ("device", ev.device)):
            if value is not None:
                out.append(f"{field} = {value}")
        if ev.kind is EventKind.APPLY_FAULT:
            out.append(f"y_fault_g = {_fmt(ev.y_fault.real)}")
            out.append(f"y_fault_b = {_fmt(ev.y_fault.imag)}")
        if ev.open_branch:
            out.append("open_branch = true")
    out += ["", "[sim]", f"dt = {_fmt(scenario.dt)}",
            f"t_end = {_fmt(scenario.t_end)}",
            f"record_decimation = {scenario.record_decimation}"]
    return "\n".join(out) + "\n"
