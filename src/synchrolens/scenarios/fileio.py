"""Scenario file format: flat INI-style sections, strictly parsed.

Sections: [system], [bus.<id>], [branch.<id>], [device.<id>], [event.<n>]
and [sim].  Keys are lower_snake_case; quantities are per-unit on the
declared bases.  Unknown sections or keys are errors, [system] and [sim]
come at most once each, without a label, and every other section needs
one.  The grammar is documented in the README.
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


def _str(entry, name):
    return entry[0]


def _ids(entry, name):
    """A comma-separated list of ids, empty items dropped."""
    return tuple(v for v in entry[0].split(",") if v)


def _member(enum):
    """Converter to the member of enum with the entry's value."""
    def convert(entry, name):
        try:
            return enum(entry[0])
        except ValueError:
            raise SchemaError(f"unknown {name} {entry[0]!r}") from None
    return convert


# each section's keys: file key -> (dataclass field, converter); a key a
# section lacks keeps the field's dataclass default
_SYSTEM = {"name": ("name", _str), "slack_device": ("slack_device", _str),
           "analytic": ("analytic", _str), "f_nom": ("f_nom", _float),
           "base_mva": ("base_mva", _float), "monitored": ("monitored", _ids)}
_SIM = {"dt": ("dt", _float), "t_end": ("t_end", _float),
        "record_decimation": ("record_decimation", _int)}
_BRANCH = {"from": ("from_bus", _str), "to": ("to_bus", _str),
           "r": ("r", _float), "x": ("x", _float), "b": ("b", _float),
           "tap": ("tap", _float), "dynamic": ("dynamic", _bool),
           "x_c": ("x_c", _float)}
_EVENT = {"t": ("time", _float), "kind": ("kind", _member(EventKind)),
          "bus": ("bus", _str), "branch": ("branch", _str),
          "device": ("device", _str), "y_fault_g": ("y_fault_g", _float),
          "y_fault_b": ("y_fault_b", _float),
          "open_branch": ("open_branch", _bool)}
# a device's other keys are its parameters, which Scenario.validate checks
_DEVICE = {"kind": ("kind", _member(DeviceKind)), "bus": ("bus", _str),
           "base_mva": ("base_mva", _float)}


def _section(kind, label, data, keys, required=()):
    """{field: value} of a section's entries by keys' (field, converter)
    table; SchemaError naming the section for an unknown key, a missing
    required one and a value its converter rejects."""
    element = f"{kind}.{label}" if label else kind
    for key in data:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r}", element=element)
    for key in required:
        if key not in data:
            raise SchemaError(f"missing key {key!r}", element=element)
    try:
        return {keys[k][0]: keys[k][1](entry, k) for k, entry in data.items()}
    except SchemaError as exc:
        raise SchemaError(str(exc), element=element) from None


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file."""
    single = {}   # the entries of [system] and [sim], each at most once
    buses, branches, devices, events = [], [], [], []
    for kind, label, data in _parse_sections(text):
        if kind in ("system", "sim"):
            if label is not None:
                raise SchemaError("the section takes no label",
                                  element=f"{kind}.{label}")
            if kind in single:
                raise SchemaError("a second section", element=kind)
            single[kind] = data
        elif kind in ("bus", "branch", "device", "event") and label is None:
            raise SchemaError("the section needs a label", element=kind)
        elif kind == "bus":
            _section(kind, label, data, {})   # a bus is only its id
            buses.append(Bus(label))
        elif kind == "branch":
            fields = _section(kind, label, data, _BRANCH, ("from", "to", "x"))
            # Branch.r has no default; a file's is 0
            branches.append(Branch(label, **{"r": 0.0, **fields}))
        elif kind == "device":
            fields = _section(kind, label,
                              {k: v for k, v in data.items() if k in _DEVICE},
                              _DEVICE, ("kind", "bus"))
            params = {k: _float(v, k) for k, v in data.items()
                      if k not in _DEVICE}
            devices.append(DeviceSpec(label, params=params, **fields))
        elif kind == "event":
            fields = _section(kind, label, data, _EVENT, ("t", "kind"))
            # a part the file leaves out is the default admittance's
            fields["y_fault"] = complex(
                fields.pop("y_fault_g", Event.y_fault.real),
                fields.pop("y_fault_b", Event.y_fault.imag))
            events.append(Event(**fields))
        else:
            raise SchemaError(f"unknown section [{kind}]")
    return Scenario(buses=tuple(buses), branches=tuple(branches),
                    devices=tuple(devices), events=tuple(events),
                    **_section("system", None, single.get("system", {}),
                               _SYSTEM, ("name",)),
                    **_section("sim", None, single.get("sim", {}),
                               _SIM)).validate()


def _fmt(value):
    """A number as load_scenario reads it back, a numpy float included."""
    return repr(float(value))


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
