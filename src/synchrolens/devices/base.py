"""Shared device-layer types and frame helpers.

Each device model has two kernels, each with one sample form.  The DAE side
(``*_fg`` and ``zip_injection``) evaluates one sample of the stepper: states
as a list of Python floats and v as a Python complex; it returns the
derivatives as a list and the injected current as a complex, so the step
residual stays in Python numbers, several times cheaper than numpy 0-d
scalars.  The chi side (``*_admittance_cf``) evaluates the recorded arrays:
states of shape (n, k) and v, i of shape (n,).  Helpers both sides share
read states by index (a sample list, or the columns ``states.T``) and
exponentiate with ``cexp``.  The DAE side divides with Python's own ``/``,
which keeps a quotient of Python numbers a Python number.  Each model's
module declares its device kinds (``Declaration``) with their ``Adapter``.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np


class DeviceKind(enum.Enum):
    SM6 = "sm6"
    SM4 = "sm4"
    SM2 = "sm2"
    ZIP = "zip"
    INDUCTION_MOTOR = "induction_motor"
    GFL_IBR = "gfl_ibr"
    GFM_IBR = "gfm_ibr"
    VOLTAGE_SOURCE = "voltage_source"
    DC_CURRENT_SOURCE = "dc_current_source"


def any_sample(mask) -> bool:
    """True when any sample of a boolean mask is set (scalar or array)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def cexp(z):
    """exp(z): cmath for a number, numpy for an array."""
    return np.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)


def to_machine_frame(z_net, delta):
    """Network Park vector -> machine dq components (d + j*q)."""
    return 1j * cexp(-1j * delta) * z_net


# marks a parameter key that has no default
REQUIRED = object()


def param_keys(params_class, *names):
    """The key table of a parameters dataclass: each of names, or every
    field its constructor takes but omega_b, -> its default, or REQUIRED."""
    taken = {f.name: f.default for f in fields(params_class) if f.init}
    names = names or [name for name in taken if name != "omega_b"]
    return {name: REQUIRED if taken[name] is MISSING else taken[name]
            for name in names}


@dataclass(frozen=True)
class Declaration:
    """One device kind, declared once in its model's module: its parameter
    keys (key -> default, or REQUIRED); params(**values, omega_b=...), which
    builds its model's parameters and raises ParamDomain outside their
    domain; its adapter and state names; whether it holds its bus voltage in
    the power flow (slack or PV) rather than inject power (PQ); and whether
    it takes a device base (DeviceSpec.base_mva)."""

    kind: DeviceKind
    keys: dict
    params: Callable
    adapter: type
    state_names: tuple = ()
    sets_voltage: bool = False
    device_base: bool = True


class Adapter:
    """Couples one device spec to the DAE and to the closed-form chi.

    Stateful adapters define fg(t, states, v) -> (derivatives, injection)
    and init(v_bus, s_dev), the steady state back-solved from the terminal
    voltage and power (system base); inj(t, states, v) is the injection.
    fg and inj take one sample in the stepper's form: states as a list of
    Python floats (None for a device without states) and v as a Python
    complex; they return a list and a complex.  chi takes the recorded
    arrays of a whole run, states of shape (n, n_states) and v, i of shape
    (n,).  Currents are on the system base.  For the power flow a PQ
    device's pf_injection(vm) is the complex power it injects at voltage
    magnitude vm; a voltage-setting device's pf_setpoint() returns (v,
    theta, p), the voltage it holds, its angle as the slack and its power as
    PV; by default the parameters as given.  params holds the model's
    parameters; the state names and the power-flow role are the
    declaration's (spec.declaration).
    """

    # whether fg depends on t other than through the states and voltage
    time_varying = False
    # the shunt admittance that stands for an active device in Y, or None
    y_shunt = None

    def __init__(self, spec, system_base, omega_b):
        self.spec = spec
        self.id = spec.id
        self.bus = spec.bus
        self.kind = spec.kind
        self.sets_voltage = spec.declaration.sets_voltage
        self.state_names = spec.declaration.state_names
        self.n_states = len(self.state_names)
        self.ratio = (spec.base_mva or system_base) / system_base
        self.active = True
        self.params = spec.declaration.params(**spec.values(), omega_b=omega_b)

    def pf_setpoint(self):
        p = self.spec.values()
        return p["v"], p["theta"], p["p"]

    def inj(self, t, states, v):
        return self.fg(t, states, v)[1]

    def chi(self, states, v, i, rho, omega):
        """Closed-form chi over the samples, or None where the model has none."""
        return None
