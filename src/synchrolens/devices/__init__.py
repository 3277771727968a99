"""Device models: per model, one kernel for derivatives and injection over
one sample of Python numbers (``zip_injection`` for the stateless ZIP
load), one for the closed-form chi over sample arrays, which every model
has, for every ZIP share mix too, plus initializers for the models with
states (see ``devices.base``).  DECLARATIONS holds every kind's declaration."""

from __future__ import annotations

from . import inverter, loads, machine, motor, sources
from .base import REQUIRED, Adapter, Declaration, DeviceKind, to_machine_frame
from .inverter import (GflParams, GfmParams, gfl_admittance_cf, gfl_fg,
                       gfl_init, gfm_admittance_cf, gfm_fg, gfm_init)
from .loads import (ZipParams, zip_admittance_cf, zip_injection, zip_power,
                    zip_shunt_current, zip_voltage_magnitude)
from .machine import (SmParams, sm2_params, sm4_params, sm_admittance_cf,
                      sm_fg, sm_init)
from .motor import (ImParams, im_admittance, im_admittance_cf, im_fg, im_init,
                    im_power, im_pullout, im_torque)

DECLARATIONS = {d.kind: d for module in (machine, loads, motor, inverter,
                                         sources) for d in module.DECLARATIONS}

__all__ = [
    "DeviceKind", "Declaration", "DECLARATIONS", "REQUIRED", "Adapter",
    "to_machine_frame",
    "SmParams", "sm2_params", "sm4_params",
    "sm_fg", "sm_admittance_cf", "sm_init",
    "ZipParams", "zip_power", "zip_injection", "zip_shunt_current",
    "zip_voltage_magnitude", "zip_admittance_cf",
    "ImParams", "im_torque", "im_power", "im_admittance",
    "im_fg", "im_admittance_cf", "im_pullout", "im_init",
    "GflParams", "gfl_fg", "gfl_admittance_cf", "gfl_init",
    "GfmParams", "gfm_fg", "gfm_admittance_cf", "gfm_init",
]
