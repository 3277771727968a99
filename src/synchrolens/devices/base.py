"""Shared device-layer types and frame helpers.

Every device kernel broadcasts over a leading sample axis: states has shape
(k,) for one sample or (n, k) for n samples, and v, i are scalars or (n,)
arrays.  Kernels read state columns as ``x = states.T`` and ``x[j]``, which
yields numpy scalars for a single sample, and assemble complex values as
``1j * b + a``, which stays a Python complex for scalar parts.  The stepper's
one-sample calls so keep cheap scalar arithmetic, and its rounding, while
sample arrays run as ufuncs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


@dataclass(frozen=True)
class XiTerms:
    """Decomposition of the injected-current CF: xi = xi_a + k_rho*rho + k_omega*omega."""

    xi_a: complex
    k_rho: complex
    k_omega: complex


def any_sample(mask) -> bool:
    """True when any sample of a boolean mask is set (scalar or array)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def to_machine_frame(z_net, delta):
    """Network Park vector -> machine dq components (d + j*q)."""
    return 1j * np.exp(-1j * delta) * z_net


def from_machine_frame(z_m, delta):
    """Machine dq components -> network Park vector."""
    return -1j * np.exp(1j * delta) * z_m
