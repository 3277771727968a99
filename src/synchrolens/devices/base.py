"""Shared device-layer types and frame helpers.

Each device model has two kernels, each with one sample form.  The DAE side
(``*_fg`` and ``zip_injection``) evaluates one sample of the stepper: states
as a list of Python floats and v as a Python complex; it returns the
derivatives as a list and the injected current as a complex, so the step
residual stays in Python numbers, several times cheaper than numpy 0-d
scalars.  The chi side (``*_admittance_cf``) evaluates the recorded arrays:
states of shape (n, k) and v, i of shape (n,).  Helpers both sides share
read states by index (a sample list, or the columns ``states.T``) and
exponentiate with ``cexp``.  Python rounds complex quotients differently from
numpy, so the DAE side divides complexes with ``cdiv``, which rounds as numpy
does and keeps every output bit of the numpy formulation.
"""

from __future__ import annotations

import cmath
import enum

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


def cdiv(a, b):
    """a / b for complex (or real) numbers, rounded as numpy rounds it.

    numpy divides by Smith's method with a reciprocal, Python without one,
    so their quotients differ in the last bit for about 40% of operands.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def to_machine_frame(z_net, delta):
    """Network Park vector -> machine dq components (d + j*q)."""
    return 1j * cexp(-1j * delta) * z_net
