"""Shared device-layer types and frame helpers.

Every device kernel broadcasts over a leading sample axis: states has shape
(k,) for one sample or (n, k) for n samples, and v, i are scalars or (n,)
arrays.  The stepper passes one sample as Python numbers instead: states as
a list of k floats, v as a complex.  Kernels read state columns through
``columns``, return derivatives through ``derivatives`` and exponentiate
with ``cexp``, so the Python-number sample stays in Python floats and
complexes (several times cheaper than numpy 0-d scalars) while sample arrays
run as ufuncs.  Python and numpy round complex products and exponentials
alike but not complex quotients: a quotient that the one-row form (a (k,)
state array and a numpy voltage) leaves to numpy goes through ``cdiv``,
which rounds as numpy does, so both forms of one sample agree bitwise.
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


def columns(states):
    """State columns: a list sample as it is, else ``states.T``."""
    return states if isinstance(states, list) else states.T


def derivatives(states, parts):
    """Derivative columns in the form of states: a list for a list sample,
    else stacked along the last axis."""
    return list(parts) if isinstance(states, list) else np.array(parts).T


def cexp(z):
    """exp(z): cmath for a number, numpy for an array."""
    return np.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)


def cdiv(a, b):
    """a / b for complex (or real) numbers, rounded as numpy rounds it.

    numpy divides by Smith's method with a reciprocal, Python without one,
    so their quotients differ in the last bit for about 40% of operands.
    Arrays are left to numpy.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a / b
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


def from_machine_frame(z_m, delta):
    """Machine dq components -> network Park vector."""
    return -1j * cexp(1j * delta) * z_m
