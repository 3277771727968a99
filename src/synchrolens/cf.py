"""Complex-frequency extraction from sampled Park vectors.

All complex-frequency (CF) components are per-unit on the system angular
base omega_b = 2*pi*f_nom.  The omega component is absolute (frame speed
added back), so series taken in different rotating frames compare directly.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewSamples

# Park vectors with magnitude below this are treated as CF-undefined.
MIN_MAG = 1e-6


def _derivative(y, dt):
    """Second-order first derivative on a uniform grid.

    Central differences inside, one-sided three-point stencils at the ends.
    """
    out = np.empty_like(y, dtype=float)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def cf_arrays(values, dt, frame_omega, omega_b):
    """CF (rho, omega) arrays of a sampled complex signal; checks only that
    the three-point stencils fit.  The angle is unwrapped assuming it moves
    less than pi per sample."""
    if len(values) < 3:
        raise TooFewSamples(f"need >= 3 samples, got {len(values)}")
    mag = np.abs(values)
    ang = np.unwrap(np.angle(values))
    rho = _derivative(np.log(mag), dt) / omega_b
    omega = _derivative(ang, dt) / omega_b + frame_omega
    return rho, omega

