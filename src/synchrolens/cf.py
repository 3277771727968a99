"""Park-vector algebra and complex-frequency extraction.

All complex-frequency (CF) components are stored per-unit on the system
angular base OMEGA_B = 2*pi*f_nom.  The omega component is absolute (frame
speed added back), so series taken in different rotating frames compare
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MagnitudeTooSmall, TooFewSamples

# Park vectors with magnitude below this are treated as CF-undefined.
MIN_MAG = 1e-6

DEFAULT_F_NOM = 60.0
DEFAULT_OMEGA_B = 2.0 * np.pi * DEFAULT_F_NOM


@dataclass(frozen=True)
class ParkVector:
    """Complex dq-frame quantity, d + j*q, per-unit."""

    d: float
    q: float

    def magnitude(self):
        return float(np.hypot(self.d, self.q))

    def to_complex(self):
        return complex(self.d, self.q)

    @staticmethod
    def from_complex(z):
        return ParkVector(float(np.real(z)), float(np.imag(z)))


@dataclass(frozen=True)
class ComplexFrequency:
    """CF pair (rho, omega), per-unit on OMEGA_B.

    For voltage/current CF the omega field is the absolute angular speed.
    For a CF difference (the admittance CF) the fields are simply the real
    and imaginary parts of the difference.
    """

    rho: float
    omega: float

    def to_complex(self):
        return complex(self.rho, self.omega)

    def norm(self):
        return float(np.hypot(self.rho, self.omega))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled Park-vector signal.

    values holds the samples as a complex ndarray (d + j*q).  frame_omega is
    the absolute rotating speed of the sampling frame in pu (1.0 for the
    synchronous frame); rotate_frame keeps it consistent.
    """

    t0: float
    dt: float
    values: np.ndarray
    frame_omega: float = 1.0
    omega_b: float = DEFAULT_OMEGA_B

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    def __len__(self):
        return len(self.values)

    def times(self):
        return self.t0 + self.dt * np.arange(len(self.values))

    def sample(self, k) -> ParkVector:
        return ParkVector.from_complex(self.values[k])


@dataclass(frozen=True)
class CfSeries:
    """Per-sample CF of a trajectory; indexable as ComplexFrequency."""

    rho: np.ndarray
    omega: np.ndarray

    def __len__(self):
        return len(self.rho)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return ComplexFrequency(float(self.rho[k]), float(self.omega[k]))
        return CfSeries(self.rho[k], self.omega[k])

    def to_complex(self):
        return self.rho + 1j * self.omega

    def norm(self):
        return np.hypot(self.rho, self.omega)


def _derivative(y, dt):
    """Second-order first derivative on a uniform grid.

    Central differences inside, one-sided three-point stencils at the ends.
    """
    out = np.empty_like(y, dtype=float)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return out


def unwrap_angles(angles):
    """Continuous angle series assuming |step| < pi per sample."""
    return np.unwrap(np.asarray(angles, dtype=float))


def cf_arrays(values, dt, frame_omega, omega_b):
    """CF (rho, omega) arrays of a sampled complex signal; checks only that
    the three-point stencils fit."""
    if len(values) < 3:
        raise TooFewSamples(f"need >= 3 samples, got {len(values)}")
    mag = np.abs(values)
    ang = unwrap_angles(np.angle(values))
    rho = _derivative(np.log(mag), dt) / omega_b
    omega = _derivative(ang, dt) / omega_b + frame_omega
    return rho, omega


def cf_from_samples(traj: Trajectory) -> CfSeries:
    """Per-sample CF of a trajectory.

    rho is the log-magnitude rate, omega the absolute angle rate, both pu on
    the trajectory's omega_b.  Raises if any sample magnitude is below
    MIN_MAG or fewer than 3 samples are present.
    """
    mag = np.abs(traj.values)
    if np.min(mag) < MIN_MAG:
        k = int(np.argmin(mag))
        raise MagnitudeTooSmall(
            f"sample {k} magnitude {mag[k]:.3e} below MIN_MAG={MIN_MAG:.1e}"
        )
    rho, omega = cf_arrays(traj.values, traj.dt, traj.frame_omega, traj.omega_b)
    return CfSeries(rho, omega)


def chi_from_cf(xi, eta):
    """Admittance CF as the componentwise difference xi - eta.

    Works on ComplexFrequency pairs or CfSeries pairs; omega components
    subtract so any common frame speed cancels.
    """
    if isinstance(xi, CfSeries):
        return CfSeries(xi.rho - eta.rho, xi.omega - eta.omega)
    return ComplexFrequency(xi.rho - eta.rho, xi.omega - eta.omega)


def chi_from_xi_terms(xi_a, k_rho, k_omega, eta: ComplexFrequency) -> ComplexFrequency:
    """Compose the admittance CF from a device's current-CF decomposition.

    chi = xi_a + (k_rho - 1)*rho + (k_omega - j)*omega with rho, omega taken
    from the terminal-voltage CF.
    """
    chi = xi_a + (k_rho - 1.0) * eta.rho + (k_omega - 1j) * eta.omega
    return ComplexFrequency(float(chi.real), float(chi.imag))


def rotate_frame(traj: Trajectory, delta_omega: float) -> Trajectory:
    """Re-express a trajectory in a frame rotating delta_omega pu faster."""
    if delta_omega == 0.0:
        return traj
    phase = np.exp(-1j * delta_omega * traj.omega_b * traj.times())
    return replace(
        traj, values=traj.values * phase, frame_omega=traj.frame_omega + delta_omega
    )


def apparent_power(v: ParkVector, i: ParkVector) -> complex:
    """Complex power p + j*q injected with current i at voltage v."""
    p = v.d * i.d + v.q * i.q
    q = v.q * i.d - v.d * i.q
    return complex(p, q)
