"""Ideal voltage source and the closed-form scenarios' DC current source."""

from __future__ import annotations

from .base import REQUIRED, Adapter, Declaration, DeviceKind


class VsrcAdapter(Adapter):
    """Ideal EMF; the injected current is an algebraic unknown.  initialize
    sets the EMF it holds, emf, to its bus's power-flow voltage."""


class DcSourceAdapter(Adapter):
    """Stationary-frame constant current source (closed-form scenarios only).

    Its injected current rotates at -1 pu in the synchronous frame, so the
    current CF is exactly (0, 0) and chi follows from the voltage CF alone.
    """

    def chi(self, states, v, i, rho, omega):
        return -(rho + 1j * omega)


# an ideal source's values are its parameters, each finite one in its domain
DECLARATIONS = (
    Declaration(DeviceKind.VOLTAGE_SOURCE, {"v": 1.0, "theta": 0.0, "p": 0.0},
                dict, VsrcAdapter, sets_voltage=True, device_base=False),
    Declaration(DeviceKind.DC_CURRENT_SOURCE,
                {"i_mag": REQUIRED, "phase": 0.0}, dict, DcSourceAdapter,
                device_base=False),
)
