"""Oracles and scenario helpers that only the tests use.

The xi-terms decomposition is an independent grouping of each device's
closed-form admittance CF: xi = xi_a + k_rho*rho + k_omega*omega is the CF
of the injected current, and ``chi_from_xi_terms`` composes it with the
terminal-voltage CF.  The tests check it against the ``*_admittance_cf``
kernels, so its formulas must stay written out here, not routed through
those kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from synchrolens.cf import MIN_MAG
from synchrolens.devices.base import DeviceKind, to_machine_frame
from synchrolens.devices.inverter import (_emf_rate, _modulation_rates,
                                          _pll_deviation, gfl_modulation,
                                          gfm_emf, gfm_speed)
from synchrolens.devices.machine import _emf_rates
from synchrolens.errors import SynchroLensError
from synchrolens.network import Branch, Bus, Event, EventKind
from synchrolens.scenarios import DeviceSpec, Scenario
from synchrolens.scenarios.circuit import circuit_elements


class CurrentTooSmall(SynchroLensError):
    """Terminal current magnitude below MIN_MAG; analytic CF undefined."""


class ModulationTooSmall(SynchroLensError):
    """Converter modulation magnitude below MIN_MAG."""


@dataclass(frozen=True)
class XiTerms:
    """Decomposition of the injected-current CF: xi = xi_a + k_rho*rho + k_omega*omega."""

    xi_a: complex
    k_rho: complex
    k_omega: complex


def chi_from_xi_terms(xi_a, k_rho, k_omega, rho, omega) -> complex:
    """Compose the admittance CF from a device's current-CF decomposition.

    chi = xi_a + (k_rho - 1)*rho + (k_omega - j)*omega with rho, omega taken
    from the terminal-voltage CF.
    """
    return complex(xi_a + (k_rho - 1.0) * rho + (k_omega - 1j) * omega)


def sm_xi_terms(state, params, v_net, i_net, v_f=0.0) -> XiTerms:
    """Analytic (xi_a, k_rho, k_omega) of the injected-current CF.

    An independent grouping of the closed form: composed with
    chi_from_xi_terms it must reproduce sm_admittance_cf.  i_net is the
    injected current in machine base.
    """
    if abs(i_net) < MIN_MAG:
        raise CurrentTooSmall(f"|i|={abs(i_net):.3e} below MIN_MAG")
    delta, omega_r = state[0], state[1]
    v_m = to_machine_frame(v_net, delta)
    i_m = to_machine_frame(i_net, delta)
    v_d, v_q = v_m.real, v_m.imag

    zdc = params.r_s - 1j * params.x2_d
    zqc = params.r_s - 1j * params.x2_q
    det = params.x2_d * params.x2_q + params.r_s ** 2
    b = np.conj(i_m) / (det * abs(i_m) ** 2)

    dE_d, dE_q = _emf_rates(state, params, i_m.real, i_m.imag, v_f)
    dE_dn, dE_qn = dE_d / params.omega_b, dE_q / params.omega_b

    xi_a = 1j * omega_r + b * (1j * zqc * (dE_dn + omega_r * v_d)
                               - zdc * (dE_qn + omega_r * v_q))
    k_rho = -b * (zdc * v_d + 1j * zqc * v_q)
    k_omega = b * (zdc * v_q - 1j * zqc * v_d)
    return XiTerms(complex(xi_a), complex(k_rho), complex(k_omega))


def gfl_xi_terms(state, params, v_net, i_net) -> XiTerms:
    """(xi_a, k_rho, k_omega) for the converter current CF.

    Composed with chi_from_xi_terms it must reproduce gfl_admittance_cf.
    """
    theta = state[5]
    v_pll = v_net * np.exp(-1j * theta)
    i_pll = i_net * np.exp(-1j * theta)
    if abs(i_pll) < MIN_MAG:
        raise CurrentTooSmall(f"|i|={abs(i_pll):.3e} below MIN_MAG")
    m = gfl_modulation(state, params)
    m2 = abs(m) ** 2
    if m2 < MIN_MAG ** 2:
        raise ModulationTooSmall(f"|m|={abs(m):.3e} below MIN_MAG")
    m_rate, a_rate = _modulation_rates(state, params, m, m2, i_pll)
    omega_t = _pll_deviation(state, params, v_pll.imag) + 1.0
    front = m * params.v_dc0 / (params.z_f * i_pll)
    xi_a = front * (m_rate / params.omega_b
                    + 1j * (a_rate / params.omega_b + omega_t))
    k_rho = 1.0 - front
    k_omega = 1j * (1.0 - front)
    return XiTerms(complex(xi_a), complex(k_rho), complex(k_omega))


def gfm_xi_terms(state, params, v_net, i_net) -> XiTerms:
    """(xi_a, k_rho, k_omega); composed with chi_from_xi_terms it must
    reproduce gfm_admittance_cf."""
    if abs(i_net) < MIN_MAG:
        raise CurrentTooSmall(f"|i|={abs(i_net):.3e} below MIN_MAG")
    de = _emf_rate(state, params, abs(v_net))
    front = gfm_emf(state) / (params.z_t * i_net)
    xi_a = front * (de / state[0] / params.omega_b
                    + 1j * gfm_speed(state, params))
    k_rho = 1.0 - front
    k_omega = 1j * (1.0 - front)
    return XiTerms(complex(xi_a), complex(k_rho), complex(k_omega))


def exact_voltage_cf(scenario, t):
    """Symbolically differentiated CF of circuit_dc's injection-bus voltage.

    For v(t) = E + R*I*exp(-j*w_b*t) the CF is v'/(v*w_b) with the absolute
    frame speed added back to the omega component.
    """
    emf, i_dc, branch, _, _ = circuit_elements(scenario)
    omega_b = 2.0 * np.pi * scenario.f_nom
    rot = np.exp(-1j * omega_b * np.asarray(t))
    v = emf + branch.r * i_dc * rot
    dv = -1j * omega_b * branch.r * i_dc * rot
    cf = dv / (v * omega_b)
    return cf.real, cf.imag + 1.0


def kcl_reference(dae, t, z):
    """g of ``PowerSystemDae.fg`` at z = [x; y] in its complex array form,
    the reference for fg's own assembly: -Y v over the bus phasors
    v = y[:n] + 1j*y[n:2n], plus each active device's injection, minus and
    plus each in-service dynamic branch's current at its from and to bus,
    plus each active ideal source's current; an isolated bus reads v.  Then
    the re and im parts of the mismatch and of the source constraints
    (v - emf, or the current of a source that is not active), as a list."""
    x = z[:dae.n_x]
    v, i_src = dae.unpack_y(z[dae.n_x:])
    mismatch = dae._neg_y @ v
    xs = x.tolist()
    for a, sl, k in dae._device_info:
        v_k = complex(v[k])
        mismatch[k] += (a.inj(t, None, v_k) if sl is None
                        else a.fg(t, xs[sl], v_k)[1])
    for br, j, kf, kt in dae._branch_info:
        i_b = x[j] + 1j * x[j + 1]
        mismatch[kf] -= i_b
        mismatch[kt] += i_b
    src = np.empty(dae.n_src, dtype=complex)
    for j, (a, k) in enumerate(dae._vsrc_info):
        if a.active:
            mismatch[k] += i_src[j]
            src[j] = v[k] - a.emf
        else:
            src[j] = i_src[j]
    mismatch[dae._isolated] = v[dae._isolated]
    return np.concatenate([mismatch.real, mismatch.imag,
                           src.real, src.imag]).tolist()


def rotate_result(result, delta_omega: float):
    """Every recorded Park-vector series re-expressed in a faster frame."""
    phase = np.exp(-1j * delta_omega * result.omega_b * result.t)
    return replace(
        result,
        voltages={b: v * phase for b, v in result.voltages.items()},
        currents={d: i * phase for d, i in result.currents.items()},
        frame_omega=result.frame_omega + delta_omega,
    )


def without_disturbances(scenario):
    """The scenario with its events and torque modulations removed
    (equilibrium-hold runs)."""
    devices = tuple(
        replace(d, params={k: v for k, v in d.params.items()
                           if k not in ("tau_mod_amp", "tau_mod_hz")})
        for d in scenario.devices
    )
    return replace(scenario, events=(), devices=devices)


def gfm_probe_scenario():
    """Grid-forming converter against a grid, load step on its bus.

    A lone grid-forming island sees a constant admittance (chi identically
    zero), so the probe pairs it with a stiff source to make the droop and
    voltage-loop transients visible in chi.
    """
    return Scenario(
        name="gfm_probe",
        buses=(Bus("B0"), Bus("B1"), Bus("B2")),
        branches=(Branch("LG", "B0", "B1", 0.01, 0.4),
                  Branch("L1", "B1", "B2", 0.01, 0.3)),
        devices=(
            DeviceSpec("IB", DeviceKind.VOLTAGE_SOURCE, "B0",
                       {"v": 1.0, "theta": 0.0}),
            DeviceSpec("F1", DeviceKind.GFM_IBR, "B1",
                       {"k_p": 1.0, "k_i": 8.0, "t_v": 0.02, "m_p": 0.04,
                        "p_ref": 0.5, "v_ref": 1.0, "z_t_r": 0.01,
                        "z_t_x": 0.2}),
            DeviceSpec("Z1", DeviceKind.ZIP, "B2", {"p0": 0.3, "q0": 0.05}),
            DeviceSpec("Z2", DeviceKind.ZIP, "B2", {"p0": 0.2, "q0": 0.05}),
        ),
        events=(Event(1.0, EventKind.DISCONNECT_DEVICE, device="Z2"),),
        slack_device="IB",
        t_end=8.0,
    ).validate()
