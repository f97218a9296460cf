"""First-order Magnus susceptibility integrals and the robustness cost.

For a detuned block H = (beta Z + Omega(t) X)/2 the noise-free propagator is
the geometric Euler product U_geo = R_X(theta) R_Y(chi) R_X(phi), and the
first-order Magnus integral of a Z perturbation decomposes over the Pauli
basis into three curve integrals (all in chi units, one factor 1/|beta| away
from physical time):

    A_X = int -cos(theta) sin(chi) t' dchi
    A_Y = int (sin(theta) cos(phi) + cos(theta) cos(chi) sin(phi)) t' dchi
    A_Z = int (cos(chi) cos(theta) cos(phi) - sin(theta) sin(phi)) t' dchi

For a resonant block (beta = 0) the propagator is R_X(psi(t)) with the
running angle psi = [theta(chi) - theta(0)] + [phi(chi) - phi(0)] - 2 S(chi),
S being half the running enclosed area, and

    A_Z0 = int cos(psi) t' dchi,   A_Y0 = int sin(psi) t' dchi.

Inter-block control crosstalk contributes two complex amplitudes

    ct1 = int Omega dt cos(chi/2) exp(-i (S - theta - phi)) exp(i dt~ t)
    ct2 = int Omega dt sin(chi/2) exp( i (S - theta))        exp(i dt~ t)

where Omega dt = (theta' + cos(chi) phi') dchi and dt~ is the crosstalk
detuning. A brute-force Magnus oracle (trapezoid of U0^dag dH U0 over
cached propagators) backs every analytic integral; the exact bookkeeping
between the two frames is in `crosstalk_block` in tests/oracles.py.

Every integral reads one `CurveGrid`. `robust_cost` is the per-parameter-set
entry point: it builds the grid once and passes it to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurveGrid, CurveParams, real_fields
from .frames import FrameData, SystemConfig

CHANNEL_FREQ = "freq_noise"
CHANNEL_COUPLING = "coupling_noise"
CHANNEL_CROSSTALK = "control_crosstalk"


def trapz_endpoint_corrected(y: np.ndarray, h: float):
    """Composite trapezoid with the h^2/12 Euler-Maclaurin endpoint term removed.

    The boundary derivatives come from one-sided 3-point stencils of the
    sampled integrand, which is accurate enough to push the rule to O(h^4).
    The crosstalk amplitudes need this: their values cancel down to ~1e-4 of
    the integrand mass, where plain trapezoid endpoint error is visible.
    """
    base = np.trapezoid(y, dx=h, axis=-1)
    d_start = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * h)
    d_end = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * h)
    return base - h * h / 12.0 * (d_end - d_start)


def susceptibility_beta(g: CurveGrid):
    """Pauli components (A_X, A_Y, A_Z) of the detuned-block Z response."""
    cos_t, sin_t = np.cos(g.theta), np.sin(g.theta)
    cos_p, sin_p = np.cos(g.phi), np.sin(g.phi)
    ax = g.trapz(-cos_t * g.sin_chi * g.tprime)
    ay = g.trapz((sin_t * cos_p + cos_t * g.cos_chi * sin_p) * g.tprime)
    az = g.trapz((g.cos_chi * cos_t * cos_p - sin_t * sin_p) * g.tprime)
    return float(ax), float(ay), float(az)


def susceptibility_beta0(g: CurveGrid):
    """(A_Y, A_Z) of the resonant-block Z response.

    The phase is the running rotation angle of the block,
    [theta(chi)-theta(0)] + [phi(chi)-phi(0)] - 2 S(chi).
    """
    psi = (g.theta - g.theta[0]) + (g.phi - g.phi[0]) - 2.0 * g.S
    ay0 = g.trapz(np.sin(psi) * g.tprime)
    az0 = g.trapz(np.cos(psi) * g.tprime)
    return float(ay0), float(az0)


def crosstalk_amplitudes(g: CurveGrid, delta_tilde: float, beta: float):
    """The two complex crosstalk amplitudes (ct1, ct2).

    `beta` sets the chi -> time map inside the oscillating phase
    exp(i delta_tilde t(chi)); these integrals carry the Omega dt measure, so
    they are already per unit physical time.
    """
    if beta == 0.0:
        raise ValueError("crosstalk amplitudes need beta != 0 for the time map")
    t_phys = g.arc / abs(beta)
    pref = g.dtheta + g.cos_chi * g.dphi
    rot = np.exp(1.0j * delta_tilde * t_phys)
    ct1 = trapz_endpoint_corrected(
        pref * np.cos(g.chi / 2.0) * np.exp(-1.0j * (g.S - g.theta - g.phi)) * rot, g.h)
    ct2 = trapz_endpoint_corrected(
        pref * np.sin(g.chi / 2.0) * np.exp(1.0j * (g.S - g.theta)) * rot, g.h)
    return complex(ct1), complex(ct2)


@dataclass(frozen=True)
class ChannelWeights:
    """Weights c_k of the robustness cost channels."""

    freq: float = 1.0
    coupling: float = 1.0
    crosstalk: float = 1.0

    def __post_init__(self):
        real_fields(self, "freq", "coupling", "crosstalk")

    def cost(self, costs: dict) -> float:
        """|C_robust|^2 = sum_k c_k |d_{dk} A1|^2 from the `channel_costs` dict."""
        return (self.freq * costs[CHANNEL_FREQ] + self.coupling * costs[CHANNEL_COUPLING]
                + self.crosstalk * costs[CHANNEL_CROSSTALK])


def _block_norms(grid: CurveGrid, frame: FrameData):
    """Squared susceptibility norm of each block, in physical-time units.

    Each susceptibility is integrated only if some block reads it: the 2q
    midpoint drive has no resonant block.
    """
    scale = 1.0 / frame.design_beta

    def norm(susceptibility):
        vec = np.array(susceptibility(grid)) * scale
        return float(np.dot(vec, vec))

    detuned = norm(susceptibility_beta) if any(frame.betas) else None
    resonant = norm(susceptibility_beta0) if 0.0 in frame.betas else None
    return [detuned if b != 0.0 else resonant for b in frame.betas]


def channel_costs(grid: CurveGrid, config: SystemConfig, frame: FrameData) -> dict:
    """Per-channel squared susceptibilities entering |C_robust|^2.

    Noise adds (dw + c_b dJ) Z to block b, c_b from frame.coupling_coefs.
    """
    norms = _block_norms(grid, frame)
    freq = sum(norms)
    coupling = sum(c * c * n for c, n in zip(frame.coupling_coefs, norms))
    # one crosstalk amplitude pair per neighbor; the second chain neighbor
    # counter-rotates, which flips the sign of the effective detuning
    detunings = [frame.delta_tilde] if config.n_qubits == 2 else [frame.delta_tilde, -frame.delta_tilde]
    crosstalk = 0.0
    for dt_eff in detunings:
        ct1, ct2 = crosstalk_amplitudes(grid, dt_eff, frame.design_beta)
        crosstalk += frame.epsilon**2 * (abs(ct1) ** 2 + abs(ct2) ** 2)
    return {CHANNEL_FREQ: freq, CHANNEL_COUPLING: coupling, CHANNEL_CROSSTALK: crosstalk}


def robust_cost(params: CurveParams, config: SystemConfig, frame: FrameData,
                weights: ChannelWeights = ChannelWeights()) -> float:
    """|C_robust|^2 of one parameter set, from one `CurveGrid`."""
    return weights.cost(channel_costs(CurveGrid(params), config, frame))
