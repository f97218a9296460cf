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

The frame angle never needs trigonometry. With s = sin(chi) phi' the curve
has theta = pi/2 + arctan(s) and t' = sqrt(1 + s^2), so exactly

    t' cos(theta) = -s,   t' sin(theta) = 1,   e^{i theta} = (i - s) / t',

and theta(0) = pi/2, phi(0) = 0. The integrals above are therefore evaluated as

    A_X = int s sin(chi) dchi
    A_Y + i A_Z = int (1 - i s cos(chi)) e^{-i phi} dchi
    A_Z0 + i A_Y0 = int (1 + i s) e^{i (phi - 2 S)} dchi
    ct1 = int (Omega/beta) cos(chi/2) (i - s) e^{i (phi - S)} e^{i dt~ t} dchi
    ct2 = int (Omega/beta) sin(chi/2) (-i - s) e^{i S} e^{i dt~ t} dchi

with Omega/beta = `CurveGrid.omega_over_beta` and t(chi) = arc(chi)/|beta|.
The grid carries s, e^{i phi} and e^{i S}; a cost evaluation adds one phase
factor, e^{i dt~ t}, from one tan by the half-angle identities, and the
chain's second neighbour, at -dt~, reads its conjugate. The quadratures are
fixed weight vectors of the grid, so every integral is a weighted sum. The
theta-trig integrands are kept as the reference in tests/oracles.py.

Every integral is a function of one `CurveGrid`, which `robust_cost` builds
once per parameter set and the optimizer refills for each evaluation. The
integrals write their n-point temporaries into the grid's scratch rows
(`work`, `cwork`, `amps`), with the same products and the same pairwise sums
as on new arrays, so an evaluation on a refilled grid allocates no n-point
array and a grid serves one thread at a time. One table, `_cost_table`,
picks each block's susceptibility and the setting's crosstalk neighbors.
`channel_costs` sums it into the three channels that `robust_cost` weights,
and `cost_residuals` lays it out as the short vector whose squared norm is
|C_robust|^2, which the optimizer minimizes by least squares; that vector is
a new array, never a view of the scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import CurveGrid, CurveParams, _cos_sin, _grid_tables, real_fields
from .frames import FrameData, SystemConfig

CHANNEL_FREQ = "freq_noise"
CHANNEL_COUPLING = "coupling_noise"
CHANNEL_CROSSTALK = "control_crosstalk"


@dataclass(frozen=True)
class _Weights:
    """Quadrature weights of one chi grid with the integrands' fixed factors folded in."""

    trap: np.ndarray      # composite trapezoid
    trap_sin: np.ndarray  # trap * sin(chi)
    trap_cos: np.ndarray  # trap * cos(chi)
    ct1: np.ndarray       # corrected * cos(chi/2)
    ct2: np.ndarray       # corrected * sin(chi/2)


@lru_cache(maxsize=4)
def _weights(n: int) -> _Weights:
    """The weight vectors of the n-point grid, read-only.

    The susceptibilities use the composite trapezoid. The crosstalk
    amplitudes cancel down to ~1e-4 of their integrand mass, where its
    endpoint error is visible, so they use the trapezoid with the h^2/12
    Euler-Maclaurin endpoint term removed; its boundary derivatives come
    from one-sided 3-point stencils, which pushes the rule to O(h^4).
    """
    chi, sin_chi, cos_chi = _grid_tables(n)[:3]
    h = chi[1] - chi[0]
    trap = np.full(n, h)
    trap[[0, -1]] = 0.5 * h
    corrected = trap.copy()
    stencil = h / 24.0 * np.array([-3.0, 4.0, -1.0])
    corrected[:3] += stencil
    corrected[-3:] += stencil[::-1]
    weights = _Weights(trap, trap * sin_chi, trap * cos_chi,
                       corrected * np.cos(chi / 2.0), corrected * np.sin(chi / 2.0))
    for w in vars(weights).values():
        w.flags.writeable = False
    return weights


# The susceptibilities cancel to ~1e-5 of their integrand mass on robust
# curves, so they are summed pairwise (np.sum), which keeps the rounding near
# 1e-16 of the mass; a BLAS dot product accumulates ~5x more. A complex pass
# over 16384 points costs about 0.01 ms, a quarter of a tan, so the products
# are formed in place, in the grid's scratch rows (contiguous, as np.sum's
# pairwise order and np.tan's vector loop need).

def _integrand(g: CurveGrid, real: np.ndarray, imag_weight: np.ndarray) -> np.ndarray:
    """real + i imag_weight s in the grid's first complex scratch row."""
    out = g.cwork[0]
    out.real = real
    np.multiply(imag_weight, g.s, out=out.imag)
    return out


def susceptibility_beta(g: CurveGrid):
    """Pauli components (A_X, A_Y, A_Z) of the detuned-block Z response."""
    w = _weights(len(g.chi))
    ax = np.sum(np.multiply(g.s, w.trap_sin, out=g.work[0]))
    # A_Y + i A_Z = int (1 - i s cos chi) e^{-i phi} = conj(int (1 + i s cos chi) e^{i phi})
    integrand = _integrand(g, w.trap, w.trap_cos)
    integrand *= g.e_phi
    ay_az = integrand.sum().conjugate()
    return float(ax), float(ay_az.real), float(ay_az.imag)


def susceptibility_beta0(g: CurveGrid):
    """(A_Y, A_Z) of the resonant-block Z response.

    The phase is the running rotation angle of the block,
    [theta(chi)-theta(0)] + [phi(chi)-phi(0)] - 2 S(chi).
    """
    w = _weights(len(g.chi))
    # A_Z0 + i A_Y0 = int (1 + i s) e^{i (phi - 2 S)}
    phase = np.multiply(g.e_S, g.e_S, out=g.cwork[1])
    np.conjugate(phase, out=phase)
    phase *= g.e_phi
    integrand = _integrand(g, w.trap, w.trap)
    integrand *= phase
    az_ay = integrand.sum()
    return float(az_ay.imag), float(az_ay.real)


def _crosstalk_pair(g: CurveGrid, delta_tilde: float, beta: float):
    """((ct1, ct2) at +delta_tilde, (ct1, ct2) at -delta_tilde), in one pass."""
    if beta == 0.0:
        raise ValueError("crosstalk amplitudes need beta != 0 for the time map")
    w = _weights(len(g.chi))
    angle = np.divide(g.arc, abs(beta), out=g.work[0])
    angle *= delta_tilde
    rot = g.work[2:]
    _cos_sin(angle, rot[0], rot[1], g.work[1])
    # the weighted ct1 and ct2 integrands without e^{i dt~ t}, as the two
    # columns of g.amps. The factors i - s and -i - s are written part by
    # part, as numpy forms them from a complex scalar: (0 - s) + i, (-0 - s) - i
    f1, f2 = g.cwork
    np.conjugate(g.e_S, out=f1)
    f1 *= g.e_phi
    np.subtract(0.0, g.s, out=f2.real)
    f2.imag = 1.0
    f1 *= f2
    weight = g.work[0]
    np.multiply(f1, np.multiply(w.ct1, g.omega_over_beta, out=weight), out=g.amps[:, 0])
    np.subtract(-0.0, g.s, out=f2.real)
    f2.imag = -1.0
    f2 *= g.e_S
    np.multiply(f2, np.multiply(w.ct2, g.omega_over_beta, out=weight), out=g.amps[:, 1])
    # row 0 integrates them against cos(dt~ t), row 1 against sin(dt~ t),
    # so the amplitudes at +-dt~ are row 0 +- i row 1
    parts = rot @ g.amps.view(np.float64)
    cos_part, sin_part = parts.view(complex)
    plus, minus = cos_part + 1j * sin_part, cos_part - 1j * sin_part
    return tuple(map(complex, plus)), tuple(map(complex, minus))


def crosstalk_amplitudes(g: CurveGrid, delta_tilde: float, beta: float):
    """The two complex crosstalk amplitudes (ct1, ct2).

    `beta` sets the chi -> time map inside the oscillating phase
    exp(i delta_tilde t(chi)); these integrals carry the Omega dt measure, so
    they are already per unit physical time.
    """
    return _crosstalk_pair(g, delta_tilde, beta)[0]


@dataclass(frozen=True)
class ChannelWeights:
    """Weights c_k of the robustness cost channels."""

    freq: float = 1.0
    coupling: float = 1.0
    crosstalk: float = 1.0

    def __post_init__(self):
        real_fields(self, "freq", "coupling", "crosstalk")
        if min(self.freq, self.coupling, self.crosstalk) < 0.0:
            raise ValueError(f"channel weights must be non-negative: {self}")

    def cost(self, costs: dict) -> float:
        """|C_robust|^2 = sum_k c_k |d_{dk} A1|^2 from the `channel_costs` dict."""
        return (self.freq * costs[CHANNEL_FREQ] + self.coupling * costs[CHANNEL_COUPLING]
                + self.crosstalk * costs[CHANNEL_CROSSTALK])


def _cost_table(grid: CurveGrid, config: SystemConfig, frame: FrameData):
    """Each block's (c_b, susceptibility) and each crosstalk neighbor's (ct1, ct2).

    A resonant block reads (A_Y0, A_Z0) and a detuned one (A_X, A_Y, A_Z), each
    integrated only if some block reads it. The chain's second crosstalk
    neighbor counter-rotates, which flips the sign of the effective detuning.
    """
    detuned = susceptibility_beta(grid) if any(b != 0.0 for b in frame.betas) else None
    resonant = susceptibility_beta0(grid) if 0.0 in frame.betas else None
    blocks = [(c, detuned if b != 0.0 else resonant)
              for b, c in zip(frame.betas, frame.coupling_coefs)]
    plus, minus = _crosstalk_pair(grid, frame.delta_tilde, frame.design_beta)
    return blocks, [plus] if config.n_qubits == 2 else [plus, minus]


def channel_costs(grid: CurveGrid, config: SystemConfig, frame: FrameData) -> dict:
    """Per-channel squared susceptibilities entering |C_robust|^2.

    Noise adds (dw + c_b dJ) Z to block b, c_b from frame.coupling_coefs;
    the susceptibilities are scaled to physical-time units by 1/beta_design.
    """
    blocks, neighbors = _cost_table(grid, config, frame)
    scale = 1.0 / frame.design_beta
    norms = [float(np.dot(vec, vec)) for vec in (np.array(sus) * scale for _, sus in blocks)]
    freq = sum(norms)
    coupling = sum(c * c * n for (c, _), n in zip(blocks, norms))
    crosstalk = 0.0
    for ct1, ct2 in neighbors:
        crosstalk += frame.epsilon**2 * (abs(ct1) ** 2 + abs(ct2) ** 2)
    return {CHANNEL_FREQ: freq, CHANNEL_COUPLING: coupling, CHANNEL_CROSSTALK: crosstalk}


def cost_residuals(grid: CurveGrid, config: SystemConfig, frame: FrameData,
                   weights: ChannelWeights = ChannelWeights()) -> np.ndarray:
    """The residual vector whose squared norm is |C_robust|^2 under `weights`.

    Block b contributes sqrt(w_f + w_c c_b^2) / beta_design times its
    susceptibility; each crosstalk neighbor contributes epsilon sqrt(w_x)
    times the real and imaginary parts of ct1 and ct2.
    """
    blocks, neighbors = _cost_table(grid, config, frame)
    parts = [np.sqrt(weights.freq + weights.coupling * c * c) / frame.design_beta
             * np.array(susceptibility) for c, susceptibility in blocks]
    scale = frame.epsilon * np.sqrt(weights.crosstalk)
    for ct1, ct2 in neighbors:
        parts.append(scale * np.array([ct1.real, ct1.imag, ct2.real, ct2.imag]))
    return np.concatenate(parts)


def robust_cost(params: CurveParams, config: SystemConfig, frame: FrameData,
                weights: ChannelWeights = ChannelWeights()) -> float:
    """|C_robust|^2 of one parameter set, from one `CurveGrid`."""
    return weights.cost(channel_costs(CurveGrid(params), config, frame))
