"""Lab-frame Hamiltonians, dressing transforms and reduced rotating-frame models.

Two-qubit model (qubit 2 driven):

    H0 = (w1 Z1 + w2 Z2)/2 + (g1 (XX + YY) + g2 ZZ)/4
    Hc = Omega(t)/2 (cos(wd t) X2 + sin(wd t) Y2)

Three-qubit chain (driven qubit in the chain middle, tensor index 3 so the
undriven Hamiltonian blocks cleanly):

    H0 = (w1 Z1 + w2 Z2 + w Z3)/2
         + g1 (X1 X3 + Y1 Y3 + X2 X3 + Y2 Y3)/4 + g2 (Z1 Z3 + Z2 Z3)/4

with equal neighbor spacing w - w1 = w2 - w = delta. Dressing with the
unitary S diagonalizes H0 (exactly for two qubits, to O(lambda^3) in
lambda = g1/delta for three), and unwinding the rotating frame
R(t) = exp(-i K t), K = sum_i rot_freq_i Z_i / 2, leaves the block model

    H_rot = (+) blocks (beta_i Z + Omega_eff(t) X)/2  +  V_cr(t),

where V_cr is the coherent control-crosstalk term oscillating at the
effective detuning delta_tilde. Basis ordering is |q1 q2 (q3)> with qubit 1
most significant and Z|0> = +|0>.

Both dense models, the lab frame and the reduced model with crosstalk, are
H(t) = h0 + Omega(t) sum_m [cos(nu_m t) a_m + sin(nu_m t) b_m], with no b_m
at nu_m = 0: one term table each (`dense_terms`), with the real forms of the
terms and of their nonzero commutators [T_a, T_b], a < b, and the list of
those pairs, from which the propagator forms its Magnus steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curves import real_fields
from .linalg import expm_batch, pauli_string, real_form

DRIVE_MIDPOINT = "midpoint"
DRIVE_RESONANT_LOWER = "resonant_lower"
DRIVE_CENTER = "center"

MODEL_REDUCED = "reduced"
MODEL_LAB = "lab"

#: the valid (n_qubits, drive_choice) pairs, by setting name: the drive centred between
#: the target's split frequencies or resonant with the lower one, or the chain's centre
SETTINGS = {
    "2q-midpoint": dict(n_qubits=2, drive_choice=DRIVE_MIDPOINT),
    "2q-resonant": dict(n_qubits=2, drive_choice=DRIVE_RESONANT_LOWER),
    "3q-chain": dict(n_qubits=3, drive_choice=DRIVE_CENTER),
}


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the coupled-qubit model (units of g2 = J)."""

    n_qubits: int
    delta: float = 20.0
    g1: float = 1.0
    g2: float = 1.0
    drive_choice: str = DRIVE_MIDPOINT

    def __post_init__(self):
        pair = dict(n_qubits=self.n_qubits, drive_choice=self.drive_choice)
        if not isinstance(self.n_qubits, numbers.Integral) or pair not in SETTINGS.values():
            raise ValueError(f"(n_qubits, drive_choice) must be one of "
                             f"{[tuple(s.values()) for s in SETTINGS.values()]}, got {tuple(pair.values())}")
        real_fields(self, "delta", "g1", "g2")
        for name in ("delta", "g2"):  # g2 is J, the unit of every block detuning
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")
        if self.n_qubits == 3:
            if self.g1 == 0:  # the dressing's second-order terms divide by g1
                raise ValueError("three-qubit dressing needs a nonzero g1, got 0")
            if abs(self.g1 / self.delta) > 0.2:
                raise ValueError(f"three-qubit dressing needs |lambda| = |g1/delta| <= 0.2, "
                                 f"got {self.g1 / self.delta}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def qubit_frequencies(self) -> tuple:
        """Lab frequencies, the driven qubit's at 0: only differences matter."""
        if self.n_qubits == 2:
            return (self.delta, 0.0)
        return (-self.delta, self.delta, 0.0)


@dataclass(frozen=True)
class FrameData:
    """Dressing transform plus the derived rotating-frame quantities."""

    S: np.ndarray = field(repr=False)
    betas: tuple
    #: coupling noise adds c_b dJ Z to block b (dw Z to every block); the one
    #: noise table, read by the first-order cost and the simulator
    coupling_coefs: tuple
    delta_tilde: float
    drive_scale: float
    #: rotating-frame frequency of each qubit; the driven qubit's, last, is omega_d
    rotating_freqs: tuple
    epsilon: float          # crosstalk strength multiplying Omega(t) in V_cr

    @property
    def omega_d(self) -> float:
        return self.rotating_freqs[-1]

    @property
    def design_beta(self) -> float:
        """The block detuning the waveform time scaling is built for."""
        return max(abs(b) for b in self.betas)


def _z_field(freqs) -> np.ndarray:
    """sum_i f_i Z_i / 2 over the qubits, qubit 1 most significant."""
    n = len(freqs)
    return sum(0.5 * f * pauli_string("I" * i + "Z" + "I" * (n - 1 - i))
               for i, f in enumerate(freqs))


def lab_static(config: SystemConfig) -> np.ndarray:
    """Undriven lab Hamiltonian H0."""
    h = _z_field(config.qubit_frequencies)
    if config.n_qubits == 2:
        h = h + 0.25 * config.g1 * (pauli_string("XX") + pauli_string("YY"))
        h = h + 0.25 * config.g2 * pauli_string("ZZ")
    else:
        h = h + 0.25 * config.g1 * (pauli_string("XIX") + pauli_string("YIY")
                                    + pauli_string("IXX") + pauli_string("IYY"))
        h = h + 0.25 * config.g2 * (pauli_string("ZIZ") + pauli_string("IZZ"))
    return h


def two_qubit_dressing(config: SystemConfig) -> FrameData:
    """Exact diagonalizing transform for the two-qubit model.

    theta = -arctan(g1/delta)/2 rotates the single-excitation subspace; the
    formula holds for either sign of delta, so S stays near the identity and
    each dressed state stays on the bare state it grew from. The dressed
    target frequency splits to w2_tilde +- g2/2 depending on the neighbor
    state, and the drive choice picks the block detunings and the
    coupling-noise channel (paper: dJ ZZ or dJ (IZ + ZZ)).
    """
    if config.n_qubits != 2:
        raise ValueError("two_qubit_dressing needs a 2-qubit config")
    # Python floats, like the chain's scalars: numpy's scalar trigonometry,
    # kept for its rounding, would otherwise leave numpy.float64 in every field
    sign = math.copysign(1.0, config.delta)
    theta = -0.5 * float(np.arctan2(sign * config.g1, abs(config.delta)))
    c, s = float(np.cos(theta)), float(np.sin(theta))
    S = np.array([
        [1, 0, 0, 0],
        [0, c, -s, 0],
        [0, s, c, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    w1, w2 = config.qubit_frequencies
    # signed like delta; hypot does not overflow at |delta| or |g1| > 1e154
    root = sign * math.hypot(config.g1, config.delta)
    shift = 0.5 * (config.delta - root)
    w2_t = w2 + shift
    w1_t = w1 - shift
    if config.drive_choice == DRIVE_MIDPOINT:
        omega_d = w2_t
        betas = (0.5 * config.g2, -0.5 * config.g2)
        coupling_coefs = (1.0, -1.0)  # dJ ZZ
        delta_tilde = -root
    else:
        omega_d = w2_t - 0.5 * config.g2
        betas = (config.g2, 0.0)
        # dJ (IZ + ZZ) = 2 dJ |0><0|_1 (x) Z_2: the resonant line does not move
        coupling_coefs = (2.0, 0.0)
        delta_tilde = -root - 0.5 * config.g2
    return FrameData(S=S, betas=betas, coupling_coefs=coupling_coefs,
                     delta_tilde=delta_tilde, drive_scale=c,
                     rotating_freqs=(w1_t, omega_d), epsilon=0.5 * float(np.tan(theta)))


# Pauli-string generators of the three-qubit dressing rotations
_P1_TERMS = (("XZY", 1.0), ("YZX", -1.0), ("ZXY", 1.0), ("ZYX", -1.0))
_P2_TERMS = (("XIY", 1.0), ("YIX", -1.0), ("IXY", -1.0), ("IYX", 1.0))
_P3_TERMS = (("XYI", 1.0), ("YXI", -1.0))


def _pauli_sum(terms) -> np.ndarray:
    return sum(sign * pauli_string(spec) for spec, sign in terms)


def three_qubit_dressing(config: SystemConfig) -> FrameData:
    """Perturbative block-diagonalizing transform for the chain, O(lambda^3).

    S = S3 S2 S1 with S1 = exp(i alpha (P1+P2)/4), S2 = exp(i kappa (P1-P2)/4),
    S3 = exp(i gamma P3/2); alpha = lambda/2 - (g2/4g1) lambda^2,
    kappa = -lambda/2 - (g2/4g1) lambda^2, gamma = arctan(lambda^2/(4+lambda^2))/2.
    Valid for |lambda| <= 0.2, which `SystemConfig` enforces.
    """
    if config.n_qubits != 3:
        raise ValueError("three_qubit_dressing needs a 3-qubit config")
    lam = config.g1 / config.delta
    alpha = 0.5 * lam - (config.g2 / (4.0 * config.g1)) * lam**2
    kappa = -0.5 * lam - (config.g2 / (4.0 * config.g1)) * lam**2
    gamma = 0.5 * np.arctan(lam**2 / (4.0 + lam**2))
    p1 = _pauli_sum(_P1_TERMS)
    p2 = _pauli_sum(_P2_TERMS)
    p3 = _pauli_sum(_P3_TERMS)
    # exp(i angle P); at |lambda| <= 0.2 the one-norms stay below 0.11, so
    # the Taylor step squares at most once
    s1, s2, s3 = expm_batch(
        1j * np.stack([alpha / 4.0 * (p1 + p2), kappa / 4.0 * (p1 - p2), gamma / 2.0 * p3]),
        np.empty((4, 3, 8, 8), dtype=complex))
    S = s3 @ s2 @ s1
    delta_tilde = config.delta * (1.0 + lam**2 / 4.0 + lam**4 / 32.0)
    return FrameData(S=S, betas=(config.g2, 0.0, 0.0, -config.g2),
                     coupling_coefs=(2.0, 0.0, 0.0, -2.0),  # dJ (Z1 Z3 + Z2 Z3)
                     delta_tilde=delta_tilde, drive_scale=1.0 - lam**2 / 4.0,
                     rotating_freqs=(-delta_tilde, delta_tilde, 0.0),
                     epsilon=lam / 4.0)


@lru_cache(maxsize=32)
def dressing(config: SystemConfig) -> FrameData:
    return two_qubit_dressing(config) if config.n_qubits == 2 else three_qubit_dressing(config)


def block_diagonal(z) -> np.ndarray:
    """Diagonal of (+)_b z_b Z: +z_b and -z_b on the two states of block b."""
    return np.outer(z, [1.0, -1.0]).ravel()


@lru_cache(maxsize=32)
def dense_terms(config: SystemConfig, model: str):
    """Term table (nu, terms, pairs, table) of a dense model; the arrays are read-only.

    H(t) = sum_a c_a(t) T_a, c(t) = (1, Omega cos(nu t), Omega sin(nu t)) the
    `term_coefficients`, with the sine part only where nu != 0, so no c_a is
    identically zero: `terms` is the (K, d, d) stack T = (h0, a_0..a_{M-1},
    b_m for nu_m != 0), Omega(t) the synthesized envelope and every amplitude
    folded into a_m, b_m.
    `table` holds the real forms (`linalg.real_form`) a fourth-order Magnus
    step is linear in, flattened to rows of (2d)^2: R(-i T_a) for each term,
    then R([T_a, T_b]) for the P pairs a < b that do not commute, `pairs` (2, P),
    in `np.triu_indices(K, 1)` order: K + P rows (2q, chain: lab 6, 3; reduced 10, 17).
    Lab: h0 = H0 and one drive term at omega_d, X_t and Y_t over 2 drive_scale.
    Reduced: h0 the block detunings, drive term 0 the target drive X_t/2 at
    nu = 0, then V_cr: (tan(theta)/2) (XZ, YZ) at delta_tilde for two
    qubits; for the chain, over drive_scale,
    (V11 + V12) lambda/4 + (g2/8g1) lambda^2 (V21 + V22) at delta_tilde and
    (g2/8g1) lambda^2 V212 at 2 delta_tilde.
    """
    if model not in (MODEL_LAB, MODEL_REDUCED):
        raise ValueError(f"unknown model {model!r}")
    frame = dressing(config)
    p = pauli_string
    xt, yt = (p("I" * (config.n_qubits - 1) + pauli) for pauli in "XY")
    if model == MODEL_LAB:
        h0 = lab_static(config)
        terms = [(frame.omega_d, xt / (2.0 * frame.drive_scale), yt / (2.0 * frame.drive_scale))]
    else:
        h0 = np.diag(block_diagonal(0.5 * np.asarray(frame.betas)))
        terms = [(0.0, 0.5 * xt, None)]
        if config.n_qubits == 2:
            terms.append((frame.delta_tilde, frame.epsilon * p("XZ"), frame.epsilon * p("YZ")))
        else:
            lam = config.g1 / config.delta
            c1 = 0.25 * lam / frame.drive_scale
            c2 = config.g2 / (8.0 * config.g1) * lam**2 / frame.drive_scale
            terms.append((frame.delta_tilde,
                          c1 * (p("XIZ") - p("IXZ")) - c2 * (p("XZZ") + p("ZXZ")),
                          c1 * (p("YIZ") + p("IYZ")) - c2 * (p("YZZ") - p("ZYZ"))))
            terms.append((2.0 * frame.delta_tilde,
                          c2 * (p("XXX") + p("YYX")), c2 * (p("YXX") - p("XYX"))))
    nu, a, b = zip(*terms)
    terms = np.array((h0,) + a + tuple(b_m for nu_m, b_m in zip(nu, b) if nu_m != 0.0),
                     dtype=complex)
    i, j = np.triu_indices(len(terms), 1)
    commutators = terms[i] @ terms[j] - terms[j] @ terms[i]
    kept = np.any(commutators != 0, axis=(1, 2))
    table = real_form(np.concatenate([-1.0j * terms, commutators[kept]]))
    tables = (np.array(nu, dtype=float), terms, np.stack([i[kept], j[kept]]),
              table.reshape(len(table), -1))
    for array in tables:
        array.flags.writeable = False
    return tables


def term_coefficients(nu: np.ndarray, omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """c(t) of a `dense_terms` table with frequencies `nu`, (N, K): (1, Omega cos(nu t),
    Omega sin(nu t) for nu != 0), `omega` the envelope Omega(t) at `times`."""
    omega = omega[:, None]
    phase = times[:, None] * nu
    return np.concatenate([np.ones_like(omega), omega * np.cos(phase),
                           omega * np.sin(phase[:, nu != 0.0])], axis=1)


def logical_target(config: SystemConfig, gate_angle: float) -> np.ndarray:
    """Ideal gate: identity on the neighbors, R_X = exp(-i gate_angle X/2) on the target."""
    c, s = math.cos(gate_angle / 2.0), math.sin(gate_angle / 2.0)
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    out = np.eye(2**(config.n_qubits - 1), dtype=complex)
    return np.kron(out, rx)


def logical_from_lab(u_lab: np.ndarray, frame: FrameData, T: float) -> np.ndarray:
    """Transform a lab propagator to the logical rotating frame.

    U_logical = R(T)^dag S U_lab S^dag R(0), with R(0) = identity and the
    diagonal R(t) = exp(-i K t), K = sum_i rot_freq_i Z_i / 2.
    """
    k = np.diag(_z_field(frame.rotating_freqs)).real
    r_T = np.exp(-1.0j * k * T)
    return (r_T.conj()[:, None] * (frame.S @ u_lab @ frame.S.conj().T))
