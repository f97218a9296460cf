"""Time-domain validation: gate simulation, noise sweeps, slope fits.

Quasi-static noise enters as constant operators for one gate duration, as in
the paper: frequency noise dw Z_target, and coupling noise dJ ZZ (2q
midpoint), dJ (IZ + ZZ) (2q resonant_lower) or dJ (Z1 Z3 + Z2 Z3) (chain).
Block b gets the Z coefficient dw + c_b dJ (`_block_z_shift`), c_b from
frame.coupling_coefs, the table the first-order cost reads too; the noise
operator is `frames.block_diagonal` of those coefficients.
Both the reduced rotating-frame model and the full lab-frame model can be
propagated; the lab result is unwound to the logical frame before the
fidelity is taken. The lab model always contains the control crosstalk.

The reduced model without control crosstalk is block diagonal: block b is
(beta_b Z + Omega(t) X)/2, and noise only shifts beta_b by 2 (dw + c_b dJ).
`propagate_blocks` therefore propagates each distinct |beta| of a whole
noise grid once, as closed-form SU(2) steps (fourth-order Magnus on Gauss
nodes, two per sample interval) multiplied as unit quaternions, and scatters
the blocks back to the points; a block at -beta is the X-conjugate of the
one at +beta, so +-beta are folded into one propagation.
With crosstalk on, or in the lab frame, the same fourth-order Magnus steps
are taken on the full d x d Hamiltonian H(t) = sum_a c_a(t) T_a of
`frames.dense_terms`, with the coefficients c(t) of `frames.term_coefficients`.
Both paths work in chunks of at most `_STACK_REALS` reals per stack. Each
dense step is carried in the real representation
R(A) = [[Re A, -Im A], [Im A, Re A]] of its generator A = -i dt H_eff
(`linalg.real_form`), a real 2d x 2d matrix. A is linear in the term
coefficients at the step's Gauss nodes and in their pairwise products, so
a chunk's generators are one GEMM against the table's K + P rows, R(-i T_a)
and R([T_a, T_b]) for the P pairs a < b that do not commute (2q, chain: lab
6, 3; reduced 10, 17; `_magnus_steps`). R maps products to products, so the
exponentials (`linalg.expm_batch`, a Taylor polynomial whose degree follows
the stack's norm) and their ordered product (`linalg.product_reduce`) run on
real GEMM, and U is converted back once per gate. The result is the complex
computation's up to rounding.
A gate's chunks are exponentiated and multiplied in one workspace, a single
block holding the generator stack and the exponential's four scratch stacks
(`_dense_workspace`, sized by the system alone); the spent generator stack
is the product's second buffer. `simulate_gate` allocates one per gate, and
`noise_sweep` one per thread that its points run on, reused from point to
point; it is a `threading.local` made for each sweep, so no two threads
share one.
The noise is a constant diagonal operator N, so `noise_sweep`, the one loop
over sweep points, builds the noise-free steps once, adds N to each point's
steps as one more GEMM per chunk, against rows built from N (`_dense_gate`),
and maps the points through a `map` callable (the CLI passes a thread
pool's). It returns the infidelity grid as an array indexed [dw, dJ], and
every point equals `simulate_gate` bit for bit at the default step count,
the only one a sweep takes. A dense run whose default step count
would make its shared steps more than `_DENSE_STEP_LIMIT` reals is refused
with a ValueError before anything is allocated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .curves import Waveform
from .frames import (
    MODEL_LAB,
    MODEL_REDUCED,
    FrameData,
    SystemConfig,
    block_diagonal,
    dense_terms,
    dressing,
    logical_from_lab,
    logical_target,
    term_coefficients,
)
from .linalg import (
    MAGNUS4_WEIGHT,
    complex_form,
    expm_batch,
    gate_fidelity,
    gauss_nodes,
    product_reduce,
    real_form,
    su2_ordered_exp,
    trace_fidelity,
)

# reals per stack of a time chunk (512 KiB): the (4, distinct |beta|, n_steps)
# quaternion stack of a block chunk, one |beta| at 8192 samples, and each
# (steps, 2d, 2d) stack of a dense chunk, 1024 steps for two qubits and 256 for
# three. A chunk's stack and temporaries then stay under the 2 MiB trim
# threshold the benchmark pins (1 MiB mmap), so freed memory is reused rather
# than faulted in afresh; a dense workspace holds five stacks (2.5 MiB, faulted
# in once per gate or sweep thread). Block sweeps (17 x 17 2q, 11 x 11 3q) took
# 94 and 88-111 ms at 2 million reals against 55-56 and 50-52 ms here, and a
# crosstalk-on sweep point with fresh temporaries 25 ms (2q) and 81-91 ms (3q)
# at 1 MiB stacks against 12 and 32-36 ms (one BLAS thread, 2-vCPU host)
_STACK_REALS = 65536
# reals in the shared noise-free steps of a dense run's default step count,
# n_steps (2d)^2: the step stacks then hold at most 128 MiB, next to the
# (n_steps, K) term coefficients (8 MiB each at the two-qubit limit); that is
# 262144 steps for two qubits and 65536 for three (|delta_tilde| up to about
# 900 and 250 for the xpi presets at 8192 samples)
_DENSE_STEP_LIMIT = 2**24
NOISE_LIMIT = 0.5  # largest |dw| and |dJ| of a NoiseSetting (units of J)
SWEEP_POINTS_LIMIT = 201  # most points per axis of a noise sweep


@dataclass(frozen=True)
class NoiseSetting:
    """Quasi-static noise offsets, constant over one gate."""

    delta_omega: float = 0.0
    delta_j: float = 0.0
    crosstalk_on: bool = True

    def __post_init__(self):
        # a positive test, so NaN fails it
        if not (abs(self.delta_omega) <= NOISE_LIMIT and abs(self.delta_j) <= NOISE_LIMIT):
            raise ValueError(f"quasi-static noise magnitudes must be finite and <= {NOISE_LIMIT} "
                             "(units of J)")


def _block_z_shift(frame: FrameData, delta_omega, delta_j) -> np.ndarray:
    """dw + c_b dJ, c_b from frame.coupling_coefs; shape (n_blocks,) + np.shape(dw)."""
    coefs = np.reshape(frame.coupling_coefs, (-1,) + (1,) * np.ndim(delta_omega))
    return delta_omega + delta_j * coefs


def _noise_diagonal(frame: FrameData, noise: NoiseSetting) -> np.ndarray:
    """Diagonal of the noise operator: +z_b and -z_b on the two states of block b."""
    return block_diagonal(_block_z_shift(frame, noise.delta_omega, noise.delta_j))


def noise_operator(config: SystemConfig, noise: NoiseSetting) -> np.ndarray:
    """dw Z_target + dJ times ZZ (2q midpoint), IZ + ZZ (2q resonant_lower) or
    Z1 Z3 + Z2 Z3 (chain): diagonal, with dw + c_b dJ on block b (`_block_z_shift`).
    """
    return np.diag(_noise_diagonal(dressing(config), noise)).astype(complex)


def _block_path(frame: FrameData, waveform: Waveform, model: str, crosstalk_on: bool) -> bool:
    """Check a simulation's inputs; True for the block-diagonal reduced model without crosstalk."""
    if model == MODEL_LAB and not crosstalk_on:
        raise ValueError("the lab model always contains the control crosstalk; "
                         "crosstalk off needs the reduced model")
    if waveform.beta_design != 0.0 and abs(abs(waveform.beta_design) - frame.design_beta) > 1e-12:
        raise ValueError(
            f"waveform designed for |beta| = {abs(waveform.beta_design)} "
            f"but the system's design detuning is {frame.design_beta}")
    return model == MODEL_REDUCED and not crosstalk_on


def _block_betas(frame: FrameData, delta_omega, delta_j) -> np.ndarray:
    """beta_b + 2 (dw + c_b dJ) of each block (beta_b Z + Omega X)/2; shape as `_block_z_shift`."""
    betas = np.reshape(frame.betas, (-1,) + (1,) * np.ndim(delta_omega))
    return betas + 2.0 * _block_z_shift(frame, delta_omega, delta_j)


def propagate_blocks(wave: Waveform, betas, n_steps: int | None = None) -> np.ndarray:
    """Propagators of the blocks (beta Z + Omega(t) X)/2, one per entry of `betas`.

    Fourth-order Magnus steps on two Gauss-Legendre nodes (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470 (2009)). For this Hamiltonian the commutator
    term is exactly (sqrt(3)/24) dt^2 beta (Omega_1 - Omega_2) Y per step, so
    every step stays a closed-form SU(2) exponential, and `su2_ordered_exp`
    multiplies the steps as unit quaternions. The default step count is
    `_BLOCK_PER_INTERVAL` (two) per waveform sample interval.

    The result depends on |beta| alone up to a fold: X (beta Z + Omega X) X
    = -beta Z + Omega X, so U(-beta) = X U(beta) X, the entries of U(|beta|)
    reversed. Negating beta flips the Y and Z coefficients of every step,
    and every float operation of the quaternion product is symmetric under
    that flip, so the fold is exact. Each distinct |beta| (exact float
    equality, no rounding) is propagated once and scattered back: equal
    entries get bit-identical blocks. Returns shape np.shape(betas) + (2, 2).
    """
    if n_steps is None:
        n_steps = _BLOCK_PER_INTERVAL * (len(wave.samples) - 1)
    dt, t1, t2 = gauss_nodes(wave.T, n_steps)
    om1 = wave.envelope(t1)
    om2 = wave.envelope(t2)
    x_row = 0.25 * (om1 + om2) * dt
    y_row = -0.5 * MAGNUS4_WEIGHT * dt * dt * (om2 - om1)
    betas = np.asarray(betas, dtype=float)
    distinct, where = np.unique(np.abs(betas), return_inverse=True)
    out = np.empty((distinct.size, 2, 2), dtype=complex)
    chunk = max(1, _STACK_REALS // (4 * n_steps))
    for lo in range(0, distinct.size, chunk):
        beta = distinct[lo:lo + chunk, None]
        out[lo:lo + chunk] = su2_ordered_exp(x_row, y_row * beta, 0.5 * dt * beta)
    blocks = out[where.reshape(betas.shape)]
    negative = betas < 0
    blocks[negative] = blocks[negative][..., ::-1, ::-1]
    return blocks


#: steps per waveform sample interval of the block path. The envelope is linear
#: within each interval, so steps aligned with the samples never straddle a kink
#: and keep their full order. Against doubled steps U moves by at most 6.9e-12
#: over the presets at noise (0.02, 0.01), and by 3.0e-11 at NoiseSetting's
#: corners; one step per interval would move it by 1.1e-10 (xpi-3q-robust at
#: (0.02, 0.01))
_BLOCK_PER_INTERVAL = 2


def _dense_per_interval(wave: Waveform, frame: FrameData) -> int:
    """Steps per sample interval resolving the crosstalk oscillation at delta_tilde.

    The fewest that give T max(64, 10 |delta_tilde|) steps in all, capped at
    `_DENSE_STEP_LIMIT`, which `_magnus_steps` refuses, so an inf need stays a count.
    """
    need = wave.T * max(64.0, 10.0 * abs(frame.delta_tilde))
    return max(1, int(np.ceil(min(need / (len(wave.samples) - 1), _DENSE_STEP_LIMIT))))


def _magnus_steps(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  model: str, n_steps: int | None):
    """Noise-free fourth-order Magnus steps of a dense model, in time chunks.

    Returns an iterator of chunks; each chunk is a pair (steps, y) over at
    most `_STACK_REALS` / (2d)^2 consecutive steps, in time order. With
    c1, c2 the term coefficients c(t) of `frames.dense_terms` at a step's two
    Gauss nodes, the generator -i dt H_eff = -i dt (H1 + H2)/2 - w dt^2 [H2, H1],
    w = sqrt(3)/12, is linear in the terms and their commutators, with
    [H2, H1] = sum_{a<b} (c2_a c1_b - c2_b c1_a) [T_a, T_b], so `steps`, the
    stack of its real forms (`linalg.real_form`), is one GEMM of the rows
    [dt (c1 + c2)/2, -w dt^2 (c2_a c1_b - c2_b c1_a)] against the term table
    (pairs a < b in its `pairs` order; a commuting pair adds nothing). `y` holds
    (dt, -w dt^2 (c2 - c1)_a for a >= 1) per step, shape (steps, K): the
    coefficients of R(-i N) and R([T_a, N]) that a constant noise N adds
    (`_dense_gate`). The coefficients are formed once per gate and the steps
    lazily, so a single gate never holds more than one chunk of them. A
    default step count above `_DENSE_STEP_LIMIT` reals raises ValueError
    before the nodes are made; an explicit `n_steps` is taken as given.
    """
    size = (2 * system.dim) ** 2
    if n_steps is None:
        n_steps = _dense_per_interval(waveform, frame) * (len(waveform.samples) - 1)
        if n_steps * size > _DENSE_STEP_LIMIT:
            raise ValueError(
                f"the dense {model} model needs {n_steps} steps, above the limit of "
                f"{_DENSE_STEP_LIMIT // size} for {system.n_qubits} qubits "
                f"(delta_tilde = {frame.delta_tilde:.6g}, {len(waveform.samples)} samples)")
    dt, t1, t2 = gauss_nodes(waveform.T, n_steps)
    nu, _, (i, j), table = dense_terms(system, model)
    c1, c2 = (term_coefficients(nu, waveform.envelope(t), t) for t in (t1, t2))
    y = (-MAGNUS4_WEIGHT * dt * dt) * (c2 - c1)
    y[:, 0] = dt
    chunk = _STACK_REALS // size

    def chunks():
        for lo in range(0, n_steps, chunk):
            a, b = c1[lo:lo + chunk], c2[lo:lo + chunk]
            pairs = b[:, i] * a[:, j] - b[:, j] * a[:, i]
            rows = np.concatenate([(0.5 * dt) * (a + b), (-MAGNUS4_WEIGHT * dt * dt) * pairs], axis=1)
            yield (rows @ table).reshape(len(a), 2 * system.dim, 2 * system.dim), y[lo:lo + chunk]

    return chunks()


def _dense_workspace(system: SystemConfig) -> np.ndarray:
    """One block for every chunk of a dense gate of `system`: the generator
    stack and `expm_batch`'s four scratch stacks, `_STACK_REALS` reals each."""
    size = 2 * system.dim
    return np.empty((5, _STACK_REALS // size**2, size, size))


def _dense_gate(system: SystemConfig, frame: FrameData, waveform: Waveform, model: str,
                chunks, noise: NoiseSetting, gate_angle: float, work: np.ndarray):
    """(U_final, infidelity) of the dense model from the `_magnus_steps` chunks.

    The constant diagonal noise N = diag(n) enters each step without a new
    commutator: [H2 + N, H1 + N] = [H2, H1] + sum_a (c2_a - c1_a) [T_a, N], with
    [T_a, N]_ij = (T_a)_ij (n_j - n_i), so the generator gains
    dt R(-i N) - w dt^2 sum_a (c2_a - c1_a) R([T_a, N]): the chunk's `y` times
    the rows R(-i N), R([T_1, N]) .. R([T_{K-1}, N]), one GEMM added to the steps.

    Every chunk is exponentiated and multiplied in `work`, a
    `_dense_workspace(system)` that the call overwrites.
    """
    n = _noise_diagonal(frame, noise)
    terms = dense_terms(system, model)[1]
    rows = real_form(np.concatenate([-1.0j * np.diag(n)[None], terms[1:] * (n - n[:, None])]))
    rows = rows.reshape(len(rows), -1)
    u_final = None
    for steps, y in chunks:
        gens = work[0, :len(steps)]
        np.matmul(y, rows, out=gens.reshape(len(steps), -1))
        gens += steps
        # the exponential overwrites the generators, so their stack is free
        # for the product's passes; the product is a view into the workspace
        u_chunk = product_reduce(expm_batch(gens, work[1:, :len(steps)]), gens)
        u_final = u_chunk.copy() if u_final is None else u_chunk @ u_final
    u_final = complex_form(u_final)
    if model == MODEL_LAB:
        u_final = logical_from_lab(u_final, frame, waveform.T)
    return u_final, 1.0 - gate_fidelity(u_final, logical_target(system, gate_angle))


def simulate_gate(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  noise: NoiseSetting = NoiseSetting(), model: str = MODEL_REDUCED,
                  gate_angle: float = np.pi, n_steps: int | None = None):
    """Propagate one gate and return (U_final, infidelity vs R_X target).

    The reduced model without crosstalk takes the block fast path
    (`propagate_blocks`, two steps per sample interval by default, +-beta
    folded into one propagation); the reduced model with crosstalk and the
    lab model take dense fourth-order Magnus steps, by default one per sample
    interval or the smallest multiple of that which resolves delta_tilde
    (`_dense_per_interval`). `n_steps` overrides the step count and must be
    positive.
    """
    if _block_path(frame, waveform, model, noise.crosstalk_on):
        blocks, infid = _block_sweep(system, frame, waveform, noise.delta_omega,
                                     noise.delta_j, gate_angle, n_steps)
        u = np.zeros((system.dim, system.dim), dtype=complex)
        for k, block in enumerate(blocks[:, 0, 0]):
            u[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        return u, float(infid[0, 0])
    chunks = _magnus_steps(system, frame, waveform, model, n_steps)
    return _dense_gate(system, frame, waveform, model, chunks, noise, gate_angle,
                       _dense_workspace(system))


def _block_sweep(system: SystemConfig, frame: FrameData, waveform: Waveform,
                 domega_values, dj_values, gate_angle: float, n_steps: int | None):
    """(blocks (n_blocks, n_dw, n_dj, 2, 2), infidelity) of the block model on a grid."""
    dw_grid, dj_grid = np.meshgrid(domega_values, dj_values, indexing="ij")
    blocks = propagate_blocks(waveform, _block_betas(frame, dw_grid, dj_grid), n_steps)
    # Tr(U^dag (I (x) R_X)) in a fixed order; a reduction's order varies with the grid shape
    terms = blocks.conj() * logical_target(system, gate_angle)[:2, :2]
    overlap = sum(terms[k, ..., b, a] for k in range(len(frame.betas))
                  for b in (0, 1) for a in (0, 1))
    return blocks, 1.0 - trace_fidelity(overlap, system.dim)


def noise_sweep(system: SystemConfig, frame: FrameData, waveform: Waveform,
                domega_values, dj_values, model: str = MODEL_REDUCED,
                crosstalk_on: bool = True, gate_angle: float = np.pi,
                map=map) -> np.ndarray:
    """Infidelity at each grid point, shape (len(domega_values), len(dj_values)).

    Each point is bit for bit `simulate_gate`'s; dense points go through `map`.
    """
    domega_values = np.atleast_1d(np.asarray(domega_values, dtype=float))
    dj_values = np.atleast_1d(np.asarray(dj_values, dtype=float))
    if not all(0 < axis.size <= SWEEP_POINTS_LIMIT for axis in (domega_values, dj_values)):
        raise ValueError(f"sweep grids need 1 to {SWEEP_POINTS_LIMIT} points per axis")
    # NoiseSetting's bound, at the grid corner: the block path builds no NoiseSetting
    NoiseSetting(np.max(np.abs(domega_values), initial=0), np.max(np.abs(dj_values), initial=0))
    if _block_path(frame, waveform, model, crosstalk_on):
        return _block_sweep(system, frame, waveform, domega_values, dj_values,
                            gate_angle, None)[1]
    chunks = list(_magnus_steps(system, frame, waveform, model, None))
    # one workspace per thread that `map` runs points on, reused point after
    # point: a new one per point faulted its 640 pages in each time
    workspaces = threading.local()

    def gate(noise):
        if not hasattr(workspaces, "work"):
            workspaces.work = _dense_workspace(system)
        return _dense_gate(system, frame, waveform, model, chunks, noise, gate_angle,
                           workspaces.work)

    noises = [NoiseSetting(float(dw), float(dj), crosstalk_on)
              for dw in domega_values for dj in dj_values]
    return np.reshape([i for _, i in map(gate, noises)], (domega_values.size, dj_values.size))


#: fewest points above the floor plateau a log-log slope is fitted to
SLOPE_MIN_POINTS = 6


def slope_fit(noise_values, infidelities, floor: float = 0.0,
              subtract_floor: bool = False) -> float:
    """Least-squares log-log slope, excluding points within 10x of the floor.

    `floor` is the zero-noise infidelity; points with I <= 10 * floor sit on
    the plateau and carry no exponent information. With `subtract_floor` the
    plateau value is removed before fitting (useful when the floor is not
    tiny compared with the smallest retained points).
    """
    x = np.asarray(noise_values, dtype=float)
    y = np.asarray(infidelities, dtype=float)
    if np.any(x <= 0):
        raise ValueError("noise values must be positive for a log-log fit")
    mask = y > 10.0 * floor
    if subtract_floor:
        y = y - floor
        mask &= y > 0
    x, y = x[mask], y[mask]
    if x.size < SLOPE_MIN_POINTS:
        raise ValueError(f"only {x.size} usable points above the floor plateau "
                         f"(need {SLOPE_MIN_POINTS})")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


def cosine_baseline(gate_angle: float, T: float, n_samples: int) -> Waveform:
    """Plain cosine pulse Omega(t) = (Phi/T)(1 - cos(2 pi t / T)).

    Its exact integral is Phi; the uniform sampling preserves that under the
    trapezoid rule because the cosine sums to zero over the full period.
    """
    if gate_angle <= 0 or T <= 0:
        raise ValueError("gate angle and duration must be positive")
    t = np.linspace(0.0, T, n_samples)
    samples = (gate_angle / T) * (1.0 - np.cos(2.0 * np.pi * t / T))
    return Waveform(T=T, samples=samples, beta_design=0.0)


def matched_cosine_baseline(gate_angle: float, reference: Waveform) -> Waveform:
    """Cosine pulse whose peak amplitude matches a reference pulse.

    It takes the reference's sample count, made odd so that a sample sits
    exactly on the peak at T/2.
    """
    T = 2.0 * gate_angle / reference.peak_amplitude
    return cosine_baseline(gate_angle, T, len(reference.samples) | 1)
