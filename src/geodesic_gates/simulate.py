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
`_block_betas` rounds that shift to a multiple of 2^-40, so shifts that are
equal in exact arithmetic are equal floats, and `propagate_blocks`
propagates each distinct |beta| of a whole noise grid once, as closed-form
SU(2) steps (sixth-order Magnus, one per sample interval, formed from the
samples) multiplied as unit quaternions, and scatters the blocks back to
the points; a block at -beta is the X-conjugate of the one at +beta, so
+-beta are folded into one propagation. On a 41 x 41 grid at range 0.1
that is 81 propagations for the 3362 blocks of xpi-2q-robust and 142 for
the 6724 of xpi-3q-robust (140 and 213 without the rounding).
With crosstalk on, or in the lab frame, sixth-order Magnus steps are taken
on the full d x d Hamiltonian H(t) = sum_a c_a(t) T_a of `frames.dense_terms`,
with the coefficients c(t) of `frames.term_coefficients`. Their length
follows the dynamics, not the sample count (`_dense_grid`): at most
0.07 / max|Omega| and 0.7 / nu_max, nu_max the model's fastest frequency,
which at 8192 samples spans 8 to 11 sample intervals per step for two
qubits and 4 to 9 for three (745 to 2048 steps, where one step per interval
took 8191). Each step is formed from its moments
B_j = int ((t - t_mid)/h)^j A(t) dt of A = -i H, j = 0, 1, 2, which are exact
sums of three-node Gauss rules over the linear pieces of the envelope
(`_magnus_chunks`); so a step may span kinks of the envelope without losing
its order. Both paths work in chunks of at most `_STACK_REALS` reals per
stack. Each dense step is carried in the real representation
R(A) = [[Re A, -Im A], [Im A, Re A]] (`linalg.real_form`), a real 2d x 2d
matrix; the moments are linear in the term coefficients at the nodes, so a
chunk's alpha_1, alpha_2 and alpha_3 are one GEMM against the table's K rows
R(-i T_a). R maps products to products, so the generators' commutators, the
exponentials (`linalg.expm_batch`, a Taylor polynomial whose degree follows
the stack's norm) and their ordered product (`linalg.product_reduce`) run on
real GEMM, and U is converted back once per gate. The result is the complex
computation's up to rounding.
A gate's chunks are formed, exponentiated and multiplied in one workspace,
a single block of five stacks (`_dense_workspace`, sized by the system
alone): the generators, and four scratch stacks for their commutators and
then the exponential; the spent generator stack is the product's second
buffer. `simulate_gate` allocates one per gate, and `noise_sweep` one per
thread that its points run on, reused from point to point; it is a
`threading.local` made for each sweep, so no two threads share one.
The noise is a constant diagonal operator N, which enters a step's alpha_1
alone (`_dense_generators`), so `noise_sweep`, the one loop over sweep
points, forms the alphas and C_1 = [alpha_1, alpha_2] once, and each point
adds h R(-i N) to alpha_1 and [h R(-i N), alpha_2] to C_1 before its two
commutators, six real products per step in all. It maps the points through
a `map` callable (the CLI passes a thread pool's), returns the infidelity
grid as an array indexed [dw, dJ], and every point equals `simulate_gate`
bit for bit at the default step count, the only one a sweep takes. A dense
run whose default step count would make each shared stack more than
`_DENSE_STEP_LIMIT` reals is refused with a ValueError before anything is
allocated.
"""

from __future__ import annotations

import math
import operator
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
    complex_form,
    expm_batch,
    gate_fidelity,
    product_reduce,
    su2_ordered_exp,
    trace_fidelity,
)

# reals per stack of a time chunk (512 KiB): the (4, distinct |beta|, n_steps)
# quaternion stack of a block chunk, two |beta| at 8192 samples, and each
# (steps, 2d, 2d) stack of a dense chunk, 1024 steps for two qubits and 256 for
# three. A chunk's stack and temporaries then stay under the 2 MiB trim
# threshold the benchmark pins (1 MiB mmap), so freed memory is reused rather
# than faulted in afresh; a dense workspace holds five stacks (2.5 MiB, faulted
# in once per gate or sweep thread). Block sweeps (17 x 17 2q, 11 x 11 3q, one
# sixth-order step per interval) took 30 and 42 ms at 2 million reals against
# 26 and 28 ms here; a crosstalk-on sweep point (820 and 2048 steps, 2q and 3q)
# takes 2.7 and 21 ms here, no less at 2 million reals (medians of alternating
# runs, one BLAS thread, 2-vCPU host)
_STACK_REALS = 65536
# reals in each shared stack of a dense run's default step count, n_steps
# (2d)^2: the four stacks of alphas and C_1 then hold at most 512 MiB, next to
# the (3, n_steps, K) moment coefficients; that is 262144 steps for two qubits
# and 65536 for three (|delta_tilde| up to about 6400 and 900 for the xpi
# presets at 8192 samples, where one step per interval reached the limit at
# about 900 and 250)
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


#: the binary grid of the block detunings' noise shifts, 2^-40 (9.1e-13). It lies
#: far above the last-bit spread of shifts that are equal in exact arithmetic
#: (about 1e-16); on 41 x 41 grids at range 0.1 the rounding moves no preset's
#: block-sweep infidelity by more than 4.1e-12, far below the error of the
#: linearly interpolated envelope (5e-9 to 9e-8 in I at noise 0.02, 8192
#: samples), though above the block path's step error (below 2e-15 in U)
_DETUNING_QUANTUM = 2.0**-40


def _block_betas(frame: FrameData, delta_omega, delta_j) -> np.ndarray:
    """beta_b + 2 (dw + c_b dJ) of each block (beta_b Z + Omega X)/2; shape as `_block_z_shift`.

    The shift 2 (dw + c_b dJ) is rounded to a multiple of `_DETUNING_QUANTUM`,
    so shifts that are equal in exact arithmetic but differ in their last
    bits (points of one linspace grid) give one detuning, and
    `propagate_blocks` propagates it once. Rounding is odd, round(-s) =
    -round(s), so the +-beta fold still pairs mirrored shifts. Only the shift
    is rounded: zero noise gives frame.betas exactly, and |shift| <= 3 (the
    NoiseSetting bound, |c_b| <= 2) keeps the scaled shift far from overflow
    for any beta_b. A beta_b on the grid (every preset's, 0, +-1/2 or +-1)
    takes the rounded shift without a further rounding.
    """
    betas = np.reshape(frame.betas, (-1,) + (1,) * np.ndim(delta_omega))
    shift = np.round((2.0 / _DETUNING_QUANTUM) * _block_z_shift(frame, delta_omega, delta_j))
    return betas + _DETUNING_QUANTUM * shift


def propagate_blocks(wave: Waveform, betas, n_steps: int | None = None) -> np.ndarray:
    """Propagators of the blocks (beta Z + Omega(t) X)/2, one per entry of `betas`.

    Sixth-order Magnus steps, by default one per waveform sample interval;
    an `n_steps` that is a multiple k of the interval count takes k equal
    sub-steps per interval. The envelope is linear on each step, so with
    H = m.sigma/2, m = (Omega_m, 0, beta) at the step's midpoint and
    m' = (Omega', 0, 0), the sixth-order Magnus vector of a step of length h
    has two cross-product terms beyond the fourth-order one (Blanes, Casas &
    Ros, BIT 40 (2000) 434; Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)
    151, the Omega^[6] form with alpha_3 = 0):

        g = h m - (h^3/12) m x m' - (h^5/240) m' x (m x m')
            + (h^5/720) m x (m x (m x m')),

    and the step is exp(-i g.sigma/2), a closed-form SU(2) exponential with

        x = h Omega_m / 2,
        y = -beta Omega' h^3/24 - beta Omega' (beta^2 + Omega_m^2) h^5/1440,
        z = beta h/2 - beta Omega'^2 h^5/480,

    taken from the samples alone. `su2_ordered_exp` multiplies the steps as
    unit quaternions. Over the presets at 8192 samples, from zero noise to
    NoiseSetting's corners, U moves by at most 1.8e-15 against four
    sub-steps per interval and 4.8e-15 against the fourth-order Gauss-node
    rule at 32 steps per interval; at 1024 and 256 samples the step error
    is 5.2e-10 and 2.1e-6.

    The result depends on |beta| alone up to a fold: X (beta Z + Omega X) X
    = -beta Z + Omega X, so U(-beta) = X U(beta) X, the entries of U(|beta|)
    reversed. y and z are odd in beta, as floats too (beta times a row that
    reads beta only through beta^2), and every float operation of the
    quaternion product is symmetric under flipping them, so the fold is
    exact. Each distinct |beta| is propagated once and scattered back: equal
    entries get bit-identical blocks. Distinct means distinct floats; this
    function rounds nothing, and a sweep's detunings come from
    `_block_betas`, which puts their noise shifts on a binary grid so that
    equal values are equal floats. Returns shape np.shape(betas) + (2, 2).
    """
    samples = wave.samples
    intervals = len(samples) - 1
    if n_steps is None:
        n_steps = intervals
    n_steps = operator.index(n_steps)
    if n_steps <= 0 or n_steps % intervals:
        raise ValueError(f"n_steps must be a positive multiple of the {intervals} sample "
                         f"intervals, got {n_steps}")
    per_interval = n_steps // intervals
    h = wave.dt / per_interval
    # the linear envelope at the step ends: the samples themselves at one step
    # per interval, where the fractions are 0
    fractions = np.arange(per_interval) / per_interval
    ends = samples[:-1, None] + fractions * np.diff(samples)[:, None]
    samples = np.append(ends.ravel(), samples[-1])
    mid = 0.5 * (samples[:-1] + samples[1:])
    slope = np.diff(samples) / h
    x_row = 0.5 * h * mid
    # y = beta (y_row + beta^2 y3_row) and z = beta z_row
    y3_row = (-h**5 / 1440.0) * slope
    y_row = (-h**3 / 24.0) * slope + y3_row * mid * mid
    z_row = 0.5 * h - (h**5 / 480.0) * slope * slope
    betas = np.asarray(betas, dtype=float)
    distinct, where = np.unique(np.abs(betas), return_inverse=True)
    out = np.empty((distinct.size, 2, 2), dtype=complex)
    chunk = max(1, _STACK_REALS // (4 * n_steps))
    for lo in range(0, distinct.size, chunk):
        beta = distinct[lo:lo + chunk, None]
        y = y3_row * (beta * beta)
        y += y_row
        y *= beta
        out[lo:lo + chunk] = su2_ordered_exp(x_row, y, z_row * beta)
    blocks = out[where.reshape(betas.shape)]
    negative = betas < 0
    blocks[negative] = blocks[negative][..., ::-1, ::-1]
    return blocks


#: the dense step rule: a default step is at most _DENSE_DRIVE_ANGLE / max|Omega|
#: and _DENSE_PHASE_ANGLE / nu_max long, nu_max the model's fastest frequency
#: (`_dense_grid`); at 8192 samples that is 8 to 11 sample intervals per step
#: on the 2q presets and 4 to 9 on the 3q presets, where U moves by at most
#: 1.7e-10 against the fourth-order Gauss-node rule at 8 steps per interval
_DENSE_DRIVE_ANGLE = 0.07
_DENSE_PHASE_ANGLE = 0.7
#: the three Gauss-Legendre nodes of [-1/2, 1/2], -sqrt(15)/10, 0 and sqrt(15)/10,
#: and their weights
_GAUSS3_NODES = np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def _dense_grid(system: SystemConfig, frame: FrameData, waveform: Waveform, model: str,
                n_steps: int | None):
    """(starts, h), the start time and the length of each step of a dense gate.

    An explicit `n_steps` gives that many equal steps. By default the steps
    follow the dynamics: each is at most h = min(_DENSE_DRIVE_ANGLE /
    max|Omega|, _DENSE_PHASE_ANGLE / nu_max) long, nu_max the larger of the
    term table's largest |nu| and the spread of its h0 diagonal (about 20 J
    for two qubits and 40 J for three, in either model, at Delta = 20 J). A
    step spans as many whole sample intervals as fit in h, the last step
    what is left; where h is shorter than one interval, every interval is
    split into the fewest equal steps that fit. A default count above
    `_DENSE_STEP_LIMIT` reals per stack raises ValueError before anything is
    allocated.
    """
    if n_steps is not None:
        n_steps = operator.index(n_steps)
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        h = waveform.T / n_steps
        return np.arange(n_steps) * h, np.full(n_steps, h)
    nu, terms, _ = dense_terms(system, model)
    levels = np.diag(terms[0]).real
    # Python floats: an infinite spread (Delta near 1e308) is no numpy warning
    nu_max = max(float(np.max(np.abs(nu))), float(np.max(levels)) - float(np.min(levels)))
    per_interval = waveform.dt * max(waveform.peak_amplitude / _DENSE_DRIVE_ANGLE,
                                     nu_max / _DENSE_PHASE_ANGLE)
    intervals = len(waveform.samples) - 1
    if per_interval > 1.0:
        # capped at the limit before int(), so an infinite rate stays a count
        split, span = int(np.ceil(min(per_interval, _DENSE_STEP_LIMIT))), 1
    else:
        split, span = 1, intervals if per_interval * intervals <= 1.0 else int(1.0 / per_interval)
    n_steps = split * -(-intervals // span)
    size = (2 * system.dim) ** 2
    if n_steps * size > _DENSE_STEP_LIMIT:
        raise ValueError(
            f"the dense {model} model needs {n_steps} steps, above the limit of "
            f"{_DENSE_STEP_LIMIT // size} for {system.n_qubits} qubits "
            f"(delta_tilde = {frame.delta_tilde:.6g}, {len(waveform.samples)} samples)")
    if split == 1:
        first = np.arange(0, intervals, span)
        return waveform.times[first], np.diff(first, append=intervals) * waveform.dt
    h = waveform.dt / split
    starts = waveform.times[:-1, None] + np.arange(split) * h
    return starts.ravel(), np.full(n_steps, h)


#: a sample within this fraction of a step of its start or end lies on it: sample
#: times that fall on a step's edge miss it by a few ulps of T, 6e-11 of a step
#: at 262144 steps, and leaving out a kink this close to an edge moves a moment
#: by about the square of the fraction
_KINK_TOLERANCE = 1e-9


def _magnus_chunks(nu: np.ndarray, table: np.ndarray, waveform: Waveform,
                   starts: np.ndarray, h: np.ndarray):
    """Noise-free sixth-order Magnus terms of the steps (starts, h), in time chunks.

    `nu` and `table` are a `frames.dense_terms` table's frequencies and real
    term rows R(-i T_a). Returns an iterator of chunks (h, alphas, c1) over
    at most `_STACK_REALS` / (2d)^2 consecutive steps, in time order: h the
    step lengths, `alphas` the three (steps, 2d, 2d) stacks of the real forms
    (`linalg.real_form`) of alpha_1, alpha_2 and alpha_3, and `c1` that of
    C_1 = [alpha_1, alpha_2]. With A = -i H and a step's moments
    B_j = int ((t - t_mid)/h)^j A(t) dt over it,

        alpha_1 = (9/4) B_0 - 15 B_2,  alpha_2 = 12 B_1,  alpha_3 = 180 B_2 - 15 B_0

    (Blanes, Casas & Ros, BIT 40 (2000) 434; Iserles & Norsett, Phil. Trans.
    R. Soc. A 357 (1999) 983). The envelope is linear between samples, so
    the moments are sums of three-node Gauss rules over the pieces that the
    samples inside a step cut it into, across which no kink lies. The pieces
    are placed in units of their step, so a step's nodes and weights keep
    their relative precision wherever it lies in the gate. The moments are
    linear in the term coefficients c(t) (`frames.term_coefficients`) at the
    nodes, so a chunk's alphas are one GEMM against the table. The node sums
    are formed once and the alphas lazily, so a single gate never holds more
    than one chunk of them.
    """
    # the pieces: each step's start and the samples inside it, as fractions of it
    knots = np.concatenate([starts, waveform.times[1:-1]])
    step = np.searchsorted(starts, knots, side="right") - 1
    fraction = (knots - starts[step]) / h[step]
    kept = (fraction > _KINK_TOLERANCE) & (fraction < 1.0 - _KINK_TOLERANCE)
    kept[:h.size] = True
    order = np.lexsort((fraction[kept], step[kept]))
    fraction, step = fraction[kept][order], step[kept][order]
    first = np.flatnonzero(np.diff(step, prepend=-1))
    length = np.diff(fraction, append=1.0)
    length[first[1:] - 1] = 1.0 - fraction[first[1:] - 1]
    # three Gauss nodes per piece, at x = (t - t_mid)/h in the step's units;
    # a step of one piece has its nodes at x = _GAUSS3_NODES exactly
    nodes = fraction[:, None] + length[:, None] * (0.5 + _GAUSS3_NODES)
    nodes = (starts[step, None] + h[step, None] * nodes).ravel()
    x = (fraction + 0.5 * length - 0.5)[:, None] + length[:, None] * _GAUSS3_NODES
    x2 = x * x
    weight = (h[step] * length)[:, None] * _GAUSS3_WEIGHTS
    c = term_coefficients(nu, waveform.envelope(nodes), nodes)
    # each alpha's node weights, (9/4 - 15 x^2, 12 x, 180 x^2 - 15) w, summed over its step
    coefs = np.stack([np.add.reduceat(row.reshape(-1, 1) * c, 3 * first)
                      for row in ((2.25 - 15.0 * x2) * weight, (12.0 * x) * weight,
                                  (180.0 * x2 - 15.0) * weight)])
    size = math.isqrt(table.shape[1])
    chunk = _STACK_REALS // size**2

    def chunks():
        for lo in range(0, h.size, chunk):
            # one stack per alpha: each stays under the 1 MiB mmap threshold
            alphas = [(coef[lo:lo + chunk] @ table).reshape(-1, size, size) for coef in coefs]
            c1 = alphas[0] @ alphas[1]
            c1 -= alphas[1] @ alphas[0]
            yield h[lo:lo + chunk], alphas, c1

    return chunks()


def _dense_workspace(system: SystemConfig) -> np.ndarray:
    """One block for every chunk of a dense gate of `system`: the generator
    stack and four scratch stacks, `_STACK_REALS` reals each."""
    size = 2 * system.dim
    return np.empty((5, _STACK_REALS // size**2, size, size))


def _dense_generators(chunk, n: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus generators of a `_magnus_chunks` chunk under the noise diag(n).

    The constant noise N = diag(n) enters alpha_1 alone, as -i h N: its
    moments B_1 and B_2 are 0 and -i h N/12, which alpha_2 and alpha_3
    cancel. So C_1 gains [h R(-i N), alpha_2], and each step's generator is

        Omega = alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240,
        C_2 = -[alpha_1, 2 alpha_3 + C_1]/60,

    on the noisy alpha_1 and C_1: three commutators, six real products per
    step. The noise's commutator has the entries -i h (n_i - n_j)
    (alpha_2)_ij, but an entrywise product would broadcast h and n over the
    stack, and a ufunc that broadcasts allocates its buffers on every chunk.
    Returns work[0] with the chunk's generators; work[1:], a
    `_dense_workspace`'s scratch stacks, is overwritten.
    """
    h, (a1, a2, a3), c1 = chunk
    d = len(n)
    gens, s1, s2, s3, s4 = work[:, :len(h)]
    # h R(-i N) in s3: h n_i at (i, d + i) and -h n_i at (d + i, i), one
    # entry at a time, so no ufunc broadcasts
    s3.fill(0.0)
    for i, n_i in enumerate(n):
        np.multiply(h, n_i, out=s3[:, i, d + i])
        np.multiply(h, -n_i, out=s3[:, d + i, i])
    np.add(a1, s3, out=s1)
    # C_1 + [h R(-i N), alpha_2] in s2
    np.matmul(s3, a2, out=s2)
    s2 -= np.matmul(a2, s3, out=s4)
    s2 += c1
    # alpha_2 + C_2 in s4
    np.multiply(a3, 2.0, out=s3)
    s3 += s2
    np.matmul(s1, s3, out=s4)
    s4 -= np.matmul(s3, s1, out=gens)
    s4 *= -1.0 / 60.0
    s4 += a2
    # -20 alpha_1 - alpha_3 + C_1 in s2, the outer commutator over 240 in s3
    s2 -= a3
    s2 -= np.multiply(s1, 20.0, out=s3)
    np.matmul(s2, s4, out=s3)
    s3 -= np.matmul(s4, s2, out=gens)
    s3 *= 1.0 / 240.0
    np.multiply(a3, 1.0 / 12.0, out=gens)
    gens += s1
    gens += s3
    return gens


def _dense_gate(system: SystemConfig, frame: FrameData, waveform: Waveform, model: str,
                chunks, noise: NoiseSetting, gate_angle: float, work: np.ndarray):
    """(U_final, infidelity) of the dense model from the `_magnus_chunks` chunks.

    Every chunk's generators (`_dense_generators`) are formed, exponentiated
    and multiplied in `work`, a `_dense_workspace(system)` that the call
    overwrites.
    """
    n = _noise_diagonal(frame, noise)
    u_final = None
    for chunk in chunks:
        gens = _dense_generators(chunk, n, work)
        # the exponential overwrites the generators, so their stack is free
        # for the product's passes; the product is a view into the workspace
        u_chunk = product_reduce(expm_batch(gens, work[1:, :len(gens)]), gens)
        u_final = u_chunk.copy() if u_final is None else u_chunk @ u_final
    u_final = complex_form(u_final)
    if model == MODEL_LAB:
        u_final = logical_from_lab(u_final, frame, waveform.T)
    return u_final, 1.0 - gate_fidelity(u_final, logical_target(system, gate_angle))


def _dense_chunks(system: SystemConfig, frame: FrameData, waveform: Waveform, model: str,
                  n_steps: int | None):
    """`_magnus_chunks` of a dense model on its `_dense_grid` steps."""
    nu, _, table = dense_terms(system, model)
    return _magnus_chunks(nu, table, waveform,
                          *_dense_grid(system, frame, waveform, model, n_steps))


def simulate_gate(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  noise: NoiseSetting = NoiseSetting(), model: str = MODEL_REDUCED,
                  gate_angle: float = np.pi, n_steps: int | None = None):
    """Propagate one gate and return (U_final, infidelity vs R_X target).

    The reduced model without crosstalk takes the block fast path
    (`propagate_blocks`, one sixth-order step per sample interval by
    default, +-beta folded into one propagation); the reduced model with
    crosstalk and the lab model take dense sixth-order Magnus steps, by
    default as long as the drive amplitude and the model's fastest
    frequency allow (`_dense_grid`). `n_steps` overrides the step count and
    must be positive: n_steps equal steps on the dense path, and on the
    block path a multiple of the sample interval count.
    """
    if _block_path(frame, waveform, model, noise.crosstalk_on):
        blocks, infid = _block_sweep(system, frame, waveform, noise.delta_omega,
                                     noise.delta_j, gate_angle, n_steps)
        u = np.zeros((system.dim, system.dim), dtype=complex)
        for k, block in enumerate(blocks[:, 0, 0]):
            u[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        return u, float(infid[0, 0])
    chunks = _dense_chunks(system, frame, waveform, model, n_steps)
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
    # the noise-free alphas and C_1, formed once and shared by every point
    chunks = list(_dense_chunks(system, frame, waveform, model, None))
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
