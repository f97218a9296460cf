"""Time-domain validation: gate simulation, noise sweeps, slope fits.

Quasi-static noise enters as constant operators for one gate duration:
frequency noise dw * Z_target and coupling noise dJ * sum_n Z_target Z_n.
Both the reduced rotating-frame model and the full lab-frame model can be
propagated; the lab result is unwound to the logical frame before the
fidelity is taken.

The reduced model without control crosstalk is block diagonal: block b is
(beta_b Z + Omega(t) X)/2, and noise only shifts beta_b by 2 (dw + c_b dJ).
`propagate_blocks` therefore propagates each distinct beta of a whole noise
grid once, as closed-form SU(2) steps (fourth-order Magnus on Gauss nodes)
multiplied as unit quaternions, and scatters the blocks back to the points.
With crosstalk on, or in the lab frame, the same fourth-order Magnus steps
are taken on the full d x d Hamiltonian from `frames.hamiltonian_samples`:
one batched eigendecomposition per step, `_DENSE_CHUNK` steps at a time.
The noise is a constant diagonal operator N, so `noise_sweep`, the one loop
over sweep points, builds the noise-free steps once, adds N to each point's
steps (`_dense_gate`) and maps the points through a `map` callable (the CLI
passes a thread pool's). Every point equals `simulate_gate` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import block_diag

from .curves import Waveform
from .frames import (
    MODEL_LAB,
    MODEL_REDUCED,
    FrameData,
    SystemConfig,
    dressing,
    hamiltonian_samples,
    logical_from_lab,
    logical_target,
)
from .linalg import (
    MAGNUS4_WEIGHT,
    SIGMA_X,
    expm_hermitian,
    expm_hermitian_batch,
    gate_fidelity,
    gauss_nodes,
    magnus4_hamiltonians,
    product_reduce,
    su2_ordered_exp,
    trace_fidelity,
)

# chunk size cap for (distinct beta x time) step arrays: a chunk's steps,
# quaternions and temporaries take about 30 MB; larger chunks run no faster
_BATCH_ELEMENTS = 500_000
# steps per time chunk of the dense path, so memory does not grow with
# n_steps; 512 to 2048 run equally fast, 8192 about 15% slower (8x8 steps)
_DENSE_CHUNK = 2048


@dataclass(frozen=True)
class NoiseSetting:
    """Quasi-static noise offsets, constant over one gate."""

    delta_omega: float = 0.0
    delta_j: float = 0.0
    crosstalk_on: bool = True

    def __post_init__(self):
        if abs(self.delta_omega) > 0.5 or abs(self.delta_j) > 0.5:
            raise ValueError("quasi-static noise magnitudes must be <= 0.5 (units of J)")


def noise_operator(config: SystemConfig, noise: NoiseSetting) -> np.ndarray:
    """dw Z_target + dJ sum_neighbors Z_target Z_neighbor (diagonal).

    Both terms are diagonal in the block basis; their per-block Z
    coefficients are dw + dJ * frame.coupling_coefs (see `_block_betas`).
    With the 2q resonant_lower drive the first-order cost models coupling
    noise differently, see `magnus._block_noise_coefficients`.
    """
    z = noise.delta_omega + noise.delta_j * np.asarray(dressing(config).coupling_coefs)
    return np.diag(np.outer(z, [1.0, -1.0]).ravel()).astype(complex)


def _check_waveform(frame: FrameData, waveform: Waveform) -> None:
    if waveform.beta_design != 0.0 and abs(abs(waveform.beta_design) - frame.design_beta) > 1e-12:
        raise ValueError(
            f"waveform designed for |beta| = {abs(waveform.beta_design)} "
            f"but the system's design detuning is {frame.design_beta}")


def _block_betas(frame: FrameData, delta_omega, delta_j) -> np.ndarray:
    """Z coefficient beta_b of each block (beta_b Z + Omega X)/2 under noise.

    The noise operator adds (dw + c_b dJ) Z to block b, with c_b from
    frame.coupling_coefs. Returns shape (n_blocks,) + np.shape(delta_omega).
    """
    coefs = np.reshape(frame.coupling_coefs, (-1,) + (1,) * np.ndim(delta_omega))
    betas = np.reshape(frame.betas, coefs.shape)
    return betas + 2.0 * (delta_omega + delta_j * coefs)


def propagate_blocks(wave: Waveform, betas, n_steps: int | None = None) -> np.ndarray:
    """Propagators of the blocks (beta Z + Omega(t) X)/2, one per entry of `betas`.

    Fourth-order Magnus steps on two Gauss-Legendre nodes (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470 (2009)). For this Hamiltonian the commutator
    term is exactly (sqrt(3)/24) dt^2 beta (Omega_1 - Omega_2) Y per step, so
    every step stays a closed-form SU(2) exponential, and `su2_ordered_exp`
    multiplies the steps as unit quaternions. The default step count is four
    per waveform sample interval (`_step_grid`).

    The result depends on beta alone, so each distinct value of `betas`
    (exact float equality, no rounding) is propagated once and scattered
    back: equal entries get bit-identical blocks. Returns shape
    np.shape(betas) + (2, 2).
    """
    dt, t1, t2 = _step_grid(wave, n_steps, 4)
    n_steps = t1.size
    om1 = wave.envelope(t1)
    om2 = wave.envelope(t2)
    x_row = 0.25 * (om1 + om2) * dt
    y_row = -np.sqrt(3.0) / 24.0 * dt * dt * (om2 - om1)
    distinct, where = np.unique(np.asarray(betas, dtype=float), return_inverse=True)
    out = np.empty((distinct.size, 2, 2), dtype=complex)
    chunk = max(1, _BATCH_ELEMENTS // n_steps)
    for lo in range(0, distinct.size, chunk):
        beta = distinct[lo:lo + chunk, None]
        out[lo:lo + chunk] = su2_ordered_exp(x_row, y_row * beta, 0.5 * dt * beta)
    return out[where.reshape(np.shape(betas))]


def _step_grid(wave: Waveform, n_steps: int | None, per_interval: int):
    """(dt, t1, t2): equal steps over [0, T] and their Gauss-Legendre nodes.

    `n_steps` defaults to `per_interval` steps per waveform sample interval.
    The envelope is linear within each interval, so steps aligned with the
    samples never straddle a kink and keep their full order.
    """
    if n_steps is None:
        n_steps = per_interval * (len(wave.samples) - 1)
    return gauss_nodes(wave.T, n_steps)


def _dense_per_interval(wave: Waveform, frame: FrameData) -> int:
    """Steps per sample interval resolving the crosstalk oscillation at delta_tilde.

    The fewest that give T max(64, 10 |delta_tilde|) steps in all.
    """
    need = wave.T * max(64.0, 10.0 * abs(frame.delta_tilde))
    return max(1, int(np.ceil(need / (len(wave.samples) - 1))))


def _magnus_steps(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  model: str, n_steps: int | None):
    """Noise-free fourth-order Magnus steps of a dense model, in time chunks.

    Returns (dt, chunks); each chunk is a pair (H_eff, H2 - H1) of stacks
    over at most `_DENSE_CHUNK` consecutive steps, in time order, with H1, H2
    the Hamiltonian at the step's two Gauss nodes. The chunks are generated
    lazily, so a single gate never holds more than one of them.
    """
    dt, t1, t2 = _step_grid(waveform, n_steps, _dense_per_interval(waveform, frame))

    def chunks():
        for lo in range(0, t1.size, _DENSE_CHUNK):
            h1 = hamiltonian_samples(system, model, waveform, t1[lo:lo + _DENSE_CHUNK])
            h2 = hamiltonian_samples(system, model, waveform, t2[lo:lo + _DENSE_CHUNK])
            yield magnus4_hamiltonians(h1, h2, dt), h2 - h1

    return dt, chunks()


def _dense_gate(system: SystemConfig, frame: FrameData, waveform: Waveform, model: str,
                dt: float, chunks, noise: NoiseSetting, gate_angle: float):
    """(U_final, infidelity) of the dense model from the `_magnus_steps` chunks.

    The constant diagonal noise N = diag(n) enters each step's H_eff without
    a new commutator: [H2 + N, H1 + N] = [H2, H1] + [H2 - H1, N] with
    [D, N]_ij = D_ij (n_j - n_i), so H_eff gains N - i (sqrt(3)/12) dt
    (H2 - H1)_ij (n_j - n_i).
    """
    n = np.diag(noise_operator(system, noise)).real
    skew = (-1.0j * MAGNUS4_WEIGHT * dt) * (n[None, :] - n[:, None])
    u_final = None
    for h_eff, diff in chunks:
        hams = h_eff + (skew * diff + np.diag(n))
        u_chunk = product_reduce(expm_hermitian_batch(hams, dt))
        u_final = u_chunk if u_final is None else u_chunk @ u_final
    if model == MODEL_LAB:
        u_final = logical_from_lab(u_final, system, frame, waveform.T)
    return u_final, 1.0 - gate_fidelity(u_final, logical_target(system, gate_angle))


def simulate_gate(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  noise: NoiseSetting = NoiseSetting(), model: str = MODEL_REDUCED,
                  gate_angle: float = np.pi, n_steps: int | None = None):
    """Propagate one gate and return (U_final, infidelity vs R_X target).

    The reduced model without crosstalk takes the block fast path
    (`propagate_blocks`, four steps per sample interval by default); the
    reduced model with crosstalk and the lab model take dense fourth-order
    Magnus steps, by default one per sample interval or the smallest multiple
    of that which resolves delta_tilde (`_dense_per_interval`). `n_steps`
    overrides the step count and must be positive.
    """
    _check_waveform(frame, waveform)
    if model == MODEL_REDUCED and not noise.crosstalk_on:
        blocks, infid = _block_sweep(system, frame, waveform, noise.delta_omega,
                                     noise.delta_j, gate_angle, n_steps)
        return block_diag(*blocks[:, 0, 0]), float(infid[0, 0])
    dt, chunks = _magnus_steps(system, frame, waveform, model, n_steps)
    return _dense_gate(system, frame, waveform, model, dt, chunks, noise, gate_angle)


def _block_sweep(system: SystemConfig, frame: FrameData, waveform: Waveform,
                 domega_values, dj_values, gate_angle: float, n_steps: int | None):
    """(blocks (n_blocks, n_dw, n_dj, 2, 2), infidelity) of the block model on a grid."""
    dw_grid, dj_grid = np.meshgrid(domega_values, dj_values, indexing="ij")
    blocks = propagate_blocks(waveform, _block_betas(frame, dw_grid, dj_grid), n_steps)
    # Tr(U^dag (I (x) R_X)) in a fixed order; a reduction's order varies with the grid shape
    terms = blocks.conj() * expm_hermitian(SIGMA_X, gate_angle / 2.0)
    overlap = sum(terms[k, ..., b, a] for k in range(len(frame.betas))
                  for b in (0, 1) for a in (0, 1))
    return blocks, 1.0 - trace_fidelity(overlap, system.dim)


@dataclass(frozen=True)
class SweepResult:
    """Infidelity over a (dw, dJ) grid."""

    axis_domega: np.ndarray
    axis_dj: np.ndarray
    infidelity: np.ndarray  # shape (len(axis_domega), len(axis_dj))
    model: str

    def rows(self):
        """Long-format rows (domega, dj, infidelity), row-major."""
        for i, dw in enumerate(self.axis_domega):
            for j, dj in enumerate(self.axis_dj):
                yield float(dw), float(dj), float(self.infidelity[i, j])


def noise_sweep(system: SystemConfig, frame: FrameData, waveform: Waveform,
                domega_values, dj_values, model: str = MODEL_REDUCED,
                crosstalk_on: bool = True, gate_angle: float = np.pi,
                n_steps: int | None = None, map=map) -> SweepResult:
    """Infidelity at each grid point, bit for bit `simulate_gate`'s; dense points use `map`."""
    domega_values = np.atleast_1d(np.asarray(domega_values, dtype=float))
    dj_values = np.atleast_1d(np.asarray(dj_values, dtype=float))
    if not (0 < domega_values.size <= 201 and 0 < dj_values.size <= 201):
        raise ValueError("sweep grids need 1 to 201 points per axis")
    # NoiseSetting's bound, at the grid corner: the block path builds no NoiseSetting
    NoiseSetting(np.max(np.abs(domega_values), initial=0), np.max(np.abs(dj_values), initial=0))
    _check_waveform(frame, waveform)
    if model == MODEL_REDUCED and not crosstalk_on:
        _, infid = _block_sweep(system, frame, waveform, domega_values, dj_values,
                                gate_angle, n_steps)
    else:
        dt, chunks = _magnus_steps(system, frame, waveform, model, n_steps)
        gate = partial(_dense_gate, system, frame, waveform, model, dt, list(chunks),
                       gate_angle=gate_angle)
        noises = [NoiseSetting(float(dw), float(dj), crosstalk_on)
                  for dw in domega_values for dj in dj_values]
        infid = np.reshape([i for _, i in map(gate, noises)], (domega_values.size, dj_values.size))
    return SweepResult(domega_values, dj_values, infid, model)


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


def cosine_baseline(gate_angle: float, T: float, n_samples: int = 4096) -> Waveform:
    """Plain cosine pulse Omega(t) = (Phi/T)(1 - cos(2 pi t / T)).

    Its exact integral is Phi; the uniform sampling preserves that under the
    trapezoid rule because the cosine sums to zero over the full period.
    """
    if gate_angle <= 0 or T <= 0:
        raise ValueError("gate angle and duration must be positive")
    t = np.linspace(0.0, T, n_samples)
    samples = (gate_angle / T) * (1.0 - np.cos(2.0 * np.pi * t / T))
    return Waveform(T=T, dt=t[1] - t[0], samples=samples, beta_design=0.0)


def matched_cosine_baseline(gate_angle: float, reference: Waveform,
                            n_samples: int = 4097) -> Waveform:
    """Cosine pulse whose peak amplitude matches a reference pulse.

    An odd sample count puts a sample exactly on the peak at T/2.
    """
    T = 2.0 * gate_angle / reference.peak_amplitude
    return cosine_baseline(gate_angle, T, n_samples)
