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
With crosstalk on, or in the lab frame, the midpoint rule with batched
eigendecompositions is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import Waveform
from .frames import (
    FrameData,
    SystemConfig,
    dressing,
    lab_hamiltonian_samples,
    logical_from_lab,
    logical_target,
    reduced_hamiltonian_samples,
)
from .linalg import (
    SIGMA_X,
    expm_hermitian,
    gate_fidelity,
    propagate_sampled,
    su2_ordered_exp,
    trace_fidelity,
)

MODEL_REDUCED = "reduced"
MODEL_LAB = "lab"

_GAUSS_OFFSET = 0.5 * np.sqrt(3.0) / 3.0
# chunk size cap for (distinct beta x time) step arrays: a chunk's steps,
# quaternions and temporaries take about 30 MB; larger chunks run no faster
_BATCH_ELEMENTS = 500_000


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
    per waveform sample interval.

    The result depends on beta alone, so each distinct value of `betas`
    (exact float equality, no rounding) is propagated once and scattered
    back: equal entries get bit-identical blocks. Returns shape
    np.shape(betas) + (2, 2).
    """
    if n_steps is None:
        n_steps = 4 * (len(wave.samples) - 1)
    dt = wave.T / n_steps
    t0 = np.arange(n_steps) * dt
    om1 = wave.envelope(t0 + (0.5 - _GAUSS_OFFSET) * dt)
    om2 = wave.envelope(t0 + (0.5 + _GAUSS_OFFSET) * dt)
    x_row = 0.25 * (om1 + om2) * dt
    y_row = -np.sqrt(3.0) / 24.0 * dt * dt * (om2 - om1)
    distinct, where = np.unique(np.asarray(betas, dtype=float), return_inverse=True)
    out = np.empty((distinct.size, 2, 2), dtype=complex)
    chunk = max(1, _BATCH_ELEMENTS // n_steps)
    for lo in range(0, distinct.size, chunk):
        beta = distinct[lo:lo + chunk, None]
        out[lo:lo + chunk] = su2_ordered_exp(x_row, y_row * beta, 0.5 * dt * beta)
    return out[where.reshape(np.shape(betas))]


def _dense_steps(wave: Waveform, frame: FrameData) -> int:
    """Midpoint step count resolving the crosstalk oscillation at delta_tilde."""
    per_unit = max(64.0, 10.0 * abs(frame.delta_tilde))
    return int(2 ** np.ceil(np.log2(max(16384, per_unit * wave.T))))


def simulate_gate(system: SystemConfig, frame: FrameData, waveform: Waveform,
                  noise: NoiseSetting = NoiseSetting(), model: str = MODEL_REDUCED,
                  gate_angle: float = np.pi, n_steps: int | None = None):
    """Propagate one gate and return (U_final, infidelity vs R_X target)."""
    _check_waveform(frame, waveform)
    target = logical_target(system, gate_angle)
    if model == MODEL_REDUCED:
        if noise.crosstalk_on:
            n = n_steps or _dense_steps(waveform, frame)
            dt = waveform.T / n
            mids = (np.arange(n) + 0.5) * dt
            hams = reduced_hamiltonian_samples(system, frame, waveform.envelope(mids), mids)
            hams += noise_operator(system, noise)[None, :, :]
            u_final = propagate_sampled(hams, dt)
        else:
            blocks = propagate_blocks(
                waveform, _block_betas(frame, noise.delta_omega, noise.delta_j), n_steps)
            u_final = np.zeros((system.dim, system.dim), dtype=complex)
            for b in range(len(frame.betas)):
                u_final[2 * b:2 * b + 2, 2 * b:2 * b + 2] = blocks[b]
    elif model == MODEL_LAB:
        lab_wave = Waveform(T=waveform.T, dt=waveform.dt,
                            samples=waveform.samples / frame.drive_scale,
                            beta_design=waveform.beta_design)
        n = n_steps or max(131072, _dense_steps(waveform, frame))
        dt = waveform.T / n
        mids = (np.arange(n) + 0.5) * dt
        hams = lab_hamiltonian_samples(system, lab_wave, mids)
        hams += noise_operator(system, noise)[None, :, :]
        u_lab = propagate_sampled(hams, dt)
        u_final = logical_from_lab(u_lab, system, frame, waveform.T)
    else:
        raise ValueError(f"unknown model {model!r}")
    return u_final, 1.0 - gate_fidelity(u_final, target)


@dataclass(frozen=True)
class SweepResult:
    """Infidelity over a (dw, dJ) grid plus provenance for serialization."""

    axis_domega: np.ndarray
    axis_dj: np.ndarray
    infidelity: np.ndarray  # shape (len(axis_domega), len(axis_dj))
    model: str
    metadata: dict = field(default_factory=dict)

    def rows(self):
        """Long-format rows (domega, dj, infidelity), row-major."""
        for i, dw in enumerate(self.axis_domega):
            for j, dj in enumerate(self.axis_dj):
                yield float(dw), float(dj), float(self.infidelity[i, j])


def noise_sweep(system: SystemConfig, frame: FrameData, waveform: Waveform,
                domega_values, dj_values, model: str = MODEL_REDUCED,
                crosstalk_on: bool = True, gate_angle: float = np.pi,
                n_steps: int | None = None, metadata: dict | None = None) -> SweepResult:
    """Infidelity at every grid point; evaluations independent, deterministic."""
    domega_values = np.atleast_1d(np.asarray(domega_values, dtype=float))
    dj_values = np.atleast_1d(np.asarray(dj_values, dtype=float))
    if domega_values.size > 201 or dj_values.size > 201:
        raise ValueError("sweep grids are limited to 201 points per axis")
    _check_waveform(frame, waveform)
    n_dw, n_dj = domega_values.size, dj_values.size
    infid = np.empty((n_dw, n_dj))
    if model == MODEL_REDUCED and not crosstalk_on:
        dw_grid, dj_grid = np.meshgrid(domega_values, dj_values, indexing="ij")
        blocks = propagate_blocks(waveform, _block_betas(frame, dw_grid, dj_grid), n_steps)
        rx = expm_hermitian(SIGMA_X, gate_angle / 2.0)
        # Tr(U^dag (I (x) R_X)) summed block by block
        overlap = np.einsum("kijba,ba->ij", blocks.conj(), rx, optimize=True)
        infid = 1.0 - trace_fidelity(overlap, system.dim)
    else:
        for i, dw in enumerate(domega_values):
            for j, dj in enumerate(dj_values):
                noise = NoiseSetting(delta_omega=float(dw), delta_j=float(dj),
                                     crosstalk_on=crosstalk_on)
                _, infid[i, j] = simulate_gate(system, frame, waveform, noise,
                                               model=model, gate_angle=gate_angle,
                                               n_steps=n_steps)
    meta = {"gate_angle": gate_angle, "crosstalk_on": crosstalk_on,
            "beta_design": waveform.beta_design, "T": waveform.T}
    meta.update(metadata or {})
    return SweepResult(axis_domega=domega_values, axis_dj=dj_values,
                       infidelity=infid, model=model, metadata=meta)


def slope_fit(noise_values, infidelities, floor: float = 0.0,
              subtract_floor: bool = False, min_points: int = 6) -> float:
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
    if x.size < min_points:
        raise ValueError(f"only {x.size} usable points above the floor plateau "
                         f"(need {min_points})")
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
