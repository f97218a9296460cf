"""Reference implementations that only the tests use.

Each one is a plain, independent form of something the package computes a
faster way, kept here so the fast path can be checked against it.
"""

from typing import Callable

import numpy as np

from geodesic_gates.linalg import expm_hermitian_batch, gate_fidelity, product_reduce


def su2_exp_batch(x, y, z) -> np.ndarray:
    """exp(-i (x X + y Y + z Z)) in closed form for arrays of coefficients.

    Returns shape x.shape + (2, 2), one complex matrix per element.
    """
    x = np.asarray(x, dtype=float)
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    z = np.broadcast_to(np.asarray(z, dtype=float), x.shape)
    r = np.sqrt(x * x + y * y + z * z)
    cos_r = np.cos(r)
    # sin(r)/r with the r -> 0 limit handled explicitly
    small = r < 1e-30
    sinc = np.where(small, 1.0, np.sin(np.where(small, 1.0, r)) / np.where(small, 1.0, r))
    out = np.empty(x.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_r - 1.0j * sinc * z
    out[..., 0, 1] = sinc * (-1.0j * x - y)
    out[..., 1, 0] = sinc * (-1.0j * x + y)
    out[..., 1, 1] = cos_r + 1.0j * sinc * z
    return out


def propagate_blocks_oracle(wave, betas, n_steps=None) -> np.ndarray:
    """The block propagator as complex 2x2 stacks, one beta at a time.

    The same fourth-order Magnus steps on two Gauss-Legendre nodes as
    `simulate.propagate_blocks`, exponentiated by `su2_exp_batch` and
    multiplied by `product_reduce`, with no sharing between betas.
    """
    if n_steps is None:
        n_steps = 4 * (len(wave.samples) - 1)
    dt = wave.T / n_steps
    t0 = np.arange(n_steps) * dt
    gauss = 0.5 * np.sqrt(3.0) / 3.0
    om1 = wave.envelope(t0 + (0.5 - gauss) * dt)
    om2 = wave.envelope(t0 + (0.5 + gauss) * dt)
    x = 0.25 * (om1 + om2) * dt
    y = -np.sqrt(3.0) / 24.0 * dt * dt * (om2 - om1)
    flat = np.atleast_1d(np.asarray(betas, dtype=float)).ravel()
    out = np.stack([product_reduce(su2_exp_batch(x, y * beta, np.full(n_steps, 0.5 * dt * beta)))
                    for beta in flat])
    return out.reshape(np.shape(betas) + (2, 2))


def propagate(hamiltonian_at: Callable[[float], np.ndarray], T: float, dt: float) -> np.ndarray:
    """Time-ordered propagator U(T) with the piecewise-constant midpoint rule,

        U(T) = exp(-i H(t_{N-1} + dt/2) dt) ... exp(-i H(t_0 + dt/2) dt).

    `dt` is a target step; the actual step is T/N with N = ceil(T/dt) so the
    final grid point lands exactly on T. Halving dt changes the result at
    O(dt^2).
    """
    if T <= 0 or dt <= 0:
        raise ValueError("propagate requires T > 0 and dt > 0")
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    step = T / n_steps
    mids = (np.arange(n_steps) + 0.5) * step
    hams = np.stack([np.asarray(hamiltonian_at(t), dtype=complex) for t in mids])
    return propagate_sampled(hams, step)


def propagate_sampled(hams: np.ndarray, dt: float) -> np.ndarray:
    """Propagator from midpoint-sampled Hamiltonians, shape (N, d, d)."""
    return product_reduce(expm_hermitian_batch(hams, dt))


def propagate_converged(
    hamiltonian_at: Callable[[float], np.ndarray],
    T: float,
    n_start: int = 4000,
    tol: float = 1e-10,
    max_doublings: int = 10,
) -> np.ndarray:
    """Midpoint propagator with the step count doubled until converged.

    Doubling stops once the fidelity between successive refinements changes
    by less than `tol`.
    """
    u_prev = propagate(hamiltonian_at, T, T / n_start)
    n = n_start
    for _ in range(max_doublings):
        n *= 2
        u_next = propagate(hamiltonian_at, T, T / n)
        if 1.0 - gate_fidelity(u_prev, u_next) < tol:
            return u_next
        u_prev = u_next
    return u_prev
