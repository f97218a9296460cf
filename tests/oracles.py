"""Reference implementations that only the tests use.

Each one is a plain, independent form of something the package computes a
faster way, kept here so the fast path can be checked against it.
"""

import numpy as np

from geodesic_gates.linalg import product_reduce


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
