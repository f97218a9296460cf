"""Dense complex linear algebra for 2-, 4- and 8-dimensional Hilbert spaces.

Operators are plain numpy arrays (complex128, row-major). Pauli strings,
the one step exponential, time-ordered products and gate fidelity live
here; everything above this layer builds on these primitives.

Time-ordered propagators are built from fourth-order Magnus steps on the two
Gauss-Legendre nodes t_1, t_2 of each step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009)),

    U(T) = exp(-i H_eff,N-1 dt) ... exp(-i H_eff,0 dt),
    H_eff = (H(t_1) + H(t_2))/2 - i (sqrt(3)/12) dt [H(t_2), H(t_1)],

which is Hermitian, so every step is unitary. Batched variants (arrays of
small matrices) are provided because single-step Python loops dominate the
runtime otherwise; the batched product is reduced pairwise so the work is
done by vectorized matmul. Products of SU(2) steps are reduced the same way
on unit quaternions (`su2_ordered_exp`), four real arrays per stack.

The package's one matrix exponential (`expm_hermitian_batch`) is matmuls
too: a degree-8 Taylor polynomial of A = -i dt H, exact to 2^-53 for
one-norms up to theta = 0.07 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
31 (2009) 970), evaluated in the Paterson-Stockmeyer form (Bader, Blanes &
Casas, Mathematics 7 (2019) 1174). A stack whose largest one-norm exceeds
theta is scaled by 2^-s and the result squared s times. The `eigh` form is
the tests' reference (tests/oracles.py).
"""

from __future__ import annotations

import operator

import numpy as np

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

_GAUSS_OFFSET = 0.5 * np.sqrt(3.0) / 3.0
#: commutator weight of the fourth-order Magnus step, sqrt(3)/12
MAGNUS4_WEIGHT = np.sqrt(3.0) / 12.0
#: one-norm bound of the degree-8 Taylor step: ||A||^9 / 9! reaches 2^-53 at ||A|| = 0.07
_TAYLOR8_THETA = 0.07


def pauli_string(spec: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, qubit 1 leftmost.

    ``pauli_string("XZY")`` returns X_1 (x) Z_2 (x) Y_3 on the 8-dim space.
    """
    if not 1 <= len(spec) <= 3:
        raise ValueError(f"pauli spec must have 1..3 letters, got {spec!r}")
    out = None
    for letter in spec:
        try:
            op = PAULI[letter]
        except KeyError:
            raise ValueError(f"unknown pauli letter {letter!r} in {spec!r}") from None
        out = op if out is None else np.kron(out, op)
    return out


def _add_identity(mats: np.ndarray, value: float) -> np.ndarray:
    """mats + value * I on a C-contiguous stack (..., d, d), in place."""
    d = mats.shape[-1]
    mats.reshape(mats.shape[:-2] + (d * d,))[..., ::d + 1] += value
    return mats


def expm_hermitian_batch(hams: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_k dt) for a stack of Hermitian matrices, shape (..., d, d).

    Scaling and squaring of the degree-8 Taylor polynomial of A = -i dt H.
    One bound serves the whole stack: the largest one-norm of A. The
    remainder of T8 is about ||A||^9 / 9!, which reaches 2^-53 at
    ||A|| = theta = 0.07 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31
    (2009) 970). So the stack is scaled by 2^-s with
    s = max(0, ceil(log2(||A||_1 / theta))), and T8(A / 2^s) is squared s
    times; a coarse user step grid only costs more squarings. T8 is
    evaluated in the Paterson-Stockmeyer form, four matrix products (Bader,
    Blanes & Casas, Mathematics 7 (2019) 1174):

        T8 = (I + A + A^2/2) + A^3 [(I/6 + A/24 + A^2/120)
             + A^3 (I/720 + A/5040 + A^2/40320)].

    A stack with a NaN or infinite entry raises `np.linalg.LinAlgError`.
    """
    hams = np.asarray(hams)
    norm = abs(dt) * float(np.max(np.sum(np.abs(hams), axis=-2), initial=0.0))
    if not np.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite Hamiltonian in a step exponential")
    squarings = int(np.ceil(np.log2(norm / _TAYLOR8_THETA))) if norm > _TAYLOR8_THETA else 0
    a = (-1.0j * dt * 0.5 ** squarings) * hams
    a2 = a @ a
    a3 = a2 @ a
    inner = _add_identity(a * (1.0 / 5040.0) + a2 * (1.0 / 40320.0), 1.0 / 720.0)
    mid = _add_identity(a * (1.0 / 24.0) + a2 * (1.0 / 120.0) + a3 @ inner, 1.0 / 6.0)
    out = _add_identity(a + 0.5 * a2 + a3 @ mid, 1.0)
    for _ in range(squarings):
        out = out @ out
    return out


def gauss_nodes(T: float, n_steps: int):
    """Step length dt = T / n_steps and the two Gauss-Legendre nodes of each step.

    Returns (dt, t1, t2) with t1, t2 = t_k + (1/2 -+ sqrt(3)/6) dt for the
    step starts t_k = k dt, k = 0 .. n_steps - 1.
    """
    n_steps = operator.index(n_steps)
    if n_steps <= 0:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    dt = T / n_steps
    t0 = np.arange(n_steps) * dt
    return dt, t0 + (0.5 - _GAUSS_OFFSET) * dt, t0 + (0.5 + _GAUSS_OFFSET) * dt


def magnus4_hamiltonians(h1: np.ndarray, h2: np.ndarray, dt: float) -> np.ndarray:
    """H_eff = (H1 + H2)/2 - i (sqrt(3)/12) dt [H2, H1] of fourth-order Magnus steps.

    `h1`, `h2` are stacks (..., d, d) of the Hamiltonian at the two Gauss
    nodes of each step (`gauss_nodes`); the step is exp(-i H_eff dt).
    """
    return 0.5 * (h1 + h2) - (1.0j * MAGNUS4_WEIGHT * dt) * (h2 @ h1 - h1 @ h2)


def _su2_quaternions(x, y, z) -> np.ndarray:
    """Unit quaternions (w, a, b, c) of exp(-i (x X + y Y + z Z)), shape (4, ...)."""
    x, y, z = np.broadcast_arrays(*np.atleast_1d(x, y, z))
    r = np.sqrt(x * x + y * y + z * z)
    q = np.empty((4,) + r.shape)
    np.cos(r, out=q[0])
    sinc = np.sin(r)
    np.divide(sinc, r, out=sinc, where=r > 0.0)
    sinc[r == 0.0] = 1.0
    for k, v in enumerate((x, y, z), start=1):
        np.multiply(sinc, v, out=q[k])
    return q


def su2_ordered_exp(x, y, z) -> np.ndarray:
    """Ordered product of closed-form steps exp(-i (x_k X + y_k Y + z_k Z)).

    The coefficient arrays broadcast together and the product runs over
    their last axis, later steps to the left: U_{N-1} ... U_1 U_0. Each step
    is the unit quaternion (w, a, b, c) with U = w I - i (a X + b Y + c Z),
    w = cos r and (a, b, c) = (sin r / r) (x, y, z) for r = |(x, y, z)|. Two
    steps multiply as

        (w1, n1) (w2, n2) = (w1 w2 - n1.n2, w1 n2 + w2 n1 + n1 x n2),

    so the pairwise reduction works on four real arrays instead of a stack
    of complex 2x2 matrices, and the matrix is formed once, at the end.
    Returns shape (...) + (2, 2).
    """
    q = _su2_quaternions(x, y, z)
    while q.shape[-1] > 1:
        n = q.shape[-1]
        w1, a1, b1, c1 = q[..., 1::2]
        w2, a2, b2, c2 = q[..., 0:n - 1:2]
        # filled in place: np.stack plus np.concatenate ran about 15% slower
        nxt = np.empty(q.shape[:-1] + ((n + 1) // 2,))
        half = n // 2
        nxt[0, ..., :half] = w1 * w2 - a1 * a2 - b1 * b2 - c1 * c2
        nxt[1, ..., :half] = w1 * a2 + w2 * a1 + b1 * c2 - c1 * b2
        nxt[2, ..., :half] = w1 * b2 + w2 * b1 + c1 * a2 - a1 * c2
        nxt[3, ..., :half] = w1 * c2 + w2 * c1 + a1 * b2 - b1 * a2
        if n % 2:
            nxt[..., half] = q[..., n - 1]
        q = nxt
    # the rounding of each step's norm accumulates along the product (up to
    # 2.3e-13 over 16382 steps, the block default at 8192 samples, for betas
    # in [-1.2, 1.2]); projecting back onto the unit sphere removes it
    w, a, b, c = q[..., 0] / np.sqrt(np.sum(q[..., 0] ** 2, axis=0))
    out = np.empty(w.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = w - 1.0j * c
    out[..., 0, 1] = -b - 1.0j * a
    out[..., 1, 0] = b - 1.0j * a
    out[..., 1, 1] = w + 1.0j * c
    return out


def product_reduce(mats: np.ndarray) -> np.ndarray:
    """Ordered product M_{N-1} @ ... @ M_1 @ M_0 of a stack (..., N, d, d).

    Pairwise reduction: O(log N) batched matmul passes. Leading batch axes
    are preserved, the product runs over the second-to-last stack axis.
    """
    mats = np.asarray(mats)
    while mats.shape[-3] > 1:
        n = mats.shape[-3]
        if n % 2:
            tail = mats[..., -1:, :, :]
            body = mats[..., :-1, :, :]
        else:
            tail = None
            body = mats
        body = np.matmul(body[..., 1::2, :, :], body[..., 0::2, :, :])
        mats = body if tail is None else np.concatenate([body, tail], axis=-3)
    return mats[..., 0, :, :]


def trace_fidelity(overlap, d: int):
    """Gate fidelity |Tr(U^dag V)|^2 / d^2 from the trace overlap, elementwise.

    Clipped at 1: a product of tens of thousands of steps drifts off the
    unitary group by up to ~1e-13, which can push the ratio just above 1
    and would report a negative infidelity.
    """
    return np.minimum(np.abs(overlap) ** 2 / d**2, 1.0)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |Tr(U^dag V)|^2 / d^2."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(trace_fidelity(np.trace(u.conj().T @ v), u.shape[0]))
