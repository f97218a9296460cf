"""Dense complex linear algebra for 2-, 4- and 8-dimensional Hilbert spaces.

Operators are plain numpy arrays (complex128, row-major; the dense steps
carry them in real form, below). Pauli strings, the one step exponential,
time-ordered products and gate fidelity live here; everything above this
layer builds on these primitives.

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

The package's one matrix exponential (`expm_batch`) is matmuls too: a
Taylor polynomial of the generator A = -i dt H, evaluated in the
Paterson-Stockmeyer form (Bader, Blanes & Casas, Mathematics 7 (2019) 1174).
Its degree comes from the stack's largest one-norm, by the rule of Al-Mohy &
Higham (SIAM J. Matrix Anal. Appl. 31 (2009) 970) that the first dropped
term ||A||^(m+1) / (m+1)! stays below 2^-53: degree 6 (three products) up to
theta_6 = 0.0178, degree 9 (four products) up to theta_9 = 0.115, and above
that degree 9 on A / 2^s, squared s times. The `eigh` form is the tests'
reference (tests/oracles.py).

`expm_batch` and `product_reduce` run on memory the caller owns: the
exponential on four scratch stacks (and its generator stack, which it
overwrites), the product alternating between its input and one half-size
buffer. A dense gate exponentiates and multiplies one time chunk after
another; fresh arrays for each chunk's ten or so stacks would push the heap
top past the benchmark's 2 MiB trim threshold and fault every chunk in
again.

The dense propagators step on the real representation of U(d),

    R(M) = [[Re M, -Im M], [Im M, Re M]]    (2d x 2d),

(`real_form`, `complex_form`). R maps sums to sums and products to
products, so exp and the ordered product commute with it, and U(T) is the
same matrix computed by real GEMM: with one BLAS thread on a 2-vCPU x86-64
host, numpy's complex matmul on a stack of 4x4 (8x8) matrices ran about 5x
(2x) slower than the real one on the 8x8 (16x16) stack that represents it.
The one-norm of R(A) lies between ||A||_1 and sqrt(2) ||A||_1, so a degree
chosen from the real form's norm is at least the one the complex form needs.
"""

from __future__ import annotations

import math
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
#: one-norm bounds of the Taylor steps: ||A||^(m+1) / (m+1)! reaches 2^-53 at
#: ||A|| = theta_m, 0.0178 for degree 6 and 0.115 for degree 9
_TAYLOR6_THETA = (2.0**-53 * 5040.0) ** (1.0 / 7.0)
_TAYLOR9_THETA = (2.0**-53 * 3628800.0) ** (1.0 / 10.0)


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
    """mats + value * I on a stack (..., d, d), in place.

    One diagonal entry at a time: a ufunc on the strided 2-D view of all the
    diagonals allocates two 64 KiB buffers per call.
    """
    for j in range(mats.shape[-1]):
        mats[..., j, j] += value
    return mats


def real_form(m: np.ndarray) -> np.ndarray:
    """R(M) = [[Re M, -Im M], [Im M, Re M]] of a complex stack (..., d, d), real (..., 2d, 2d)."""
    m = np.asarray(m)
    d = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = m.real
    out[..., d:, d:] = m.real
    out[..., d:, :d] = m.imag
    np.negative(m.imag, out=out[..., :d, d:])
    return out


def complex_form(r: np.ndarray) -> np.ndarray:
    """M from a real-form stack R(M) (..., 2d, 2d): its left block column."""
    d = r.shape[-1] // 2
    out = np.empty(r.shape[:-2] + (d, d), dtype=complex)
    out.real = r[..., :d, :d]
    out.imag = r[..., d:, :d]
    return out


def _reals(stack: np.ndarray, shape) -> np.ndarray:
    """A float64 array of `shape` on the memory of a C-contiguous stack, real or complex."""
    return stack.reshape(-1).view(np.float64)[:math.prod(shape)].reshape(shape)


def expm_batch(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """exp(A_k) for a stack of generators A_k, shape (..., n, n), real or complex.

    One degree serves the whole stack, chosen from its largest one-norm: the
    Taylor remainder of degree m is about ||A||^(m+1) / (m+1)!, which
    reaches 2^-53 at theta_6 = 0.0178 and theta_9 = 0.115 (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31 (2009) 970). Up to theta_6 the step is T6,
    three matrix products; above it, T9, four products, on A / 2^s with
    s = max(0, ceil(log2(||A||_1 / theta_9))), squared s times, so a coarse
    user step grid only costs more squarings. Both are evaluated in the
    Paterson-Stockmeyer form (Bader, Blanes & Casas, Mathematics 7 (2019)
    1174); T9's innermost bracket reuses A^3, so its last term costs no
    product:

        T6 = (I + A + A^2/2) + A^3 (I/6 + A/24 + A^2/120 + A^3/720),
        T9 = (I + A + A^2/2) + A^3 [(I/6 + A/24 + A^2/120)
             + A^3 (I/720 + A/5040 + A^2/40320 + A^3/362880)].

    The intermediates are written with `out=` into four scratch stacks and,
    once its own terms are formed, into the generator stack. `work`, a
    (4,) + a.shape array of a's dtype whose four stacks are C-contiguous,
    holds the scratch; `a`, a C-contiguous float or complex stack, is
    overwritten, and the result is one of work's stacks, so a caller that
    exponentiates chunk after chunk in one workspace allocates no stack.

    A stack with a NaN or infinite entry raises `np.linalg.LinAlgError`.
    """
    a2, a3, t, u = work
    # column sums by a row of ones: a GEMM, 3x faster than np.sum(axis=-2) here
    colsums = np.matmul(np.ones((1, a.shape[-2])), np.abs(a, out=_reals(t, a.shape)),
                        out=_reals(u, a.shape[:-2] + (1, a.shape[-1])))
    norm = float(np.max(colsums, initial=0.0))
    if not np.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite generator in a step exponential")
    squarings = int(np.ceil(np.log2(norm / _TAYLOR9_THETA))) if norm > _TAYLOR9_THETA else 0
    if squarings:
        a *= 0.5 ** squarings
    np.matmul(a, a, out=a2)
    np.matmul(a2, a, out=a3)
    taylor9 = norm > _TAYLOR6_THETA
    if taylor9:
        # T9's innermost bracket I/720 + A/5040 + A^2/40320 + A^3/362880, in t
        np.multiply(a, 1.0 / 5040.0, out=t)
        t += np.multiply(a2, 1.0 / 40320.0, out=u)
        t += np.multiply(a3, 1.0 / 362880.0, out=u)
        _add_identity(t, 1.0 / 720.0)
    # A + A^2/2 in u; a and a2 are then only needed scaled, so they are scaled in place
    np.add(a, np.multiply(a2, 0.5, out=u), out=u)
    a *= 1.0 / 24.0
    a += np.multiply(a2, 1.0 / 120.0, out=a2)
    # the bracket A^3 multiplies: I/6 + A/24 + A^2/120 + (A^3 inner or A^3/720)
    a += np.matmul(a3, t, out=a2) if taylor9 else np.multiply(a3, 1.0 / 720.0, out=a2)
    _add_identity(a, 1.0 / 6.0)
    u += np.matmul(a3, a, out=t)
    out = _add_identity(u, 1.0)
    for _ in range(squarings):
        out, t = np.matmul(out, out, out=t), out
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


def product_reduce(mats: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Ordered product M_{N-1} @ ... @ M_1 @ M_0 of a stack (..., N, d, d).

    Pairwise reduction: O(log N) batched matmul passes, each multiplying
    M_{2i+1} M_{2i} and carrying an odd last factor over to the next pass.
    Leading batch axes are preserved, the product runs over the
    second-to-last stack axis. The passes alternate between `buf`, a stack
    (..., >= ceil(N/2), d, d), and `mats`, which is overwritten, and the
    result is a view into one of them.
    """
    while mats.shape[-3] > 1:
        n = mats.shape[-3]
        half = n // 2
        out = buf[..., :n - half, :, :]
        np.matmul(mats[..., 1:2 * half:2, :, :], mats[..., 0:2 * half:2, :, :],
                  out=out[..., :half, :, :])
        if n % 2:
            out[..., half, :, :] = mats[..., n - 1, :, :]
        mats, buf = out, mats
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
