"""Reference implementations that only the tests use.

Each one is a plain, independent form of something the package computes a
faster way, kept here so the fast path can be checked against it.
"""

from typing import Callable

import numpy as np

from geodesic_gates.curves import (
    CHI_GRID_POINTS,
    CHI_MAX,
    CurveGrid,
    CurveParams,
    _basis,
    _coefficients,
    waveform_from_grid,
)
from geodesic_gates.frames import MODEL_REDUCED, dense_terms
from geodesic_gates.linalg import (
    _TAYLOR6_THETA,
    _TAYLOR9_THETA,
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    gate_fidelity,
)
from geodesic_gates.simulate import _BLOCK_PER_INTERVAL


def trapz(g: CurveGrid, integrand: np.ndarray):
    """The composite trapezoid of `integrand` on the grid's chi spacing."""
    return np.trapezoid(integrand, dx=g.h, axis=-1)


def trapz_endpoint_corrected(y: np.ndarray, h: float):
    """Composite trapezoid with the h^2/12 Euler-Maclaurin endpoint term removed.

    The boundary derivatives come from one-sided 3-point stencils of the
    sampled integrand, which is accurate enough to push the rule to O(h^4).
    The package folds the same rule into a fixed weight vector.
    """
    base = np.trapezoid(y, dx=h, axis=-1)
    d_start = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * h)
    d_end = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * h)
    return base - h * h / 12.0 * (d_end - d_start)


def susceptibility_integrands(g: CurveGrid) -> dict:
    """The theta-trig integrands of A_X, A_Y, A_Z, A_Y0 and A_Z0 on the grid.

    These are the integrals as written in the geometric frame, with cos and
    sin of theta and of the resonant running angle psi; `magnus` evaluates
    the same integrals through e^{i theta} = (i - s)/t'. Each is integrated
    with the plain trapezoid, `trapz`.
    """
    cos_t, sin_t = np.cos(g.theta), np.sin(g.theta)
    cos_p, sin_p = np.cos(g.phi), np.sin(g.phi)
    psi = (g.theta - g.theta[0]) + (g.phi - g.phi[0]) - 2.0 * g.S
    return {
        "ax": -cos_t * g.sin_chi * g.tprime,
        "ay": (sin_t * cos_p + cos_t * g.cos_chi * sin_p) * g.tprime,
        "az": (g.cos_chi * cos_t * cos_p - sin_t * sin_p) * g.tprime,
        "ay0": np.sin(psi) * g.tprime,
        "az0": np.cos(psi) * g.tprime,
    }


def crosstalk_integrands(g: CurveGrid, delta_tilde: float, beta: float) -> dict:
    """The theta-trig integrands of ct1 and ct2, for `trapz_endpoint_corrected`.

    ct1 = int Omega dt cos(chi/2) exp(-i (S - theta - phi)) exp(i dt~ t) and
    ct2 = int Omega dt sin(chi/2) exp(i (S - theta)) exp(i dt~ t), with
    Omega dt = (theta' + cos(chi) phi') dchi and t = arc/|beta|.
    """
    pref = g.dtheta + g.cos_chi * g.dphi
    rot = np.exp(1.0j * delta_tilde * (g.arc / abs(beta)))
    return {
        "ct1": pref * np.cos(g.chi / 2.0) * np.exp(-1.0j * (g.S - g.theta - g.phi)) * rot,
        "ct2": pref * np.sin(g.chi / 2.0) * np.exp(1.0j * (g.S - g.theta)) * rot,
    }


def _check_domain(chi) -> None:
    chi = np.asarray(chi)
    if np.any(chi < -1e-12) or np.any(chi > CHI_MAX + 1e-12):
        raise ValueError(f"chi outside [0, {CHI_MAX}]")


def phi(params: CurveParams, chi):
    """Azimuthal angle phi(chi) of the curve."""
    _check_domain(chi)
    return np.einsum("i,i...->...", _coefficients(params), _basis(chi)[0])


def phi_prime(params: CurveParams, chi):
    """Analytic d phi / d chi (no numeric differentiation)."""
    _check_domain(chi)
    return np.einsum("i,i...->...", _coefficients(params), _basis(chi)[1])


def theta_of_chi(params: CurveParams, chi):
    """Euler angle theta(chi) = Arg(sin(chi) phi' - i) + pi, continuous branch.

    The argument lies in the open lower half plane for every finite phi', so
    pi/2 + arctan(sin(chi) phi') is the continuous branch in (0, pi).
    """
    return np.pi / 2.0 + np.arctan(np.sin(chi) * phi_prime(params, chi))


def arc_speed(params: CurveParams, chi):
    """Dimensionless arc speed t'(chi) = sqrt(1 + sin(chi)^2 phi'(chi)^2) >= 1."""
    s = np.sin(chi) * phi_prime(params, chi)
    return np.sqrt(1.0 + s * s)


def pulse_area(wave) -> float:
    """Trapezoid integral of the waveform samples."""
    return float(np.trapezoid(wave.samples, dx=wave.dt))


def max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat)))


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return max_abs(mat - mat.conj().T) < tol


def embed_single(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator at `site` (1-based), identity elsewhere."""
    mats = [SIGMA_I] * n_qubits
    mats[site - 1] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    d = mat.shape[0]
    return max_abs(mat.conj().T @ mat - np.eye(d)) < tol


def reduced_block_samples(config, pulse, times) -> np.ndarray:
    """The reduced model without crosstalk, (+) (beta_b Z + Omega(t) X)/2, shape (N, d, d).

    The block detunings h0 plus term 0 (the target drive at nu = 0) of the
    reduced model's `frames.dense_terms` table.
    """
    h0, _, templates = dense_terms(config, MODEL_REDUCED)
    drive = templates[0].reshape(h0.shape)
    return h0 + pulse.envelope(np.asarray(times, dtype=float))[:, None, None] * drive


def magnus_oracle(u0_at, delta_h_at, T: float, dt: float) -> np.ndarray:
    """Brute-force first-order Magnus integral, trapezoid rule.

    A1(T) = int_0^T U0(t)^dag dH(t) U0(t) dt with U0 supplied at grid points
    (typically cached cumulative propagators of the block model).
    """
    n = max(1, int(np.ceil(T / dt - 1e-12)))
    step = T / n
    total = None
    for k in range(n + 1):
        t = k * step
        u = u0_at(t)
        term = u.conj().T @ delta_h_at(t) @ u
        weight = 0.5 if k in (0, n) else 1.0
        total = weight * term if total is None else total + weight * term
    return total * step


def crosstalk_block(params: CurveParams, delta_tilde: float, beta: float,
                    grid_points: int = CHI_GRID_POINTS) -> np.ndarray:
    """Analytic prediction of the full inter-block Magnus 2x2 block.

    For the 4-dim model H = diag((beta Z + Omega X)/2, Omega X / 2) with
    perturbation dH = Omega(t)(cos(dt~ t) XZ + sin(dt~ t) YZ), the upper
    right block of int U0^dag dH U0 dt equals

        int Omega e^{-i dt~ t} R_X(pi/2) M(chi) dt,
        M = U_geo^dag Z R_X(psi) = [[p, conj(q)], [q, -conj(p)]],

    p = cos(chi/2) cos(A) + i sin(chi/2) sin(B), q = -sin(chi/2) cos(B)
    + i cos(chi/2) sin(A), A = theta + phi - S - pi/4, B = theta - S - pi/4.
    The R_X(pi/2) factor is the frame offset between the geometric Euler
    product and the from-identity propagator. This is the object the
    published (ct1, ct2) integrals parameterize; tests match it entrywise
    against the brute-force oracle.
    """
    g = CurveGrid(params, grid_points)
    t_phys = g.arc / abs(beta)
    pref = g.dtheta + g.cos_chi * g.dphi
    a_ang = g.theta + g.phi - g.S - np.pi / 4.0
    b_ang = g.theta - g.S - np.pi / 4.0
    half = g.chi / 2.0
    p = np.cos(half) * np.cos(a_ang) + 1.0j * np.sin(half) * np.sin(b_ang)
    q = -np.sin(half) * np.cos(b_ang) + 1.0j * np.cos(half) * np.sin(a_ang)
    rot = np.exp(-1.0j * delta_tilde * t_phys)
    i_p = trapz_endpoint_corrected(pref * rot * p, g.h)
    i_q = trapz_endpoint_corrected(pref * rot * q, g.h)
    j_p = trapz_endpoint_corrected(pref * rot * p.conj(), g.h)
    j_q = trapz_endpoint_corrected(pref * rot * q.conj(), g.h)
    m_int = np.array([[i_p, j_q], [i_q, -j_p]])
    rx90 = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    return rx90 @ m_int


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
    `simulate.propagate_blocks`, on the same default step grid, exponentiated
    by `su2_exp_batch` and multiplied by `product_reduce_allocating`, with no sharing
    between betas and no sign fold.
    """
    if n_steps is None:
        n_steps = _BLOCK_PER_INTERVAL * (len(wave.samples) - 1)
    dt = wave.T / n_steps
    t0 = np.arange(n_steps) * dt
    gauss = 0.5 * np.sqrt(3.0) / 3.0
    om1 = wave.envelope(t0 + (0.5 - gauss) * dt)
    om2 = wave.envelope(t0 + (0.5 + gauss) * dt)
    x = 0.25 * (om1 + om2) * dt
    y = -np.sqrt(3.0) / 24.0 * dt * dt * (om2 - om1)
    flat = np.atleast_1d(np.asarray(betas, dtype=float)).ravel()
    out = np.stack([product_reduce_allocating(su2_exp_batch(x, y * beta,
                                                            np.full(n_steps, 0.5 * dt * beta)))
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


def expm_eigh_batch(hams: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_k dt) for a stack of Hermitian matrices, by batched eigendecomposition."""
    evals, evecs = np.linalg.eigh(hams)
    phases = np.exp(-1.0j * dt * evals)
    return (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def expm_eigh_real(gens: np.ndarray, work=None) -> np.ndarray:
    """exp(A_k) for a real-form stack R(A_k) = [[Re A, -Im A], [Im A, Re A]] of
    anti-Hermitian generators A_k = -i H_k, by eigendecomposition of H_k.

    `work` is accepted and unused, so this can stand in for `linalg.expm_batch`.
    """
    d = gens.shape[-1] // 2
    u = expm_eigh_batch(1j * (gens[..., :d, :d] + 1j * gens[..., d:, :d]), 1.0)
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def expm_hermitian(ham: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * ham) for Hermitian `ham`, via eigendecomposition."""
    if not is_hermitian(ham, tol=1e-10):
        raise ValueError("expm_hermitian requires a Hermitian matrix")
    return expm_eigh_batch(ham, scale)


def propagate_sampled(hams: np.ndarray, dt: float) -> np.ndarray:
    """Propagator from midpoint-sampled Hamiltonians, shape (N, d, d)."""
    return product_reduce_allocating(expm_eigh_batch(hams, dt))


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


def _add_identity(mats: np.ndarray, value: float) -> np.ndarray:
    """mats + value * I on a C-contiguous stack (..., d, d), in place."""
    d = mats.shape[-1]
    mats.reshape(mats.shape[:-2] + (d * d,))[..., ::d + 1] += value
    return mats


def expm_batch_allocating(a: np.ndarray) -> np.ndarray:
    """`linalg.expm_batch` as it was before its scratch moved into a workspace:
    the same degree rule and Paterson-Stockmeyer form, every intermediate a
    new array. The workspace kernel must match it bit for bit."""
    a = np.asarray(a)
    norm = float(np.max(np.ones((1, a.shape[-2])) @ np.abs(a), initial=0.0))
    if not np.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite generator in a step exponential")
    squarings = int(np.ceil(np.log2(norm / _TAYLOR9_THETA))) if norm > _TAYLOR9_THETA else 0
    if squarings:
        a = a * 0.5 ** squarings
    a2 = a @ a
    a3 = a2 @ a
    if norm <= _TAYLOR6_THETA:
        tail = _add_identity(a * (1.0 / 24.0) + a2 * (1.0 / 120.0) + a3 * (1.0 / 720.0),
                             1.0 / 6.0)
    else:
        inner = _add_identity(a * (1.0 / 5040.0) + a2 * (1.0 / 40320.0)
                              + a3 * (1.0 / 362880.0), 1.0 / 720.0)
        tail = _add_identity(a * (1.0 / 24.0) + a2 * (1.0 / 120.0) + a3 @ inner, 1.0 / 6.0)
    out = _add_identity(a + 0.5 * a2 + a3 @ tail, 1.0)
    for _ in range(squarings):
        out = out @ out
    return out


def product_reduce_allocating(mats: np.ndarray) -> np.ndarray:
    """`linalg.product_reduce` as it was before it took a ping-pong buffer: the
    same pairwise pairing, each pass a new array."""
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


#: samples of the waveform that `susceptibility_oracles` propagates
_ORACLE_SAMPLES = 262144
RX90 = expm_hermitian(SIGMA_X, np.pi / 4.0)


def cumulative_propagators(wave, beta, n, block=512):
    """U0 at n+1 uniform grid points for the block (beta Z + Omega X)/2.

    Fourth-order Magnus steps on Gauss nodes, so the remaining oracle error
    is the trapezoid quadrature of the integrand plus the sampled-waveform
    representation, both far below the 1e-5 comparison tolerance. The
    running product is a two-level blocked prefix product: sequential within
    blocks of `block` steps, vectorized across the blocks, then each block is
    carried by the product of all blocks before it.
    """
    dt = wave.T / n
    t0 = np.arange(n) * dt
    gauss = 0.5 * np.sqrt(3.0) / 3.0
    om1 = wave.envelope(t0 + (0.5 - gauss) * dt)
    om2 = wave.envelope(t0 + (0.5 + gauss) * dt)
    x = 0.25 * (om1 + om2) * dt
    y = -np.sqrt(3.0) / 24.0 * dt * dt * beta * (om2 - om1)
    steps = su2_exp_batch(x, y, np.full(n, 0.5 * beta * dt))
    blocks = steps.reshape(-1, block, 2, 2)  # n is a multiple of `block`
    within = np.empty_like(blocks)
    within[:, 0] = blocks[:, 0]
    for k in range(1, block):
        within[:, k] = blocks[:, k] @ within[:, k - 1]
    carry = np.empty_like(blocks[:, 0])
    carry[0] = np.eye(2)
    for b in range(1, len(carry)):
        carry[b] = within[b - 1, -1] @ carry[b - 1]
    out = np.empty((n + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    out[1:] = (within @ carry[:, None]).reshape(n, 2, 2)
    return out


def adjoint_z(u, v):
    """u^dag Z v for stacks of 2x2 matrices, written out entry by entry."""
    a, b = u[:, 0, 0].conj(), u[:, 0, 1].conj()
    c, d = u[:, 1, 0].conj(), u[:, 1, 1].conj()
    out = np.empty_like(v)
    out[:, 0, 0] = a * v[:, 0, 0] - c * v[:, 1, 0]
    out[:, 0, 1] = a * v[:, 0, 1] - c * v[:, 1, 1]
    out[:, 1, 0] = b * v[:, 0, 0] - d * v[:, 1, 0]
    out[:, 1, 1] = b * v[:, 0, 1] - d * v[:, 1, 1]
    return out


def susceptibility_oracles(params: CurveParams, beta: float, delta_tilde=None, n=131072):
    """Brute-force (A_beta, A_beta0, crosstalk block) of one curve at one beta.

    A_beta is (A_X, A_Y, A_Z) of the beta block in the geometric frame and
    A_beta0 is (A_Y, A_Z) of the beta = 0 block, both in chi units. The
    crosstalk block is the upper-right block of int U0^dag dH U0 dt for the
    2-block model at `delta_tilde`, None if that is None. The waveform and
    the two cumulative propagators are built once each.
    """
    wave = waveform_from_grid(CurveGrid(params, _ORACLE_SAMPLES), beta, _ORACLE_SAMPLES)
    us_beta = cumulative_propagators(wave, beta, n)
    us_zero = cumulative_propagators(wave, 0.0, n)
    h = wave.T / n
    a_true = np.trapezoid(adjoint_z(us_beta, us_beta), dx=h, axis=0)
    a_geo = RX90.conj().T @ a_true @ RX90
    a_beta = np.array([np.trace(p @ a_geo).real / 2.0
                       for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)]) * abs(beta)
    a_zero = np.trapezoid(adjoint_z(us_zero, us_zero), dx=h, axis=0)
    a_beta0 = np.array([np.trace(p @ a_zero).real / 2.0 for p in (SIGMA_Y, SIGMA_Z)]) * abs(beta)
    if delta_tilde is None:
        return a_beta, a_beta0, None
    times = np.arange(n + 1) * h
    weight = wave.envelope(times) * np.exp(-1j * delta_tilde * times)
    integrand = weight[:, None, None] * adjoint_z(us_beta, us_zero)
    base = np.trapezoid(integrand, dx=h, axis=0)
    d_start = (-3.0 * integrand[0] + 4.0 * integrand[1] - integrand[2]) / (2.0 * h)
    d_end = (3.0 * integrand[-1] - 4.0 * integrand[-2] + integrand[-3]) / (2.0 * h)
    return a_beta, a_beta0, base - h * h / 12.0 * (d_end - d_start)
