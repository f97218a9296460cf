"""Tensor-core contracts: Pauli strings, exponentials, propagation, fidelity."""

import itertools

import numpy as np
import pytest

from geodesic_gates.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _TAYLOR6_THETA,
    _TAYLOR9_THETA,
    complex_form,
    expm_batch,
    expm_hermitian_batch,
    gate_fidelity,
    gauss_nodes,
    magnus4_hamiltonians,
    pauli_string,
    product_reduce,
    real_form,
    su2_ordered_exp,
)
from oracles import (
    expm_batch_allocating,
    expm_hermitian,
    is_hermitian,
    is_unitary,
    max_abs,
    propagate,
    product_reduce_allocating,
    propagate_converged,
    su2_exp_batch,
)


def random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_pauli_z():
    assert np.allclose(pauli_string("Z"), np.diag([1.0, -1.0]))


def test_pauli_xz_entries():
    xz = pauli_string("XZ")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1.0
    expected[1, 3] = -1.0
    expected[2, 0] = 1.0
    expected[3, 1] = -1.0
    assert np.allclose(xz, expected)


def test_pauli_xzy_squares_to_identity():
    p = pauli_string("XZY")
    assert np.allclose(p @ p, np.eye(8))


def test_pauli_string_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli_string("XQ")
    with pytest.raises(ValueError):
        pauli_string("")
    with pytest.raises(ValueError):
        pauli_string("XXXX")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_strings_involutory_and_traceless(n):
    for letters in itertools.product("IXYZ", repeat=n):
        spec = "".join(letters)
        p = pauli_string(spec)
        assert max_abs(p @ p - np.eye(2**n)) < 1e-14
        assert is_hermitian(p)
        assert is_unitary(p)
        if set(spec) != {"I"}:
            assert abs(np.trace(p)) < 1e-14


def test_expm_z_pi_is_minus_identity():
    assert np.allclose(expm_hermitian(SIGMA_Z, np.pi), -np.eye(2), atol=1e-12)


def test_expm_zero_scale_is_identity():
    h = pauli_string("XY")
    assert np.allclose(expm_hermitian(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_x_half_pi():
    assert np.allclose(expm_hermitian(SIGMA_X, np.pi / 2.0), -1j * SIGMA_X, atol=1e-12)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_batch_matches_single():
    rng = np.random.default_rng(11)
    hams = np.stack([(lambda m: m + m.conj().T)(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
                     for _ in range(5)])
    batch = expm_hermitian_batch(hams, 0.37)
    for k in range(5):
        assert max_abs(batch[k] - expm_hermitian(hams[k], 0.37)) < 1e-12
    # unscaled Taylor steps, on the complex generators and on their real form:
    # degree 6 at 0.9 theta_6; degree 9 between theta_6 and 0.07, the bound of
    # the degree-8 step it replaced, and between 0.07 and theta_9
    for norm in (0.9 * _TAYLOR6_THETA, 0.5 * (_TAYLOR6_THETA + 0.07),
                 0.5 * (0.07 + _TAYLOR9_THETA)):
        for form, back in ((np.asarray, np.asarray), (real_form, complex_form)):
            gens = form(-1j * hams)
            scale = norm / np.max(np.sum(np.abs(gens), axis=-2))
            batch = back(expm_batch(scale * gens))
            for k in range(5):
                assert max_abs(batch[k] - expm_hermitian(hams[k], scale)) < 1e-14, (norm, form)


def test_expm_batch_rejects_non_finite_stack():
    hams = np.zeros((3, 4, 4), dtype=complex)
    for bad in (np.nan, np.inf):
        hams[1, 2, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            expm_hermitian_batch(hams, 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            expm_batch(real_form(hams))


def test_workspace_kernels_match_allocating_oracles_bit_for_bit():
    # the scratch of the exponential and the product's passes moved into
    # caller-owned stacks; the arithmetic must not have moved with them
    rng = np.random.default_rng(15)
    m = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
    gens = -1j * (m + m.conj().swapaxes(-1, -2))
    # T6, T9, and T9 on A / 2^2 squared twice
    for norm in (0.9 * _TAYLOR6_THETA, 0.5 * (_TAYLOR6_THETA + _TAYLOR9_THETA),
                 3.0 * _TAYLOR9_THETA):
        for form in (np.asarray, real_form):
            stack = form(gens)
            stack = stack * (norm / np.max(np.sum(np.abs(stack), axis=-2)))
            expected = expm_batch_allocating(stack)
            kept = stack.copy()
            assert np.array_equal(expm_batch(stack), expected), (norm, form)
            assert np.array_equal(stack, kept)
            work = np.empty((4,) + stack.shape, dtype=stack.dtype)
            assert np.array_equal(expm_batch(stack, work), expected), (norm, form)
    for n in (1, 2, 3, 255, 256, 257, 1024):
        mats = np.eye(8) + 0.05 * rng.normal(size=(n, 8, 8))
        expected = product_reduce_allocating(mats)
        kept = mats.copy()
        assert np.array_equal(product_reduce(mats), expected), n
        assert np.array_equal(mats, kept)
        buf = np.empty(((n + 1) // 2, 8, 8))
        assert np.array_equal(product_reduce(mats, buf), expected), n
    # leading batch axes
    mats = np.eye(4) + 0.05 * rng.normal(size=(3, 257, 4, 4))
    expected = product_reduce_allocating(mats)
    assert np.array_equal(product_reduce(mats), expected)
    assert np.array_equal(product_reduce(mats.copy(), np.empty((3, 129, 4, 4))), expected)


def test_real_form_round_trip_and_products():
    rng = np.random.default_rng(14)
    a, b = rng.normal(size=(2, 6, 4, 4)) + 1j * rng.normal(size=(2, 6, 4, 4))
    a[0, 0, 0] = complex(-0.0, -0.0)
    # bit for bit, signed zeros included
    assert complex_form(real_form(a)).tobytes() == a.tobytes()
    # R is multiplicative: R(A) R(B) = R(AB) up to rounding
    err = np.max(np.abs(real_form(a) @ real_form(b) - real_form(a @ b)), axis=(-2, -1))
    norms = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
    assert np.all(err <= 1e-15 * norms)


def test_su2_exp_batch_matches_expm():
    rng = np.random.default_rng(12)
    x, y, z = rng.normal(size=(3, 64))
    batch = su2_exp_batch(x, y, z)
    for k in range(64):
        h = x[k] * SIGMA_X + y[k] * SIGMA_Y + z[k] * SIGMA_Z
        assert max_abs(batch[k] - expm_hermitian(h, 1.0)) < 1e-12


def test_product_reduce_ordering():
    rng = np.random.default_rng(13)
    mats = np.stack([random_unitary(rng, 3) for _ in range(7)])
    expected = np.eye(3, dtype=complex)
    for k in range(7):
        expected = mats[k] @ expected
    assert max_abs(product_reduce(mats) - expected) < 1e-12


def test_su2_ordered_exp_matches_complex_oracle():
    # non-commuting steps, odd and even lengths, leading batch axes kept
    rng = np.random.default_rng(14)
    for n in (1, 2, 7, 64, 1001):
        x, y, z = rng.normal(scale=0.3, size=(3, 2, 3, n))
        expected = product_reduce(su2_exp_batch(x, y, z))
        assert max_abs(su2_ordered_exp(x, y, z) - expected) < 1e-12, n


def test_su2_ordered_exp_broadcasts_and_stays_unitary():
    rng = np.random.default_rng(15)
    n = 32768
    x = rng.normal(scale=1e-3, size=n)
    beta = np.array([[0.5], [-0.3]])
    u = su2_ordered_exp(x, 1e-4 * beta, 0.01 * beta)
    assert u.shape == (2, 2, 2)
    for k in range(2):
        expected = product_reduce(su2_exp_batch(x, np.full(n, 1e-4 * beta[k, 0]),
                                                np.full(n, 0.01 * beta[k, 0])))
        assert max_abs(u[k] - expected) < 1e-12
        assert max_abs(u[k].conj().T @ u[k] - np.eye(2)) < 1e-15
    assert max_abs(su2_ordered_exp(0.0, 0.0, np.zeros(3)) - np.eye(2)) == 0.0


def test_propagate_constant_hamiltonian():
    omega = 1.3
    T = 2.7
    u = propagate(lambda t: 0.5 * omega * SIGMA_Z, T, T / 4000)
    assert max_abs(u - expm_hermitian(SIGMA_Z, 0.5 * omega * T)) < 1e-8


def test_propagate_commuting_pulse_gives_pi_rotation():
    T = 5.0
    env = lambda t: (np.pi / T) * (1.0 - np.cos(2.0 * np.pi * t / T))
    u = propagate(lambda t: 0.5 * env(t) * SIGMA_X, T, T / 4000)
    target = expm_hermitian(SIGMA_X, np.pi / 2.0)  # R_X(pi)
    assert 1.0 - gate_fidelity(u, target) < 1e-8


def test_propagate_cosine_pulse_beta_zero_block():
    # the standard cosine pi-pulse on the resonant block
    T = 8.0
    env = lambda t: (np.pi / T) * (1.0 - np.cos(2.0 * np.pi * t / T))
    u = propagate(lambda t: 0.5 * env(t) * SIGMA_X, T, T / 4000)
    assert 1.0 - gate_fidelity(u, -1j * SIGMA_X) < 1e-8


def test_propagate_quadratic_convergence():
    # noncommuting H(t): error vs a fine reference must shrink as dt^2
    T = 3.0

    def ham(t):
        return 0.5 * np.cos(t) * SIGMA_X + 0.4 * SIGMA_Z

    ref = propagate(ham, T, T / 2**16)
    dts = [T / 256, T / 512, T / 1024, T / 2048]
    errs = [max_abs(propagate(ham, T, dt) - ref) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def _magnus4(ham, T, n):
    dt, t1, t2 = gauss_nodes(T, n)
    h1 = np.stack([ham(t) for t in t1])
    h2 = np.stack([ham(t) for t in t2])
    return product_reduce(expm_hermitian_batch(magnus4_hamiltonians(h1, h2, dt), dt))


def test_magnus4_quartic_convergence():
    # the dense stepper on the same noncommuting H(t): error shrinks as dt^4
    T = 3.0

    def ham(t):
        return 0.5 * np.cos(t) * SIGMA_X + 0.4 * SIGMA_Z

    ref = _magnus4(ham, T, 2**12)
    ns = [16, 32, 64, 128]
    errs = [max_abs(_magnus4(ham, T, n) - ref) for n in ns]
    slope = np.polyfit(np.log([T / n for n in ns]), np.log(errs), 1)[0]
    assert 3.8 < slope < 4.2
    # and it agrees with the midpoint oracle at its converged step count
    assert max_abs(ref - propagate(ham, T, T / 2**16)) < 1e-8


def test_magnus4_step_is_hermitian_and_exact_for_commuting_samples():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    h1 = a + a.conj().swapaxes(-1, -2)
    h2 = h1 + 0.3 * rng.normal() * h1[::-1]
    heff = magnus4_hamiltonians(h1, h2, 0.2)
    assert all(is_hermitian(h) for h in heff)
    # equal samples commute: the step is exp(-i H dt) exactly
    assert max_abs(magnus4_hamiltonians(h1, h1, 0.2) - h1) < 1e-15


def test_gauss_nodes_grid():
    dt, t1, t2 = gauss_nodes(3.0, 4)
    assert dt == 0.75
    assert np.allclose(0.5 * (t1 + t2), (np.arange(4) + 0.5) * dt, atol=1e-15)
    assert np.allclose(t2 - t1, dt / np.sqrt(3.0), atol=1e-15)


def test_propagate_preserves_unitarity():
    T = 4.0

    def ham(t):
        return 0.5 * np.sin(t) * SIGMA_X + 0.3 * np.cos(2 * t) * SIGMA_Y + 0.7 * SIGMA_Z

    u = propagate(ham, T, T / 2000)
    assert max_abs(u.conj().T @ u - np.eye(2)) < 1e-9


def test_propagate_converged_doubles_until_stable():
    T = 3.0

    def ham(t):
        return 0.5 * np.cos(t) * SIGMA_X + 0.4 * SIGMA_Z

    u = propagate_converged(ham, T, n_start=500, tol=1e-10)
    ref = propagate(ham, T, T / 2**16)
    assert max_abs(u - ref) < 1e-6


def test_propagate_rejects_bad_steps():
    with pytest.raises(ValueError):
        propagate(lambda t: SIGMA_Z, -1.0, 0.1)
    with pytest.raises(ValueError):
        propagate(lambda t: SIGMA_Z, 1.0, 0.0)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    assert abs(gate_fidelity(u, u) - 1.0) < 1e-12
    # a slightly non-unitary product must not report a fidelity above 1
    assert gate_fidelity((1.0 + 1e-10) * u, u) == 1.0


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 8)
    assert abs(gate_fidelity(u, np.exp(0.7j) * u) - 1.0) < 1e-12


def test_fidelity_orthogonal_gates():
    assert gate_fidelity(np.eye(2, dtype=complex), pauli_string("X")) < 1e-14


def test_fidelity_symmetry_and_left_invariance():
    rng = np.random.default_rng(7)
    u, v, w = (random_unitary(rng, 4) for _ in range(3))
    f_uv = gate_fidelity(u, v)
    assert abs(f_uv - gate_fidelity(v, u)) < 1e-12
    assert abs(f_uv - gate_fidelity(w @ u, w @ v)) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), np.eye(4))
