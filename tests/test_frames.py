"""Model frames: lab Hamiltonians, dressing transforms, reduced models."""

from dataclasses import asdict

import numpy as np
import pytest

from conftest import curve_for_angle
from geodesic_gates.curves import Waveform, synthesize_waveform
from geodesic_gates.frames import (
    MODEL_LAB,
    MODEL_REDUCED,
    SETTINGS,
    FrameData,
    SystemConfig,
    _P1_TERMS,
    _P2_TERMS,
    _P3_TERMS,
    _pauli_sum,
    block_diagonal,
    dense_terms,
    dressing,
    lab_static,
    logical_from_lab,
    logical_target,
    three_qubit_dressing,
    two_qubit_dressing,
)
from geodesic_gates.linalg import SIGMA_X, SIGMA_Y, gate_fidelity, pauli_string, real_form
from oracles import (
    embed_single,
    expm_hermitian,
    hamiltonian_samples,
    is_hermitian,
    max_abs,
    propagate_sampled,
    reduced_block_samples,
)


def offdiag_norm(mat):
    return max_abs(mat - np.diag(np.diag(mat)))


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_qubits=4)
    with pytest.raises(ValueError):
        SystemConfig(n_qubits=2, delta=0.0)
    with pytest.raises(ValueError):
        SystemConfig(n_qubits=2, drive_choice="center")
    with pytest.raises(ValueError):
        SystemConfig(n_qubits=3, drive_choice="center", delta=0.5)  # |lambda| >= 1
    with pytest.raises(ValueError):
        three_qubit_dressing(SystemConfig(n_qubits=3, delta=3.0, drive_choice="center"))


def test_system_config_accepts_exactly_the_settings_pairs():
    pairs = [(n, choice) for n in (2, 3) for choice in ("midpoint", "resonant_lower", "center")]
    valid = {(s["n_qubits"], s["drive_choice"]) for s in SETTINGS.values()}
    assert valid == {(2, "midpoint"), (2, "resonant_lower"), (3, "center")}
    for n_qubits, drive_choice in pairs:
        if (n_qubits, drive_choice) in valid:
            assert SystemConfig(n_qubits=n_qubits, drive_choice=drive_choice).n_qubits == n_qubits
        else:
            with pytest.raises(ValueError, match="drive_choice"):
                SystemConfig(n_qubits=n_qubits, drive_choice=drive_choice)
    with pytest.raises(ValueError, match="n_qubits"):
        SystemConfig(n_qubits=2.0)


def test_lab_static_decoupled_limit():
    cfg = SystemConfig(n_qubits=2, delta=20.0, g1=0.0)
    w1, w2 = cfg.qubit_frequencies
    expected = (0.5 * w1 * pauli_string("ZI") + 0.5 * w2 * pauli_string("IZ")
                + 0.25 * cfg.g2 * pauli_string("ZZ"))
    assert max_abs(lab_static(cfg) - expected) < 1e-14


def test_lab_static_three_qubit_matches_explicit_kron():
    cfg = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    w1, w2, w3 = cfg.qubit_frequencies
    expected = (0.5 * w1 * pauli_string("ZII") + 0.5 * w2 * pauli_string("IZI")
                + 0.5 * w3 * pauli_string("IIZ"))
    for spec in ("XIX", "YIY", "IXX", "IYY"):
        expected = expected + 0.25 * cfg.g1 * pauli_string(spec)
    for spec in ("ZIZ", "IZZ"):
        expected = expected + 0.25 * cfg.g2 * pauli_string(spec)
    h = lab_static(cfg)
    assert max_abs(h - expected) < 1e-14
    # eigen-solver oracle: spectrum of the dressed and bare forms agree
    frame = dressing(cfg)
    ev_bare = np.linalg.eigvalsh(h)
    ev_dressed = np.linalg.eigvalsh(frame.S @ h @ frame.S.conj().T)
    assert np.max(np.abs(ev_bare - ev_dressed)) < 1e-12


def test_lab_hamiltonian_hermitian_and_window():
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    pulse = Waveform(T=2.0, samples=np.array([0.0, 1.0, 1.0, 0.5, 0.0]),
                     beta_design=0.5)
    assert is_hermitian(hamiltonian_samples(cfg, MODEL_LAB, pulse, np.array([0.7]))[0])
    with pytest.raises(ValueError):
        hamiltonian_samples(cfg, MODEL_LAB, pulse, np.array([2.5]))


@pytest.mark.parametrize("cfg", [
    SystemConfig(n_qubits=2, delta=20.0),
    SystemConfig(n_qubits=3, delta=20.0, drive_choice="center"),
])
def test_lab_samples_drive_is_envelope_over_drive_scale(cfg):
    # the lab model reads the synthesized envelope, so its drive amplitude
    # is Omega / drive_scale
    frame = dressing(cfg)
    rng = np.random.default_rng(17)
    pulse = Waveform(T=3.0, samples=rng.uniform(-1.0, 1.0, 7), beta_design=0.0)
    times = rng.uniform(0.0, pulse.T, 32)
    xt = embed_single(SIGMA_X, cfg.n_qubits, cfg.n_qubits)
    yt = embed_single(SIGMA_Y, cfg.n_qubits, cfg.n_qubits)
    amp = (pulse.envelope(times) / (2.0 * frame.drive_scale))[:, None, None]
    wd_t = (frame.omega_d * times)[:, None, None]
    expected = lab_static(cfg) + amp * (np.cos(wd_t) * xt + np.sin(wd_t) * yt)
    assert max_abs(hamiltonian_samples(cfg, MODEL_LAB, pulse, times) - expected) < 1e-13


def test_two_qubit_dressing_angle_oracle():
    # theta = -arctan(g1/delta)/2 for either sign of delta
    for delta in (20.0, -20.0):
        cfg = SystemConfig(n_qubits=2, delta=delta, g1=1.0)
        frame = two_qubit_dressing(cfg)
        theta = -0.5 * np.arctan(1.0 / delta)
        assert abs(theta + np.sign(delta) * 0.024979201) < 1e-8
        assert abs(frame.drive_scale - np.cos(theta)) < 1e-14
        assert abs(frame.epsilon - 0.5 * np.tan(theta)) < 1e-14


def test_two_qubit_dressing_decoupled_is_identity():
    for delta in (20.0, -20.0):
        cfg = SystemConfig(n_qubits=2, delta=delta, g1=0.0)
        frame = two_qubit_dressing(cfg)
        assert max_abs(frame.S - np.eye(4)) < 1e-14
        assert abs(frame.drive_scale - 1.0) < 1e-14


def test_two_qubit_block_detunings():
    # delta_tilde = -sign(delta) sqrt(delta^2 + g1^2), less g2/2 for the resonant drive
    for delta in (20.0, -20.0):
        sign = np.sign(delta)
        mid = two_qubit_dressing(SystemConfig(n_qubits=2, delta=delta, g2=1.0))
        assert mid.betas == (0.5, -0.5)
        assert abs(mid.delta_tilde + sign * np.sqrt(20.0**2 + 1.0)) < 1e-12
        res = two_qubit_dressing(SystemConfig(n_qubits=2, delta=delta, g2=1.0,
                                              drive_choice="resonant_lower"))
        assert res.betas == (1.0, 0.0)
        assert abs(res.delta_tilde + sign * np.sqrt(401.0) + 0.5) < 1e-12


def test_two_qubit_dressing_diagonalizes_exactly():
    rng = np.random.default_rng(31)
    # both signs of delta and of g1
    for _ in range(16):
        cfg = SystemConfig(n_qubits=2,
                           delta=float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 40.0)),
                           g1=float(rng.uniform(-2.0, 2.0)),
                           g2=float(rng.uniform(0.0, 2.0)))
        frame = two_qubit_dressing(cfg)
        dressed = frame.S @ lab_static(cfg) @ frame.S.conj().T
        assert offdiag_norm(dressed) < 1e-12


def test_two_qubit_unwind_reproduces_block_detunings():
    for choice in ("midpoint", "resonant_lower"):
        cfg = SystemConfig(n_qubits=2, delta=20.0, drive_choice=choice)
        frame = dressing(cfg)
        dressed = np.real(np.diag(frame.S @ lab_static(cfg) @ frame.S.conj().T))
        k = np.zeros(4)
        for i, freq in enumerate(frame.rotating_freqs):
            pattern = np.kron(np.array([1.0, -1.0]), np.ones(2)) if i == 0 \
                else np.kron(np.ones(2), np.array([1.0, -1.0]))
            k += 0.5 * freq * pattern
        blocks = block_diagonal(0.5 * np.asarray(frame.betas))
        assert np.max(np.abs(dressed - k - blocks)) < 1e-12


def test_three_qubit_dressing_oracles():
    cfg = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    frame = three_qubit_dressing(cfg)
    lam = 1.0 / 20.0
    gamma = 0.5 * np.arctan(lam**2 / (4.0 + lam**2))
    assert abs(gamma - 3.12305e-4) < 1e-8
    assert abs(frame.delta_tilde / cfg.delta - (1.0 + 6.25e-4 + 1.953125e-7)) < 1e-12
    assert abs(frame.drive_scale - (1.0 - lam**2 / 4.0)) < 1e-14
    assert frame.betas == (1.0, 0.0, 0.0, -1.0)
    assert max_abs(frame.S.conj().T @ frame.S - np.eye(8)) < 1e-12
    # S = S3 S2 S1 from the Taylor step exponential, against eigh, at
    # lambda = 0.05 and at the largest lambda allowed, 0.2
    p1, p2, p3 = (_pauli_sum(terms) for terms in (_P1_TERMS, _P2_TERMS, _P3_TERMS))
    for g1 in (1.0, 4.0):
        lam = g1 / 20.0
        alpha = 0.5 * lam - lam**2 / (4.0 * g1)
        kappa = -0.5 * lam - lam**2 / (4.0 * g1)
        gamma = 0.5 * np.arctan(lam**2 / (4.0 + lam**2))
        ref = (expm_hermitian(p3, -gamma / 2.0) @ expm_hermitian(p1 - p2, -kappa / 4.0)
               @ expm_hermitian(p1 + p2, -alpha / 4.0))
        cfg = SystemConfig(n_qubits=3, delta=20.0, g1=g1, drive_choice="center")
        assert max_abs(three_qubit_dressing(cfg).S - ref) < 1e-15, lam


def test_three_qubit_dressing_small_lambda_limit():
    cfg = SystemConfig(n_qubits=3, delta=2.0e5, drive_choice="center")
    frame = three_qubit_dressing(cfg)
    assert max_abs(frame.S - np.eye(8)) < 1e-4
    assert frame.betas == (1.0, 0.0, 0.0, -1.0)


def test_three_qubit_residual_scales_as_lambda_cubed():
    lams = np.array([0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.1])
    residuals = []
    for lam in lams:
        g = 20.0 * lam
        cfg = SystemConfig(n_qubits=3, delta=20.0, g1=g, g2=g, drive_choice="center")
        frame = three_qubit_dressing(cfg)
        dressed = frame.S @ lab_static(cfg) @ frame.S.conj().T
        residuals.append(offdiag_norm(dressed))
    slope = np.polyfit(np.log(lams), np.log(residuals), 1)[0]
    assert abs(slope - 3.0) < 0.2


def test_reduced_hamiltonian_idle_is_block_detunings():
    for cfg in (SystemConfig(n_qubits=2, delta=20.0),
                SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")):
        frame = dressing(cfg)
        idle = Waveform(T=1.0, samples=np.zeros(2), beta_design=0.0)
        h = hamiltonian_samples(cfg, MODEL_REDUCED, idle, np.array([0.3]))[0]
        assert offdiag_norm(h) < 1e-14
        blocks = block_diagonal(0.5 * np.asarray(frame.betas))
        assert np.max(np.abs(np.diag(h) - blocks)) < 1e-14


def test_reduced_crosstalk_entries_at_t0():
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    omega0 = 0.8
    pulse = Waveform(T=1.0, samples=np.full(2, omega0), beta_design=0.0)
    h = hamiltonian_samples(cfg, MODEL_REDUCED, pulse, np.array([0.0]))[0]
    theta = -0.5 * np.arctan(1.0 / 20.0)
    amp = 0.5 * np.tan(theta) * omega0
    assert abs(h[0, 2] - amp) < 1e-12
    assert abs(h[1, 3] + amp) < 1e-12
    assert is_hermitian(h)


def _crosstalk_term(cfg, frame, omega_lab, t):
    """V_cr(t) at lab envelope omega_lab: the reduced model with minus without crosstalk."""
    pulse = Waveform(T=1.0, samples=np.full(2, omega_lab * frame.drive_scale),
                     beta_design=0.0)
    times = np.array([t])
    h_on = hamiltonian_samples(cfg, MODEL_REDUCED, pulse, times)
    h_off = reduced_block_samples(cfg, pulse, times)
    return (h_on - h_off)[0]


def test_three_qubit_crosstalk_matches_hand_expansion():
    cfg = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    frame = dressing(cfg)
    lam = 0.05
    omega = 1.0
    t = 0.37
    c, s = np.cos(frame.delta_tilde * t), np.sin(frame.delta_tilde * t)
    c2, s2 = np.cos(2 * frame.delta_tilde * t), np.sin(2 * frame.delta_tilde * t)
    v1 = c * pauli_string("XIZ") + s * pauli_string("YIZ")
    v2 = -c * pauli_string("IXZ") + s * pauli_string("IYZ")
    v21 = -(c * pauli_string("XZZ") + s * pauli_string("YZZ"))
    v22 = -c * pauli_string("ZXZ") + s * pauli_string("ZYZ")
    v212 = (c2 * (pauli_string("XXX") + pauli_string("YYX"))
            + s2 * (pauli_string("YXX") - pauli_string("XYX")))
    expected = omega * (0.25 * lam * (v1 + v2)
                        + (cfg.g2 / (8.0 * cfg.g1)) * lam**2 * (v21 + v22 + v212))
    assert max_abs(_crosstalk_term(cfg, frame, omega, t) - expected) < 1e-13
    # spectral norm of the first-order part is 2 * (lambda/4) * Omega at t = 0
    v_cr0 = _crosstalk_term(cfg, frame, omega, 0.0)
    norm = np.linalg.norm(v_cr0, ord=2)
    assert abs(norm - 2.0 * lam / 4.0 * omega) < 2e-3


@pytest.mark.parametrize("setting, model, rows", [
    ("2q-midpoint", MODEL_LAB, 6), ("2q-resonant", MODEL_LAB, 6), ("3q-chain", MODEL_LAB, 3),
    ("2q-midpoint", MODEL_REDUCED, 10), ("2q-resonant", MODEL_REDUCED, 10),
    ("3q-chain", MODEL_REDUCED, 17)])
def test_dense_table_holds_each_term_and_each_pair_once(setting, model, rows):
    # R(-i T_a) per term, then R([T_a, T_b]) for the stored pairs a < b only:
    # [T_b, T_a] is -[T_a, T_b], [T_a, T_a] is zero, a pair left out commutes
    # (the chain's reduced h0 and X_t/2 with its drive terms at 2 delta_tilde),
    # and a term at nu = 0 has no sine part (the reduced target drive, the
    # chain's lab drive at omega_d = 0). Seeded random systems store the
    # default's pairs: the zeros come from the structure of the terms
    default = SystemConfig(**SETTINGS[setting])
    rng = np.random.default_rng(43)
    systems = [default]
    for _ in range(4):
        delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 2000.0))
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.005, 0.2))
        g2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0))
        systems.append(SystemConfig(delta=delta, g1=lam * delta, g2=g2, **SETTINGS[setting]))
    default_pairs = dense_terms(default, model)[2]
    for config in systems:
        _, terms, pairs, table = dense_terms(config, model)
        k = len(terms)
        assert len(table) == k + pairs.shape[1] == rows, config
        assert np.array_equal(pairs, default_pairs), config
        assert not pairs.flags.writeable
        for a in range(k):
            assert np.array_equal(table[a], real_form(-1.0j * terms[a]).ravel()), a
        stored = set(zip(*pairs.tolist()))
        assert np.all(np.diff(k * pairs[0] + pairs[1]) > 0)  # np.triu_indices order
        p = 0
        for a, b in zip(*np.triu_indices(k, 1)):
            if (a, b) not in stored:
                assert np.array_equal(terms[a] @ terms[b], terms[b] @ terms[a]), (config, a, b)
                continue
            commutator = terms[a] @ terms[b] - terms[b] @ terms[a]
            assert max_abs(table[k + p] - real_form(commutator).ravel()) <= 1e-15 * max_abs(table)
            p += 1
        assert p == pairs.shape[1]
        assert not np.any(np.all(table == 0, axis=1)), config
        assert not np.any(np.all(terms == 0, axis=(1, 2))), config


def test_logical_targets():
    cfg2 = SystemConfig(n_qubits=2, delta=20.0)
    assert max_abs(logical_target(cfg2, np.pi)
                   - np.kron(np.eye(2), -1j * SIGMA_X)) < 1e-14
    assert gate_fidelity(logical_target(cfg2, 2.0 * np.pi),
                         np.kron(np.eye(2), -np.eye(2))) > 1.0 - 1e-14
    cfg3 = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    tgt = logical_target(cfg3, np.pi / 2.0)
    block = tgt[:2, :2]
    assert abs(block[0, 0] - np.cos(np.pi / 4.0)) < 1e-14
    assert abs(block[0, 1] + 1j * np.sin(np.pi / 4.0)) < 1e-14
    # the closed-form R_X against the eigh exponential
    for angle in (np.pi, np.pi / 2.0, 2.0 * np.pi, 0.3):
        rx = expm_hermitian(SIGMA_X, angle / 2.0)
        assert max_abs(logical_target(cfg3, angle)[:2, :2] - rx) < 3e-16, angle


def _propagate(builder, T, n):
    dt = T / n
    mids = (np.arange(n) + 0.5) * dt
    return propagate_sampled(builder(mids), dt)


def test_frame_consistency_two_qubit():
    # lab propagation unwound to the logical frame equals the reduced model
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    params = curve_for_angle(np.pi, b1=5.86744, c=-5.46421)
    wave = synthesize_waveform(params, frame.design_beta, n_samples=8192)
    u_red = _propagate(lambda ts: hamiltonian_samples(cfg, MODEL_REDUCED, wave, ts),
                       wave.T, 65536)
    u_lab = _propagate(lambda ts: hamiltonian_samples(cfg, MODEL_LAB, wave, ts), wave.T, 262144)
    u_log = logical_from_lab(u_lab, frame, wave.T)
    # the transform is exact; the residual is integrator discretization
    assert max_abs(u_log - u_red) < 1e-7
    target = logical_target(cfg, np.pi)
    infid_red = 1.0 - gate_fidelity(u_red, target)
    infid_lab = 1.0 - gate_fidelity(u_log, target)
    assert abs(infid_red - infid_lab) < 1e-9


def test_system_config_json_round_trip():
    cfg = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    assert SystemConfig(**asdict(cfg)) == cfg
