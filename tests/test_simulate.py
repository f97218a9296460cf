"""Gate simulation, noise sweeps and slope fits."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_curve
from geodesic_gates import simulate
from geodesic_gates.curves import CurveGrid, solve_b3_zero_area, synthesize_waveform
from geodesic_gates.frames import SystemConfig, dressing, hamiltonian_samples
from geodesic_gates.linalg import (
    SIGMA_X,
    SIGMA_Z,
    complex_form,
    expm_batch,
    gate_fidelity,
    pauli_string,
    su2_ordered_exp,
)
from geodesic_gates.magnus import CHANNEL_COUPLING, CHANNEL_FREQ, channel_costs
from geodesic_gates.optimizer import PRESET_KEYS, preset_curve, preset_system
from geodesic_gates.simulate import (
    MODEL_LAB,
    MODEL_REDUCED,
    NoiseSetting,
    cosine_baseline,
    matched_cosine_baseline,
    noise_operator,
    noise_sweep,
    propagate_blocks,
    simulate_gate,
    slope_fit,
    _BLOCK_PER_INTERVAL,
    _STACK_REALS,
    _block_betas,
    _dense_gate,
    _dense_per_interval,
    _dense_workspace,
    _magnus_steps,
    _step_grid,
)
from oracles import (
    embed_single,
    expm_eigh_real,
    expm_hermitian,
    propagate_blocks_oracle,
    propagate_sampled,
    pulse_area,
    reduced_block_samples,
)


def _setup(key, n_samples=8192):
    system = preset_system(key)
    frame = dressing(system)
    params = preset_curve(key)
    wave = synthesize_waveform(params, frame.design_beta, n_samples=n_samples)
    return system, frame, wave


def test_noise_setting_validation():
    with pytest.raises(ValueError):
        NoiseSetting(delta_omega=0.7)
    with pytest.raises(ValueError):
        NoiseSetting(delta_j=-0.6)


def test_zero_noise_round_trip_all_presets():
    for key in ("xpi-2q-robust", "xpi-2q-nonrobust", "xpi-3q-robust",
                "xhalfpi-3q-robust"):
        system, frame, wave = _setup(key, n_samples=16384)
        phi_t = preset_curve(key).phi_target
        _, infid = simulate_gate(system, frame, wave,
                                 NoiseSetting(crosstalk_on=False),
                                 gate_angle=phi_t)
        assert infid < 1e-7, key


def test_waveform_system_mismatch_rejected():
    system, frame, _ = _setup("xpi-2q-robust")
    wrong = synthesize_waveform(preset_curve("xpi-2q-robust"), 2.0, n_samples=4096)
    with pytest.raises(ValueError):
        simulate_gate(system, frame, wrong, NoiseSetting())


def test_lab_and_reduced_agree_at_zero_noise():
    system, frame, wave = _setup("xpi-2q-robust")
    _, infid_red = simulate_gate(system, frame, wave, NoiseSetting())
    _, infid_lab = simulate_gate(system, frame, wave, NoiseSetting(), model=MODEL_LAB)
    assert abs(infid_red - infid_lab) < 1e-5


def test_lab_and_reduced_agree_two_qubit_relative():
    # the 2q dressing is exact, so only the integrators separate the models
    system, frame, wave = _setup("xpi-2q-robust")
    _, infid_red = simulate_gate(system, frame, wave, NoiseSetting())
    _, infid_lab = simulate_gate(system, frame, wave, NoiseSetting(), model=MODEL_LAB)
    assert abs(infid_lab - infid_red) / infid_red < 1e-4


def test_single_point_sweep_matches_simulate():
    system, frame, wave = _setup("xpi-2q-robust")
    noise = NoiseSetting(0.01, -0.02, crosstalk_on=False)
    _, direct = simulate_gate(system, frame, wave, noise)
    sweep = noise_sweep(system, frame, wave, [0.01], [-0.02], crosstalk_on=False)
    assert sweep.shape == (1, 1)
    assert abs(sweep[0, 0] - direct) < 1e-12


@pytest.mark.parametrize("key", ["xpi-2q-robust", "xpi-3q-robust"])
def test_block_fast_path_matches_dense_propagation(key):
    # the crosstalk-off fast path against the midpoint rule on the same
    # reduced model (no crosstalk) plus the same noise operator
    system, frame, wave = _setup(key)
    noise = NoiseSetting(0.03, -0.02, crosstalk_on=False)
    u_fast, _ = simulate_gate(system, frame, wave, noise)
    n = 2**16
    dt = wave.T / n
    mids = (np.arange(n) + 0.5) * dt
    hams = reduced_block_samples(system, wave, mids)
    hams += noise_operator(system, noise)
    assert np.max(np.abs(u_fast - propagate_sampled(hams, dt))) < 1e-6


@pytest.mark.parametrize("key", ["xpi-2q-robust", "xpi-3q-robust"])
@pytest.mark.parametrize("model", [MODEL_REDUCED, MODEL_LAB])
def test_dense_step_doubling(key, model):
    # the discretization error of the default dense step grid, estimated by
    # doubling the steps
    system, frame, wave = _setup(key)
    noise = NoiseSetting(0.02, 0.01)
    u_default, _ = simulate_gate(system, frame, wave, noise, model=model)
    n_default = _dense_per_interval(wave, frame) * (len(wave.samples) - 1)
    u_double, _ = simulate_gate(system, frame, wave, noise, model=model,
                                n_steps=2 * n_default)
    assert np.max(np.abs(u_default - u_double)) < 1e-9


@pytest.mark.parametrize("key", PRESET_KEYS)
def test_block_step_doubling(key):
    # the same estimate for the crosstalk-off block path, whose default grid
    # is two steps per waveform sample interval, +-beta folded
    system, frame, wave = _setup(key)
    noise = NoiseSetting(0.02, 0.01, crosstalk_on=False)
    u_default, _ = simulate_gate(system, frame, wave, noise)
    u_double, _ = simulate_gate(system, frame, wave, noise,
                                n_steps=2 * _BLOCK_PER_INTERVAL * (len(wave.samples) - 1))
    assert np.max(np.abs(u_default - u_double)) < 1e-11


@pytest.mark.parametrize("key", PRESET_KEYS)
def test_block_step_doubling_at_the_noise_corners(key):
    # NoiseSetting's largest noise moves the detunings furthest from the
    # design; the step error there stays far below the sampling error
    system, frame, wave = _setup(key)
    n_double = 2 * _BLOCK_PER_INTERVAL * (len(wave.samples) - 1)
    for dw in (-0.5, 0.5):
        for dj in (-0.5, 0.5):
            noise = NoiseSetting(dw, dj, crosstalk_on=False)
            u_default, _ = simulate_gate(system, frame, wave, noise)
            u_double, _ = simulate_gate(system, frame, wave, noise, n_steps=n_double)
            assert np.max(np.abs(u_default - u_double)) < 1e-10, (dw, dj)


@pytest.mark.parametrize("key", ["xpi-2q-robust", "xpi-3q-robust"])
def test_dense_stepper_matches_midpoint_oracle(key):
    # the crosstalk-on Magnus path against the midpoint rule on the same
    # reduced model plus the same noise operator
    system, frame, wave = _setup(key)
    noise = NoiseSetting(0.03, -0.02)
    u_dense, _ = simulate_gate(system, frame, wave, noise)
    n = 2**16
    dt = wave.T / n
    mids = (np.arange(n) + 0.5) * dt
    hams = hamiltonian_samples(system, MODEL_REDUCED, wave, mids)
    hams += noise_operator(system, noise)
    assert np.max(np.abs(u_dense - propagate_sampled(hams, dt))) < 1e-6


@pytest.mark.parametrize("key", PRESET_KEYS)
@pytest.mark.parametrize("model", [MODEL_REDUCED, MODEL_LAB])
def test_dense_step_matches_eigh_oracle(key, model):
    # the Taylor step exponential against eigendecomposition, chunk by chunk
    system, frame, wave = _setup(key)
    dt, chunks = _magnus_steps(system, frame, wave, model, None)
    for steps, _ in chunks:
        oracle = expm_eigh_real(steps)
        err = np.max(np.abs(complex_form(expm_batch(steps, np.empty((4,) + steps.shape))
                                         - oracle)))
        assert err < 1e-13


def test_dense_step_scaling_and_squaring():
    # 64 steps over a 3q lab gate put the one-norm of -i dt H_eff near 9,
    # far above the unscaled bound 0.07, so the steps are squared
    system, frame, wave = _setup("xpi-3q-robust")
    dt, chunks = _magnus_steps(system, frame, wave, MODEL_LAB, 64)
    (steps, _), = chunks
    assert np.max(np.sum(np.abs(steps), axis=-2)) > 100 * 0.07
    oracle = expm_eigh_real(steps)
    assert np.max(np.abs(complex_form(expm_batch(steps, np.empty((4,) + steps.shape))
                                      - oracle))) < 1e-12


@pytest.mark.parametrize("key", PRESET_KEYS)
@pytest.mark.parametrize("model", [MODEL_REDUCED, MODEL_LAB])
def test_dense_gate_matches_eigh_stepped_oracle(key, model, monkeypatch):
    # the whole gate, against the same Magnus steps exponentiated by eigh
    system, frame, wave = _setup(key)
    noise = NoiseSetting(0.03, -0.02)
    u, _ = simulate_gate(system, frame, wave, noise, model=model)
    monkeypatch.setattr(simulate, "expm_batch", expm_eigh_real)
    u_oracle, _ = simulate_gate(system, frame, wave, noise, model=model)
    assert np.max(np.abs(u - u_oracle)) < 1e-11
    assert np.max(np.abs(u.conj().T @ u - np.eye(system.dim))) < 1e-12


@pytest.mark.parametrize("key", ["xpi-2q-robust", "xpi-3q-robust"])
@pytest.mark.parametrize("model", [MODEL_REDUCED, MODEL_LAB])
def test_dense_gate_allocates_only_its_workspace(key, model):
    # on the shared chunks of a sweep, a dense gate's stacks live in one
    # workspace, its generators and the exponential's four scratch stacks,
    # where fresh temporaries would take about ten stacks per chunk; a sweep
    # thread's workspace serves point after point and leaves nothing behind
    system, frame, wave = _setup(key)
    dt, chunks = _magnus_steps(system, frame, wave, model, None)
    chunks = list(chunks)
    expected = _dense_gate(system, frame, wave, model, dt, chunks, NoiseSetting(0.03, -0.02),
                           np.pi, _dense_workspace(system))
    work = _dense_workspace(system)
    _dense_gate(system, frame, wave, model, dt, chunks, NoiseSetting(0.5, 0.5), np.pi, work)
    tracemalloc.start()
    try:
        u, infid = _dense_gate(system, frame, wave, model, dt, chunks,
                               NoiseSetting(0.03, -0.02), np.pi, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024, peak
    assert np.array_equal(u, expected[0]) and infid == expected[1]


def test_crosstalk_on_sweep_matches_simulate_at_every_point():
    # the sweep shares the noise-free steps between points; simulate_gate
    # rebuilds them, and the two must agree
    system, frame, wave = _setup("xpi-3q-robust")
    axis = np.linspace(-0.04, 0.04, 3)
    sweep = noise_sweep(system, frame, wave, axis, axis, crosstalk_on=True)
    for i, dw in enumerate(axis):
        for j, dj in enumerate(axis):
            _, direct = simulate_gate(system, frame, wave, NoiseSetting(float(dw), float(dj)))
            assert abs(sweep[i, j] - direct) < 1e-12, (dw, dj)
            assert sweep[i, j] == direct, (dw, dj)


def test_step_counts_must_be_positive():
    system, frame, wave = _setup("xpi-2q-robust")
    for bad in (0, -8):
        for noise, model in ((NoiseSetting(crosstalk_on=False), MODEL_REDUCED),
                             (NoiseSetting(), MODEL_REDUCED), (NoiseSetting(), MODEL_LAB)):
            with pytest.raises(ValueError, match="n_steps"):
                simulate_gate(system, frame, wave, noise, model=model, n_steps=bad)
        with pytest.raises(ValueError, match="n_steps"):
            propagate_blocks(wave, frame.betas, n_steps=bad)


@pytest.mark.parametrize("key", PRESET_KEYS)
def test_propagate_blocks_matches_complex_oracle(key):
    # quaternion steps with shared betas against one complex 2x2 stack per beta
    _, frame, wave = _setup(key)
    betas = np.concatenate([frame.betas, np.asarray(frame.betas) + 0.07, [-0.31]])
    u = propagate_blocks(wave, betas)
    assert u.shape == betas.shape + (2, 2)
    assert np.max(np.abs(u - propagate_blocks_oracle(wave, betas))) < 1e-12


def test_propagate_blocks_equal_betas_give_identical_blocks():
    _, _, wave = _setup("xpi-2q-robust")
    betas = np.array([[0.5, -0.3, 0.5], [0.1, 0.5, -0.3]])
    u = propagate_blocks(wave, betas)
    assert u.shape == (2, 3, 2, 2)
    assert np.array_equal(u[0, 0], u[0, 2]) and np.array_equal(u[0, 0], u[1, 1])
    assert np.array_equal(u[0, 1], u[1, 2])
    assert not np.array_equal(u[0, 0], u[0, 1])
    # values one ulp apart are not merged
    pair = propagate_blocks(wave, [0.5, np.nextafter(0.5, 1.0)])
    assert not np.array_equal(pair[0], pair[1])
    assert np.max(np.abs(pair[0] - pair[1])) < 1e-12


@pytest.mark.parametrize("key", PRESET_KEYS)
def test_propagate_blocks_sign_fold_is_exact(key):
    # U(-beta) = X U(beta) X, taken as the reversed entries of U(|beta|), is
    # bit for bit the product of the steps at -beta
    _, frame, wave = _setup(key)
    dt, t1, t2 = _step_grid(wave, None, _BLOCK_PER_INTERVAL)
    om1, om2 = wave.envelope(t1), wave.envelope(t2)
    x_row = 0.25 * (om1 + om2) * dt
    y_row = -np.sqrt(3.0) / 24.0 * dt * dt * (om2 - om1)
    for b in np.concatenate([np.asarray(frame.betas) + 0.07, np.asarray(frame.betas) - 0.07]):
        pair = propagate_blocks(wave, [b, -b])
        assert np.array_equal(pair[1], pair[0][::-1, ::-1]), b
        direct = su2_ordered_exp(x_row, y_row * -b, 0.5 * dt * -b)
        assert np.array_equal(pair[1], direct), b


def test_sweep_propagates_each_distinct_magnitude_once(monkeypatch):
    # a 41x41 grid's 3362 block detunings hold 251 distinct values, and 140
    # distinct magnitudes; only the magnitudes are propagated, in chunks whose
    # (4, chunk, n_steps) quaternion stack keeps to the stack budget
    system, frame, wave = _setup("xpi-2q-robust")
    axis = np.linspace(-0.1, 0.1, 41)
    dw_grid, dj_grid = np.meshgrid(axis, axis, indexing="ij")
    betas = _block_betas(frame, dw_grid, dj_grid)
    assert betas.size == 3362 and np.unique(betas).size == 251
    rows = []

    def counted(x, y, z):
        rows.append(np.shape(z)[0])
        assert 4 * np.broadcast(x, y, z).size <= _STACK_REALS
        return su2_ordered_exp(x, y, z)

    monkeypatch.setattr(simulate, "su2_ordered_exp", counted)
    noise_sweep(system, frame, wave, axis, axis, crosstalk_on=False)
    assert sum(rows) == 140


def test_crosstalk_off_sweep_matches_simulate_at_every_point():
    system, frame, wave = _setup("xpi-3q-robust")
    axis = np.linspace(-0.04, 0.04, 5)
    sweep = noise_sweep(system, frame, wave, axis, axis, crosstalk_on=False)
    for i, dw in enumerate(axis):
        for j, dj in enumerate(axis):
            noise = NoiseSetting(float(dw), float(dj), crosstalk_on=False)
            _, direct = simulate_gate(system, frame, wave, noise)
            assert abs(sweep[i, j] - direct) < 1e-12, (dw, dj)
            assert sweep[i, j] == direct, (dw, dj)


def test_zero_noise_infidelity_is_not_negative():
    # a product of tens of thousands of steps can drift off the unitary group
    # and push |Tr|^2/d^2 just above 1 on this preset; the fidelity is clipped
    system, frame, wave = _setup("xhalfpi-2q-nonrobust")
    noise = NoiseSetting(crosstalk_on=False)
    _, direct = simulate_gate(system, frame, wave, noise, gate_angle=np.pi / 2.0)
    sweep = noise_sweep(system, frame, wave, [0.0], [0.0], crosstalk_on=False,
                        gate_angle=np.pi / 2.0)
    assert 0.0 <= direct < 1e-12
    assert 0.0 <= sweep[0, 0] < 1e-12


def test_noise_operator_matches_pauli_sum():
    rng = np.random.default_rng(7)
    for system, coupling in ((SystemConfig(n_qubits=2), pauli_string("ZZ")),
                             (SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
                              pauli_string("IZ") + pauli_string("ZZ")),
                             (SystemConfig(n_qubits=3, drive_choice="center"),
                              pauli_string("ZIZ") + pauli_string("IZZ"))):
        z_target = embed_single(SIGMA_Z, system.n_qubits, system.n_qubits)
        for _ in range(20):
            dw, dj = rng.uniform(-0.5, 0.5, 2)
            expected = dw * z_target + dj * coupling
            assert np.array_equal(noise_operator(system, NoiseSetting(dw, dj)), expected)


def _zero_area_curves():
    """xpi-3q-nonrobust and four seeded random curves, b3 re-solved for zero area."""
    rng = np.random.default_rng(12)
    curves = [preset_curve("xpi-3q-nonrobust")]
    for _ in range(4):
        p = random_curve(rng)
        curves.append(replace(p, b3=solve_b3_zero_area(p.a, p.b1, p.b2)))
    return curves


@pytest.mark.parametrize("channel", [CHANNEL_FREQ, CHANNEL_COUPLING])
@pytest.mark.parametrize("system", [SystemConfig(n_qubits=2),
                                    SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
                                    SystemConfig(n_qubits=3, drive_choice="center")],
                         ids=["2q-midpoint", "2q-resonant", "3q-chain"])
def test_first_order_cost_predicts_simulator(system, channel):
    # to second order in the noise x, I(x) - I(0) = x^2 |C_channel|^2 / n_blocks
    # when the cost and the simulator apply the same noise operator
    frame = dressing(system)
    x = 1e-3
    noise = NoiseSetting(x, 0.0, False) if channel == CHANNEL_FREQ else NoiseSetting(0.0, x, False)
    for params in _zero_area_curves():
        wave = synthesize_waveform(params, frame.design_beta, n_samples=8192)
        _, i0 = simulate_gate(system, frame, wave, NoiseSetting(crosstalk_on=False),
                              gate_angle=params.phi_target)
        _, ix = simulate_gate(system, frame, wave, noise, gate_angle=params.phi_target)
        cost = channel_costs(CurveGrid(params), system, frame)[channel]
        ratio = len(frame.betas) * (ix - i0) / (x * x * cost)
        assert abs(ratio - 1.0) < 0.02, (params, ratio)


def test_sweep_grid_limits():
    system, frame, wave = _setup("xpi-2q-robust")
    with pytest.raises(ValueError):
        noise_sweep(system, frame, wave, np.zeros(202), [0.0])
    # the crosstalk-off path builds no NoiseSetting per point; its axes meet the same bound
    with pytest.raises(ValueError, match="<= 0.5"):
        noise_sweep(system, frame, wave, [0.8], [0.0], crosstalk_on=False)
    for crosstalk in (True, False):
        with pytest.raises(ValueError, match="1 to 201"):
            noise_sweep(system, frame, wave, [], [0.0], crosstalk_on=crosstalk)


def test_nonrobust_infidelity_minimum_at_origin():
    system, frame, wave = _setup("xpi-2q-nonrobust")
    axis = np.linspace(-0.05, 0.05, 5)
    sweep = noise_sweep(system, frame, wave, axis, axis, crosstalk_on=False)
    center = sweep[2, 2]
    masked = sweep.copy()
    masked[2, 2] = np.inf
    assert center < np.min(masked)


def test_sweep_domega_mirror_symmetry():
    # the exact discrete symmetry of the midpoint configuration: flipping
    # the sign of dw at fixed dJ maps the two blocks onto each other (the
    # simultaneous (dw, dJ) flip does not, contrary to first appearance)
    system, frame, wave = _setup("xpi-2q-robust")
    plus = noise_sweep(system, frame, wave, [0.013], [0.007], crosstalk_on=False)
    minus = noise_sweep(system, frame, wave, [-0.013], [0.007], crosstalk_on=False)
    assert abs(plus[0, 0] - minus[0, 0]) < 1e-9


def test_robust_beats_nonrobust_under_noise():
    system, frame, wave_r = _setup("xpi-2q-robust")
    _, _, wave_n = _setup("xpi-2q-nonrobust")
    axis = np.linspace(-0.02, 0.02, 3)
    sweep_r = noise_sweep(system, frame, wave_r, axis, axis, crosstalk_on=False)
    sweep_n = noise_sweep(system, frame, wave_n, axis, axis, crosstalk_on=False)
    assert np.max(sweep_r) < np.max(sweep_n)


@pytest.mark.parametrize("key, robust", [
    ("xpi-2q-robust", True), ("xhalfpi-2q-robust", True),
    ("xpi-3q-robust", False), ("xhalfpi-3q-robust", False),
])
def test_small_noise_slope_of_robust_rows(key, robust):
    # a first-order robust pulse leaves an O(dw^4) infidelity; the printed
    # chain rows do not null A_beta (see audit), and their slopes of 2.01 and
    # 2.55 are pinned here, so a fix of those rows fails this test on purpose.
    # The zero-noise floors (1.6e-12 to 6.5e-11) lie far below I(1e-3), so no
    # floor is subtracted
    system, frame, wave = _setup(key)
    sweep = noise_sweep(system, frame, wave, [1e-3, 4e-3], [0.0], crosstalk_on=False,
                        gate_angle=preset_curve(key).phi_target)
    low, high = sweep[:, 0]
    slope = np.log(high / low) / np.log(4.0)
    assert slope >= 3.9 if robust else slope < 3.0, slope


def test_slope_fit_synthetic_quadratic():
    noise = np.geomspace(1e-3, 1e-1, 12)
    infid = 0.37 * noise**2
    assert abs(slope_fit(noise, infid) - 2.0) < 1e-3


def test_slope_fit_floor_exclusion_and_errors():
    noise = np.geomspace(1e-3, 1e-1, 12)
    floor = 1e-6
    infid = floor + 0.37 * noise**2
    fitted = slope_fit(noise, infid, floor=floor, subtract_floor=True)
    assert abs(fitted - 2.0) < 0.05
    with pytest.raises(ValueError):
        slope_fit(noise[:4], infid[:4])
    with pytest.raises(ValueError):
        slope_fit(noise, np.full_like(noise, floor), floor=floor)
    with pytest.raises(ValueError):
        slope_fit(-noise, infid)


def test_cosine_baseline_shape_and_area():
    T = 8.0
    wave = cosine_baseline(np.pi, T, n_samples=4097)
    assert abs(wave.peak_amplitude - 2.0 * np.pi / T) < 1e-12
    mid = wave.envelope(T / 2.0)
    assert abs(mid - 2.0 * np.pi / T) < 1e-12
    assert abs(pulse_area(wave) - np.pi) < 1e-12
    with pytest.raises(ValueError):
        cosine_baseline(np.pi, -1.0)


def test_cosine_baseline_resonant_block_exact():
    wave = cosine_baseline(np.pi, 6.0, n_samples=8193)
    u = propagate_blocks(wave, 0.0)
    target = expm_hermitian(SIGMA_X, np.pi / 2.0)
    assert 1.0 - gate_fidelity(u, target) < 1e-8


def test_cosine_baseline_detuned_block_fails():
    # on a detuned block at Delta = 20 J the plain cosine pulse is far worse
    # than the synthesized robust pulse
    system, frame, robust_wave = _setup("xpi-2q-robust")
    cosine = matched_cosine_baseline(np.pi, robust_wave)
    target = expm_hermitian(SIGMA_X, np.pi / 2.0)
    u_cos = propagate_blocks(cosine, 0.5)
    u_rob = propagate_blocks(robust_wave, 0.5)
    infid_cos = 1.0 - gate_fidelity(u_cos, target)
    infid_rob = 1.0 - gate_fidelity(u_rob, target)
    assert infid_cos > 1e3 * infid_rob


def test_matched_cosine_peak():
    _, _, wave = _setup("xpi-3q-robust")
    cosine = matched_cosine_baseline(np.pi, wave)
    assert abs(cosine.peak_amplitude - wave.peak_amplitude) < 1e-9


@pytest.mark.parametrize("n_samples", [512, 2049])
def test_matched_cosine_takes_the_reference_sample_count(n_samples):
    # an even count rounds up to the next odd one, which samples the peak
    _, _, wave = _setup("xpi-2q-robust", n_samples)
    cosine = matched_cosine_baseline(np.pi, wave)
    assert len(cosine.samples) == n_samples | 1
    assert np.argmax(cosine.samples) == n_samples // 2


def test_lab_and_reduced_agree_three_qubit():
    # truncation of the dressing at O(lambda^3) bounds the model mismatch
    system, frame, wave = _setup("xpi-3q-nonrobust")
    _, infid_red = simulate_gate(system, frame, wave, NoiseSetting())
    _, infid_lab = simulate_gate(system, frame, wave, NoiseSetting(),
                                 model=MODEL_LAB, n_steps=262144)
    assert abs(infid_red - infid_lab) < 1e-3
