"""Susceptibility integrals against the brute-force Magnus oracle."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_curve
from geodesic_gates.curves import CurveGrid, CurveParams
from geodesic_gates.frames import SystemConfig, dressing
from geodesic_gates.linalg import SIGMA_Z
from geodesic_gates.magnus import (
    CHANNEL_COUPLING,
    CHANNEL_CROSSTALK,
    CHANNEL_FREQ,
    ChannelWeights,
    _crosstalk_pair,
    channel_costs,
    cost_residuals,
    crosstalk_amplitudes,
    robust_cost,
    susceptibility_beta,
    susceptibility_beta0,
)
from geodesic_gates.optimizer import BOX_HALFWIDTH, PRESET_KEYS, preset_curve, preset_system
from oracles import (
    RX90,
    crosstalk_block,
    crosstalk_integrands,
    magnus_oracle,
    max_abs,
    susceptibility_integrands,
    susceptibility_oracles,
    trapz,
    trapz_endpoint_corrected,
)


def test_beta_susceptibility_flat_curve():
    p = CurveParams(a=0.0, phi_target=0.0)  # theta = pi/2, phi = 0 everywhere
    ax, ay, az = susceptibility_beta(CurveGrid(p))
    assert abs(ax) < 1e-12
    assert abs(ay - 4.0 * np.pi) < 1e-10
    assert abs(az) < 1e-12


def test_beta0_running_area_closes_with_zero_area():
    # at zero enclosed area S(4 pi) = 0, linking the beta = 0 and beta != 0 ends
    from geodesic_gates.curves import solve_b1_zero_area

    a = -1.0 / (32.0 * np.pi**2)
    p = CurveParams(a=a, b1=solve_b1_zero_area(a), phi_target=np.pi)
    grid = CurveGrid(p)
    assert abs(grid.S[-1]) < 1e-10


def test_crosstalk_zero_drive_vanishes():
    p = CurveParams(a=0.0, phi_target=0.0)
    ct1, ct2 = crosstalk_amplitudes(CurveGrid(p), delta_tilde=-20.0, beta=1.0)
    assert abs(ct1) < 1e-12
    assert abs(ct2) < 1e-12


def test_crosstalk_rotating_phase_averaging():
    p = preset_curve("xpi-2q-robust")
    small = crosstalk_amplitudes(CurveGrid(p), delta_tilde=-20.0, beta=0.5)
    large = crosstalk_amplitudes(CurveGrid(p), delta_tilde=-200.0, beta=0.5)
    assert abs(large[0]) < abs(small[0])
    assert abs(large[1]) < abs(small[1])
    with pytest.raises(ValueError):
        crosstalk_amplitudes(CurveGrid(p), delta_tilde=-20.0, beta=0.0)


@pytest.mark.parametrize("index, system", enumerate([
    SystemConfig(n_qubits=2),
    SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
    SystemConfig(n_qubits=3, drive_choice="center"),
]), ids=["2q-midpoint", "2q-resonant", "3q-chain"])
def test_integrals_match_theta_trig_oracle(index, system):
    # every integral through e^{i theta} = (i - s)/t' agrees with its theta-trig
    # integrand on the same grid and quadrature to rounding: 1e-14 of the
    # integrand's L1 mass, on the presets and on random starts of the
    # optimizer's box; the crosstalk pair at -dt~ is the conjugate-phase
    # reuse that the chain's second neighbour reads. On the presets, the
    # grid's half-angle phase factors agree with np.exp to 5e-16.
    frame = dressing(system)
    rng = np.random.default_rng(70 + index)
    presets = [preset_curve(key) for key in PRESET_KEYS]
    curves = presets + [random_curve(rng, scale=BOX_HALFWIDTH) for _ in range(20)]
    for params in curves:
        grid = CurveGrid(params)
        if params in presets:
            assert max_abs(grid.e_phi - np.exp(1j * grid.phi)) < 5e-16, params
            assert max_abs(grid.e_S - np.exp(1j * grid.S)) < 5e-16, params
        got = dict(zip(("ax", "ay", "az"), susceptibility_beta(grid)))
        got.update(zip(("ay0", "az0"), susceptibility_beta0(grid)))
        for name, integrand in susceptibility_integrands(grid).items():
            mass = trapz(grid, np.abs(integrand))
            assert abs(got[name] - trapz(grid, integrand)) <= 1e-14 * mass, (params, name)
        amplitudes = _crosstalk_pair(grid, frame.delta_tilde, frame.design_beta)
        for sign, pair in zip((1.0, -1.0), amplitudes):
            integrands = crosstalk_integrands(grid, sign * frame.delta_tilde, frame.design_beta)
            for value, (name, integrand) in zip(pair, integrands.items()):
                reference = trapz_endpoint_corrected(integrand, grid.h)
                mass = trapz(grid, np.abs(integrand))
                assert abs(value - reference) <= 1e-14 * mass, (params, name, sign)
        assert amplitudes[0] == crosstalk_amplitudes(grid, frame.delta_tilde, frame.design_beta)


def test_magnus_oracle_trivial_cases():
    zero = magnus_oracle(lambda t: np.eye(2, dtype=complex),
                         lambda t: np.zeros((2, 2), dtype=complex), 3.0, 0.01)
    assert max_abs(zero) < 1e-14
    const = magnus_oracle(lambda t: np.eye(2, dtype=complex),
                          lambda t: SIGMA_Z.astype(complex), 3.0, 0.01)
    assert max_abs(const - 3.0 * SIGMA_Z) < 1e-12
    assert max_abs(const - const.conj().T) < 1e-12


def test_beta_block_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = random_curve(rng)
        analytic = np.array(susceptibility_beta(CurveGrid(p)))
        oracle, _, _ = susceptibility_oracles(p, beta=0.7)
        assert np.max(np.abs(analytic - oracle)) / np.linalg.norm(oracle) < 1e-5


def test_beta0_block_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(3):
        p = random_curve(rng)
        analytic = np.array(susceptibility_beta0(CurveGrid(p)))
        _, oracle, _ = susceptibility_oracles(p, beta=0.7)
        assert np.max(np.abs(analytic - oracle)) / max(np.linalg.norm(oracle), 1.0) < 1e-5


def test_crosstalk_block_matches_oracle():
    rng = np.random.default_rng(43)
    for _ in range(2):
        p = random_curve(rng)
        delta_tilde = -np.sqrt(20.0**2 + 1.0)
        analytic = crosstalk_block(p, delta_tilde, beta=1.0)
        _, _, oracle = susceptibility_oracles(p, beta=1.0, delta_tilde=delta_tilde)
        assert max_abs(analytic - oracle) / max(max_abs(oracle), 1e-6) < 1e-4


def test_crosstalk_amplitudes_recovered_from_oracle_block():
    # the frozen bookkeeping: O' = R_X(pi/2)^dag O, elementary integrals from
    # the [[p, q*], [q, -p*]] structure, then phases exp(+-i pi/4)
    p = preset_curve("xpi-2q-robust")
    delta_tilde = -np.sqrt(401.0)
    ct1, ct2 = crosstalk_amplitudes(CurveGrid(p), delta_tilde, beta=0.5)
    _, _, oracle = susceptibility_oracles(p, beta=0.5, delta_tilde=delta_tilde)
    o_geo = RX90.conj().T @ oracle
    i_p, j_q, i_q, j_p = o_geo[0, 0], o_geo[0, 1], o_geo[1, 0], -o_geo[1, 1]
    c1 = 0.5 * (i_p + j_p)
    s1 = (i_p - j_p) / 2j
    c2 = -0.5 * (i_q + j_q)
    s2 = (i_q - j_q) / 2j
    ct1_oracle = np.exp(1j * np.pi / 4.0) * (np.conj(c1) + 1j * np.conj(s2))
    ct2_oracle = np.exp(-1j * np.pi / 4.0) * (np.conj(c2) - 1j * np.conj(s1))
    assert abs(ct1 - ct1_oracle) < 1e-5
    assert abs(ct2 - ct2_oracle) < 1e-5


def test_robust_cost_zero_weights():
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    p = preset_curve("xpi-2q-robust")
    weights = ChannelWeights(freq=0.0, coupling=0.0, crosstalk=0.0)
    assert robust_cost(p, cfg, frame, weights) == 0.0


def test_case1_channel_equivalence():
    # midpoint drive: frequency and coupling noise share the same integral
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    rng = np.random.default_rng(44)
    for _ in range(5):
        costs = channel_costs(CurveGrid(random_curve(rng)), cfg, frame)
        assert abs(costs[CHANNEL_FREQ] - costs[CHANNEL_COUPLING]) < 1e-9


def test_case2_one_way_implication():
    # resonant drive: coupling noise lives on the detuned block only, so
    # killing the frequency channel kills it too; the converse fails
    cfg = SystemConfig(n_qubits=2, delta=20.0, drive_choice="resonant_lower")
    frame = dressing(cfg)
    rng = np.random.default_rng(45)
    for _ in range(5):
        p = random_curve(rng)
        costs = channel_costs(CurveGrid(p), cfg, frame)
        beta_norm_sq = float(np.dot(susceptibility_beta(CurveGrid(p)),
                                    susceptibility_beta(CurveGrid(p))))
        scale = 1.0 / frame.design_beta**2
        # structural identity: coupling = 4 * |A_beta|^2, freq = |A_beta|^2 + |A_0|^2
        assert abs(costs[CHANNEL_COUPLING] - 4.0 * beta_norm_sq * scale) < 1e-9
        assert costs[CHANNEL_FREQ] >= beta_norm_sq * scale - 1e-12
    # counterexample to the converse: a curve whose detuned-block integral is
    # (almost) zero while the resonant block stays noisy
    p = preset_curve("xpi-2q-robust")
    costs = channel_costs(CurveGrid(p), cfg, frame)
    assert costs[CHANNEL_COUPLING] < 1e-5
    assert costs[CHANNEL_FREQ] > 0.1


def test_robust_cost_preset_ordering():
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    robust = robust_cost(preset_curve("xpi-2q-robust"), cfg, frame)
    plain = robust_cost(preset_curve("xpi-2q-nonrobust"), cfg, frame)
    assert robust < 1e-2 * plain


def test_robust_preset_susceptibility_collapse():
    # the published robust rows shrink |(A_X, A_Y, A_Z)| by >= 100x
    robust = np.linalg.norm(susceptibility_beta(CurveGrid(preset_curve("xpi-2q-robust"))))
    plain = np.linalg.norm(susceptibility_beta(CurveGrid(preset_curve("xpi-2q-nonrobust"))))
    assert robust * 100.0 < plain


def test_crosstalk_channel_ordering_two_qubit():
    # at the susceptibility level the robust row is also less sensitive to
    # control crosstalk (the full dynamic floor at Delta = 20 J is dominated
    # by higher-order terms instead; see the audit notes)
    cfg = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(cfg)
    robust = channel_costs(CurveGrid(preset_curve("xpi-2q-robust")), cfg, frame)[CHANNEL_CROSSTALK]
    plain = channel_costs(CurveGrid(preset_curve("xpi-2q-nonrobust")), cfg, frame)[CHANNEL_CROSSTALK]
    assert robust < plain


def test_three_qubit_robust_cost_ordering():
    cfg = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    frame = dressing(cfg)
    robust = robust_cost(preset_curve("xpi-3q-robust"), cfg, frame)
    plain = robust_cost(preset_curve("xpi-3q-nonrobust"), cfg, frame)
    assert robust < plain


def test_cost_and_simulator_noise_tables_agree():
    # the cost weights block b's squared susceptibility by 1 (frequency) and
    # c_b^2 (coupling); the simulator's noise operator puts dw + c_b dJ on
    # block b. Both read frame.coupling_coefs in every setting.
    from geodesic_gates.simulate import NoiseSetting, noise_operator

    grid = CurveGrid(preset_curve("xpi-3q-nonrobust"))
    detuned = np.array(susceptibility_beta(grid))
    resonant = np.array(susceptibility_beta0(grid))
    for system in (SystemConfig(n_qubits=2),
                   SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
                   SystemConfig(n_qubits=3, drive_choice="center")):
        frame = dressing(system)
        norms = [(detuned @ detuned if b != 0.0 else resonant @ resonant) / frame.design_beta**2
                 for b in frame.betas]
        costs = channel_costs(grid, system, frame)
        for channel, noise in ((CHANNEL_FREQ, NoiseSetting(0.25, 0.0)),
                               (CHANNEL_COUPLING, NoiseSetting(0.0, 0.25))):
            per_block = np.diag(noise_operator(system, noise)).real[0::2] / 0.25
            expected = sum(c * c * n for c, n in zip(per_block, norms))
            assert costs[channel] == pytest.approx(expected, rel=1e-12), (system, channel)


@pytest.mark.parametrize("key, cost", [
    ("xpi-2q-nonrobust", 638.3822618776163),
    ("xpi-2q-robust", 5.5958112437798786e-06),
    ("xpi-3q-nonrobust", 339.3126920926943),
    ("xpi-3q-robust", 1.2945898209339652),
    ("xhalfpi-2q-nonrobust", 1861.0626103390111),
    ("xhalfpi-2q-robust", 1.1446639138902508e-10),
    ("xhalfpi-3q-nonrobust", 259.2881981268271),
    ("xhalfpi-3q-robust", 0.025916730301185662),
])
def test_robust_cost_recorded_values(key, cost):
    # bit for bit the values recorded when the integrals took e^{i theta}
    # from s = sin(chi) phi' instead of cos and sin of theta
    system = preset_system(key)
    assert robust_cost(preset_curve(key), system, dressing(system)) == cost


@pytest.mark.parametrize("index, system", enumerate([
    SystemConfig(n_qubits=2),
    SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
    SystemConfig(n_qubits=3, drive_choice="center"),
]), ids=["2q-midpoint", "2q-resonant", "3q-chain"])
def test_cost_residuals_square_to_robust_cost(index, system):
    # the optimizer's residual vector has |C_robust|^2 as its squared norm, on
    # the presets and on random starts of the optimizer's box, under the
    # default and under unequal channel weights
    frame = dressing(system)
    rng = np.random.default_rng(90 + index)
    curves = [preset_curve(key) for key in PRESET_KEYS]
    curves += [random_curve(rng, scale=BOX_HALFWIDTH) for _ in range(20)]
    for weights in (ChannelWeights(), ChannelWeights(freq=0.5, coupling=2.0, crosstalk=3.0)):
        for params in curves:
            residuals = cost_residuals(CurveGrid(params), system, frame, weights)
            cost = robust_cost(params, system, frame, weights)
            assert abs(residuals @ residuals - cost) <= 1e-14 * cost, (params, weights)


def test_cost_residuals_on_a_refilled_grid_are_independent_arrays():
    # least squares keeps the previous residual vector, so a refill and the
    # next evaluation must not write into it
    system = SystemConfig(n_qubits=3, drive_choice="center")
    frame = dressing(system)
    first, second = preset_curve("xpi-3q-robust"), preset_curve("xpi-3q-nonrobust")
    grid = CurveGrid(first)
    r1 = cost_residuals(grid, system, frame)
    kept = r1.copy()
    r2 = cost_residuals(grid.refill(second), system, frame)
    assert not np.shares_memory(r1, r2)
    assert r1.tobytes() == kept.tobytes()
    assert r2.tobytes() == cost_residuals(CurveGrid(second), system, frame).tobytes()
    assert r1.tobytes() != r2.tobytes()


def test_refilled_cost_evaluation_allocates_no_grid():
    # a refill plus cost_residuals writes into the grid's arrays; a fresh
    # grid and its temporaries took 3.4 MiB at 16384 points
    rng = np.random.default_rng(5)
    for system in (SystemConfig(n_qubits=2, drive_choice="resonant_lower"),
                   SystemConfig(n_qubits=3, drive_choice="center")):
        frame = dressing(system)
        grid = CurveGrid(preset_curve("xpi-3q-robust"))
        cost_residuals(grid, system, frame)
        params = random_curve(rng)
        tracemalloc.start()
        try:
            cost_residuals(grid.refill(params), system, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak


def test_robust_cost_is_a_python_float():
    # the records hold Python floats, so a cost serializes to JSON as it is
    for key in PRESET_KEYS:
        for system in (preset_system(key), SystemConfig(n_qubits=2, drive_choice="resonant_lower")):
            assert type(robust_cost(preset_curve(key), system, dressing(system))) is float


def test_channel_weights_must_be_non_negative():
    # a negative weight has no residual vector whose squared norm is the cost
    with pytest.raises(ValueError, match="non-negative"):
        ChannelWeights(coupling=-1.0)
