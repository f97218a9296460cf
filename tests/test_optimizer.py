"""Presets and the deterministic multi-start search."""

from dataclasses import asdict

import numpy as np
from geodesic_gates.curves import (
    CurveGrid,
    CurveParams,
    area_functional,
    rotation_angle,
    solve_b1_zero_area,
)
from geodesic_gates.frames import SETTINGS, SystemConfig, dressing
from geodesic_gates.magnus import ChannelWeights, robust_cost
from geodesic_gates.optimizer import (
    PRESET_KEYS,
    OptimizerConfig,
    optimize,
    preset_curve,
    preset_system,
    presets,
    total_cost,
)


def test_presets_bit_match_published_rows():
    table = presets()
    assert len(table) == 8
    row = table["xpi-2q-robust"]
    assert (row.b1, row.b2, row.b3, row.c) == (-5.86744, 0.0, 0.0, 5.46421)
    row = table["xpi-3q-robust"]
    assert (row.b1, row.b2, row.b3, row.c) == (221.65146, -20.91401, 101.22649, -136.55137)
    row = table["xhalfpi-2q-robust"]
    assert (row.b1, row.c) == (-2.93379, 4.81114)
    assert abs(table["xpi-2q-robust"].a + 1.0 / (32.0 * np.pi**2)) < 1e-15
    assert abs(table["xhalfpi-2q-robust"].a + 1.0 / (64.0 * np.pi**2)) < 1e-15


def test_preset_curves_sign_corrected_and_area_resolved():
    for key in ("xpi-3q-nonrobust", "xpi-3q-robust", "xhalfpi-3q-nonrobust",
                "xhalfpi-3q-robust"):
        params = preset_curve(key)
        assert abs(area_functional(CurveGrid(params))) < 1e-8
        row = presets()[key]
        assert abs(rotation_angle(CurveGrid(params)) - row.phi_target) < 1e-8
        # the re-solved coefficient stays within table rounding of the
        # negated published value
        if row.robust:
            assert abs(params.b3 + row.b3) < 5e-5
        else:
            assert abs(params.b1 + row.b1) < 5e-5
    two_q = preset_curve("xpi-2q-robust")
    assert (two_q.b1, two_q.c) == (5.86744, -5.46421)


def test_preset_system_defaults():
    assert preset_system("xpi-2q-robust").n_qubits == 2
    assert preset_system("xpi-3q-robust").n_qubits == 3
    assert preset_system("xpi-3q-robust").delta == 20.0


def test_preset_system_is_a_settings_row():
    # the 2q rows are midpoint-drive rows, the 3q rows chain rows
    for key in PRESET_KEYS:
        setting = "2q-midpoint" if "-2q-" in key else "3q-chain"
        assert preset_system(key) == SystemConfig(**SETTINGS[setting])
    assert len(PRESET_KEYS) == 8


def test_total_cost_zero_weights():
    cfg = OptimizerConfig(channel_weights=ChannelWeights(0, 0, 0))
    system = SystemConfig(n_qubits=2, delta=20.0)
    residuals = total_cost(preset_curve("xpi-2q-robust"), system, dressing(system), cfg)
    assert residuals @ residuals == 0.0


def test_total_cost_zero_area_preset():
    a = -1.0 / (32.0 * np.pi**2)
    params = CurveParams(a=a, b1=solve_b1_zero_area(a), phi_target=np.pi)
    assert abs(area_functional(CurveGrid(params))) < 1e-11


def test_total_cost_rank_orders_presets():
    system = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    frame = dressing(system)
    cfg = OptimizerConfig()
    robust = total_cost(preset_curve("xpi-3q-robust"), system, frame, cfg)
    plain = total_cost(preset_curve("xpi-3q-nonrobust"), system, frame, cfg)
    assert robust @ robust < plain @ plain


def test_optimize_trivial_unconstrained():
    system = SystemConfig(n_qubits=2, delta=20.0)
    cfg = OptimizerConfig(channel_weights=ChannelWeights(0, 0, 0), starts=1, max_iters=5)
    result = optimize(np.pi, system, cfg)
    assert result.converged
    assert result.cost < 1e-12
    assert abs(result.params.a + 1.0 / (32.0 * np.pi**2)) < 1e-15


def test_optimize_deterministic():
    system = SystemConfig(n_qubits=2, delta=20.0)
    cfg = OptimizerConfig(starts=2, max_iters=40, seed=42)
    first = optimize(np.pi, system, cfg)
    second = optimize(np.pi, system, cfg)
    assert first.params == second.params
    assert first.cost == second.cost
    assert first.start_costs == second.start_costs


def test_optimize_monotone_in_restarts():
    system = SystemConfig(n_qubits=2, delta=20.0)
    costs = []
    for starts in (1, 2, 4):
        cfg = OptimizerConfig(starts=starts, max_iters=30, seed=7)
        costs.append(optimize(np.pi, system, cfg).cost)
    assert costs[1] <= costs[0] + 1e-15
    assert costs[2] <= costs[1] + 1e-15


def test_optimize_not_worse_than_preset():
    system = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(system)
    cfg = OptimizerConfig(starts=2, max_iters=150, seed=42)
    result = optimize(np.pi, system, cfg)
    preset_cost = robust_cost(preset_curve("xpi-2q-robust"), system, frame, cfg.channel_weights)
    assert result.cost <= 1.1 * preset_cost
    # spec example: achieved robustness within 10x of the published row
    assert robust_cost(result.params, system, frame, cfg.channel_weights) \
        <= 10.0 * max(robust_cost(preset_curve("xpi-2q-robust"), system, frame,
                                  cfg.channel_weights), 1e-30)


def test_optimize_two_qubit_resonant_reaches_preset_basin():
    # from the published pi/2 row, least squares on the residual vector reaches
    # the resonant setting's robust basin, near 9.4e-7
    system = SystemConfig(n_qubits=2, drive_choice="resonant_lower")
    result = optimize(np.pi / 2.0, system, OptimizerConfig(starts=1, max_iters=120))
    assert result.cost < 1e-5


def test_optimize_three_qubit_constraint_preserved():
    system = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    cfg = OptimizerConfig(starts=1, max_iters=10, seed=1)
    result = optimize(np.pi, system, cfg)
    assert abs(area_functional(CurveGrid(result.params))) < 1e-8
    assert abs(result.params.a + 1.0 / (32.0 * np.pi**2)) < 1e-15


def test_optimize_reports_nonconvergence():
    system = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    cfg = OptimizerConfig(starts=1, max_iters=1, seed=3)
    result = optimize(np.pi, system, cfg)
    assert not result.converged


def test_optimizer_config_roundtrip():
    cfg = OptimizerConfig(starts=5, seed=9)
    assert OptimizerConfig.from_dict(asdict(cfg)) == cfg


def test_optimize_counts_every_total_cost_call(monkeypatch):
    # the benchmark's traced run counts `optimizer.total_cost` calls and
    # requires them to equal the reported n_evaluations
    import geodesic_gates.optimizer as optimizer_module

    calls = []
    original = optimizer_module.total_cost

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer_module, "total_cost", counting)
    for system in (SystemConfig(n_qubits=2), SystemConfig(n_qubits=3, drive_choice="center")):
        calls.clear()
        result = optimize(np.pi, system, OptimizerConfig(starts=2, seed=5, max_iters=30))
        assert len(calls) == result.n_evaluations > 0
