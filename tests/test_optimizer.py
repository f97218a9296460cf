"""Presets and the deterministic multi-start search."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from geodesic_gates.curves import (
    CHI_GRID_POINTS,
    SEARCH_PHASE_STEP,
    CurveGrid,
    CurveParams,
    GridResolutionError,
    area_functional,
    rotation_angle,
    search_grid_points,
    solve_b1_zero_area,
    solve_b3_zero_area,
)
from geodesic_gates.frames import SETTINGS, SystemConfig, dressing
from geodesic_gates.magnus import ChannelWeights, channel_costs, robust_cost
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
    residuals = total_cost(CurveGrid(preset_curve("xpi-2q-robust")), system, dressing(system), cfg)
    assert residuals @ residuals == 0.0


def test_total_cost_zero_area_preset():
    a = -1.0 / (32.0 * np.pi**2)
    params = CurveParams(a=a, b1=solve_b1_zero_area(a), phi_target=np.pi)
    assert abs(area_functional(CurveGrid(params))) < 1e-11


def test_total_cost_rank_orders_presets():
    system = SystemConfig(n_qubits=3, delta=20.0, drive_choice="center")
    frame = dressing(system)
    cfg = OptimizerConfig()
    robust = total_cost(CurveGrid(preset_curve("xpi-3q-robust")), system, frame, cfg)
    plain = total_cost(CurveGrid(preset_curve("xpi-3q-nonrobust")), system, frame, cfg)
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


def test_optimize_on_one_refilled_grid_matches_fresh_grids(monkeypatch):
    # optimize refills its search and report grids for every evaluation;
    # evaluating each curve on a new grid of the same size instead must give
    # the same result bit for bit
    import geodesic_gates.optimizer as optimizer_module

    class FreshGrids(CurveGrid):
        def refill(self, params):
            return CurveGrid(params, len(self.chi))

    cfg = OptimizerConfig(starts=2, seed=7, max_iters=30)
    for setting in SETTINGS:
        system = SystemConfig(**SETTINGS[setting])
        refilled = optimize(np.pi, system, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer_module, "CurveGrid", FreshGrids)
            fresh = optimize(np.pi, system, cfg)
        assert repr(refilled) == repr(fresh), setting
        assert refilled.n_evaluations > 0


def _record_grids(patch, optimizer_module):
    """Per start, the (params, grid size) of each search evaluation, and the
    (params, grid size) of each cost `optimize` reports, one per start."""
    starts, reported = [[]], []
    total_cost, channel_costs_ = optimizer_module.total_cost, optimizer_module.channel_costs

    def recording_total_cost(grid, *args):
        starts[-1].append((grid.params, len(grid.chi)))
        return total_cost(grid, *args)

    def recording_channel_costs(grid, *args):
        reported.append((grid.params, len(grid.chi)))
        starts.append([])
        return channel_costs_(grid, *args)

    patch.setattr(optimizer_module, "total_cost", recording_total_cost)
    patch.setattr(optimizer_module, "channel_costs", recording_channel_costs)
    return starts, reported


def _search_resolves(params, n, frame):
    """Whether the n-node grid resolves the curve, by the rule `optimize` applies."""
    try:
        grid = CurveGrid(params, n)
    except GridResolutionError:
        return False
    step = abs(frame.delta_tilde / frame.design_beta) * grid.h * grid.tprime.max()
    return step <= SEARCH_PHASE_STEP


def test_optimize_searches_on_the_rule_grid_and_reports_on_the_default_grid(monkeypatch):
    # at Delta = 20 J every setting searches 2048 nodes from the preset row. A
    # start moves to the default grid for good at its first curve the search
    # grid does not resolve. At 200 J the rule returns the default grid and the
    # run equals one that searches it. Every reported cost is the one a new
    # default grid gives for the same point
    import geodesic_gates.optimizer as optimizer_module

    cfg = OptimizerConfig(starts=2, seed=7, max_iters=30)
    for delta, size in ((20.0, 2048), (200.0, CHI_GRID_POINTS)):
        for setting in SETTINGS:
            system = SystemConfig(**SETTINGS[setting], delta=delta)
            frame = dressing(system)
            assert search_grid_points(frame.delta_tilde, frame.design_beta) == size
            with monkeypatch.context() as patch:
                starts, reported = _record_grids(patch, optimizer_module)
                result = optimize(np.pi, system, cfg)
            starts = starts[:-1]
            assert sum(map(len, starts)) == result.n_evaluations
            assert {n for _, n in starts[0]} == {size}, (setting, delta)
            for evaluations in starts:
                sizes = [n for _, n in evaluations]
                k = sizes.index(CHI_GRID_POINTS) if CHI_GRID_POINTS in sizes else len(sizes)
                assert sizes == [size] * k + [CHI_GRID_POINTS] * (len(sizes) - k)
                if size < CHI_GRID_POINTS:
                    assert all(_search_resolves(p, size, frame) for p, _ in evaluations[:k])
                    assert k == len(sizes) or not _search_resolves(evaluations[k][0], size, frame)
            assert [n for _, n in reported] == [CHI_GRID_POINTS] * cfg.starts
            fresh = [cfg.channel_weights.cost(channel_costs(CurveGrid(p), system, frame))
                     for p, _ in reported]
            assert tuple(fresh) == result.start_costs
            assert result.cost == cfg.channel_weights.cost(
                channel_costs(CurveGrid(result.params), system, frame))
            if size == CHI_GRID_POINTS:
                with monkeypatch.context() as patch:
                    patch.setattr(optimizer_module, "search_grid_points",
                                  lambda *_: CHI_GRID_POINTS)
                    default = optimize(np.pi, system, cfg)
                assert repr(result) == repr(default), setting


def test_optimize_without_a_preset_row_matches_a_default_grid_search(monkeypatch):
    # pi/4 has no preset row, so every start is a draw from the +-300 box,
    # where most curves are too steep for the search grid: their crosstalk
    # phase aliases. Each start's cost must be the one a search on the
    # default grid reaches. Measured with 16 starts at pi/4 and 2pi, seeds 1-3:
    # every final cost within 2e-10 relative of the default-grid search
    # (284 of 288 starts bit-equal); searching those starts on 2048 nodes
    # instead made 13 of the 18 final costs worse, up to 262 times
    import geodesic_gates.optimizer as optimizer_module

    cfg = OptimizerConfig(starts=3, seed=1, max_iters=40)
    for setting in SETTINGS:
        system = SystemConfig(**SETTINGS[setting])
        result = optimize(np.pi / 4.0, system, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer_module, "search_grid_points", lambda *_: CHI_GRID_POINTS)
            default = optimize(np.pi / 4.0, system, cfg)
        for cost, reference in zip(result.start_costs, default.start_costs):
            assert abs(cost - reference) <= 1e-6 * reference, setting


def test_optimize_continues_past_a_start_the_search_grid_cannot_resolve(monkeypatch):
    # the chain's preset row with b2 = -2000 (b3 re-solved by optimize) has
    # theta jumps over pi/2 on 2048 nodes but not on the default grid: that
    # start searches on the default grid instead of ending the run
    import geodesic_gates.optimizer as optimizer_module

    system = SystemConfig(**SETTINGS["3q-chain"])
    frame = dressing(system)
    steep = replace(preset_curve("xpi-3q-robust"), b2=-2000.0)
    steep = replace(steep, b3=solve_b3_zero_area(steep.a, steep.b1, steep.b2))
    assert search_grid_points(frame.delta_tilde, frame.design_beta) == 2048
    with pytest.raises(GridResolutionError):
        CurveGrid(steep, 2048)
    CurveGrid(steep)
    cfg = OptimizerConfig(starts=1, max_iters=120)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer_module, "preset_curve", lambda key: steep)
        starts, _ = _record_grids(patch, optimizer_module)
        result = optimize(np.pi, system, cfg)
    assert starts[0][0] == (steep, CHI_GRID_POINTS)
    assert len(starts[0]) == result.n_evaluations
    assert result.converged
    assert result.cost == cfg.channel_weights.cost(
        channel_costs(CurveGrid(result.params), system, frame))
    assert abs(area_functional(CurveGrid(result.params))) < 1e-8
