"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.ensure_package()

SMALL = {
    "design": {"starts": 1, "max_iters": 3},
    "sweep-fast": {"grids": (("xpi-2q-robust", 3),), "singles": ("xpi-2q-robust",)},
    "validate-dense": {"grids": (("xpi-2q-robust", 3),)},
}


def _run(tmp_path, name, trace, seconds=0.0, refs=None):
    workload = workloads.build(name, seed=5, **SMALL[name])
    if refs:
        refs(workload.refs)
    return run.run_workload(workload, tmp_path / name, seconds, trace)


def _declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_are_declared(tmp_path, name):
    end_to_end, per_layer = _declared()
    for trace, declared in ((False, end_to_end), (True, per_layer)):
        runner = _run(tmp_path / str(trace), name, trace)
        summary = run.summarize(runner, [0.5])
        layers, unstable = run.layer_metrics(runner) if trace else (None, [])
        result = run.result_line(summary, layers, unstable)
        assert result["correct"], summary["findings"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _shift_point(refs):
    key, (i, j, value) = next(iter(refs["sweep_point"].items()))
    refs["sweep_point"][key] = (i, j, value + 1e-9)


def _raise_bar(refs):
    for key in refs["preset_start_cost"]:
        refs["preset_start_cost"][key] = 0.0


@pytest.mark.parametrize("name,corrupt", [("sweep-fast", _shift_point),
                                          ("validate-dense", _shift_point),
                                          ("design", _raise_bar)])
def test_wrong_reference_fails_check(tmp_path, name, corrupt):
    summary = run.summarize(_run(tmp_path, name, False, refs=corrupt), [0.5])
    assert summary["failed"] > 0
    assert summary["specific"]["error_rate"] == summary["failed"] / summary["attempted"] > 0
    assert summary["end_to_end"]["success_rate"] < 1.0
    assert not run.result_line(summary, None, [])["correct"]


def test_changed_artifact_fails_check(tmp_path):
    workload = workloads.build("sweep-fast", seed=5, **SMALL["sweep-fast"])
    runner = run.Runner(workload, tmp_path / "run")
    runner.run_pass()
    for digests in runner.first_digests.values():
        digests["simulate.json"] = "0" * 64
    second = runner.run_pass()
    assert any("artifacts differ" in msg for c in second.commands for msg in c.problems)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_artifacts_identical_with_tracing_on_and_off(tmp_path, name):
    runner = _run(tmp_path, name, True, seconds=3.0)
    traced = [p for p in runner.passes if p.traced]
    assert traced and len(traced) < len(runner.passes)
    problems = [msg for p in runner.passes for c in p.commands for msg in c.problems]
    assert problems == []
    _, unstable = run.layer_metrics(runner)
    assert unstable == []


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    from geodesic_gates import cli, linalg, simulate

    originals = (cli.main, simulate.simulate_gate, linalg.product_reduce)
    _run(tmp_path, "validate-dense", True)
    assert (cli.main, simulate.simulate_gate, linalg.product_reduce) == originals


def test_reduce_bytes_counts_every_pairwise_pass():
    # 3 matrices of 2x2: one pair (3 matrices moved) then a concat of 2, then one pair
    mat = 2 * 2 * 16
    assert tracing.reduce_bytes((3, 2, 2)) == 3 * mat + 2 * 2 * mat + 3 * mat
