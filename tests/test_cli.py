"""Command-line surface: files, formats, exit codes, reproducibility."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from geodesic_gates.cli import main, read_json, write_json


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_synth_preset_writes_waveform(tmp_path):
    assert run(tmp_path, "synth", "--preset", "xpi-2q-robust") == 0
    wave = (tmp_path / "waveform.csv").read_text().splitlines()
    assert wave[0] == "t,omega"
    first = wave[1].split(",")
    last = wave[-1].split(",")
    assert abs(float(first[1])) < 1e-8
    assert abs(float(last[1])) < 1e-8
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "chi,phi,theta"
    summary = read_json(tmp_path / "synth_summary.json")
    assert abs(summary["Phi"] - np.pi) < 1e-8
    assert summary["meta"]["config_sha256"]


def test_synth_zero_area_summary(tmp_path):
    assert run(tmp_path, "synth", "--preset", "xpi-3q-nonrobust") == 0
    summary = read_json(tmp_path / "synth_summary.json")
    assert abs(summary["C_target"]) < 1e-8


def test_synth_phi_mismatch_exits_2(tmp_path, capsys):
    # the preset fixes the gate angle, so synth has no --phi, matching or not
    for phi in ("1.5707963", "pi/2"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "synth", "--phi", phi, "--preset", "xhalfpi-2q-robust")
        assert exc.value.code == 2
        assert "unrecognized arguments: --phi" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_preset_exits_2(tmp_path):
    assert run(tmp_path, "synth", "--preset", "xpi-9q-robust") == 2


def test_missing_curve_exits_2(tmp_path):
    assert run(tmp_path, "cost") == 2


def test_synth_json_format(tmp_path):
    assert run(tmp_path, "synth", "--preset", "xpi-2q-robust", "--format", "json") == 0
    data = read_json(tmp_path / "waveform.json")
    assert data["columns"] == ["t", "omega"]
    assert not (tmp_path / "waveform.csv").exists()


def test_cost_ratio_robust_vs_nonrobust(tmp_path):
    from geodesic_gates.curves import CurveGrid
    from geodesic_gates.frames import dressing
    from geodesic_gates.magnus import (crosstalk_amplitudes, susceptibility_beta,
                                       susceptibility_beta0)
    from geodesic_gates.optimizer import preset_curve, preset_system

    assert run(tmp_path / "r", "cost", "--preset", "xpi-2q-robust") == 0
    assert run(tmp_path / "n", "cost", "--preset", "xpi-2q-nonrobust") == 0
    robust = read_json(tmp_path / "r" / "cost.json")["robust_cost"]
    plain = read_json(tmp_path / "n" / "cost.json")["robust_cost"]
    assert robust * 100.0 < plain
    # the susceptibility block is the library's integrals, exactly
    for key, name in (("xpi-2q-robust", "r"), ("xpi-2q-nonrobust", "n")):
        grid = CurveGrid(preset_curve(key))
        frame = dressing(preset_system(key))
        ct1, ct2 = crosstalk_amplitudes(grid, frame.delta_tilde, frame.design_beta)
        expected = dict(zip(("ax", "ay", "az"), susceptibility_beta(grid)))
        expected.update(zip(("ay0", "az0"), susceptibility_beta0(grid)))
        expected.update(ct1=[ct1.real, ct1.imag], ct2=[ct2.real, ct2.imag])
        assert read_json(tmp_path / name / "cost.json")["susceptibility"] == expected


def test_simulate_command(tmp_path):
    assert run(tmp_path, "simulate", "--preset", "xpi-2q-robust",
               "--crosstalk", "off") == 0
    result = read_json(tmp_path / "simulate.json")
    assert result["infidelity"] < 1e-7
    assert result["model"] == "reduced"


def test_sweep_row_count_and_summary(tmp_path):
    assert run(tmp_path, "sweep", "--preset", "xpi-2q-robust", "--grid", "41",
               "--crosstalk", "off") == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "domega,dj,infidelity"
    assert len(lines) == 1 + 41 * 41
    summary = read_json(tmp_path / "sweep_summary.json")
    assert summary["grid"] == 41
    assert "domega" in summary["slopes"]


def test_sweep_small_grid_values(tmp_path):
    assert run(tmp_path, "sweep", "--preset", "xpi-2q-nonrobust", "--grid", "5",
               "--range", "0.05", "--crosstalk", "off") == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 26


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_table_is_the_grid_row_major(tmp_path, fmt):
    # one row per grid point, domega the outer index, values exactly
    # noise_sweep's; this grid is not symmetric under dw <-> dJ, so a
    # transposed table fails
    from geodesic_gates.curves import synthesize_waveform
    from geodesic_gates.frames import dressing
    from geodesic_gates.optimizer import preset_curve, preset_system
    from geodesic_gates.simulate import noise_sweep

    key = "xpi-3q-robust"
    assert run(tmp_path, "sweep", "--preset", key, "--grid", "3", "--range", "0.05",
               "--crosstalk", "off", "--format", fmt) == 0
    system = preset_system(key)
    frame = dressing(system)
    wave = synthesize_waveform(preset_curve(key), frame.design_beta, n_samples=8192)
    axis = np.linspace(-0.05, 0.05, 3)
    infid = noise_sweep(system, frame, wave, axis, axis, crosstalk_on=False)
    assert np.max(np.abs(infid - infid.T)) > 1e-3
    expected = [[float(dw), float(dj), float(infid[i, j])]
                for i, dw in enumerate(axis) for j, dj in enumerate(axis)]
    if fmt == "json":
        table = read_json(tmp_path / "sweep.json")
        assert table["columns"] == ["domega", "dj", "infidelity"]
        assert table["rows"] == expected
    else:
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "domega,dj,infidelity"
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == expected


def test_sweep_empty_grid_writes_nothing(tmp_path):
    # argparse refuses the count before the command computes anything
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sweep", "--preset", "xpi-2q-robust", "--grid", "0",
            "--crosstalk", "off")
    assert exc.value.code == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("grid", [1, 12, 203])
def test_sweep_grid_without_zero_noise_centre_exits_2(tmp_path, capsys, grid):
    # the summary reads the floor and the slopes on the centre row and column,
    # which are zero noise only on an odd axis of 3 or more points; the flag
    # and the run-config key are refused alike
    argv = ["sweep", "--preset", "xpi-2q-nonrobust", "--crosstalk", "off"]
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "flag", *argv, "--grid", str(grid))
    assert exc.value.code == 2
    write_json(tmp_path / "run.json", {"sweep": {"grid": grid}})
    assert main([*argv, "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "file")]) == 2
    err = capsys.readouterr().err
    assert err.count("argument --grid: expected an odd count from 3 to 201") == 2
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


def test_optimize_deterministic_artifacts(tmp_path):
    args = ("optimize", "--setting", "2q-midpoint", "--phi", "pi",
            "--seed", "42", "--starts", "2", "--max-iters", "400")
    assert run(tmp_path / "a", *args) == 0
    assert run(tmp_path / "b", *args) == 0
    first = (tmp_path / "a" / "optimize_result.json").read_bytes()
    second = (tmp_path / "b" / "optimize_result.json").read_bytes()
    assert first == second


@pytest.mark.parametrize("setting", ["2q-midpoint", "3q-chain"])
def test_cost_of_optimized_params_equals_optimizer_cost(tmp_path, setting):
    # `cost --params` on optimize's own result reports the optimizer's cost
    # bit for bit: the same function on the same parameters after a JSON
    # round trip, which the benchmark's design workload checks with ==
    code = run(tmp_path / "opt", "optimize", "--setting", setting, "--phi", "pi",
               "--seed", "3", "--starts", "2", "--max-iters", "40")
    assert code in (0, 3)
    result = read_json(tmp_path / "opt" / "optimize_result.json")
    write_json(tmp_path / "params.json", result["params"])
    assert run(tmp_path / "cost", "cost", "--params", str(tmp_path / "params.json"),
               "--setting", setting) == 0
    assert read_json(tmp_path / "cost" / "cost.json")["robust_cost"] == result["cost"]


def test_cost_reads_the_run_config_channel_weights(tmp_path):
    # under one run config, `cost --params` on optimize's result reports the
    # optimizer's cost with unequal channel weights too, and its hash covers
    # the weights
    write_json(tmp_path / "run.json", {"optimizer": {
        "channel_weights": {"freq": 0.5, "coupling": 2, "crosstalk": 3}}})
    config = ["--config", str(tmp_path / "run.json")]
    assert run(tmp_path / "opt", "optimize", "--setting", "2q-midpoint", "--phi", "pi",
               "--seed", "7", "--starts", "1", "--max-iters", "40", *config) in (0, 3)
    result = read_json(tmp_path / "opt" / "optimize_result.json")
    write_json(tmp_path / "params.json", result["params"])
    argv = ["cost", "--params", str(tmp_path / "params.json"), "--setting", "2q-midpoint"]
    assert run(tmp_path / "cost", *argv, *config) == 0
    weighted = read_json(tmp_path / "cost" / "cost.json")
    assert weighted["robust_cost"] == result["cost"]
    assert weighted["weights"] == {"freq": 0.5, "coupling": 2.0, "crosstalk": 3.0}
    assert run(tmp_path / "default", *argv) == 0
    default = read_json(tmp_path / "default" / "cost.json")
    assert default["channels"] == weighted["channels"]
    assert default["robust_cost"] != weighted["robust_cost"]
    assert default["meta"]["config_sha256"] != weighted["meta"]["config_sha256"]


@pytest.mark.parametrize("value", ["zz", "nan"])
def test_bad_phi_names_the_accepted_forms(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "out", "optimize", "--setting", "2q-midpoint", "--phi", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --phi: expected pi, pi/2, pi/4, 2pi or a finite float" in err
    assert "parse_phi" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--starts", "0"), ("--starts", "-3"),
                                         ("--max-iters", "-2")])
def test_optimize_count_below_one_exits_2(tmp_path, capsys, flag, value):
    argv = ["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--starts", "1",
            "--max-iters", "5"]
    assert run(tmp_path, *argv, flag, value) == 2
    assert "at least 1" in capsys.readouterr().err


def test_optimize_nonconvergence_exit_3(tmp_path):
    code = run(tmp_path, "optimize", "--setting", "3q-chain", "--phi", "pi",
               "--seed", "1", "--starts", "1", "--max-iters", "1")
    assert code == 3


def test_delta_zero_exits_2(tmp_path, capsys):
    assert run(tmp_path, "cost", "--preset", "xpi-2q-robust", "--delta", "0") == 2
    assert "delta must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "cost.json").exists()


def test_chain_with_zero_g1_exits_2(tmp_path, capsys):
    # the chain's dressing divides by g1; the 2q dressing has no such term
    for system, key, code in (({"n_qubits": 3, "g1": 0.0, "drive_choice": "center"},
                               "xpi-3q-robust", 2),
                              ({"n_qubits": 2, "g1": 0.0}, "xpi-2q-robust", 0)):
        write_json(tmp_path / "run.json", {"system": system})
        for command in (["cost"], ["simulate", "--crosstalk", "off"]):
            out = tmp_path / f"{key}-{command[0]}"
            assert main([*command, "--preset", key, "--config", str(tmp_path / "run.json"),
                         "--out", str(out)]) == code
            assert out.exists() == (code == 0)
            if code:
                assert "nonzero g1" in capsys.readouterr().err


def test_unresolvable_curve_exits_4(tmp_path, capsys):
    # b1 = 1e6 makes theta jump by more than pi/2 between grid points: a
    # numerical failure, not an invalid configuration
    params = tmp_path / "p.json"
    write_json(params, {"a": -1.0 / (32.0 * np.pi**2), "b1": 1e6, "phi_target": np.pi})
    code = run(tmp_path, "synth", "--params", str(params), "--setting", "2q-midpoint")
    assert code == 4
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "3", "--crosstalk", "off"]])
def test_resonant_block_commands_build_one_grid(tmp_path, monkeypatch, command):
    # the area check and the waveform read the same grid
    from geodesic_gates.curves import CurveGrid

    built = []
    init = CurveGrid.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurveGrid, "__init__", counting_init)
    assert run(tmp_path, *command, "--preset", "xpi-3q-robust") == 0
    assert len(built) == 1


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "3"]])
def test_unresolvable_curve_on_resonant_block_exits_4(tmp_path, capsys, command):
    # the grid fails before the area check could call the curve invalid
    params = tmp_path / "p.json"
    write_json(params, {"a": -1.0 / (32.0 * np.pi**2), "b1": 1e6, "phi_target": np.pi})
    code = run(tmp_path / "out", *command, "--params", str(params), "--setting", "2q-resonant",
               "--crosstalk", "off")
    assert code == 4
    assert "numerical failure:" in capsys.readouterr().err


def test_audit_exit_zero(tmp_path, capsys):
    assert run(tmp_path, "audit") == 0
    out = capsys.readouterr().out
    assert "finding:" in out
    report = read_json(tmp_path / "audit.json")
    assert "xpi-3q-nonrobust" in report["rows"]
    assert abs(abs(report["rows"]["xpi-3q-nonrobust"]["b1_zero_area_oracle"]) - 5.71915) < 1e-3


def test_json_round_trip_byte_identical(tmp_path):
    run(tmp_path, "cost", "--preset", "xpi-2q-robust")
    path = tmp_path / "cost.json"
    original = path.read_bytes()
    write_json(path, read_json(path))
    assert path.read_bytes() == original


def test_csv_round_trip_byte_identical(tmp_path):
    run(tmp_path, "synth", "--preset", "xpi-2q-nonrobust", "--n-samples", "512")
    path = tmp_path / "waveform.csv"
    original = path.read_text()
    lines = original.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(repr(float(v)) for v in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == original


def _child_env() -> dict:
    """The environment of a child interpreter that finds the package where this
    process imported it from."""
    import geodesic_gates

    src = str(Path(geodesic_gates.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "geodesic_gates.cli", "--version"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0


def test_cli_import_loads_no_scipy():
    # every command is its own process; only `optimize` needs scipy, and
    # imports it when it runs
    code = ("import sys, geodesic_gates.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("threads", ["0", "-3", "zebra"])
def test_sweep_refuses_a_thread_count_below_one(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "out", "sweep", "--preset", "xpi-2q-robust", "--grid", "3",
            "--n-samples", "256", "--threads", threads)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", ["reduced", "lab"])
def test_sweep_artifacts_do_not_depend_on_threads(tmp_path, monkeypatch, model):
    from geodesic_gates import cli

    pools = []

    def spy(*args):
        pools.append(args[-1])
        return threaded_sweep(*args)

    threaded_sweep = cli._threaded_sweep
    monkeypatch.setattr(cli, "_threaded_sweep", spy)
    # the 2q and 3q presets step on real 8x8 and 16x16 stacks
    presets = ("xpi-2q-robust", "xpi-3q-robust")
    for preset in presets:
        argv = ["sweep", "--preset", preset, "--grid", "3", "--n-samples", "256",
                "--crosstalk", "on", "--model", model]
        for threads in ("1", "2"):
            assert run(tmp_path / preset / threads, *argv, "--threads", threads) == 0
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (tmp_path / preset / "1" / name).read_bytes() \
                == (tmp_path / preset / "2" / name).read_bytes()
    assert pools == [1, 2] * len(presets)


def test_sweep_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # each worker holds a dense workspace, so --threads above the CPU count
    # starts no more workers; a 3x3 grid starts at most 9 even without the cap
    from concurrent.futures import ThreadPoolExecutor

    from geodesic_gates import cli

    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
    assert run(tmp_path, "sweep", "--preset", "xpi-2q-robust", "--grid", "3",
               "--n-samples", "256", "--crosstalk", "on", "--threads", "64") == 0
    assert sizes == [min(64, os.cpu_count() or 1)]


def test_run_config_file_sections(tmp_path):
    config = {
        "system": {"n_qubits": 3, "delta": 20.0, "g1": 1.0, "g2": 1.0,
                   "drive_choice": "center"},
        "gate": {"preset": "xpi-3q-nonrobust"},
    }
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, config)
    assert main(["cost", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "cost.json")
    assert payload["preset"] == "xpi-3q-nonrobust"
    assert abs(payload["area_C_target"]) < 1e-8


def test_run_config_flag_overrides_file(tmp_path):
    config = {"gate": {"preset": "xpi-2q-robust"}}
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, config)
    assert main(["cost", "--config", str(cfg_path), "--preset", "xpi-2q-nonrobust",
                 "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "cost.json")["preset"] == "xpi-2q-nonrobust"


def test_later_curve_flag_wins(tmp_path):
    # --preset and --params name one curve, and the later of them in argv
    # wins; the run config's gate.preset comes ahead of argv's own flags
    from dataclasses import asdict

    from geodesic_gates.optimizer import preset_curve

    params = str(tmp_path / "p.json")
    write_json(Path(params), asdict(preset_curve("xpi-2q-nonrobust")))
    write_json(tmp_path / "run.json", {"gate": {"preset": "xpi-2q-robust"}})
    runs = {"file-params": ["--config", str(tmp_path / "run.json"), "--params", params],
            "params": ["--params", params],
            "preset-params": ["--preset", "xpi-2q-robust", "--params", params],
            "params-preset": ["--params", params, "--preset", "xpi-2q-robust"],
            "preset": ["--preset", "xpi-2q-robust"]}
    for name, argv in runs.items():
        assert run(tmp_path / name, "cost", *argv, "--setting", "2q-midpoint") == 0
    cost = {name: (tmp_path / name / "cost.json").read_bytes() for name in runs}
    assert cost["file-params"] == cost["params"] == cost["preset-params"]
    assert cost["params-preset"] == cost["preset"] != cost["params"]


def test_run_config_loses_to_flag_equal_to_default(tmp_path):
    # --grid 41 is the parser default, and given explicitly it still wins
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, {"sweep": {"grid": 5}})
    argv = ["sweep", "--preset", "xpi-2q-robust", "--crosstalk", "off", "--n-samples", "1024",
            "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "file")]) == 0
    assert read_json(tmp_path / "file" / "sweep_summary.json")["grid"] == 5
    assert main([*argv, "--grid", "41", "--out", str(tmp_path / "flag")]) == 0
    assert read_json(tmp_path / "flag" / "sweep_summary.json")["grid"] == 41


@pytest.mark.parametrize("config, argv", [
    ({"optimizer": {"bogus": 1}}, ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"optimizer": {"channel_weights": {"bogus": 1.0}}},
     ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"optimizer": {"channel_weights": {"freq": -1.0}}},
     ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"system": {"n_qubits": 2, "delta": "x"}}, ["cost", "--preset", "xpi-2q-robust"]),
    ({"sweep": 5}, ["cost", "--preset", "xpi-2q-robust"]),
    ({"sweep": {"grid": "x"}}, ["sweep", "--preset", "xpi-2q-robust", "--crosstalk", "off"]),
    ({"optimizer": {"starts": "x"}}, ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"sweep": {"crosstalk": "maybe"}}, ["sweep", "--preset", "xpi-2q-robust", "--grid", "3"]),
    ({"output": {"format": "xml"}}, ["synth", "--preset", "xpi-2q-robust"]),
    ({"optimizer": {"starts": 0}}, ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"optimizer": {"w1": 0.0}}, ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"optimizer": {"w2": 1.0}}, ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"optimizer": {"free_params": ["b2"]}},
     ["optimize", "--setting", "2q-midpoint", "--phi", "pi"]),
    ({"gate": {"setting": "2q-midpoint"}}, ["optimize"]),
], ids=["optimizer-key", "channel-weights-key", "channel-weights-negative", "system-delta", "section-not-object",
        "sweep-grid-type", "optimizer-starts-type", "sweep-crosstalk-choice",
        "output-format-choice", "optimizer-starts-zero", "optimizer-w1", "optimizer-w2",
        "optimizer-free-params", "optimize-no-angle"])
def test_bad_run_config_value_exits_2(tmp_path, capsys, config, argv):
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, config)
    assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("preset, flags", [
    ("xpi-2q-robust", ["--delta", "40"]),
    ("xpi-3q-robust", ["--setting", "3q-chain"]),
], ids=["delta", "setting"])
def test_run_config_system_section_loses_to_flags(tmp_path, preset, flags):
    # the file's system section is 2q at Delta = 20 J; a given flag replaces
    # its delta, or its n_qubits and drive_choice
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, {"system": {"n_qubits": 2, "delta": 20.0}})
    argv = ["cost", "--preset", preset, *flags]
    assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
    assert main([*argv, "--out", str(tmp_path / "flags")]) == 0
    with_file = read_json(tmp_path / "file" / "cost.json")
    flags_only = read_json(tmp_path / "flags" / "cost.json")
    assert with_file["channels"] == flags_only["channels"]
    assert with_file["robust_cost"] == flags_only["robust_cost"]


def test_optimize_reads_optimizer_section(tmp_path):
    config = {"optimizer": {"starts": 1, "seed": 5, "max_iters": 5,
                            "channel_weights": {"freq": 0.0, "coupling": 0.0,
                                                "crosstalk": 0.0}}}
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, config)
    code = main(["optimize", "--setting", "2q-midpoint", "--phi", "pi",
                 "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    payload = read_json(tmp_path / "optimize_result.json")
    assert "seed" not in payload
    assert payload["meta"]["seed"] == payload["optimizer_config"]["seed"] == 5
    assert payload["optimizer_config"]["starts"] == 1
    # without --seed or a section, the summary records the default seed that ran;
    # one residual evaluation stops short of convergence (exit 3), and the
    # summary is written
    assert run(tmp_path / "default", "optimize", "--setting", "2q-midpoint", "--phi", "pi",
               "--starts", "1", "--max-iters", "1") == 3
    payload = read_json(tmp_path / "default" / "optimize_result.json")
    assert payload["meta"]["seed"] == payload["optimizer_config"]["seed"] == 42


def test_config_hash_ignores_input_file_names(tmp_path):
    # the same params and run config saved under two names hash identically
    params = {"a": -1.0 / (32.0 * np.pi**2), "b1": 5.86744, "c": -5.46421,
              "phi_target": np.pi}
    config = {"system": {"n_qubits": 2, "delta": 20.0}}
    hashes = set()
    for name in ("first", "second"):
        write_json(tmp_path / f"{name}_params.json", params)
        write_json(tmp_path / f"{name}_run.json", config)
        assert main(["cost", "--params", str(tmp_path / f"{name}_params.json"),
                     "--config", str(tmp_path / f"{name}_run.json"),
                     "--out", str(tmp_path / name)]) == 0
        hashes.add(read_json(tmp_path / name / "cost.json")["meta"]["config_sha256"])
    assert len(hashes) == 1


@pytest.mark.parametrize("argv", [
    ["synth", "--preset", "xpi-2q-robust", "--seed", "3"],
    ["cost", "--preset", "xpi-2q-robust", "--seed", "3"],
    ["simulate", "--preset", "xpi-2q-robust", "--crosstalk", "off", "--seed", "3"],
    ["sweep", "--preset", "xpi-2q-robust", "--grid", "3", "--crosstalk", "off", "--seed", "3"],
    ["audit", "--seed", "3"],
    ["cost", "--preset", "xpi-2q-robust", "--format", "json"],
    ["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--starts", "1", "--max-iters", "5",
     "--format", "json"],
    ["simulate", "--preset", "xpi-2q-robust", "--crosstalk", "off", "--format", "json"],
    ["audit", "--format", "json"],
    ["synth", "--preset", "xpi-2q-robust", "--threads", "2"],
    ["cost", "--preset", "xpi-2q-robust", "--threads", "2"],
    ["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--starts", "1", "--max-iters", "5",
     "--threads", "2"],
    ["simulate", "--preset", "xpi-2q-robust", "--crosstalk", "off", "--threads", "2"],
    ["audit", "--threads", "2"],
    ["cost", "--preset", "xpi-2q-robust", "--n-samples", "300"],
    ["audit", "--delta", "30"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_exits_2(tmp_path, argv):
    # each command declares only the flags it reads
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_config_hash_covers_resolved_system(tmp_path):
    # one system, given by preset default, by flags, or by a system section
    # that spells out a default or omits it, in integers or floats, gives one hash
    write_json(tmp_path / "short.json", {"system": {"n_qubits": 2, "delta": 20.0}})
    write_json(tmp_path / "long.json",
               {"system": {"n_qubits": 2, "delta": 20.0, "drive_choice": "midpoint"}})
    write_json(tmp_path / "int.json",
               {"system": {"n_qubits": 2, "delta": 20, "g1": 1, "g2": 1}})
    hashes = set()
    for name, flags in (("preset", []), ("flags", ["--setting", "2q-midpoint", "--delta", "20"]),
                        ("short", ["--config", str(tmp_path / "short.json")]),
                        ("long", ["--config", str(tmp_path / "long.json")]),
                        ("int", ["--config", str(tmp_path / "int.json")])):
        assert run(tmp_path / name, "cost", "--preset", "xpi-2q-robust", *flags) == 0
        hashes.add(read_json(tmp_path / name / "cost.json")["meta"]["config_sha256"])
    assert len(hashes) == 1


def test_optimize_hash_ignores_spelling(tmp_path):
    # the default seed given or left out, counts from the optimizer section,
    # pi written out, and the angle and setting from the gate section: one
    # run, so one hash
    counts = {"optimizer": {"starts": 1, "max_iters": 2}}
    write_json(tmp_path / "counts.json", counts)
    write_json(tmp_path / "gate.json", {"gate": {"phi": "pi", "setting": "2q-midpoint"}, **counts})
    base = ["optimize", "--setting", "2q-midpoint"]
    flags = ["--starts", "1", "--max-iters", "2"]
    spellings = {
        "plain": [*base, "--phi", "pi", *flags],
        "seed": [*base, "--phi", "pi", *flags, "--seed", "42"],
        "section": [*base, "--phi", "pi", "--config", str(tmp_path / "counts.json")],
        "float": [*base, "--phi", "3.141592653589793", *flags],
        "gate": ["optimize", "--config", str(tmp_path / "gate.json")],
    }
    hashes, costs = set(), set()
    for name, argv in spellings.items():
        assert run(tmp_path / name, *argv) in (0, 3)
        payload = read_json(tmp_path / name / "optimize_result.json")
        hashes.add(payload["meta"]["config_sha256"])
        costs.add(payload["cost"])
    assert len(costs) == 1
    assert len(hashes) == 1


@pytest.mark.parametrize("argv, out", [
    (["synth", "--preset", "xpi-2q-robust"], "afile"),
    (["cost", "--preset", "xpi-2q-robust"], "afile/sub"),
    (["sweep", "--preset", "xpi-2q-robust", "--grid", "3", "--crosstalk", "off"], "afile"),
], ids=["synth-file", "cost-under-file", "sweep-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv, out):
    from geodesic_gates import cli

    def no_work(args):
        raise AssertionError("the command began its work")

    monkeypatch.setattr(cli, "_curve_from_args", no_work)
    (tmp_path / "afile").write_text("")
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and str(tmp_path / "afile") in err
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("command", [
    ["synth"], ["cost"], ["simulate", "--crosstalk", "off"],
    ["sweep", "--grid", "3", "--crosstalk", "off"],
], ids=lambda command: command[0])
def test_params_phi_mismatch_exits_2(tmp_path, capsys, command):
    # the params file's phi_target is the gate angle, so a curve command has
    # no --phi: one that disagrees with the file, or repeats it, exits 2
    params = tmp_path / "p.json"
    write_json(params, {"a": -1.0 / (32.0 * np.pi**2), "b1": 5.86744, "c": -5.46421,
                        "phi_target": np.pi})
    argv = [*command, "--params", str(params), "--setting", "2q-midpoint"]
    for phi in ("pi/2", "pi"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "out", *argv, "--phi", phi)
        assert exc.value.code == 2
        assert "unrecognized arguments: --phi" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["synth"], ["simulate", "--crosstalk", "off"]],
                         ids=lambda command: command[0])
def test_params_a_of_another_angle_exits_2(tmp_path, capsys, command):
    # the a of a pi/2 gate with phi_target pi: both angles are named
    params = tmp_path / "p.json"
    write_json(params, {"a": -1.0 / (64.0 * np.pi**2), "phi_target": np.pi})
    assert run(tmp_path / "out", *command, "--params", str(params),
               "--setting", "2q-midpoint") == 2
    err = capsys.readouterr().err
    assert "bad params file" in err and "1.5707963" in err and "3.14159" in err
    assert not (tmp_path / "out").exists()


_OPTIMIZE_CONFIG = ["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--config"]


@pytest.mark.parametrize("argv, content, key", [
    (["simulate", "--preset", "xpi-2q-robust", "--model", "lab", "--config"],
     {"system": {"n_qubits": 2, "omega_ref": 500}}, "omega_ref"),
    (["cost", "--setting", "2q-midpoint", "--params"],
     {"a": -1.0 / (32.0 * np.pi**2), "chi_max": 4.0 * np.pi, "phi_target": np.pi}, "chi_max"),
    (_OPTIMIZE_CONFIG, {"optimizer": {"tol": 1e-12}}, "tol"),
    (_OPTIMIZE_CONFIG, {"optimizer": {"box_halfwidth": 300.0}}, "box_halfwidth"),
    (_OPTIMIZE_CONFIG, {"optimizer": {"include_preset_start": True}}, "include_preset_start"),
], ids=["system-omega-ref", "params-chi-max", "optimizer-tol", "optimizer-box-halfwidth",
        "optimizer-include-preset-start"])
def test_removed_input_exits_2(tmp_path, capsys, argv, content, key):
    # only frequency differences matter, chi always spans [0, 4 pi], and the
    # optimizer's tolerance, start box and preset start are fixed
    write_json(tmp_path / "input.json", content)
    assert run(tmp_path / "out", *argv, str(tmp_path / "input.json")) == 2
    assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_audit_names_unnulled_robust_rows():
    # the 2q robust rows null |A_beta| (5.9e-4, 2.7e-6); the printed chain rows do not
    from geodesic_gates.cli import audit_report
    from geodesic_gates.optimizer import presets

    findings = audit_report()["findings"]
    named = {key for key in presets() if any(f"row {key} " in line for line in findings)}
    assert named == {"xpi-3q-robust", "xhalfpi-3q-robust"}


def test_readme_flag_table_matches_parser():
    import argparse

    from geodesic_gates.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        command, flags = line.strip("|").split("|")
        rows[command.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)", flags))
    common = rows.pop("all")
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(rows) == set(sub.choices)
    for command, parser in sub.choices.items():
        declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert declared == common | rows[command], command


def test_readme_run_config_example(tmp_path):
    from geodesic_gates.frames import SystemConfig
    from geodesic_gates.optimizer import OptimizerConfig

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    config = json.loads(block)
    SystemConfig(**config["system"])
    OptimizerConfig.from_dict(config["optimizer"])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(block)
    assert main(["cost", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("kind", ["optimizer", "params"])
def test_config_hash_ignores_integer_spelling(tmp_path, kind):
    # a whole-number real spelled 5 or 5.0 gives one record, so one hash
    hashes = set()
    for name, number in (("int", 0), ("float", 0.0)):
        if kind == "optimizer":
            write_json(tmp_path / "run.json", {"optimizer": {
                "channel_weights": {"freq": 1 + number}}})
            argv = ["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--starts", "1",
                    "--max-iters", "5", "--config", str(tmp_path / "run.json")]
            summary = "optimize_result.json"
        else:
            write_json(tmp_path / "p.json", {"a": -1.0 / (32.0 * np.pi**2), "b1": 5.86744,
                                             "c": 5 + number, "phi_target": np.pi})
            argv = ["cost", "--params", str(tmp_path / "p.json"), "--setting", "2q-midpoint"]
            summary = "cost.json"
        assert run(tmp_path / name, *argv) in (0, 3)
        hashes.add(read_json(tmp_path / name / summary)["meta"]["config_sha256"])
    assert len(hashes) == 1


@pytest.mark.parametrize("argv, files", [
    (["simulate", "--preset", "xpi-2q-robust", "--domega", "nan", "--crosstalk", "off"], {}),
    (["simulate", "--preset", "xpi-2q-robust", "--domega", "nan", "--crosstalk", "on"], {}),
    (["simulate", "--preset", "xpi-2q-robust", "--dj", "inf", "--crosstalk", "off"], {}),
    (["sweep", "--preset", "xpi-2q-robust", "--range", "nan", "--grid", "3",
      "--crosstalk", "off"], {}),
    (["synth", "--preset", "xpi-2q-robust", "--delta", "inf"], {}),
    (["optimize", "--setting", "2q-midpoint", "--phi", "nan"], {}),
    (["cost", "--preset", "xpi-2q-robust", "--config", "run.json"],
     {"run.json": {"system": {"n_qubits": 2, "g1": float("nan")}}}),
    (["sweep", "--preset", "xpi-2q-robust", "--grid", "3", "--crosstalk", "off",
      "--config", "run.json"], {"run.json": {"sweep": {"range": float("nan")}}}),
    (["cost", "--setting", "2q-midpoint", "--params", "p.json"],
     {"p.json": {"a": -1.0 / (32.0 * np.pi**2), "c": float("inf")}}),
], ids=["domega-off", "domega-on", "dj", "range", "delta", "phi", "system-g1",
        "sweep-range", "params-c"])
def test_non_finite_input_exits_2(tmp_path, capsys, argv, files):
    for name, content in files.items():
        write_json(tmp_path / name, content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    try:
        code = run(tmp_path / "out", *argv)
    except SystemExit as exc:  # argparse refuses a flag's value itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "xpi-2q-robust"],
    ["sweep", "--preset", "xpi-2q-robust", "--grid", "3", "--n-samples", "256"],
], ids=["simulate", "sweep"])
def test_lab_model_without_crosstalk_exits_2(tmp_path, capsys, argv):
    # the lab Hamiltonian always contains the control crosstalk V_cr
    assert run(tmp_path / "out", *argv, "--model", "lab", "--crosstalk", "off") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_sweep_range_exits_2_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(tmp_path, "sweep", "--preset", "xpi-2q-robust", "--grid", "3",
                   "--crosstalk", "off", "--range", "inf")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_linalg_failure_exits_4(tmp_path, capsys, monkeypatch):
    from geodesic_gates import simulate

    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(simulate, "expm_batch", fail)
    assert run(tmp_path, "simulate", "--preset", "xpi-2q-robust", "--crosstalk", "on") == 4
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "3"]])
def test_area_enclosing_curve_on_resonant_block_exits_2(tmp_path, capsys, command):
    # the 2q resonant_lower drive has a beta = 0 block; this curve encloses area
    argv = ["--preset", "xhalfpi-2q-robust", "--setting", "2q-resonant", "--crosstalk", "off"]
    assert run(tmp_path, *command, *argv) == 2
    assert "C_target = 3.42" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert run(tmp_path, "cost", *argv[:4]) == 0


def test_every_preset_passes_its_own_area_check():
    from geodesic_gates.cli import _gate_from_args, build_parser
    from geodesic_gates.curves import CurveGrid, area_functional
    from geodesic_gates.optimizer import PRESET_KEYS, preset_curve, preset_system

    for key in PRESET_KEYS:
        args = build_parser().parse_args(["simulate", "--preset", key])
        args._run_config = {}
        _gate_from_args(args)
        if preset_system(key).n_qubits == 3:
            assert abs(area_functional(CurveGrid(preset_curve(key)))) <= 1e-12, key


@pytest.mark.parametrize("argv, config, flags", [
    (["sweep", "--preset", "xpi-2q-robust", "--n-samples", "1024"],
     {"sweep": {"grid": 5, "range": 0.05, "crosstalk": "off"}, "output": {"format": "json"}},
     ["--grid", "5", "--range", "0.05", "--crosstalk", "off", "--format", "json"]),
    (["cost"], {"gate": {"preset": "xhalfpi-3q-robust", "phi": "pi/2"}},
     ["--preset", "xhalfpi-3q-robust"]),
    (["cost", "--preset", "xpi-2q-robust"], {"gate": {"setting": "2q-resonant"}},
     ["--setting", "2q-resonant"]),
], ids=["sweep-output", "gate-preset-phi", "gate-setting"])
def test_run_config_value_acts_like_its_flag(tmp_path, argv, config, flags):
    # the file's output.dir stands for --out; gate.phi reaches only optimize
    config = {**config, "output": {**config.get("output", {}), "dir": str(tmp_path / "file")}}
    write_json(tmp_path / "run.json", config)
    assert main([*argv, "--config", str(tmp_path / "run.json")]) == 0
    assert main([*argv, *flags, "--out", str(tmp_path / "flags")]) == 0
    names = sorted(path.name for path in (tmp_path / "file").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "flags").iterdir())
    for name in names:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_sweep_range_from_config_or_flag_exits_2(tmp_path, capsys, source):
    # the run config's -0.05 becomes the token --range=-0.05, whose `=` keeps
    # it a value: both reach the range check rather than argparse
    argv = ["sweep", "--preset", "xpi-2q-robust", "--grid", "3", "--crosstalk", "off"]
    if source == "config":
        write_json(tmp_path / "run.json", {"sweep": {"range": -0.05}})
        argv += ["--config", str(tmp_path / "run.json")]
    else:
        argv += ["--range=-0.05"]
    assert run(tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --range must be in (0, 0.5] (units of J), got -0.05"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-0.0", "0.6", "nan", "-inf"])
def test_sweep_range_outside_zero_to_half_exits_2(tmp_path, capsys, value):
    # a zero range would write n*n identical zero-noise rows as a grid, and a
    # negative one a descending grid
    assert run(tmp_path / "out", "sweep", "--preset", "xpi-2q-robust", "--grid", "3",
               "--crosstalk", "off", f"--range={value}") == 2
    assert "--range must be in (0, 0.5]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    {"gate": {"pre": "xhalfpi-2q-robust"}},
    {"gate": {"delta": 40.0}},
    {"sweep": {"n-samples": 1024}},
    {"output": {"out": "elsewhere"}},
], ids=["flag-prefix", "system-flag", "unlisted-flag", "flag-spelling"])
def test_unlisted_run_config_key_is_dropped(tmp_path, extra):
    # only the documented gate/sweep/output keys stand for flags: a prefix of
    # one, or the name of another flag, changes nothing
    config = {section: dict(keys) for section, keys in extra.items()}
    config.setdefault("gate", {})["preset"] = "xpi-2q-robust"
    config.setdefault("output", {})["dir"] = str(tmp_path / "file")
    if "out" in config["output"]:
        config["output"]["out"] = str(tmp_path / "elsewhere")
    write_json(tmp_path / "run.json", config)
    assert main(["synth", "--config", str(tmp_path / "run.json")]) == 0
    assert run(tmp_path / "flags", "synth", "--preset", "xpi-2q-robust") == 0
    names = sorted(path.name for path in (tmp_path / "file").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "flags").iterdir())
    for name in names:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    assert not (tmp_path / "elsewhere").exists()


def test_bad_run_config_value_names_the_file(tmp_path, capsys):
    # argparse reports the value under its flag's name; one more line names the file
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, {"sweep": {"grid": "x"}})
    assert run(tmp_path, "sweep", "--preset", "xpi-2q-robust", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and f"run config {cfg_path}" in err


@pytest.mark.parametrize("argv, files", [
    (["cost", "--preset", "xpi-2q-robust", "--config", "run.json"],
     {"run.json": {"system": {"n_qubits": 2, "delta": True}}}),
    (["cost", "--setting", "2q-midpoint", "--params", "p.json"],
     {"p.json": {"a": -1.0 / (32.0 * np.pi**2), "b1": True}}),
    (["optimize", "--setting", "2q-midpoint", "--phi", "pi", "--config", "run.json"],
     {"run.json": {"optimizer": {"starts": True, "max_iters": 3}}}),
    (["cost", "--preset", "xpi-2q-robust", "--config", "run.json"],
     {"run.json": {"output": {"dir": None}}}),
    (["cost", "--preset", "xpi-2q-robust", "--config", "run.json"],
     {"run.json": {"output": {"dir": True}}}),
], ids=["system-delta-true", "params-b1-true", "optimizer-starts-true", "output-dir-null",
        "output-dir-true"])
def test_json_true_false_null_are_not_numbers_or_flag_values(tmp_path, capsys, monkeypatch,
                                                             argv, files):
    # Python counts a bool as a number and str() spells null as None: neither
    # may reach a record or a flag, and nothing is written
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        write_json(tmp_path / name, content)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("argv", [
    ["simulate", "--delta", "1e6"],
    ["sweep", "--grid", "3", "--delta", "1e4", "--model", "reduced"],
    ["sweep", "--grid", "3", "--delta", "1e4", "--model", "lab"],
], ids=["simulate", "sweep-reduced", "sweep-lab"])
def test_dense_step_count_above_limit_exits_2(tmp_path, capsys, argv):
    # the dense step count grows with |delta_tilde|; far above the limit the
    # run is refused before its step nodes are allocated
    assert run(tmp_path / "out", argv[0], "--preset", "xpi-2q-robust", *argv[1:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "limit of 262144" in err[0] and "8192 samples" in err[0]
    assert not tmp_path.joinpath("out").exists()


@pytest.mark.parametrize("command", ["cost", "synth"])
def test_huge_delta_gives_finite_output(tmp_path, command):
    # the 2q dressing's sqrt(g1^2 + delta^2) would overflow above about 1.3e154
    assert run(tmp_path, command, "--preset", "xpi-2q-robust", "--delta", "1e200") == 0
    name = "cost.json" if command == "cost" else "synth_summary.json"
    text = (tmp_path / name).read_text()
    assert "Infinity" not in text and "NaN" not in text
    if command == "synth":
        assert np.all(np.isfinite(np.loadtxt(tmp_path / "waveform.csv", delimiter=",", skiprows=1)))
