"""The three benchmark workloads: command lists, seeded inputs and checks.

A workload is a fixed list of `geodesic-gates` commands (one pass). The
seed picks the optimizer seeds, the sweep ranges and the grid point that is
checked against a direct library call; the shapes of all inputs are fixed.

Each step names a check. Checks run after the pass, outside its timing, and
return an accuracy number plus a list of problems. Every tolerance is taken
from the repository's own tests or acceptance criteria; the source is named
next to it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# tests/test_simulate.py::test_single_point_sweep_matches_simulate
SWEEP_POINT_TOL = 1e-12
# tests/test_simulate.py::test_lab_and_reduced_agree_at_zero_noise (two qubits)
LAB_REDUCED_TOL_2Q = 1e-5
# tests/test_simulate.py::test_lab_and_reduced_agree_three_qubit
LAB_REDUCED_TOL_3Q = 1e-3
# tests/test_acceptance.py criterion 2: block propagation of a synthesized pulse
ZERO_NOISE_BLOCK_TOL = 1e-6
# tests/test_optimizer.py::test_optimize_not_worse_than_preset: cost <= 1.1 x preset
NOT_WORSE_FACTOR = 1.1
# tests/test_curves.py::test_rotation_angle_simple_and_presets
ROTATION_TOL = 1e-8
# tests/test_acceptance.py criterion 2; test_optimize_three_qubit_constraint_preserved
AREA_TOL = 1e-8

N_SAMPLES = 8192            # the CLI's default waveform length
CHI_GRID_POINTS = 16384     # rows of curve.csv


@dataclass
class Step:
    """One CLI command of a pass.

    `argv` gets `--out <dir>` appended; "{inputs}" in it names the run's
    input directory.
    """

    name: str
    kind: str
    argv: list
    check: Callable
    prepare: Callable | None = None   # writes this step's input files
    points: int = 0                   # noise points this command evaluates


@dataclass
class Workload:
    name: str
    steps: list
    threads: int
    inputs: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def expected_code(step_dir: Path, kind: str) -> int:
    """`optimize` exits 3 when it stops before converging; every other command 0."""
    if kind == "optimize":
        return 0 if _read(step_dir / "optimize_result.json")["converged"] else 3
    return 0


def _sweep_rows(step_dir: Path):
    lines = (step_dir / "sweep.csv").read_text().splitlines()
    if lines[0] != "domega,dj,infidelity":
        raise ValueError(f"unexpected sweep.csv header {lines[0]!r}")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


# --- checks ---------------------------------------------------------------
# signature: check(step_dir, pass_dir, refs) -> (accuracy dict, problems list)

def check_optimize(key):
    def check(step_dir, pass_dir, refs):
        out = _read(step_dir / "optimize_result.json")
        start = refs["preset_start_cost"][key]
        problems = []
        if not out["cost"] <= NOT_WORSE_FACTOR * start:
            problems.append(f"cost {out['cost']:.6e} worse than {NOT_WORSE_FACTOR} x its "
                            f"preset start {start:.6e}")
        return {"cost": out["cost"], "preset_start_cost": start,
                "evals": out["n_evaluations"]}, problems
    return check


def check_cost(opt_step):
    def check(step_dir, pass_dir, refs):
        cost = _read(step_dir / "cost.json")["robust_cost"]
        designed = _read(pass_dir / opt_step / "optimize_result.json")["cost"]
        # same function on the same parameters after a JSON round trip (criterion 9)
        problems = [] if cost == designed else [
            f"cost {cost!r} differs from the optimizer's {designed!r}"]
        return {"cost_minus_optimizer": cost - designed}, problems
    return check


def check_synth(phi_target, area_required):
    def check(step_dir, pass_dir, refs):
        summary = _read(step_dir / "synth_summary.json")
        rot_err = abs(summary["Phi"] - phi_target)
        problems = []
        if not rot_err < ROTATION_TOL:
            problems.append(f"rotation angle off by {rot_err:.3e} (tol {ROTATION_TOL})")
        if area_required and not abs(summary["C_target"]) < AREA_TOL:
            problems.append(f"|C_target| = {abs(summary['C_target']):.3e} (tol {AREA_TOL})")
        rows = {name: len((step_dir / f"{name}.csv").read_text().splitlines()) - 1
                for name in ("waveform", "curve")}
        if rows != {"waveform": N_SAMPLES, "curve": CHI_GRID_POINTS}:
            problems.append(f"unexpected row counts {rows}")
        return {"rotation_error": rot_err, "C_target": summary["C_target"]}, problems
    return check


def check_sweep(key, grid, sweep_range, centre_step):
    axis = np.linspace(-sweep_range, sweep_range, grid)

    def check(step_dir, pass_dir, refs):
        rows = _sweep_rows(step_dir)
        problems = []
        expect = [(float(a), float(b)) for a in axis for b in axis]
        if [(r[0], r[1]) for r in rows] != expect:
            problems.append(f"grid rows differ from the {grid}x{grid} axis")
            return {}, problems
        infid = np.array([r[2] for r in rows]).reshape(grid, grid)
        if not np.all((infid >= 0.0) & (infid <= 1.0)):
            problems.append("infidelity outside [0, 1]")
        centre = infid[grid // 2, grid // 2]
        single = _read(pass_dir / centre_step / "simulate.json")["infidelity"]
        centre_dev = abs(centre - single)
        if not centre_dev < SWEEP_POINT_TOL:
            problems.append(f"centre {centre!r} vs simulate {single!r}: {centre_dev:.3e} "
                            f"(tol {SWEEP_POINT_TOL})")
        floor = _read(step_dir / "sweep_summary.json")["floor_infidelity"]
        if floor != centre:
            problems.append(f"summary floor {floor!r} is not the centre value {centre!r}")
        i, j, expected = refs["sweep_point"][key]
        point_dev = abs(infid[i, j] - expected)
        if not point_dev < SWEEP_POINT_TOL:
            problems.append(f"point ({i},{j}) = {infid[i, j]!r} vs library {expected!r}: "
                            f"{point_dev:.3e} (tol {SWEEP_POINT_TOL})")
        return {"centre_dev": centre_dev, "point_dev": point_dev, "floor": floor}, problems
    return check


def check_single_block(step_dir, pass_dir, refs):
    infid = _read(step_dir / "simulate.json")["infidelity"]
    problems = [] if 0.0 <= infid < ZERO_NOISE_BLOCK_TOL else [
        f"zero-noise infidelity {infid:.3e} (tol {ZERO_NOISE_BLOCK_TOL})"]
    return {"infidelity": infid}, problems


def check_reduced(step_dir, pass_dir, refs):
    infid = _read(step_dir / "simulate.json")["infidelity"]
    problems = [] if 0.0 <= infid <= 1.0 else [f"infidelity {infid!r} outside [0, 1]"]
    return {"infidelity": infid}, problems


def check_lab(reduced_step, tol):
    def check(step_dir, pass_dir, refs):
        lab = _read(step_dir / "simulate.json")["infidelity"]
        reduced = _read(pass_dir / reduced_step / "simulate.json")["infidelity"]
        gap = abs(lab - reduced)
        problems = [] if gap < tol else [
            f"lab {lab:.6e} vs reduced {reduced:.6e}: gap {gap:.3e} (tol {tol})"]
        return {"infidelity": lab, "lab_reduced_gap": gap}, problems
    return check


# --- workloads -------------------------------------------------------------

DESIGNS = (("2q-midpoint", "pi"), ("2q-resonant", "pi/2"), ("3q-chain", "pi"))


def _write_params(opt_step):
    # the CLI hashes the --params path into its summaries, so the file keeps
    # one path for the whole run and the summaries can be compared across passes
    def prepare(pass_dir: Path, inputs_dir: Path):
        params = _read(pass_dir / opt_step / "optimize_result.json")["params"]
        target = inputs_dir / opt_step / "params.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(params))
    return prepare


def design(rng: random.Random, starts=2, max_iters=120) -> Workload:
    """Pulse designer's loop: optimize, then cost and synth on each result."""
    steps, inputs = [], {}
    for setting, phi in DESIGNS:
        seed = rng.randrange(2**31)
        inputs[setting] = {"phi": phi, "optimizer_seed": seed}
        opt = f"optimize-{setting}"
        params = f"{{inputs}}/{opt}/params.json"
        phi_target = {"pi": np.pi, "pi/2": np.pi / 2.0}[phi]
        steps += [
            Step(opt, "optimize",
                 ["optimize", "--setting", setting, "--phi", phi, "--starts", str(starts),
                  "--max-iters", str(max_iters), "--seed", str(seed)],
                 check_optimize(setting)),
            Step(f"cost-{setting}", "cost", ["cost", "--params", params, "--setting", setting],
                 check_cost(opt), prepare=_write_params(opt)),
            Step(f"synth-{setting}", "synth", ["synth", "--params", params, "--setting", setting],
                 check_synth(phi_target, setting != "2q-midpoint")),
        ]
    return Workload("design", steps, threads=1, inputs=inputs)


def _sweep_step(key, grid, sweep_range, crosstalk, threads, centre_step):
    return Step(f"sweep-{key}", f"sweep-{crosstalk}",
                ["sweep", "--preset", key, "--grid", str(grid), "--range", repr(sweep_range),
                 "--crosstalk", crosstalk, "--threads", str(threads)],
                check_sweep(key, grid, sweep_range, centre_step), points=grid * grid)


def sweep_fast(rng: random.Random, grids=(("xpi-2q-robust", 17), ("xpi-3q-robust", 11)),
               singles=None) -> Workload:
    """Crosstalk-off reduced sweeps plus one zero-noise gate per preset."""
    from geodesic_gates.optimizer import PRESET_KEYS

    steps, inputs = [], {}
    for key, grid in grids:
        sweep_range = round(rng.uniform(0.05, 0.15), 6)
        inputs[key] = {"grid": grid, "range": sweep_range}
        steps.append(_sweep_step(key, grid, sweep_range, "off", 1, f"simulate-{key}"))
    for key in singles or PRESET_KEYS:
        steps.append(Step(f"simulate-{key}", "simulate-off",
                          ["simulate", "--preset", key, "--crosstalk", "off"],
                          check_single_block, points=1))
    return Workload("sweep-fast", steps, threads=1, inputs=inputs)


def validate_dense(rng: random.Random, grids=(("xpi-2q-robust", 5), ("xpi-3q-robust", 3)),
                   threads=2) -> Workload:
    """Crosstalk-on reduced sweeps on the pool, plus lab and reduced gates."""
    steps, inputs = [], {}
    for key, grid in grids:
        sweep_range = round(rng.uniform(0.02, 0.1), 6)
        inputs[key] = {"grid": grid, "range": sweep_range}
        steps.append(_sweep_step(key, grid, sweep_range, "on", threads, f"reduced-{key}"))
    for key, _ in grids:
        tol = LAB_REDUCED_TOL_2Q if "-2q-" in key else LAB_REDUCED_TOL_3Q
        steps += [
            Step(f"lab-{key}", "simulate-lab", ["simulate", "--preset", key, "--model", "lab"],
                 check_lab(f"reduced-{key}", tol), points=1),
            Step(f"reduced-{key}", "simulate-on",
                 ["simulate", "--preset", key, "--model", "reduced"], check_reduced, points=1),
        ]
    return Workload("validate-dense", steps, threads=threads, inputs=inputs)


BUILDERS = {"design": design, "sweep-fast": sweep_fast, "validate-dense": validate_dense}


def build(name: str, seed: int, **shape) -> Workload:
    """The workload `name` with inputs drawn from `seed`; `shape` shrinks it for tests."""
    rng = random.Random(f"{name}:{seed}")
    workload = BUILDERS[name](rng, **shape)
    workload.refs = references(workload, rng)
    workload.inputs["seed"] = seed
    return workload


def references(workload: Workload, rng: random.Random) -> dict:
    """Values the checks compare against, computed by direct library calls."""
    from geodesic_gates.cli import SETTINGS
    from geodesic_gates.curves import (CurveParams, coefficient_for_angle, solve_b3_zero_area,
                                       synthesize_waveform)
    from geodesic_gates.frames import SystemConfig, dressing
    from geodesic_gates.magnus import robust_cost
    from geodesic_gates.optimizer import (area_zero_required, preset_curve, preset_system,
                                          presets)
    from geodesic_gates.simulate import NoiseSetting, simulate_gate

    refs = {"preset_start_cost": {}, "sweep_point": {}}
    for step in workload.steps:
        if step.kind == "optimize":
            setting = step.argv[step.argv.index("--setting") + 1]
            phi = workload.inputs[setting]["phi"]
            system = SystemConfig(**SETTINGS[setting])
            # restart 0 of `optimize` starts from the matching robust preset row,
            # with b3 re-solved for zero area where a resonant block needs it
            gate = "xpi" if phi == "pi" else "xhalfpi"
            row = presets()[f"{gate}-{setting[:2]}-robust"]
            a = coefficient_for_angle(row.phi_target)
            b1, b2, c = -row.b1, -row.b2, -row.c
            b3 = solve_b3_zero_area(a, b1, b2) if area_zero_required(system) else 0.0
            params = CurveParams(a=a, b1=b1, b2=b2, b3=b3, c=c, phi_target=row.phi_target)
            refs["preset_start_cost"][setting] = robust_cost(params, system, dressing(system))
        elif step.kind.startswith("sweep"):
            key = step.argv[step.argv.index("--preset") + 1]
            grid = workload.inputs[key]["grid"]
            axis = np.linspace(-workload.inputs[key]["range"], workload.inputs[key]["range"], grid)
            i, j = rng.randrange(grid), rng.randrange(grid)
            system = preset_system(key)
            frame = dressing(system)
            wave = synthesize_waveform(preset_curve(key), frame.design_beta, n_samples=N_SAMPLES)
            noise = NoiseSetting(float(axis[i]), float(axis[j]), step.kind == "sweep-on")
            _, infid = simulate_gate(system, frame, wave, noise,
                                     gate_angle=presets()[key].phi_target)
            refs["sweep_point"][key] = (i, j, infid)
    return refs
