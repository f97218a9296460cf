"""Command-line surface: synth, cost, optimize, simulate, sweep, audit.

Outputs are CSV (header row, '.' decimal, newline-terminated, shortest
round-trip float representation) and JSON (sorted keys, two-space indent).
Every JSON summary embeds the command's config hash and seed so runs can be
reproduced and compared byte for byte.

Exit codes: 0 success, 2 invalid configuration, 3 optimizer non-convergence,
4 numerical failure (a curve the chi grid cannot resolve).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .curves import (
    CurveGrid,
    CurveParams,
    GridResolutionError,
    area_functional,
    closed_form_b3,
    rotation_angle,
    shortest_b1,
    solve_b1_zero_area,
    synthesize_waveform,
    waveform_from_grid,
)
from .frames import DRIVE_CENTER, DRIVE_MIDPOINT, DRIVE_RESONANT_LOWER, SystemConfig, dressing
from .magnus import (
    ChannelWeights,
    channel_costs,
    crosstalk_amplitudes,
    susceptibility_beta,
    susceptibility_beta0,
)
from .optimizer import (
    OptimizerConfig,
    config_digest,
    optimize,
    preset_curve,
    preset_system,
    presets,
)
from .simulate import (
    MODEL_LAB,
    MODEL_REDUCED,
    NoiseSetting,
    matched_cosine_baseline,
    noise_sweep,
    simulate_gate,
    slope_fit,
)

SETTINGS = {
    "2q-midpoint": dict(n_qubits=2, drive_choice=DRIVE_MIDPOINT),
    "2q-resonant": dict(n_qubits=2, drive_choice=DRIVE_RESONANT_LOWER),
    "3q-chain": dict(n_qubits=3, drive_choice=DRIVE_CENTER),
}


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def format_float(x: float) -> str:
    return repr(float(x))


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_table(out_dir: Path, stem: str, header, rows, fmt: str) -> Path:
    """Bulk numeric output in the requested format (csv default)."""
    rows = [list(r) for r in rows]
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        payload = {"columns": list(header),
                   "rows": [[float(v) for v in row] for row in rows]}
        write_json(path, payload)
    else:
        path = out_dir / f"{stem}.csv"
        write_csv(path, header, rows)
    return path


def parse_phi(text: str) -> float:
    canned = {"pi": np.pi, "pi/2": np.pi / 2.0, "pi/4": np.pi / 4.0, "2pi": 2.0 * np.pi}
    if text in canned:
        return canned[text]
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse gate angle {text!r}") from None


def resolve_threads(args) -> int:
    """--threads, else GEODESIC_GATES_THREADS, else the CPU count; at least 1."""
    threads, source = getattr(args, "threads", None), "--threads"
    if threads is None:
        env, source = os.environ.get("GEODESIC_GATES_THREADS"), "GEODESIC_GATES_THREADS"
        if not env:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"{source}={env!r} is not an integer") from None
    if threads < 1:
        raise ConfigError(f"{source} must be at least 1, got {threads}")
    return threads


#: config-file sections mapped onto argument names; explicit flags win
_CONFIG_SECTIONS = {
    "gate": {"preset": "preset", "phi": "phi", "setting": "setting"},
    "sweep": {"grid": "grid", "range": "range", "model": "model",
              "crosstalk": "crosstalk"},
    "output": {"dir": "out", "format": "format"},
}


def apply_run_config(args, argv) -> None:
    """Fold a JSON run-config file into the arguments parsed from `argv`.

    Sections: system (SystemConfig fields), gate, optimizer, sweep, output.
    A value from the file applies only where `argv` does not give its flag,
    so explicit flags always win, even when they equal the default: a given
    --delta replaces the system section's delta, and a given --setting its
    n_qubits and drive_choice. Values pass their flag's type and choices, as
    on the command line.
    """
    if not getattr(args, "config", None):
        return
    data = read_json(Path(args.config))
    sections = ("system", "optimizer", *_CONFIG_SECTIONS)
    if not isinstance(data, dict) or not all(isinstance(data.get(s, {}), dict) for s in sections):
        raise ConfigError(f"run config and its sections {sections} must be JSON objects")
    # the flags `argv` gives: a reparse with every default suppressed
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for option in (o for command in sub.choices.values() for o in command._actions):
        option.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    system = data.get("system")
    if system:
        system = dict(system)
        if "delta" in given:
            system["delta"] = args.delta
        if "setting" in given:
            system.update(SETTINGS[args.setting])
    # the hash covers the system that runs: _meta reads these sections
    args._system_section = system
    args._optimizer_section = data.get("optimizer")
    command = sub.choices[args.command]
    actions = {action.dest: action for action in command._actions}
    for section, mapping in _CONFIG_SECTIONS.items():
        for key, attr in mapping.items():
            if key in data.get(section, {}) and attr in actions:
                try:
                    value = command._get_values(actions[attr], [str(data[section][key])])
                except argparse.ArgumentError as exc:
                    raise ConfigError(f"run config {section}.{key}: {exc}") from None
                if attr not in given:
                    setattr(args, attr, value)


def _system_from_args(args, default_key=None) -> SystemConfig:
    section = getattr(args, "_system_section", None)
    if section:
        try:
            return SystemConfig(**section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad system section: {exc}") from None
    if args.setting:
        return SystemConfig(**SETTINGS[args.setting], delta=args.delta)
    if default_key is not None:
        return preset_system(default_key, delta=args.delta)
    raise ConfigError("a --setting or --preset is required")


def _curve_from_args(args):
    """Resolve (CurveParams, phi_target, preset_key) from flags."""
    key = getattr(args, "preset", None)
    if key is not None:
        if key not in presets():
            raise ConfigError(f"unknown preset {key!r}; choose from {sorted(presets())}")
        row = presets()[key]
        if getattr(args, "phi", None) is not None:
            phi_req = parse_phi(args.phi)
            if abs(phi_req - row.phi_target) > 1e-12:
                raise ConfigError(
                    f"--phi {phi_req!r} does not match preset {key} "
                    f"(phi = {row.phi_target!r})")
        return preset_curve(key), row.phi_target, key
    if getattr(args, "params", None) is not None:
        data = read_json(Path(args.params))
        try:
            params = CurveParams(**data)
        except TypeError as exc:
            raise ConfigError(f"bad params file: {exc}") from None
        args._params_section = data
        return params, params.phi_target, None
    raise ConfigError("either --preset or --params is required")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _meta(args, extra: dict) -> dict:
    # the hash covers the semantic configuration only, so identical runs
    # into different directories produce identical artifacts; input files
    # enter through their loaded contents (the _*_section attributes), not
    # their paths
    payload = {k: v for k, v in vars(args).items()
               if k not in ("func", "out", "threads", "config", "params") and v is not None}
    payload.update(extra)
    return {"config_sha256": config_digest(payload), "seed": getattr(args, "seed", None),
            "version": __version__}


def cmd_synth(args) -> int:
    params, phi_target, key = _curve_from_args(args)
    system = _system_from_args(args, default_key=key)
    frame = dressing(system)
    beta = args.beta if args.beta is not None else frame.design_beta
    grid = CurveGrid(params)
    wave = waveform_from_grid(grid, beta, n_samples=args.n_samples)
    out = _out_dir(args)
    write_table(out, "waveform", ["t", "omega"],
                zip(map(float, wave.times), map(float, wave.samples)), args.format)
    write_table(out, "curve", ["chi", "phi", "theta"],
                zip(map(float, grid.chi), map(float, grid.phi), map(float, grid.theta)),
                args.format)
    summary = {
        "T": wave.T,
        "Phi": rotation_angle(grid),
        "C_target": area_functional(grid),
        "peak_amplitude": wave.peak_amplitude,
        "beta": beta,
        "preset": key,
        "params": {"a": params.a, "b1": params.b1, "b2": params.b2,
                   "b3": params.b3, "c": params.c},
        "meta": _meta(args, {"command": "synth"}),
    }
    write_json(out / "synth_summary.json", summary)
    print(f"synth: T={wave.T:.6g} Phi={summary['Phi']:.6g} "
          f"C_target={summary['C_target']:.3e} peak={wave.peak_amplitude:.6g}")
    return 0


def cmd_cost(args) -> int:
    params, phi_target, key = _curve_from_args(args)
    system = _system_from_args(args, default_key=key)
    frame = dressing(system)
    weights = ChannelWeights()
    grid = CurveGrid(params)
    channels = channel_costs(grid, system, frame)
    cost = weights.cost(channels)
    area = area_functional(grid)
    ax, ay, az = susceptibility_beta(grid)
    ay0, az0 = susceptibility_beta0(grid)
    ct1, ct2 = crosstalk_amplitudes(grid, frame.delta_tilde, frame.design_beta)
    out = _out_dir(args)
    payload = {
        "area_C_target": area,
        "channels": channels,
        "robust_cost": cost,
        "susceptibility": {
            "ax": ax, "ay": ay, "az": az, "ay0": ay0, "az0": az0,
            "ct1": [ct1.real, ct1.imag], "ct2": [ct2.real, ct2.imag],
        },
        "weights": asdict(weights),
        "preset": key,
        "meta": _meta(args, {"command": "cost"}),
    }
    write_json(out / "cost.json", payload)
    print(f"cost: |C_robust|^2={cost:.6e} C_target={area:.3e} "
          + " ".join(f"{k}={v:.3e}" for k, v in channels.items()))
    return 0


def cmd_optimize(args) -> int:
    system = _system_from_args(args)
    phi_target = parse_phi(args.phi)
    try:
        cfg = OptimizerConfig.from_dict(getattr(args, "_optimizer_section", None) or {})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer section: {exc}") from None
    overrides = {name: getattr(args, name) for name in ("seed", "starts", "max_iters")
                 if getattr(args, name) is not None}
    cfg = replace(cfg, **overrides)
    result = optimize(phi_target, system, cfg)
    out = _out_dir(args)
    payload = asdict(result)
    payload["optimizer_config"] = asdict(cfg)
    payload["system"] = asdict(system)
    payload["meta"] = _meta(args, {"command": "optimize", "optimizer": payload["optimizer_config"]})
    write_json(out / "optimize_result.json", payload)
    print(f"optimize: cost={result.cost:.6e} converged={result.converged} "
          f"T={result.gate_time:.6g} b1={result.params.b1:.6g} b2={result.params.b2:.6g} "
          f"b3={result.params.b3:.6g} c={result.params.c:.6g}")
    return 0 if result.converged else 3


def cmd_simulate(args) -> int:
    params, phi_target, key = _curve_from_args(args)
    system = _system_from_args(args, default_key=key)
    frame = dressing(system)
    wave = synthesize_waveform(params, frame.design_beta, n_samples=args.n_samples)
    if args.baseline == "cosine":
        wave = matched_cosine_baseline(phi_target, wave)
    noise = NoiseSetting(delta_omega=args.domega, delta_j=args.dj,
                         crosstalk_on=args.crosstalk == "on")
    _, infid = simulate_gate(system, frame, wave, noise, model=args.model,
                             gate_angle=phi_target)
    out = _out_dir(args)
    payload = {
        "infidelity": infid,
        "model": args.model,
        "noise": {"delta_omega": args.domega, "delta_j": args.dj,
                  "crosstalk_on": args.crosstalk == "on"},
        "gate_angle": phi_target,
        "T": wave.T,
        "preset": key,
        "baseline": args.baseline,
        "meta": _meta(args, {"command": "simulate"}),
    }
    write_json(out / "simulate.json", payload)
    print(f"simulate[{args.model}]: infidelity={infid:.6e} (T={wave.T:.6g})")
    return 0


def cmd_sweep(args) -> int:
    params, phi_target, key = _curve_from_args(args)
    system = _system_from_args(args, default_key=key)
    frame = dressing(system)
    wave = synthesize_waveform(params, frame.design_beta, n_samples=args.n_samples)
    n = args.grid
    axis = np.linspace(-args.range, args.range, n)
    crosstalk = args.crosstalk == "on"
    threads = resolve_threads(args)
    # the block path is one vectorized call; only dense points gain from threads
    if (crosstalk or args.model == MODEL_LAB) and threads > 1:
        result = _threaded_sweep(system, frame, wave, axis, axis, args.model,
                                 crosstalk, phi_target, threads)
    else:
        result = noise_sweep(system, frame, wave, axis, axis, model=args.model,
                             crosstalk_on=crosstalk, gate_angle=phi_target)
    out = _out_dir(args)
    write_table(out, "sweep", ["domega", "dj", "infidelity"], result.rows(), args.format)
    floor = float(result.infidelity[n // 2, n // 2]) if n % 2 else float(np.min(result.infidelity))
    slopes = {}
    pos = axis[axis > 0]
    if pos.size >= 6:
        for name, values in (("domega", result.infidelity[axis > 0, n // 2]),
                             ("dj", result.infidelity[n // 2, axis > 0])):
            try:
                slopes[name] = slope_fit(pos, values, floor=floor)
            except ValueError as exc:
                slopes[name] = f"unavailable: {exc}"
    summary = {
        "floor_infidelity": floor,
        "slopes": slopes,
        "model": result.model,
        "gate_time": wave.T,
        "grid": n,
        "range": args.range,
        "crosstalk_on": crosstalk,
        "preset": key,
        "meta": _meta(args, {"command": "sweep"}),
    }
    write_json(out / "sweep_summary.json", summary)
    print(f"sweep[{result.model}]: {n}x{n} grid, floor={floor:.3e}, slopes={slopes}")
    return 0


def _threaded_sweep(system, frame, wave, dw_axis, dj_axis, model, crosstalk,
                    phi_target, threads):
    """`noise_sweep` with its dense points spread over `threads` worker threads."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return noise_sweep(system, frame, wave, dw_axis, dj_axis, model=model,
                           crosstalk_on=crosstalk, gate_angle=phi_target, map=pool.map)


def audit_report() -> dict:
    """Reconcile the published tables against closed forms and quadrature.

    Never asserts; records the two known discrepancies: the factor-2 (and
    branch sign) in the shortest-pulse b1 closed form, and the sign
    convention of the published rows (they enclose zero area only after
    negating b1, b2, b3, c; the b3 closed form then reproduces the negated
    published b3 to table rounding).
    """
    report = {"rows": {}, "findings": []}
    for key, row in presets().items():
        printed = CurveGrid(CurveParams(a=row.a, b1=row.b1, b2=row.b2, b3=row.b3, c=row.c,
                                        phi_target=row.phi_target))
        corrected = CurveGrid(preset_curve(key))
        entry = {
            "table": {"b1": row.b1, "b2": row.b2, "b3": row.b3, "c": row.c},
            "C_target_as_printed": area_functional(printed),
            "C_target_corrected": area_functional(corrected),
            "susceptibility_norm_printed": float(np.linalg.norm(susceptibility_beta(printed))),
            "susceptibility_norm_corrected": float(np.linalg.norm(susceptibility_beta(corrected))),
        }
        if row.setting == "3q" and not row.robust:
            oracle = solve_b1_zero_area(row.a)
            entry["b1_zero_area_oracle"] = oracle
            entry["b1_closed_form"] = shortest_b1(row.a)
            entry["b1_table_over_oracle"] = row.b1 / oracle
            entry["b1_closed_form_over_oracle"] = shortest_b1(row.a) / oracle
        if row.setting == "3q" and row.robust:
            entry["b3_closed_form_at_printed_signs"] = closed_form_b3(row.a, row.b1, row.b2)
            entry["b3_closed_form_at_corrected_signs"] = closed_form_b3(row.a, -row.b1, -row.b2)
        if row.setting == "2q" and row.robust:
            entry["C_target_note"] = "not applicable: midpoint drive needs no area condition"
        report["rows"][key] = entry
    report["findings"] = [
        "published rows enclose zero area only after negating (b1, b2, b3, c): "
        "the tables follow the mirror (-Phi) branch of the boundary condition",
        "shortest-pulse b1 closed form evaluates to -1/2 times the quadrature "
        "zero-area solution; the quadrature oracle matches |table b1| to ~2e-5",
        "b3 closed form is consistent with quadrature on the +Phi branch and "
        "reproduces the negated published b3 to table rounding",
        "crosstalk amplitude bookkeeping constants (geometric-frame offset "
        "R_X(pi/2), phases exp(+-i pi/4)) are fixed by matching the brute-force "
        "Magnus oracle; see crosstalk_block in tests/oracles.py",
    ]
    return report


def cmd_audit(args) -> int:
    report = audit_report()
    out = _out_dir(args)
    payload = dict(report)
    payload["meta"] = _meta(args, {"command": "audit"})
    write_json(out / "audit.json", payload)
    print("preset                  | C_tgt printed | C_tgt correct | |A| printed   | |A| corrected")
    for key, entry in report["rows"].items():
        print(f"{key:<24}| {entry['C_target_as_printed']:>13.4e} | "
              f"{entry['C_target_corrected']:>13.4e} | "
              f"{entry['susceptibility_norm_printed']:>13.4e} | "
              f"{entry['susceptibility_norm_corrected']:>13.4e}")
    for key in ("xpi-3q-nonrobust", "xhalfpi-3q-nonrobust"):
        entry = report["rows"][key]
        print(f"{key}: table b1 = {presets()[key].b1}, zero-area oracle = "
              f"{entry['b1_zero_area_oracle']:.6f}, closed form = {entry['b1_closed_form']:.6f} "
              f"(table/oracle = {entry['b1_table_over_oracle']:.6f}, "
              f"closed/oracle = {entry['b1_closed_form_over_oracle']:.6f})")
    for line in report["findings"]:
        print(f"finding: {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodesic-gates",
        description="Geometric synthesis and validation of crosstalk-robust single-qubit gates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON run config (system/gate/optimizer/sweep/output sections)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="bulk output format preference")
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads, at least 1 (default: "
                            "GEODESIC_GATES_THREADS or machine parallelism)")
        p.add_argument("--delta", type=float, default=20.0,
                       help="qubit frequency spacing Delta in units of J")

    def curve_opts(p):
        p.add_argument("--preset", default=None)
        p.add_argument("--params", default=None, help="JSON file with CurveParams fields")
        p.add_argument("--phi", default=None, help="gate angle (pi, pi/2 or a float)")
        p.add_argument("--setting", default=None, choices=sorted(SETTINGS))
        p.add_argument("--n-samples", type=int, default=8192)

    p = sub.add_parser("synth", help="synthesize a waveform from a curve")
    common(p); curve_opts(p)
    p.add_argument("--beta", type=float, default=None, help="block detuning (default: design)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cost", help="evaluate area and robustness functionals")
    common(p); curve_opts(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("optimize", help="multi-start search over ansatz parameters")
    common(p, seed_default=None)
    p.add_argument("--setting", required=True, choices=sorted(SETTINGS))
    p.add_argument("--phi", required=True)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="simulate one gate under quasi-static noise")
    common(p); curve_opts(p)
    p.add_argument("--model", choices=(MODEL_REDUCED, MODEL_LAB), default=MODEL_REDUCED)
    p.add_argument("--domega", type=float, default=0.0)
    p.add_argument("--dj", type=float, default=0.0)
    p.add_argument("--crosstalk", choices=("on", "off"), default="on")
    p.add_argument("--baseline", choices=("none", "cosine"), default="none")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="2-D quasi-static noise sweep")
    common(p); curve_opts(p)
    p.add_argument("--model", choices=(MODEL_REDUCED, MODEL_LAB), default=MODEL_REDUCED)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--range", type=float, default=0.1)
    p.add_argument("--crosstalk", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="reconcile published tables against oracles")
    common(p)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_run_config(args, argv)
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridResolutionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
