"""Command-line surface: synth, cost, optimize, simulate, sweep, audit.

Outputs are CSV (header row, '.' decimal, newline-terminated, shortest
round-trip float representation) and JSON (sorted keys, two-space indent).
Every JSON summary embeds the command's config hash and seed so runs can be
reproduced and compared byte for byte. Each command declares only the flags
it reads.

Exit codes: 0 success, 2 invalid configuration, 3 optimizer non-convergence,
4 numerical failure (a curve the chi grid cannot resolve, a crosstalk phase
that overflows, or a non-finite Hamiltonian in a dense step exponential).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .curves import (
    WAVEFORM_SAMPLES,
    CurveGrid,
    CurveParams,
    GridResolutionError,
    area_functional,
    closed_form_b3,
    rotation_angle,
    shortest_b1,
    solve_b1_zero_area,
    waveform_from_grid,
)
from .frames import MODEL_LAB, MODEL_REDUCED, SETTINGS, SystemConfig, dressing
from .magnus import (
    channel_costs,
    crosstalk_amplitudes,
    susceptibility_beta,
    susceptibility_beta0,
)
from .optimizer import (
    OptimizerConfig,
    area_zero_required,
    optimize,
    preset_curve,
    preset_system,
    presets,
)
from .simulate import (
    NOISE_LIMIT,
    SLOPE_MIN_POINTS,
    SWEEP_POINTS_LIMIT,
    NoiseSetting,
    matched_cosine_baseline,
    noise_sweep,
    simulate_gate,
    slope_fit,
)

class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def write_table(out_dir: Path, stem: str, columns: dict, fmt: str) -> None:
    """Named, equal-length columns as `stem`.csv or `stem`.json, one row per index."""
    rows = np.column_stack(list(columns.values())).tolist()
    path = out_dir / f"{stem}.{fmt}"
    if fmt == "json":
        write_json(path, {"columns": list(columns), "rows": rows})
    else:
        lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
        path.write_text("\n".join(lines) + "\n")


def _checked(convert, accept, expected):
    """An argparse type: `convert` the text and `accept` the value, or raise an
    `ArgumentTypeError` naming what was `expected`, which argparse prints as it stands."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_CANNED_PHI = {"pi": np.pi, "pi/2": np.pi / 2.0, "pi/4": np.pi / 4.0, "2pi": 2.0 * np.pi}
#: the argparse type of `optimize --phi`
parse_phi = _checked(lambda text: _CANNED_PHI[text] if text in _CANNED_PHI else float(text),
                     np.isfinite, "pi, pi/2, pi/4, 2pi or a finite float")


#: the argparse type of `sweep --grid`: odd, so that the centre point, where the
#: summary reads the floor and the slopes, is zero noise
parse_grid = _checked(int, lambda n: 3 <= n <= SWEEP_POINTS_LIMIT and n % 2,
                      f"an odd count from 3 to {SWEEP_POINTS_LIMIT}")
#: the argparse type of `sweep --threads`: a worker-thread count
parse_threads = _checked(int, lambda n: n >= 1, "an integer of at least 1")


class CurveSource(argparse.Action):
    """--preset and --params name one curve: each clears the other, so the later in argv wins."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.preset = namespace.params = None
        setattr(namespace, self.dest, value)


#: run-config keys that stand for flags, by section; `output.dir` is --out
_CONFIG_FLAGS = {
    "gate": ("preset", "phi", "setting"),
    "sweep": ("grid", "range", "model", "crosstalk"),
    "output": ("dir", "format"),
}


def run_config_argv(args, argv) -> tuple:
    """The --config file, and `argv` with its flag keys right after the subcommand.

    Each `_CONFIG_FLAGS` key the file gives becomes one `--flag=value` token,
    whose `=` keeps a value such as -0.05 a value. Placed ahead of argv's own
    flags, the file's values pass argparse's types and choices, and a flag
    given in argv comes later and wins. Other keys are dropped. A flag value
    must be a JSON string or number: true, false and null have no flag spelling.
    """
    try:
        config = read_json(Path(args.config)) if args.config else {}
    except ValueError as exc:
        raise ConfigError(f"run config {args.config} is not JSON: {exc}") from None
    sections = ("system", "optimizer", *_CONFIG_FLAGS)
    if not isinstance(config, dict) or not all(isinstance(config.get(s, {}), dict) for s in sections):
        raise ConfigError(f"run config and its sections {sections} must be JSON objects")
    given = [(section, key, config[section][key]) for section, keys in _CONFIG_FLAGS.items()
             for key in keys if key in config.get(section, {})]
    for section, key, value in given:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"run config {section}.{key} must be a JSON string or number, "
                              f"got {json.dumps(value)}")
    tokens = [f"--{'out' if key == 'dir' else key}={value}" for _, key, value in given]
    return config, [args.command, *tokens, *argv[1:]]


def _system_from_args(args, default_key=None) -> SystemConfig:
    """The system section, else --setting, else the preset's system.

    A --setting, from argv or the gate section, replaces the system section's
    n_qubits and drive_choice, and a --delta its delta.
    """
    fields = dict(args._run_config.get("system", {}))
    if args.setting:
        fields.update(SETTINGS[args.setting])
    elif not fields:
        if default_key is None:
            raise ConfigError("a system is required: --setting or a run-config system section")
        fields = asdict(preset_system(default_key))
    if args.delta is not None:
        fields["delta"] = args.delta
    try:
        return SystemConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad system section: {exc}") from None


def _optimizer_from_args(args) -> OptimizerConfig:
    """The optimizer section with the given --seed, --starts and --max-iters; `cost`
    reads its channel weights, so it reports the |C_robust|^2 `optimize` does."""
    try:
        cfg = OptimizerConfig.from_dict(args._run_config.get("optimizer", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer section: {exc}") from None
    overrides = {name: getattr(args, name) for name in ("seed", "starts", "max_iters")
                 if getattr(args, name, None) is not None}
    return replace(cfg, **overrides)


def _curve_from_args(args):
    """Resolve (CurveParams, preset_key) from --preset or --params, whichever came last."""
    key = args.preset
    if key is not None:
        if key not in presets():
            raise ConfigError(f"unknown preset {key!r}; choose from {sorted(presets())}")
        return preset_curve(key), key
    if args.params is None:
        raise ConfigError("either --preset or --params is required")
    try:
        return CurveParams(**read_json(Path(args.params))), key
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params file: {exc}") from None


def _grid_from_args(args):
    """(params, key, system, frame, grid) of the curve; the grid last, as it can fail (exit 4)."""
    params, key = _curve_from_args(args)
    system = _system_from_args(args, default_key=key)
    return params, key, system, dressing(system), CurveGrid(params)


def _gate_from_args(args):
    """(params, key, system, frame, waveform) of the gate `simulate` and `sweep` propagate.

    A resonant block needs a curve of zero enclosed area, to criterion 2's
    1e-8. Otherwise that block misses the gate by the area's phase, and the
    simulated infidelity says nothing about the curve's robustness. The grid
    is built first, so a curve the grid cannot resolve fails (exit 4) before
    this check (exit 2), and the waveform is synthesized from the same grid.
    """
    params, key, system, frame, grid = _grid_from_args(args)
    if area_zero_required(system):
        area = area_functional(grid)
        if not abs(area) <= 1e-8:
            raise ConfigError(f"this system has a resonant block, which needs a curve "
                              f"of zero enclosed area, but C_target = {area:.3g}")
    wave = waveform_from_grid(grid, frame.design_beta, n_samples=args.n_samples)
    return params, key, system, frame, wave


def _check_out(out: Path) -> None:
    """Refuse an --out that cannot become a directory, without creating it."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def config_digest(payload: dict) -> str:
    """Stable hash of a JSON-serializable config, for output provenance."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(args, **records) -> dict:
    # the hash covers the semantic configuration only: the command, the flags it
    # read and the records it resolved from them (system, curve, optimizer, weights),
    # never file names, thread counts or run-config sections as written, so
    # identical runs into different directories produce identical artifacts;
    # --delta and --setting enter through the system record, and --seed,
    # --starts and --max-iters through the optimizer record
    payload = {k: v for k, v in vars(args).items()
               if k not in ("func", "out", "threads", "config", "params", "delta", "setting",
                            "seed", "starts", "max_iters")
               and not k.startswith("_") and v is not None}
    payload.update((name, asdict(record)) for name, record in records.items())
    seed = records["optimizer"].seed if "optimizer" in records else None
    return {"config_sha256": config_digest(payload), "seed": seed, "version": __version__}


def cmd_synth(args) -> int:
    params, key, system, frame, grid = _grid_from_args(args)
    wave = waveform_from_grid(grid, frame.design_beta, n_samples=args.n_samples)
    out = _out_dir(args)
    write_table(out, "waveform", {"t": wave.times, "omega": wave.samples}, args.format)
    write_table(out, "curve", {"chi": grid.chi, "phi": grid.phi, "theta": grid.theta},
                args.format)
    summary = {
        "T": wave.T,
        "Phi": rotation_angle(grid),
        "C_target": area_functional(grid),
        "peak_amplitude": wave.peak_amplitude,
        "beta": frame.design_beta,
        "preset": key,
        "params": {"a": params.a, "b1": params.b1, "b2": params.b2,
                   "b3": params.b3, "c": params.c},
        "meta": _meta(args, system=system, curve=params),
    }
    write_json(out / "synth_summary.json", summary)
    print(f"synth: T={wave.T:.6g} Phi={summary['Phi']:.6g} "
          f"C_target={summary['C_target']:.3e} peak={wave.peak_amplitude:.6g}")
    return 0


def cmd_cost(args) -> int:
    weights = _optimizer_from_args(args).channel_weights  # exit 2 before a grid's exit 4
    params, key, system, frame, grid = _grid_from_args(args)
    channels = channel_costs(grid, system, frame)
    cost = weights.cost(channels)
    ct1, ct2 = crosstalk_amplitudes(grid, frame.delta_tilde, frame.design_beta)
    susceptibility = dict(zip(("ax", "ay", "az"), susceptibility_beta(grid)))
    susceptibility.update(zip(("ay0", "az0"), susceptibility_beta0(grid)))
    susceptibility.update(ct1=[ct1.real, ct1.imag], ct2=[ct2.real, ct2.imag])
    area = area_functional(grid)
    out = _out_dir(args)
    payload = {
        "area_C_target": area,
        "channels": channels,
        "robust_cost": cost,
        "susceptibility": susceptibility,
        "weights": asdict(weights),
        "preset": key,
        "meta": _meta(args, system=system, curve=params, weights=weights),
    }
    write_json(out / "cost.json", payload)
    print(f"cost: |C_robust|^2={cost:.6e} C_target={area:.3e} "
          + " ".join(f"{k}={v:.3e}" for k, v in channels.items()))
    return 0


def cmd_optimize(args) -> int:
    if args.phi is None:
        raise ConfigError("optimize needs a gate angle: --phi, or phi in the gate section")
    system = _system_from_args(args)
    cfg = _optimizer_from_args(args)
    result = optimize(args.phi, system, cfg)
    out = _out_dir(args)
    payload = asdict(result)
    payload["optimizer_config"] = asdict(cfg)
    payload["system"] = asdict(system)
    payload["meta"] = _meta(args, system=system, optimizer=cfg)
    write_json(out / "optimize_result.json", payload)
    print(f"optimize: cost={result.cost:.6e} converged={result.converged} "
          f"T={result.gate_time:.6g} b1={result.params.b1:.6g} b2={result.params.b2:.6g} "
          f"b3={result.params.b3:.6g} c={result.params.c:.6g}")
    return 0 if result.converged else 3


def cmd_simulate(args) -> int:
    params, key, system, frame, wave = _gate_from_args(args)
    phi_target = params.phi_target
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
        "noise": asdict(noise),
        "gate_angle": phi_target,
        "T": wave.T,
        "preset": key,
        "baseline": args.baseline,
        "meta": _meta(args, system=system, curve=params),
    }
    write_json(out / "simulate.json", payload)
    print(f"simulate[{args.model}]: infidelity={infid:.6e} (T={wave.T:.6g})")
    return 0


def cmd_sweep(args) -> int:
    # a positive test, so NaN fails it
    if not 0.0 < args.range <= NOISE_LIMIT:
        raise ConfigError(f"--range must be in (0, {NOISE_LIMIT}] (units of J), got {args.range!r}")
    params, key, system, frame, wave = _gate_from_args(args)
    phi_target = params.phi_target
    n = args.grid
    axis = np.linspace(-args.range, args.range, n)
    crosstalk = args.crosstalk == "on"
    infid = _threaded_sweep(system, frame, wave, axis, axis, args.model, crosstalk,
                            phi_target, args.threads)
    out = _out_dir(args)
    # long format, row-major: domega is the outer index, as in infid[i, j]
    write_table(out, "sweep", {"domega": np.repeat(axis, n), "dj": np.tile(axis, n),
                               "infidelity": infid.ravel()}, args.format)
    floor = float(infid[n // 2, n // 2])
    slopes = {}
    pos = axis[axis > 0]
    if pos.size >= SLOPE_MIN_POINTS:
        for name, values in (("domega", infid[axis > 0, n // 2]),
                             ("dj", infid[n // 2, axis > 0])):
            try:
                slopes[name] = slope_fit(pos, values, floor=floor)
            except ValueError as exc:
                slopes[name] = f"unavailable: {exc}"
    summary = {
        "floor_infidelity": floor,
        "slopes": slopes,
        "model": args.model,
        "gate_time": wave.T,
        "grid": n,
        "range": args.range,
        "crosstalk_on": crosstalk,
        "preset": key,
        "meta": _meta(args, system=system, curve=params),
    }
    write_json(out / "sweep_summary.json", summary)
    print(f"sweep[{args.model}]: {n}x{n} grid, floor={floor:.3e}, slopes={slopes}")
    return 0


def _threaded_sweep(system, frame, wave, dw_axis, dj_axis, model, crosstalk,
                    phi_target, threads):
    """`noise_sweep` with its dense points spread over at most `threads` worker threads.

    The pool is capped at the CPU count, since each worker holds a dense
    workspace; a block sweep is one vectorized call, submits no point and
    starts no thread.
    """
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        return noise_sweep(system, frame, wave, dw_axis, dj_axis, model=model,
                           crosstalk_on=crosstalk, gate_angle=phi_target, map=pool.map)


def audit_report() -> dict:
    """Reconcile the published tables against closed forms and quadrature.

    Never asserts; records the two known discrepancies: the factor-2 (and
    branch sign) in the shortest-pulse b1 closed form, and the sign
    convention of the published rows (they enclose zero area only after
    negating b1, b2, b3, c; the b3 closed form then reproduces the negated
    published b3 to table rounding). Each robust row whose corrected curve
    leaves |A_beta|, or |A_beta0| where its setting has a resonant block,
    above 1e-3 gets a finding of its own.
    """
    report = {"rows": {}, "findings": [
        "published rows enclose zero area only after negating (b1, b2, b3, c): "
        "the tables follow the mirror (-Phi) branch of the boundary condition",
        "shortest-pulse b1 closed form evaluates to -1/2 times the quadrature "
        "zero-area solution; the quadrature oracle matches |table b1| to ~2e-5",
        "b3 closed form is consistent with quadrature on the +Phi branch and "
        "reproduces the negated published b3 to table rounding",
        "crosstalk amplitude bookkeeping constants (geometric-frame offset "
        "R_X(pi/2), phases exp(+-i pi/4)) are fixed by matching the brute-force "
        "Magnus oracle; see crosstalk_block in tests/oracles.py",
    ]}
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
        if row.robust:
            norms = {"|A_beta|": entry["susceptibility_norm_corrected"]}
            if area_zero_required(preset_system(key)):
                norms["|A_beta0|"] = float(np.linalg.norm(susceptibility_beta0(corrected)))
            if max(norms.values()) > 1e-3:
                report["findings"].append(
                    f"robust row {key} is not first-order robust: "
                    + ", ".join(f"{k} = {v:.3g}" for k, v in norms.items()) + " (above 1e-3)")
    return report


def cmd_audit(args) -> int:
    report = audit_report()
    out = _out_dir(args)
    payload = dict(report)
    payload["meta"] = _meta(args)
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

    def common(p, delta=True):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON run config (system/gate/optimizer/sweep/output sections)")
        if delta:
            p.add_argument("--delta", type=float, default=None,
                           help="qubit frequency spacing Delta in units of J (default: 20)")

    def table_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="bulk output format preference")

    def curve_opts(p, n_samples=True):
        p.add_argument("--preset", default=None, action=CurveSource)
        p.add_argument("--params", default=None, action=CurveSource,
                       help="JSON file with CurveParams fields")
        p.add_argument("--setting", default=None, choices=sorted(SETTINGS))
        if n_samples:
            p.add_argument("--n-samples", type=int, default=WAVEFORM_SAMPLES)

    p = sub.add_parser("synth", help="synthesize a waveform from a curve")
    common(p); table_format(p); curve_opts(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cost", help="evaluate area and robustness functionals")
    common(p); curve_opts(p, n_samples=False)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("optimize", help="multi-start search over ansatz parameters")
    common(p)
    # --setting and --phi may come from the run config's gate section, so the
    # command, not argparse, requires them
    p.add_argument("--setting", default=None, choices=sorted(SETTINGS))
    p.add_argument("--phi", type=parse_phi, default=None,
                   help="gate angle (pi, pi/2, pi/4, 2pi or a finite float)")
    p.add_argument("--seed", type=int, default=None)
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
    common(p); table_format(p); curve_opts(p)
    p.add_argument("--threads", type=parse_threads, default=os.cpu_count() or 1,
                   help="worker threads of dense sweep points, at least 1, at most "
                        "the CPU count (default: machine parallelism)")
    p.add_argument("--model", choices=(MODEL_REDUCED, MODEL_LAB), default=MODEL_REDUCED)
    p.add_argument("--grid", type=parse_grid, default=41,
                   help=f"points per noise axis, odd, from 3 to {SWEEP_POINTS_LIMIT}")
    p.add_argument("--range", type=float, default=0.1)
    p.add_argument("--crosstalk", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="reconcile published tables against oracles")
    common(p, delta=False)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, argv = run_config_argv(args, argv)
        try:  # a key the command has no flag for comes back unknown and is dropped
            args, _ = parser.parse_known_args(argv)
        except SystemExit as exc:  # argparse has reported the file's bad value
            print(f"error: that value is from run config {args.config}", file=sys.stderr)
            return exc.code
        args._run_config = config
        _check_out(Path(args.out))
        return args.func(args)
    except (GridResolutionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
