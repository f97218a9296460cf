"""Benchmark of the geodesic-gates command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload design --seed 1 --seconds 25 --trace 0

One process per run. It measures set-up in fresh interpreters, warms the
package up, then runs passes of the workload's command list through
`geodesic_gates.cli.main` in-process until `--seconds` is used up (at least
two passes, so every artifact is compared across passes). Every command's
outputs are checked after its pass. With `--trace 0` the last line holds the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and the last line holds the per-layer metrics of the traced passes. A full
report, spans included, goes to bench/out/.

Workloads (see workloads.py): design, sweep-fast, validate-dense.
"""

from __future__ import annotations

import os

# One process does the work. BLAS runs single-threaded, so the CLI's pool
# threads plus BLAS threads stay at or below the machine's core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 3
# mallopt parameter numbers from glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 1 << 20

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
PER_LAYER = {
    "curves.self_s": "s", "curves.grid_builds": "count", "curves.grid_s": "s",
    "curves.grid_hit_ratio": "ratio", "curves.synth_s": "s",
    "magnus.self_s": "s", "magnus.cost_calls": "count", "magnus.cost_s": "s",
    "magnus.ms_per_cost": "ms",
    "optimizer.self_s": "s", "optimizer.evals": "count",
    "simulate.self_s": "s", "simulate.sweep_s": "s", "simulate.gate_s.reduced_off": "s",
    "simulate.gate_s.reduced_on": "s", "simulate.gate_s.lab": "s", "simulate.points": "count",
    "simulate.distinct_z_ratio": "ratio",
    "linalg.self_s": "s", "linalg.su2_steps": "count", "linalg.su2_s": "s",
    "linalg.dense_steps": "count", "linalg.eigh_s": "s", "linalg.reduce_s.d2": "s",
    "linalg.reduce_s.d4_8": "s", "linalg.reduce_bytes": "bytes-computed",
    "frames.self_s": "s", "frames.dressing_s": "s", "frames.ham_samples": "count",
    "frames.ham_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "cli.pool_efficiency": "ratio",
    "cli.pool_idle_s": "s",
    "bench.self_s": "s",
    "trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio", "trace.accounted_share": "ratio", "trace.spans": "count",
}


def pin_malloc_thresholds() -> str:
    """Serve every allocation of 1 MiB or more by mmap.

    glibc otherwise raises the threshold as large blocks are freed, so how
    much freed memory stays resident depends on allocation order and thread
    timing; with it fixed, peak RSS repeats from run to run. The trim
    threshold is set to twice that, the ratio glibc's own adjustment keeps.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        done = (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))
    except (OSError, AttributeError):
        done = 0
    return f"mmap {MMAP_THRESHOLD}, trim {2 * MMAP_THRESHOLD} bytes" if done else "default"


class HostSpeed:
    """A fixed numpy workload, timed after every command to track the host's speed.

    A shared host runs the same pass up to 50% slower for minutes at a
    time. This kernel uses no geodesic_gates code, so a change to the
    package cannot move it; its mix (transcendentals on 16384-point arrays,
    a 2M-element elementwise pass, batched 8x8 eigh) follows the package's
    own work, and its mean time over a run tracks the run's pass times.
    """

    #: the kernel's usual time on the reference machine (2 vCPUs, x86-64)
    REFERENCE_S = 0.1

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 12.0, 16384)
        self.big = np.linspace(0.0, 1.0, 2_000_000)
        m = np.random.default_rng(0).standard_normal((2000, 8, 8)) + 0j
        self.herm = m + m.conj().transpose(0, 2, 1)
        self.samples = []

    def sample(self) -> float:
        np = self.np
        t0 = perf_counter()
        for k in range(75):
            z = np.arctan(np.sin(self.x * (1.0 + k * 1e-3)) * self.x)
            np.sqrt(1.0 + z * z).sum()
        for k in range(2):
            np.cos(self.big * k).sum()
        np.linalg.eigh(self.herm)
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        """Factor from this run's wall seconds to reference-machine seconds."""
        return self.REFERENCE_S / statistics.mean(self.samples)


def ensure_package() -> None:
    if not (SRC / "geodesic_gates" / "__init__.py").is_file():
        raise FileNotFoundError(f"no geodesic_gates package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm_up() -> None:
    """What a first command needs: the import, the dressings, the preset curves."""
    from geodesic_gates import cli
    from geodesic_gates.frames import SystemConfig, dressing
    from geodesic_gates.optimizer import PRESET_KEYS, preset_curve, preset_system

    for kw in cli.SETTINGS.values():
        dressing(SystemConfig(**kw))
    for key in PRESET_KEYS:
        dressing(preset_system(key))
        preset_curve(key)


def measure_setup(n: int) -> list:
    """Seconds from starting a fresh interpreter until it is ready for a command."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def machine_info(workload, malloc_setting) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_env": BLAS_ENV,
            "cli_threads": workload.threads, "malloc_thresholds": malloc_setting}


@dataclass
class Command:
    step: str
    kind: str
    seconds: float
    code: object
    points: int
    bytes_written: int = 0
    accuracy: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    index: int
    traced: bool
    start: float
    end: float
    commands: list
    paused: float = 0.0   # host-speed samples taken between commands

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.paused


def _digest(step_dir: Path) -> dict:
    if not step_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(step_dir.iterdir()) if p.is_file()}


class Runner:
    """Runs passes of one workload and checks each command's outputs."""

    def __init__(self, workload, run_dir: Path, recorder=None):
        from geodesic_gates import cli

        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.inputs_dir = run_dir / "inputs"
        self.recorder = recorder
        self.host = HostSpeed()
        self.passes = []
        self.first_digests = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash fails this command; the run goes on
            code = "exception"
            err.write(traceback.format_exc())
        return code, err.getvalue().strip()

    def run_pass(self, traced: bool = False) -> Pass:
        index = len(self.passes)
        pass_dir = self.run_dir / f"pass{index}"
        pass_dir.mkdir(parents=True)
        if traced:
            self.recorder.install()
        calls = []
        paused = 0.0
        start = perf_counter()
        try:
            for step in self.workload.steps:
                t0 = perf_counter()
                try:
                    if step.prepare:
                        step.prepare(pass_dir, self.inputs_dir)
                except (OSError, KeyError, ValueError) as exc:
                    calls.append((step, perf_counter() - t0, "not run", f"input: {exc!r}"))
                    continue
                argv = [a.replace("{inputs}", str(self.inputs_dir)) for a in step.argv]
                code, err = self._call(argv + ["--out", str(pass_dir / step.name)])
                calls.append((step, perf_counter() - t0, code, err))
                paused += self.host.sample()
        finally:
            end = perf_counter()
            if traced:
                self.recorder.uninstall()
        commands = [self._check(step, seconds, code, err, pass_dir, index)
                    for step, seconds, code, err in calls]
        shutil.rmtree(pass_dir)
        record = Pass(index, traced, start, end, commands, paused)
        self.passes.append(record)
        return record

    def _check(self, step, seconds, code, err, pass_dir, index) -> Command:
        step_dir = pass_dir / step.name
        cmd = Command(step.name, step.kind, seconds, code, step.points)
        try:
            expected = workloads.expected_code(step_dir, step.kind)
            if code != expected:
                cmd.problems.append(f"exit code {code!r}, expected {expected}: {err[-500:]}")
            cmd.accuracy, problems = step.check(step_dir, pass_dir, self.workload.refs)
            cmd.problems += problems
        except (OSError, KeyError, IndexError, ValueError) as exc:
            cmd.problems.append(f"outputs unreadable ({exc!r}); exit code {code!r}: {err[-500:]}")
        digests = _digest(step_dir)
        cmd.bytes_written = sum(p.stat().st_size for p in step_dir.iterdir()) \
            if step_dir.is_dir() else 0
        first = self.first_digests.setdefault(step.name, digests)
        if index > 0 and digests != first:
            cmd.problems.append("artifacts differ from pass 0 with the same inputs "
                                "(criterion 9: byte-identical reruns)")
        return cmd


def run_workload(workload, run_dir: Path, seconds: float, trace: bool) -> Runner:
    """Passes until `seconds` is spent; with `trace`, odd passes are traced."""
    runner = Runner(workload, run_dir, tracing.Recorder() if trace else None)
    t0 = perf_counter()
    while True:
        last = runner.run_pass(traced=trace and len(runner.passes) % 2 == 1)
        elapsed = perf_counter() - t0
        if len(runner.passes) >= MIN_PASSES and elapsed + last.seconds > seconds:
            return runner


def _rate(passes, kinds):
    rates = []
    for p in passes:
        cmds = [c for c in p.commands if c.kind in kinds]
        busy = sum(c.seconds for c in cmds)
        if busy > 0:
            rates.append(sum(c.points for c in cmds) / busy)
    return statistics.median(rates) if rates else None


def summarize(runner, setup_times) -> dict:
    """Counts, end-to-end metrics and the workload-specific figures."""
    commands = [c for p in runner.passes for c in p.commands]
    attempted = len(commands)
    failed = sum(1 for c in commands if c.problems)
    plain = [p for p in runner.passes if not p.traced]
    walls = [p.seconds for p in plain]
    designs = [c for c in commands if c.kind == "optimize"]
    costs = [c.accuracy["cost"] for c in designs if c.accuracy.get("cost", 0) > 0]
    scale = runner.host.scale()
    e2e = {
        "setup_s": statistics.median(setup_times) * scale,
        "pass_s": statistics.median(walls) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }
    specific = {
        "points_per_s": _rate(plain, ("sweep-off", "simulate-off")),
        "xt_points_per_s": _rate(plain, ("sweep-on", "simulate-on")),
        "lab_gates_per_s": _rate(plain, ("simulate-lab",)),
        "design_s": statistics.median(c.seconds for c in designs) if designs else None,
        "design_cost_log10": statistics.median(map(math.log10, costs)) if costs else None,
        "error_rate": failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "end_to_end": e2e, "specific": specific,
            "pass_count": len(plain), "pass_max_s": max(walls), "host_scale": scale,
            "host_samples": runner.host.samples,
            "setup_wall_s": statistics.median(setup_times),
            "pass_wall_s": statistics.median(walls),
            "traced_count": len(runner.passes) - len(plain),
            "findings": [f"pass {p.index} {c.step}: {msg}" for p in runner.passes
                         for c in p.commands for msg in c.problems]}


def layer_metrics(runner) -> tuple:
    """Per-layer metrics of the traced passes, and exact counts that did not hold.

    Exact counts must repeat from one traced pass to the next, and two of
    them must equal what the inputs and outputs say: noise points and
    optimizer evaluations.
    """
    traced = [p for p in runner.passes if p.traced]
    plain = [p for p in runner.passes if not p.traced]
    per_pass, mismatched = [], []
    for p in traced:
        m = tracing.pass_metrics(runner.recorder.spans, p.start, p.end, p.seconds)
        m["cli.bytes_written"] = sum(c.bytes_written for c in p.commands)
        per_pass.append(m)
        # counted from wrapped calls vs known from the inputs and the outputs
        expected = {"simulate.points": sum(c.points for c in p.commands),
                    "optimizer.evals": sum(c.accuracy.get("evals", 0) for c in p.commands)}
        mismatched += [f"{k}: {m[k]} counted, {v} expected" for k, v in expected.items()
                       if m[k] != v]
    merged, unstable = tracing.combine(per_pass)
    unstable = [f"{k} differs between traced passes" for k in unstable] + mismatched
    traced_s = statistics.median(p.seconds for p in traced)
    plain_s = statistics.median(p.seconds for p in plain)
    merged.update({"trace.pass_s": traced_s, "trace.untraced_pass_s": plain_s,
                   "trace.overhead_s": traced_s - plain_s,
                   "trace.overhead_ratio": (traced_s - plain_s) / plain_s})
    return merged, unstable


SPECIFIC_UNITS = {"points_per_s": "1/s", "xt_points_per_s": "1/s", "lab_gates_per_s": "1/s",
                  "design_s": "s", "design_cost_log10": "log10", "error_rate": "ratio"}


def report_lines(args, info, summary, layers, unstable):
    e2e, spec = summary["end_to_end"], summary["specific"]
    yield (f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
           f"trace {args.trace}  passes {summary['pass_count']} untraced"
           + (f" + {summary['traced_count']} traced" if args.trace else ""))
    yield "machine " + "  ".join(f"{k}={v}" for k, v in info.items())
    rows = [
        ("setup_s", e2e["setup_s"], "s", "setup_wall_s x host_scale"),
        ("pass_s", e2e["pass_s"], "s", "pass_wall_s x host_scale"),
        ("host_scale", summary["host_scale"], "ratio",
         f"{HostSpeed.REFERENCE_S} s / mean of {len(summary['host_samples'])} host-speed samples"),
        ("setup_wall_s", summary["setup_wall_s"], "s",
         f"median of {SETUP_PROBES} fresh interpreters"),
        ("pass_wall_s", summary["pass_wall_s"], "s", f"median of {summary['pass_count']} passes"),
        ("pass_max_s", summary["pass_max_s"], "s",
         f"slowest of {summary['pass_count']} passes (the highest percentile they support)"),
    ]
    rows += [(k, spec[k], SPECIFIC_UNITS[k], "") for k in
             ("points_per_s", "xt_points_per_s", "lab_gates_per_s", "design_s",
              "design_cost_log10")]
    rows += [("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
             ("error_rate", spec["error_rate"], "ratio",
              f"{summary['failed']} failed of {summary['attempted']} commands attempted")]
    for metric, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        yield f"  {metric:<20} {shown:>12} {unit:<6} {note}"
    for metric, value in (layers or {}).items():
        yield f"  {metric:<28} {value:>14.6g} {PER_LAYER[metric]}"
    for metric in unstable:
        yield f"finding: exact count {metric}"
    for line in summary["findings"]:
        yield f"finding: {line}"


def result_line(summary, layers, unstable) -> dict:
    """The machine-readable result: per-layer metrics when traced, else end-to-end."""
    values, units = (layers, PER_LAYER) if layers is not None else (summary["end_to_end"],
                                                                    END_TO_END)
    return {"correct": summary["failed"] == 0 and not unstable,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    malloc_setting = pin_malloc_thresholds()
    try:
        ensure_package()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        warm_up()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # probes run before and after the passes, so one slow spell of the
    # machine does not set the median
    setup_times = measure_setup(SETUP_PROBES - 1)
    warm_up()
    workload = workloads.build(args.workload, args.seed)
    info = machine_info(workload, malloc_setting)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runner = run_workload(workload, run_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_times += measure_setup(1)
    summary = summarize(runner, setup_times)
    layers, unstable = layer_metrics(runner) if args.trace else (None, [])

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "inputs": workload.inputs,
              "setup_probes_s": setup_times, "summary": summary, "per_layer": layers,
              "unstable_counts": unstable,
              "passes": [{"index": p.index, "traced": p.traced, "seconds": p.seconds,
                          "commands": [vars(c) for c in p.commands]} for p in runner.passes]}
    if args.trace:
        report["spans"] = tracing.span_rows(runner.recorder.spans)
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, default=repr) + "\n")

    for line in report_lines(args, info, summary, layers, unstable):
        print(line)
    print(json.dumps(result_line(summary, layers, unstable)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
