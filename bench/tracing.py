"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of each geodesic_gates module at
every name the package binds them to: the defining module, each module that
imports them, and the package namespace. Calls between modules and calls
inside one module therefore both open a span. Nothing in the package is
edited; `uninstall` puts every original back.

A span is a tuple (id, name, start, end, parent id, thread id, work). The
spans stay in memory and are analysed after the run. A span's self time is
its duration minus the union of its children's intervals. Spans opened on
the CLI's worker threads take the enclosing pool span as their parent; their
subtrees are scaled onto the pool's wall time, so the self times of one pass
add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "geodesic_gates"
LAYERS = ("curves", "magnus", "optimizer", "simulate", "linalg", "frames", "cli")

# called once per CSV value; a span per value would cost more than the value
UNWRAPPED = {"cli.format_float"}

COMPLEX_BYTES = 16


def reduce_bytes(shape) -> int:
    """Bytes `linalg.product_reduce` reads and writes for a stack of this shape.

    Computed from array sizes, not measured: each pairwise pass reads two
    operands and writes one product per pair, and an odd count adds a
    concatenation that copies the products and the tail once more.
    """
    *batch, n, d, _ = shape
    mat = int(np.prod(batch, dtype=np.int64)) * d * d * COMPLEX_BYTES
    total = 0
    while n > 1:
        pairs = n // 2
        total += 3 * pairs * mat
        if n % 2:
            total += 2 * (pairs + 1) * mat
        n = pairs + n % 2
    return total


def _reduce_work(args):
    shape = np.shape(args["mats"])
    return shape[-1], reduce_bytes(shape)


# work recorded with each span, read from the call's bound arguments
WORK = {
    "linalg.su2_exp_batch": lambda a: int(np.size(a["x"])),
    "linalg.expm_hermitian_batch": lambda a: int(np.shape(a["hams"])[0]),
    "linalg.product_reduce": _reduce_work,
    "frames.lab_hamiltonian_samples": lambda a: len(a["times"]),
    "frames.reduced_hamiltonian_samples": lambda a: len(a["times"]),
    "simulate.simulate_gate": lambda a: (a["model"], a["noise"].crosstalk_on,
                                         a["noise"], a["system"], a["frame"]),
    "simulate.noise_sweep": lambda a: (a["model"], a["crosstalk_on"], a["system"],
                                       a["frame"], np.atleast_1d(a["domega_values"]),
                                       np.atleast_1d(a["dj_values"])),
    "cli.pool": lambda a: a["threads"],
}


class Recorder:
    """Installs the wrappers and collects spans in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = None
        self._patches = []

    def _wrap(self, fn, name, pool=False):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._pool_parent
            idx = next(self._ids)
            payload = None
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                payload = work(bound.arguments)
            stack.append(idx)
            if pool:
                self._pool_parent = idx
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if pool:
                    self._pool_parent = None
                spans.append((idx, name, t0, t1, parent, threading.get_ident(), payload))

        return traced

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(obj, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapper)
        grid_cls = modules["curves"].CurveGrid
        self._patch(grid_cls, "__init__", self._wrap(grid_cls.__init__, "curves.grid_build"))
        cli = modules["cli"]
        self._patch(cli, "_threaded_sweep", self._wrap(cli._threaded_sweep, "cli.pool", pool=True))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)


def span_rows(spans) -> list:
    """Spans as JSON-ready rows; argument objects are reduced to their labels."""
    rows = []
    for idx, name, t0, t1, parent, thread, work in spans:
        if isinstance(work, tuple) and name.startswith("simulate."):
            work = list(work[:2])
        rows.append([idx, name, t0, t1, parent, thread, work])
    return rows


def union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _z_sharing(system, frame, dw, dj):
    """(distinct block Z coefficients, points x blocks) of one block-path call.

    Block b of the crosstalk-off reduced model has the static coefficient
    beta_b/2 plus the noise operator's diagonal at the block's first state,
    which is linear in (dw, dJ). Equal coefficients are counted once after
    rounding to 1e-12, so last-bit differences of the grid sums do not count
    as distinct.
    """
    from geodesic_gates.simulate import NoiseSetting, noise_operator

    half = 0.5
    per_dw = np.diag(noise_operator(system, NoiseSetting(half, 0.0))).real[0::2] / half
    per_dj = np.diag(noise_operator(system, NoiseSetting(0.0, half))).real[0::2] / half
    dw, dj = np.meshgrid(dw, dj, indexing="ij")
    betas = np.asarray(frame.betas)
    z = (0.5 * betas[:, None] + per_dw[:, None] * dw.ravel()[None, :]
         + per_dj[:, None] * dj.ravel()[None, :])
    distinct = sum(len(np.unique(np.round(row, 12))) for row in z)
    return distinct, z.size


def pass_metrics(spans, start: float, end: float, wall: float) -> dict:
    """Per-layer metrics of the spans recorded between `start` and `end`.

    `wall` is the pass's own time: the interval less the pauses between
    commands.
    """
    spans = [s for s in spans if start <= s[2] and s[3] <= end]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] in by_id:
            children[s[4]].append(s)
    self_time = {s[0]: (s[3] - s[2]) - union_length([(c[2], c[3]) for c in children[s[0]]])
                 for s in spans}
    for pool in (s for s in spans if s[1] == "cli.pool"):
        roots = children[pool[0]]
        busy = sum(r[3] - r[2] for r in roots)
        if busy <= 0:
            continue
        scale = union_length([(r[2], r[3]) for r in roots]) / busy
        todo = [r[0] for r in roots]
        while todo:
            idx = todo.pop()
            self_time[idx] *= scale
            todo.extend(c[0] for c in children[idx])

    def outermost(span):
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == span[1]:
                return False
            parent = by_id.get(parent[4])
        return True

    named = defaultdict(list)
    for s in spans:
        named[s[1]].append(s)

    def count(name):
        return len(named[name])

    def incl(name, keep=lambda s: True):
        return sum(s[3] - s[2] for s in named[name] if keep(s) and outermost(s))

    def parent_name(s):
        parent = by_id.get(s[4])
        return parent[1] if parent else None

    m = {}
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".")[0]] += self_time[s[0]]
    pool_idle = sum(self_time[s[0]] for s in named["cli.pool"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] - (pool_idle if layer == "cli" else 0.0)

    builds = count("curves.grid_build")
    lookups = count("curves.curve_grid")
    m["curves.grid_builds"] = builds
    m["curves.grid_s"] = incl("curves.grid_build")
    m["curves.grid_hit_ratio"] = (lookups - builds) / lookups if lookups else 0.0
    m["curves.synth_s"] = incl("curves.synthesize_waveform")

    cost_calls = count("magnus.robust_cost")
    m["magnus.cost_calls"] = cost_calls
    m["magnus.cost_s"] = incl("magnus.robust_cost")
    m["magnus.ms_per_cost"] = 1e3 * m["magnus.cost_s"] / cost_calls if cost_calls else 0.0

    m["optimizer.evals"] = count("optimizer.total_cost")

    gates = named["simulate.simulate_gate"]
    sweeps = named["simulate.noise_sweep"]
    m["simulate.sweep_s"] = incl("simulate.noise_sweep") + incl("cli.pool")
    for label, keep in (("reduced_off", lambda s: s[6][0] == "reduced" and not s[6][1]),
                        ("reduced_on", lambda s: s[6][0] == "reduced" and s[6][1]),
                        ("lab", lambda s: s[6][0] == "lab")):
        m[f"simulate.gate_s.{label}"] = incl("simulate.simulate_gate", keep)
    lone_gates = [s for s in gates if parent_name(s) != "simulate.noise_sweep"]
    m["simulate.points"] = (sum(s[6][4].size * s[6][5].size for s in sweeps)
                            + len(lone_gates))
    distinct = slots = 0
    for s in sweeps:
        model, crosstalk, system, frame, dw, dj = s[6]
        if model == "reduced" and not crosstalk:
            d, n = _z_sharing(system, frame, dw, dj)
            distinct, slots = distinct + d, slots + n
    for s in lone_gates:
        model, crosstalk, noise, system, frame = s[6]
        if model == "reduced" and not crosstalk:
            d, n = _z_sharing(system, frame, [noise.delta_omega], [noise.delta_j])
            distinct, slots = distinct + d, slots + n
    m["simulate.distinct_z_ratio"] = distinct / slots if slots else 0.0

    m["linalg.su2_steps"] = sum(s[6] for s in named["linalg.su2_exp_batch"])
    m["linalg.su2_s"] = incl("linalg.su2_exp_batch")
    m["linalg.dense_steps"] = sum(s[6] for s in named["linalg.expm_hermitian_batch"])
    m["linalg.eigh_s"] = incl("linalg.expm_hermitian_batch") + incl("linalg.expm_hermitian")
    m["linalg.reduce_s.d2"] = incl("linalg.product_reduce", lambda s: s[6][0] == 2)
    m["linalg.reduce_s.d4_8"] = incl("linalg.product_reduce", lambda s: s[6][0] > 2)
    m["linalg.reduce_bytes"] = sum(s[6][1] for s in named["linalg.product_reduce"])

    hams = named["frames.lab_hamiltonian_samples"] + named["frames.reduced_hamiltonian_samples"]
    m["frames.dressing_s"] = incl("frames.dressing")
    m["frames.ham_samples"] = sum(s[6] for s in hams)
    m["frames.ham_s"] = (incl("frames.lab_hamiltonian_samples")
                         + incl("frames.reduced_hamiltonian_samples"))

    pool_gate_s = sum(s[3] - s[2] for s in gates if parent_name(s) == "cli.pool")
    pool_capacity = sum(s[6] * (s[3] - s[2]) for s in named["cli.pool"])
    m["cli.pool_idle_s"] = pool_idle
    m["cli.pool_efficiency"] = pool_gate_s / pool_capacity if pool_capacity else 0.0

    mains = sum(s[3] - s[2] for s in named["cli.main"])
    m["bench.self_s"] = wall - mains
    m["trace.accounted_share"] = sum(layer_self.values()) / wall
    m["trace.spans"] = len(spans)
    return m


#: metrics that count work; they must repeat exactly from pass to pass
EXACT = ("curves.grid_builds", "magnus.cost_calls", "optimizer.evals", "simulate.points",
         "linalg.su2_steps", "linalg.dense_steps", "linalg.reduce_bytes",
         "frames.ham_samples", "cli.bytes_written", "trace.spans")


def combine(per_pass: list) -> tuple:
    """Median of each metric over traced passes, and the exact counts that differ."""
    names = per_pass[0].keys()
    merged = {k: statistics.median(p[k] for p in per_pass) for k in names}
    unstable = [k for k in EXACT if len({p[k] for p in per_pass}) > 1]
    return merged, unstable
