"""The package names and argument names that the benchmark in bench/ reads.

bench/ drives the package from outside: it imports names, patches
`cli._threaded_sweep`, binds the arguments of traced calls by name,
counts spans by function name and leaves the names in `UNWRAPPED` unwrapped. A rename there breaks a benchmark run, not
a test, so these checks read bench/'s source and look each name up in the
package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"
LAYERS = ("curves", "magnus", "optimizer", "simulate", "linalg", "frames", "cli")
#: span names that the tracer makes up rather than takes from a function
SYNTHETIC_SPANS = {"curves.grid_build": ("curves", "CurveGrid"),
                   "cli.pool": ("cli", "_threaded_sweep")}
#: span names the tracer still counts whose function the package has dropped,
#: so the metrics read from them are 0 (ROADMAP item 15 lists the tracer fixes)
REMOVED_SPANS = {"curves.curve_grid", "frames.lab_hamiltonian_samples",
                 "frames.reduced_hamiltonian_samples", "linalg.expm_hermitian",
                 "linalg.expm_hermitian_batch", "linalg.su2_exp_batch"}
#: names the tracer leaves unwrapped whose function the package has dropped
REMOVED_UNWRAPPED = {"cli.format_float"}


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _lookup(module, name):
    """The object `from module import name` binds, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _assigned(tree, name):
    """The value node of the module-level assignment to `name`."""
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == name for t in n.targets)]
    return value


def _span_function(span):
    layer, attr = SYNTHETIC_SPANS.get(span, span.split(".", 1))
    return getattr(importlib.import_module(f"geodesic_gates.{layer}"), attr, None)


def _keys_read(node, functions):
    """String keys subscripted in `node`, following calls to `functions` by name."""
    keys = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant) \
                and isinstance(sub.slice.value, str):
            keys.add(sub.slice.value)
        elif isinstance(sub, ast.Name) and sub.id in functions:
            keys |= _keys_read(functions[sub.id], functions)
    return keys


@pytest.mark.parametrize("source", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_and_keywords_exist(source):
    # every `from geodesic_gates... import name`, every keyword that bench/
    # passes to such a name, and every attribute it reads off a package module
    tree = _tree(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("geodesic_gates"):
            for alias in node.names:
                obj = _lookup(node.module, alias.name)
                assert obj is not None, f"{source}: {node.module}.{alias.name}"
                imported[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and callable(imported.get(node.func.id)):
            params = inspect.signature(imported[node.func.id]).parameters
            for kw in node.keywords:
                if kw.arg is not None:
                    assert kw.arg in params, f"{source}: {node.func.id}({kw.arg}=...)"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in LAYERS:
            module = importlib.import_module(f"geodesic_gates.{node.value.id}")
            assert hasattr(module, node.attr), f"{source}: {node.value.id}.{node.attr}"


def test_bench_traced_functions_and_arguments_exist():
    # the tracer binds each WORK entry's arguments by name, and the per-layer
    # metrics count spans by function name
    tree = _tree("tracing.py")
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    work = _assigned(tree, "WORK")
    for key, reader in zip(work.keys, work.values):
        fn = _span_function(key.value)
        if fn is not None:
            params = inspect.signature(fn).parameters
            missing = _keys_read(reader, functions) - set(params)
            assert not missing, f"WORK[{key.value!r}] reads {missing}"
    metrics = functions["pass_metrics"]
    spans = {node.args[0].value for node in ast.walk(metrics)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("count", "incl")
             and isinstance(node.args[0], ast.Constant)}
    spans |= {node.slice.value for node in ast.walk(metrics)
              if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "named"
              and isinstance(node.slice, ast.Constant)}
    assert spans, "pass_metrics names no spans"
    for span in sorted(spans - REMOVED_SPANS):
        assert _span_function(span) is not None, span
    assert all(_span_function(span) is None for span in REMOVED_SPANS)


def test_bench_unwrapped_names_exist():
    # the tracer skips each UNWRAPPED name when it wraps a module's functions
    unwrapped = ast.literal_eval(_assigned(_tree("tracing.py"), "UNWRAPPED"))
    for name in sorted(unwrapped - REMOVED_UNWRAPPED):
        assert _span_function(name) is not None, name
    assert all(_span_function(name) is None for name in REMOVED_UNWRAPPED)
