"""The program names that the benchmark harness under bench/ relies on.

The harness reports a missing name as "unmeasured" instead of failing, so a
deletion in `src/` that breaks it would otherwise go unnoticed. The bench
files are read as syntax trees, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_imports():
    """(file, module, name) for every `from vhetsim... import name` under bench/."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vhetsim":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def traced_spans():
    """The (module, function) pairs of the SPANS table in bench/tracer.py."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return sorted(ast.literal_eval(node.value).values())
    raise AssertionError("bench/tracer.py has no SPANS table")


def resolves(module, name):
    try:
        imported = importlib.import_module(module)
        if not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    imports = bench_imports()
    assert len(imports) > 10
    missing = [f"{where}: from {module} import {name}"
               for where, module, name in imports if not resolves(module, name)]
    assert missing == []


def test_traced_functions_exist():
    missing = [f"vhetsim.{module}.{function}" for module, function in traced_spans()
               if not callable(getattr(importlib.import_module(f"vhetsim.{module}"), function, None))]
    assert missing == []


def test_exhaustive_accepts_limit():
    from vhetsim.switching import optimize_exhaustive

    assert "limit" in inspect.signature(optimize_exhaustive).parameters
