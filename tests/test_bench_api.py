"""The program names and config keys that the benchmark harness under bench/
relies on.

The harness reports a missing name as "unmeasured" instead of failing, so a
deletion in `src/` that breaks it would otherwise go unnoticed. The bench
files are read as syntax trees, never imported.
"""

import ast
import functools
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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


def run_tables():
    """POWER, BASE and WORKLOADS of bench/run.py, evaluated from their syntax trees."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in ("POWER", "BASE", "WORKLOADS"):
            # the tables are literals that may name the tables before them
            expression = ast.fix_missing_locations(ast.Expression(node.value))
            tables[node.targets[0].id] = eval(compile(expression, "bench/run.py", "eval"),
                                              {"__builtins__": {}}, dict(tables))
    assert sorted(tables) == ["BASE", "POWER", "WORKLOADS"]
    return tables


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


def test_workload_configs_resolve(tmp_path):
    from vhetsim.config import resolve_config

    tables = run_tables()
    assert sorted(tables["WORKLOADS"]) == ["paper-distance", "paper-mlc"]
    for name, spec in tables["WORKLOADS"].items():
        # the config that bench/run.py writes for one workload
        spec = {key: value for key, value in spec.items() if key != "input"}
        raw = {**tables["BASE"], **spec, "dataset": str(tmp_path / "cache.csv"), "seed": 1,
               "estimator": {**spec["estimator"], "seed": 1}}
        config = resolve_config(raw)
        assert config.exhaustive_limit == tables["BASE"]["exhaustive_limit"], name


# the parameters that bench/checks.py and bench/reference.py read, by name,
# from each captured call once it is bound to the function's signature
BOUND_PARAMETERS = {
    ("estimate", "kmeans_cluster"): ("points",),
    ("estimate", "elbow_g"): ("points", "g_range"),
    ("estimate", "rank_neighbors"): ("target", "cells", "n_neighbors"),
    ("estimate", "estimate_weighted"): ("neighbors", "n"),
    ("estimate", "mlc_estimate"): ("active",),
    ("switching", "optimize_greedy"): ("net", "loads", "sinks"),
    ("switching", "optimize_exhaustive"): ("net", "loads", "sinks"),
}


def test_checked_calls_keep_their_parameter_names():
    missing = []
    for (module, function), names in BOUND_PARAMETERS.items():
        parameters = inspect.signature(getattr(importlib.import_module(f"vhetsim.{module}"), function)).parameters
        missing += [f"vhetsim.{module}.{function}({name})" for name in names if name not in parameters]
    assert missing == []


def test_bound_parameter_table_covers_the_checks():
    # every call["name"] that the bench reads appears in the table above
    read = set()
    for path in (BENCH / "checks.py", BENCH / "reference.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                    and node.value.id == "call" and isinstance(node.slice, ast.Constant):
                read.add(node.slice.value)
    assert read == {name for names in BOUND_PARAMETERS.values() for name in names}


def capture_calls(monkeypatch, names):
    """Wrap `vhetsim.estimate` functions as bench/tracer.py does, replacing every
    reference to each in every loaded vhetsim module; returns each one's calls
    as (args, kwargs, result)."""
    estimate = importlib.import_module("vhetsim.estimate")
    modules = [m for n, m in list(sys.modules.items())
               if (n == "vhetsim" or n.startswith("vhetsim.")) and m is not None]
    calls = {name: [] for name in names}

    def wrap(name, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append((args, kwargs, result))
            return result
        return captured

    for name in names:
        fn = getattr(estimate, name)
        wrapper = wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def small_run(estimator):
    from vhetsim.config import resolve_config
    from vhetsim.experiment import run_experiment

    run_experiment(resolve_config({"sbs_count": 4, "synth": {"grid_side": 10, "seed": 2}, "estimator": estimator,
                                   "iteration_count": 1, "slot_count": 2, "optimizer": "greedy"}))


# the estimator functions whose captured calls the traced bench run replays
# against its references; a run that bypasses them would pass with nothing checked
@pytest.mark.parametrize("estimator, checked", [
    ({"method": "distance_weighted", "neighbor_count": 5, "distance_exponent": 3},
     ("rank_neighbors", "estimate_weighted")),
    ({"method": "mlc", "cluster_count": "elbow", "layer_count": 2},
     ("kmeans_cluster", "elbow_g", "mlc_estimate")),
])
def test_checked_functions_are_called(monkeypatch, estimator, checked):
    calls = capture_calls(monkeypatch, checked)
    small_run(estimator)
    assert all(calls[name] for name in checked), {name: len(calls[name]) for name in checked}


def test_kmeans_results_hold_what_the_bench_counts(monkeypatch):
    # bench/run.py sums the sse_history lengths as estimate.kmeans_cluster.iterations
    # and counts those that reach _KMEANS_MAX_ITER
    from vhetsim.estimate import _KMEANS_MAX_ITER

    assert isinstance(_KMEANS_MAX_ITER, int)
    calls = capture_calls(monkeypatch, ("kmeans_cluster",))
    small_run({"method": "mlc", "cluster_count": "elbow", "layer_count": 2})
    assert calls["kmeans_cluster"]
    for _, _, result in calls["kmeans_cluster"]:
        assert 0 < len(result.sse_history) <= _KMEANS_MAX_ITER
        assert result.sse == result.sse_history[-1]


def bind(name, args, kwargs) -> dict:
    """A captured call's arguments by parameter name, as bench/checks.py binds them;
    the signature is that of the function the capture wraps."""
    fn = getattr(importlib.import_module("vhetsim.estimate"), name)
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def read_as_the_checks_do(neighbor_set) -> list[tuple]:
    """What bench/checks.py reads of a neighbour set: `.neighbors`, and of each
    item `cell_id`, `distance` and `load`."""
    fields = [(nb.cell_id, nb.distance, nb.load) for nb in neighbor_set.neighbors]
    assert all(isinstance(cell_id, int) and isinstance(distance, float) and isinstance(load, float)
               for cell_id, distance, load in fields)
    return fields


# a neighbour set that lost these would make the bench record its checks as
# unchecked instead of failing
@pytest.mark.parametrize("method, returned", [
    ("distance_weighted", "rank_neighbors"),
    ("random_weighted", "select_random"),
])
def test_neighbor_sets_expose_what_the_checks_read(monkeypatch, method, returned):
    calls = capture_calls(monkeypatch, (returned, "estimate_weighted"))
    small_run({"method": method, "neighbor_count": 5, "distance_exponent": 3})
    assert calls[returned] and calls["estimate_weighted"]
    for args, kwargs, result in calls[returned]:
        call = bind(returned, args, kwargs)
        assert len(read_as_the_checks_do(result)) == call["n_neighbors"]
        # the ranking check also reads the target and iterates the pool
        target = call["target"]
        assert isinstance(target.cell_id, int) and len(target.position) == 2
        assert all(isinstance(c.cell_id, int) and len(c.position) == 2 and isinstance(c.load, float)
                   for c in call["cells"])
    for args, kwargs, _ in calls["estimate_weighted"]:
        assert len(read_as_the_checks_do(bind("estimate_weighted", args, kwargs)["neighbors"])) == 5



@pytest.mark.parametrize("solver", ["optimize_greedy", "optimize_exhaustive"])
def test_solvers_take_and_return_what_the_bench_reads(solver):
    # bench/ladders.py builds the network and loads as below; bench/reference.py's
    # problem_from_call reads the loads' three fields and each station's capacity
    # and power coefficients; bench/checks.py reads result[2] as the power in watts;
    # bench/daymix.py patches experiment.optimize_greedy and counts result[0].delta's zeros
    import numpy as np

    import vhetsim.experiment
    from vhetsim.config import DEFAULT_BASE_LOAD, DEFAULT_CAPACITY, DEFAULT_POWER
    from vhetsim.power import BaseStation, Network, NetworkLoadState, PowerParams, Tier, total_power
    from vhetsim.switching import HAPS, MBS

    def station(name, tier, capacity, power):
        return BaseStation(name, tier, (0.0, 0.0), capacity, PowerParams(**power))

    solve = getattr(importlib.import_module("vhetsim.switching"), solver)
    extra = {"limit": 8} if solver == "optimize_exhaustive" else {}
    net = Network(station("haps", Tier.HAPS, DEFAULT_CAPACITY["haps"], DEFAULT_POWER["haps"]),
                  station("mbs", Tier.MBS, DEFAULT_CAPACITY["mbs"], DEFAULT_POWER["mbs"]),
                  tuple(station(f"sbs-{j}", Tier.SBS, DEFAULT_CAPACITY["sbs"], DEFAULT_POWER["sbs"])
                        for j in range(6)))
    rng = np.random.default_rng(3)
    slept = 0
    for sinks in ((HAPS, MBS), (HAPS,)):
        for _ in range(20):
            loads = NetworkLoadState(DEFAULT_BASE_LOAD["haps"], DEFAULT_BASE_LOAD["mbs"],
                                     tuple(rng.uniform(0.0, 0.8, size=6).tolist()))
            assert isinstance(loads.lambda_haps, float) and isinstance(loads.lambda_mbs, float)
            assert len(loads.lambda_sbs) == len(net.sbs) and all(isinstance(v, float) for v in loads.lambda_sbs)
            assert all(isinstance(b.capacity, float) and isinstance(b.power.sleep_w, float) for b in net.sbs)
            result = solve(net, loads, sinks=sinks, **extra)
            assert isinstance(result, tuple) and len(result) == 3
            assert isinstance(result[2], float)
            decision = result[0]
            delta = decision.delta
            assert isinstance(delta, tuple) and all(type(bit) is int for bit in delta) and set(delta) <= {0, 1}
            assert [j for j, bit in enumerate(delta) if bit == 0] == [j for j, off in enumerate(decision.asleep) if off]
            slept += delta.count(0)
            # bit for bit, so `repr` of the floats as well
            priced = total_power(net, *decision, loads.lambda_sbs, loads.lambda_haps, loads.lambda_mbs)
            assert repr(priced) == repr((result[2], *result[1]))
    assert slept and callable(vhetsim.experiment.optimize_greedy)
