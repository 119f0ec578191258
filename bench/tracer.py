"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped call records a span (name, start, end, parent). A function is
wrapped by replacing every reference to it in every loaded `vhetsim` module,
so calls through `from .x import f` names are traced as well. A function that
no longer exists is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, function); the span name is the layer-qualified name
SPANS = {
    "cli.main": ("cli", "main"),
    "config.load_config": ("config", "load_config"),
    "experiment.load_corpus": ("experiment", "load_corpus"),
    "experiment.run_experiment": ("experiment", "run_experiment"),
    "ingest.load_profile_cache": ("ingest", "load_profile_cache"),
    "ingest.ingest_dataset": ("ingest", "ingest_dataset"),
    "ingest.save_profile_cache": ("ingest", "save_profile_cache"),
    "switching.optimize_greedy": ("switching", "optimize_greedy"),
    "switching.optimize_exhaustive": ("switching", "optimize_exhaustive"),
    "power.total_power": ("power", "total_power"),
    "estimate.rank_neighbors": ("estimate", "rank_neighbors"),
    "estimate.select_random": ("estimate", "select_random"),
    "estimate.estimate_weighted": ("estimate", "estimate_weighted"),
    "estimate.estimate_mean": ("estimate", "estimate_mean"),
    "estimate.mlc_estimate": ("estimate", "mlc_estimate"),
    "estimate.elbow_g": ("estimate", "elbow_g"),
    "estimate.kmeans_cluster": ("estimate", "kmeans_cluster"),
    "metrics.mean_estimation_error": ("metrics", "mean_estimation_error"),
    "metrics.empirical_p_err": ("metrics", "empirical_p_err"),
    "metrics.decision_change_rate": ("metrics", "decision_change_rate"),
    "reporting.emit_report": ("reporting", "emit_report"),
}

# calls whose arguments and results the reference checks inspect afterwards
CAPTURED = ("switching.optimize_greedy", "switching.optimize_exhaustive",
            "estimate.rank_neighbors", "estimate.estimate_weighted",
            "estimate.mlc_estimate", "estimate.elbow_g", "estimate.kmeans_cluster",
            "experiment.run_experiment")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.captured = defaultdict(list)    # span name -> [(args, kwargs, result)]
        self.unmeasured: list[str] = []
        self.originals: dict = {}            # span name -> unwrapped function
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, capture = self.spans, self._stack, name in CAPTURED
        captured = self.captured[name]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            if capture:
                # callers may mutate array arguments after the call returns
                captured.append((tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args),
                                 kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS wherever a vhetsim module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "vhetsim" or n.startswith("vhetsim.")) and m is not None]
        for name, (module_name, attr) in SPANS.items():
            try:
                fn = getattr(importlib.import_module(f"vhetsim.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(name)
                continue
            self.originals[name] = fn
            wrapper = self.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
