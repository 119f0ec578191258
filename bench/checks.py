"""Checks of the program's outputs.

`run_level` reads only `rows.csv` and `summary.json` of one simulate run.
`reference_checks` replays the calls a traced run captured against the
independent references in `reference.py`.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
from pathlib import Path

import numpy as np

from reference import (ENUM_MAX_S, all_on_power, exact_optimum, ingested_profiles,
                       inverse_distance_estimate, lloyd_fixed_point_error, nearest_ids,
                       problem_from_call, relaxed_lower_bound)

POWER_TOL_W = 1e-9
ESTIMATE_TOL = 1e-12


class Checks:
    """Named pass/fail results; a check whose input the program no longer
    provides in the expected shape is recorded as unchecked."""

    def __init__(self):
        self.failed: list[str] = []
        self.passed: list[str] = []
        self.unchecked: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        (self.passed if ok else self.failed).append(name if ok else f"{name}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.failed


def read_rows(outdir) -> dict[str, np.ndarray]:
    with open(Path(outdir) / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in (rows[0] if rows else [])}


def power_bounds(power: dict, base_load: dict, s: int) -> tuple[float, float]:
    """Smallest and largest network power the EARTH parameters allow."""
    def active(tier, load):
        p = power[tier]
        return p["operational_w"] + p["amplifier_eff"] * load * p["transmit_w"]

    low = active("haps", base_load["haps"]) + active("mbs", base_load["mbs"]) + s * power["sbs"]["sleep_w"]
    high = active("haps", 1.0) + active("mbs", 1.0) + s * active("sbs", 1.0)
    return low, high


def run_level(checks: Checks, tag: str, outdir, perfect_outdir, config: dict) -> None:
    """Checks on one simulate run's rows.csv and summary.json."""
    rows = read_rows(outdir)
    summary = json.loads((Path(outdir) / "summary.json").read_text(encoding="utf-8"))
    expected = config["iteration_count"] * config["slot_count"]
    n = len(rows.get("power_true_w", []))
    checks.expect(f"{tag}: rows = iterations x slots", n == expected and summary["rows"] == expected,
                  f"{n} rows, summary {summary['rows']}, expected {expected}")
    if n == 0:
        return
    low, high = power_bounds(config["power"], config["base_load"], config["sbs_count"])
    for col in ("power_true_w", "power_est_w"):
        v = rows[col]
        bad = v[~(np.isfinite(v) & (v >= low - POWER_TOL_W) & (v <= high + POWER_TOL_W))]
        checks.expect(f"{tag}: {col} finite and within EARTH bounds [{low}, {high}] W",
                      bad.size == 0, f"values {bad[:3].tolist()}")
    s = config["sbs_count"]
    dc = rows["decision_change"]
    bad = dc[~((dc >= 0) & (dc <= 1) & (np.abs(dc * s - np.rint(dc * s)) < 1e-9))]
    checks.expect(f"{tag}: decision_change is a multiple of 1/s in [0, 1]", bad.size == 0,
                  f"values {bad[:3].tolist()}")
    for col in ("p_off_on", "p_on_off"):
        v = rows[col]
        bad = v[~(np.isnan(v) | ((v >= 0) & (v <= 1)))]
        checks.expect(f"{tag}: {col} in [0, 1] or NaN", bad.size == 0, f"values {bad[:3].tolist()}")
    agg = summary["aggregates"]["power_true_w"]["mean"]
    checks.expect(f"{tag}: summary mean power matches rows",
                  abs(agg - rows["power_true_w"].mean()) <= 1e-9 * abs(agg), f"{agg} vs {rows['power_true_w'].mean()}")

    perfect = read_rows(perfect_outdir)
    checks.expect(f"{tag}: power_true equals the perfect-estimator run",
                  np.array_equal(perfect.get("power_true_w"), rows["power_true_w"]), "columns differ")
    checks.expect(f"{tag}: perfect run has power_est == power_true",
                  np.array_equal(perfect["power_est_w"], perfect["power_true_w"]), "columns differ")
    checks.expect(f"{tag}: perfect run has decision_change == 0",
                  bool((perfect["decision_change"] == 0).all()), "non-zero decision change")
    eps = perfect["mean_eps"]
    bad = eps[~(np.isnan(eps) | (eps == 0))]
    checks.expect(f"{tag}: perfect run has mean_eps 0 or NaN", bad.size == 0, f"values {bad[:3].tolist()}")


def identical_outputs(checks: Checks, tag: str, outputs: list[dict]) -> None:
    """Every run of one config and seed gives the same bytes as the first."""
    for name in ("rows.csv", "summary.json"):
        checks.expect(f"{tag}: {name} byte-identical over {len(outputs)} runs of the same seed",
                      len(outputs) >= 2 and all(o[name] == outputs[0][name] for o in outputs),
                      "bytes differ or fewer than two runs succeeded")


def output_bytes(outdir) -> dict:
    return {name: (Path(outdir) / name).read_bytes() for name in ("rows.csv", "summary.json")}


def bind_call(fn, args, kwargs) -> dict:
    """A captured call's arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def reference_checks(checks: Checks, captured: dict, originals: dict) -> None:
    """Replay the calls a traced run captured against the references.

    A check whose function is gone, or whose arguments or result no longer
    have the expected shape, is recorded as unchecked."""

    def replay(span, check_one):
        calls = captured.get(span, [])
        problems = []
        for args, kwargs, result in calls:
            try:
                problem = check_one(bind_call(originals[span], args, kwargs), result)
            except (AttributeError, TypeError, KeyError, IndexError) as exc:
                checks.unchecked.append(f"reference: {span} ({type(exc).__name__}: {exc})")
                return
            if problem:
                problems.append(problem)
        checks.expect(f"reference: {span} ({len(calls)} calls)", not problems,
                      f"{len(problems)} wrong, first: {problems[0] if problems else ''}")

    def exhaustive(call, result):
        best = exact_optimum(problem_from_call(call))
        if abs(result[2] - best) > POWER_TOL_W:
            return f"returned {result[2]!r} W, enumeration optimum {best!r} W"

    def greedy(call, result):
        pb = problem_from_call(call)
        low = exact_optimum(pb) if len(pb["own"]) <= ENUM_MAX_S else relaxed_lower_bound(pb)
        high = all_on_power(pb)
        if not low - POWER_TOL_W <= result[2] <= high + POWER_TOL_W:
            return f"returned {result[2]!r} W outside [{low!r}, {high!r}]"

    pools = {}

    def nearest(call, result):
        target, cells = call["target"], call["cells"]
        if id(cells) not in pools:
            pools[id(cells)] = (np.array([c.cell_id for c in cells]),
                                np.array([c.position for c in cells], dtype=float),
                                {c.cell_id: c.load for c in cells})
        ids, xy, loads = pools[id(cells)]
        want_ids, want_d = nearest_ids(ids, xy, target.cell_id, target.position, call["n_neighbors"])
        got = result.neighbors
        got_ids = [nb.cell_id for nb in got]
        if got_ids != want_ids.tolist():
            return f"target {target.cell_id}: ids {got_ids} vs brute force {want_ids.tolist()}"
        if any(abs(nb.distance - d) > 1e-9 * d or nb.load != loads[nb.cell_id] for nb, d in zip(got, want_d)):
            return f"target {target.cell_id}: distances or loads differ"

    def weighted(call, result):
        neighbors = call["neighbors"].neighbors
        want = inverse_distance_estimate([nb.load for nb in neighbors], [nb.distance for nb in neighbors],
                                         call["n"])
        if abs(result - want) > ESTIMATE_TOL:
            return f"returned {result!r}, formula {want!r}"

    def kmeans(call, result):
        return lloyd_fixed_point_error(call["points"], result.centroids, result.assignment)

    def elbow(call, result):
        g_range = [g for g in call["g_range"] if g <= len(np.asarray(call["points"]))]
        if result not in g_range:
            return f"elbow G {result} outside {g_range[0]}..{g_range[-1]}"

    def mlc(call, result):
        sleepers = np.asarray(result, dtype=float)[~np.asarray(call["active"], dtype=bool)]
        if not ((sleepers >= 0) & (sleepers <= 1)).all():
            return f"sleeper estimates outside [0, 1]: {sleepers.min()}..{sleepers.max()}"

    for span, fn in (("switching.optimize_exhaustive", exhaustive), ("switching.optimize_greedy", greedy),
                     ("estimate.rank_neighbors", nearest), ("estimate.estimate_weighted", weighted),
                     ("estimate.kmeans_cluster", kmeans), ("estimate.elbow_g", elbow),
                     ("estimate.mlc_estimate", mlc)):
        if span in originals:
            replay(span, fn)
        else:
            checks.unchecked.append(f"reference: {span} (function not found)")


def ingest_check(checks: Checks, cache_path, totals_path, days: int) -> None:
    """The ingested cache equals generator totals / days / corpus peak."""
    totals = np.load(totals_path)
    want = ingested_profiles(totals, days)
    with open(cache_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = {int(r[0]): np.array([float(v) for v in r[3:]]) for r in reader}
    ids = sorted(rows)
    ok = ids == list(range(1, len(want) + 1))
    worst = max(float(np.abs(rows[i] - want[i - 1]).max()) for i in ids) if ok else math.inf
    checks.expect("reference: ingested profiles = totals / days / peak",
                  ok and worst <= ESTIMATE_TOL, f"{len(ids)} cells, worst difference {worst}")
