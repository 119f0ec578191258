"""Size ladders: single-layer timings by problem size, through the public API.

Each entry times one layer on its own (a solve by SBS count, an estimator
call by corpus size, corpus and cache I/O, report emission) and returns the
median over a fixed number of repeats, as a metric with its unit. An entry whose program function is
gone or has a new signature is reported as unmeasured.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import POWER_TOL_W, Checks
from gen_inputs import CELL_SIZE_M, centroid, raw_loads
from reference import exact_optimum, problem_from_call

GREEDY_SIZES = (4, 8, 12, 16, 20)
EXHAUSTIVE_SIZES = {4: 5, 6: 5, 8: 5, 10: 3, 12: 1}    # s -> instances timed
ESTIMATOR_CELLS = {576: 5, 10000: 3}                   # cells -> repeats
SLEEPERS = 10
ESTIMATOR_SLOT = 3


def _ms(times) -> dict:
    return {"value": 1e3 * statistics.median(times), "unit": "ms"}


def _s(times) -> dict:
    return {"value": statistics.median(times), "unit": "s"}


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def _instances(rng, s, count):
    from vhetsim.config import DEFAULT_BASE_LOAD, DEFAULT_CAPACITY, DEFAULT_POWER
    from vhetsim.power import BaseStation, Network, NetworkLoadState, PowerParams, Tier

    def station(name, tier, capacity, power):
        return BaseStation(name, tier, (0.0, 0.0), capacity, PowerParams(**power))

    net = Network(station("haps", Tier.HAPS, DEFAULT_CAPACITY["haps"], DEFAULT_POWER["haps"]),
                  station("mbs", Tier.MBS, DEFAULT_CAPACITY["mbs"], DEFAULT_POWER["mbs"]),
                  tuple(station(f"sbs-{j}", Tier.SBS, DEFAULT_CAPACITY["sbs"], DEFAULT_POWER["sbs"])
                        for j in range(s)))
    return [(net, NetworkLoadState(DEFAULT_BASE_LOAD["haps"], DEFAULT_BASE_LOAD["mbs"],
                                   tuple(rng.uniform(0.0, 0.8, size=s).tolist())))
            for _ in range(count)]


def solvers(seed: int, checks: Checks) -> dict:
    from vhetsim.switching import HAPS, MBS, optimize_exhaustive, optimize_greedy

    sinks = (HAPS, MBS)
    rng = np.random.default_rng([seed, 1])
    out = {}
    for s in GREEDY_SIZES:
        times = [_timed(optimize_greedy, net, loads, sinks=sinks)[0] for net, loads in _instances(rng, s, 15)]
        out[f"switching.greedy_ms.s{s}"] = _ms(times)
    for s, count in EXHAUSTIVE_SIZES.items():
        times, exact, greedy = [], [], []
        for net, loads in _instances(rng, s, count):
            elapsed, (_, _, power) = _timed(optimize_exhaustive, net, loads, sinks=sinks, limit=max(s, 14))
            times.append(elapsed)
            best = exact_optimum(problem_from_call({"net": net, "loads": loads, "sinks": sinks}))
            exact.append((power, best))
            greedy.append(optimize_greedy(net, loads, sinks=sinks)[2] - best)
        checks.expect(f"ladder: exhaustive s={s} matches the enumeration optimum ({count} instances)",
                      all(abs(p - b) <= POWER_TOL_W for p, b in exact), f"(returned, optimum) {exact}")
        checks.expect(f"ladder: greedy s={s} at or above the optimum ({count} instances)",
                      min(greedy) >= -POWER_TOL_W, f"greedy minus optimum {greedy}")
        out[f"switching.exhaustive_ms.s{s}"] = _ms(times)
        if s == 10:
            out["switching.greedy_excess_w.s10"] = {"value": statistics.fmean(greedy), "unit": "W"}
    return out


def _corpus(seed, side):
    loads = np.clip(raw_loads(np.random.default_rng([seed, side]), side)[0], 0.0, 1.0)
    xs, ys = centroid(np.arange(1, side * side + 1), side)
    return loads, np.column_stack([xs, ys])


def estimators(seed: int) -> dict:
    from vhetsim.estimate import (CellLoad, elbow_g, estimate_weighted, mlc_estimate,
                                  rank_neighbors, select_random)

    out = {}
    for cells, repeats in ESTIMATOR_CELLS.items():
        side = int(round(cells ** 0.5))
        loads, xy = _corpus(seed, side)
        values = loads[:, ESTIMATOR_SLOT]
        rng = np.random.default_rng([seed, cells, 2])
        sleepers = rng.choice(cells, size=SLEEPERS, replace=False)
        active = np.ones(cells, dtype=bool)
        active[sleepers] = False
        pool = [CellLoad(i + 1, (float(xy[i, 0]), float(xy[i, 1])), float(values[i]))
                for i in np.flatnonzero(active)]
        targets = [CellLoad(int(i) + 1, (float(xy[i, 0]), float(xy[i, 1])), 0.0) for i in sleepers]

        def distance_weighted():
            for t in targets:
                estimate_weighted(rank_neighbors(t, pool, 20), 3.0)

        def random_weighted():
            for k, t in enumerate(targets):
                estimate_weighted(select_random(t, pool, 20, seed=seed + k), 3.0)

        def mlc():
            guess = values.copy()
            guess[~active] = values[active].mean()
            mlc_estimate(guess, active, layers=2, clusters="elbow", seed=seed)

        # one estimator call fills in every sleeper of one slot
        for name, fn in (("distance_weighted", distance_weighted), ("random_weighted", random_weighted),
                         ("mlc", mlc)):
            out[f"estimate.{name}_ms.c{cells}"] = _ms([_timed(fn)[0] for _ in range(repeats)])
        if cells == 10000:
            out["estimate.elbow_g_ms.c10000"] = _ms([_timed(elbow_g, values, seed=seed)[0]
                                                     for _ in range(repeats)])
    return out


def corpus_io(seed: int, checks: Checks, work: Path) -> dict:
    """Program synthetic corpus build, then a 10k-cell cache write and read."""
    from vhetsim.ingest import SynthParams, load_profile_cache, save_profile_cache, synth_traffic

    out = {}
    for cells, repeats in ((576, 3), (10000, 1)):
        params = SynthParams(grid_side=int(round(cells ** 0.5)), spatial_correlation_length=4 * CELL_SIZE_M,
                             noise_std=0.2, seed=seed)
        times = []
        for _ in range(repeats):
            elapsed, profiles = _timed(synth_traffic, params)
            times.append(elapsed)
        out[f"ingest.synth_traffic_s.c{cells}"] = _s(times)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "cache.csv"
        write_s, _ = _timed(save_profile_cache, profiles, path)
        read_s, loaded = _timed(load_profile_cache, path)
    out["ingest.cache_write_s.c10000"] = _s([write_s])
    out["ingest.cache_read_s.c10000"] = _s([read_s])
    same = (len(loaded) == len(profiles)
            and all(a.cell_id == b.cell_id and a.position == b.position and a.slots == b.slots
                    for a, b in zip(loaded, profiles)))
    checks.expect("reference: profile cache survives a write and read bit for bit", same,
                  "values differ after the round trip")
    return out


def emit(report, work: Path) -> dict:
    from vhetsim.reporting import emit_report

    with tempfile.TemporaryDirectory(dir=work) as tmp:
        times = [_timed(emit_report, report, Path(tmp) / f"r{k}")[0] for k in range(5)]
    return {"reporting.emit_report_ms": _ms(times)}
