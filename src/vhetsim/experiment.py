"""The per-slot simulation loop tying ingestion, switching and estimation together.

Each iteration draws a fresh random set of grid cells to act as the SBSs of
one macro cell. Per time slot the optimizer picks a sleep mask from the true
loads, the configured estimator fills in the sleepers' loads, the optimizer
runs again on the estimated loads, and the discrepancy metrics are recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import InsufficientNeighborsError, SimulationError
from .estimate import (CellLoad, CellPool, NeighborSet, estimate_mean, estimate_weighted, mlc_estimate,
                       rank_neighbors, select_random)
from .ingest import Corpus, ingest_dataset, load_profile_cache, synth_traffic
from .metrics import decision_change_rate, empirical_p_err, mean_estimation_error
from .power import BaseStation, Network, NetworkLoadState, Tier
from .switching import HAPS, MBS, optimize_exhaustive, optimize_greedy


class SlotRow(NamedTuple):
    """One (iteration, slot) pair's outputs. The fields are the columns of rows.csv, in
    order, and every field after `slot` is aggregated in the summary. NaN marks undefined."""

    iteration: int
    slot: int
    mean_eps: float
    power_true_w: float
    power_est_w: float
    decision_change: float
    p_off_on: float
    p_on_off: float


@dataclass
class ExperimentReport:
    rows: list[SlotRow]
    config_echo: str
    seed: int
    version: str = __version__
    skipped_zero_load: int = 0

    def summary(self) -> dict:
        aggregates = {}
        for k, name in enumerate(SlotRow._fields[2:], start=2):
            arr = np.asarray([row[k] for row in self.rows], dtype=float)
            finite = arr[~np.isnan(arr)]
            aggregates[name] = {
                "mean": float(finite.mean()) if finite.size else math.nan,
                "std": float(finite.std()) if finite.size else math.nan,
                "defined_rows": int(finite.size),
            }
        return {
            "rows": len(self.rows),
            "aggregates": aggregates,
            "skipped_zero_load_samples": self.skipped_zero_load,
            "seed": self.seed,
            "version": self.version,
        }


def load_corpus(config: ExperimentConfig) -> Corpus:
    """Resolve the traffic corpus: cache file, raw CDR directory or synthetic."""
    if config.dataset is not None:
        path = Path(config.dataset)
        if path.is_dir():
            return ingest_dataset(path, config.grid_side, config.cell_size_m)
        return load_profile_cache(path)
    return synth_traffic(config.synth)


def build_network(config: ExperimentConfig, corpus: Corpus, sbs_rows) -> Network:
    """The HAPS, the MBS and one SBS at each of the corpus rows `sbs_rows`, in that order."""
    haps = BaseStation("haps", Tier.HAPS, (0.0, 0.0), config.capacity["haps"], config.power["haps"])
    mbs = BaseStation("mbs", Tier.MBS, (0.0, 0.0), config.capacity["mbs"], config.power["mbs"])
    sbs = tuple(
        BaseStation(f"sbs-{cell_id}", Tier.SBS, (x, y), config.capacity["sbs"], config.power["sbs"])
        for cell_id, (x, y) in zip(corpus.ids[sbs_rows].tolist(), corpus.xy[sbs_rows].tolist())
    )
    return Network(haps, mbs, sbs)


def _estimator_seed(spec_seed: int, iteration: int, slot: int) -> int:
    return int(np.random.SeedSequence([spec_seed, iteration, slot]).generate_state(1)[0])


class _NearestCells:
    """Each SBS cell's N + s - 1 nearest cells, ranked once by `rank_neighbors` on the whole corpus.
    Only sleeping SBSs leave a slot's pool, so less the slot's sleepers they start with its N nearest."""

    def __init__(self, corpus: Corpus, count: int):
        self.corpus, self.count, self.ranked = corpus, count, {}    # row -> rows, distances
        self.pool = CellPool(corpus.ids, corpus.xy, np.zeros(len(corpus)))    # ranking reads positions only
        self.id_order = np.argsort(corpus.ids)

    def neighbors(self, target: CellLoad, row: int, active: np.ndarray, slot: int, n: int) -> NeighborSet:
        if row not in self.ranked:
            ranked = rank_neighbors(target, self.pool, self.count)
            self.ranked[row] = (self.id_order[np.searchsorted(self.corpus.ids, ranked.ids, sorter=self.id_order)],
                                ranked.distances)
        rows, distances = self.ranked[row]
        kept = np.flatnonzero(active[rows])
        if len(kept) < n:
            raise InsufficientNeighborsError(f"need {n} active cells, only {len(kept)} available")
        kept = kept[:n]
        rows = rows[kept]
        return NeighborSet(self.corpus.ids[rows], distances[kept], self.corpus.loads[rows, slot])


def _estimate_sleepers(config, corpus, sbs_rows, sleepers, true_loads, slot,
                       iteration, last_known, nearest):
    """Return estimated loads for the sleeping SBSs, keyed by SBS index."""
    spec = config.estimator
    if spec.method == "perfect":
        return {j: true_loads[j] for j in sleepers}

    sleeper_rows = [sbs_rows[j] for j in sleepers]
    active = np.ones(len(corpus), dtype=bool)
    active[sleeper_rows] = False
    seed = _estimator_seed(spec.seed, iteration, slot)

    if spec.method == "mlc":
        values = corpus.loads[:, slot].copy()
        global_mean = float(values[active].mean())
        for j, row in zip(sleepers, sleeper_rows):
            known = last_known.get(j)
            values[row] = known if known is not None else global_mean
        estimated = mlc_estimate(values, active, layers=spec.layer_count, clusters=spec.cluster_count, seed=seed,
                                 features=corpus.loads if config.cluster_features == "profile" else None)
        return {j: float(estimated[row]) for j, row in zip(sleepers, sleeper_rows)}

    if spec.method.startswith("random"):
        pool = CellPool(corpus.ids[active], corpus.xy[active], corpus.loads[active, slot])
    out = {}
    for j, row in zip(sleepers, sleeper_rows):
        x, y = corpus.xy[row].tolist()
        target = CellLoad(int(corpus.ids[row]), (x, y), 0.0)
        if spec.method.startswith("distance"):
            neighbors = nearest.neighbors(target, row, active, slot, spec.neighbor_count)
        else:
            neighbors = select_random(target, pool, spec.neighbor_count, seed=seed + j)
        if spec.method.endswith("weighted") and not spec.method.endswith("unweighted"):
            out[j] = estimate_weighted(neighbors, spec.distance_exponent)
        else:
            out[j] = estimate_mean(neighbors)
    return out


def run_experiment(config: ExperimentConfig, corpus: Corpus | None = None) -> ExperimentReport:
    """Run the full experiment; fully deterministic for a fixed config + seed.

    Every slot is solved twice, on the true and on the estimated loads, by the
    configured optimizer: this module's `optimize_greedy` or `optimize_exhaustive`,
    looked up when the call starts. The config refuses an exhaustive run above
    `exhaustive_limit`, so no run switches solvers. `corpus` is the result of
    `load_corpus(config)` when the caller already holds it, as a sweep does for
    the points that share one corpus.
    """
    if corpus is None:
        corpus = load_corpus(config)
    if len(corpus) <= config.sbs_count:
        raise SimulationError(
            f"corpus of {len(corpus)} cells cannot host {config.sbs_count} SBSs "
            "plus estimation neighbors"
        )
    s = config.sbs_count
    sinks = (HAPS,) if config.offload_sinks == "HAPS_only" else (HAPS, MBS)
    if config.optimizer == "exhaustive":
        solve = partial(optimize_exhaustive, sinks=sinks, limit=config.exhaustive_limit)
    else:
        solve = partial(optimize_greedy, sinks=sinks)
    nearest = _NearestCells(corpus, min(config.estimator.neighbor_count + s - 1, len(corpus) - 1))
    iter_seeds = np.random.SeedSequence(config.seed).spawn(config.iteration_count)
    rows: list[SlotRow] = []
    skipped_total = 0
    for iteration, seed_seq in enumerate(iter_seeds):
        rng = np.random.default_rng(seed_seq)
        sbs_rows = rng.choice(len(corpus), size=s, replace=False).tolist()
        net = build_network(config, corpus, sbs_rows)
        last_known: dict[int, float] = {}
        for slot in range(config.slot_count):
            try:
                true_loads = corpus.loads[sbs_rows, slot].tolist()
                base = config.base_load
                loads0 = NetworkLoadState(base["haps"], base["mbs"], tuple(true_loads))
                decision, _, p_true = solve(net, loads0)
                sleepers = [j for j, off in enumerate(decision.asleep) if off]

                estimates = _estimate_sleepers(
                    config, corpus, sbs_rows, sleepers, true_loads,
                    slot, iteration, last_known, nearest,
                )
                for j, off in enumerate(decision.asleep):
                    if not off:
                        last_known[j] = true_loads[j]

                est_loads = tuple(estimates.get(j, lam) for j, lam in enumerate(true_loads))
                loads_est0 = NetworkLoadState(base["haps"], base["mbs"], est_loads)
                decision_est, _, p_est = solve(net, loads_est0)

                pairs = [(true_loads[j], estimates[j]) for j in sleepers]
                eps, skipped = mean_estimation_error(pairs) if pairs else (0.0, 0)
                skipped_total += skipped
                p_off_on, p_on_off = empirical_p_err(pairs, config.lambda_th)
                rows.append(SlotRow(
                    iteration, slot, eps, p_true, p_est, decision_change_rate(decision.delta, decision_est.delta),
                    math.nan if p_off_on is None else p_off_on, math.nan if p_on_off is None else p_on_off,
                ))
            except SimulationError as exc:
                raise SimulationError(f"iteration {iteration}, slot {slot}: {exc}") from exc
    return ExperimentReport(
        rows=rows,
        config_echo=config.to_yaml(),
        seed=config.seed,
        skipped_zero_load=skipped_total,
    )
