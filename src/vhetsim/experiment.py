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
from .estimate import (METHODS, CellLoad, CellPool, NeighborSet, estimate_mean, estimate_weighted,
                       mlc_estimate, rank_neighbors, select_random)
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


def _estimate_sleepers(config, corpus, sbs_rows, sleepers, slot, seed, last_known, nearest) -> np.ndarray:
    """The estimated loads of the sleeping SBSs, one array in the order of `sleepers`.

    `sleepers` indexes the SBS cells `sbs_rows` (corpus rows); `seed` is the
    slot's estimator seed, from which random selection draws SBS j's neighbours
    with seed + j. `last_known[j]` is SBS j's load when it was last seen awake,
    NaN before that; MLC starts each sleeper there, or at the mean active load.
    """
    spec = config.estimator
    selection, weighted = METHODS[spec.method]
    sleeper_rows = sbs_rows[sleepers]
    if selection == "truth":
        return corpus.loads[sleeper_rows, slot]
    active = np.ones(len(corpus), dtype=bool)
    active[sleeper_rows] = False

    if selection == "clusters":
        values = corpus.loads[:, slot].copy()
        known = last_known[sleepers]
        values[sleeper_rows] = np.where(np.isnan(known), values[active].mean(), known)
        estimated = mlc_estimate(values, active, layers=spec.layer_count, clusters=spec.cluster_count, seed=seed,
                                 features=corpus.loads if config.cluster_features == "profile" else None)
        return estimated[sleeper_rows]

    if selection == "random":
        pool = CellPool(corpus.ids[active], corpus.xy[active], corpus.loads[active, slot])
    estimates = []
    for j, row in zip(sleepers.tolist(), sleeper_rows.tolist()):
        x, y = corpus.xy[row].tolist()
        target = CellLoad(int(corpus.ids[row]), (x, y), 0.0)
        if selection == "distance":
            neighbors = nearest.neighbors(target, row, active, slot, spec.neighbor_count)
        else:
            neighbors = select_random(target, pool, spec.neighbor_count, seed=seed + j)
        estimates.append(estimate_weighted(neighbors, spec.distance_exponent) if weighted
                         else estimate_mean(neighbors))
    return np.array(estimates, dtype=float)


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
    base = config.base_load["haps"], config.base_load["mbs"]
    iter_seeds = np.random.SeedSequence(config.seed).spawn(config.iteration_count)
    rows: list[SlotRow] = []
    skipped_total = 0
    for iteration, seed_seq in enumerate(iter_seeds):
        rng = np.random.default_rng(seed_seq)
        sbs_rows = rng.choice(len(corpus), size=s, replace=False)
        net = build_network(config, corpus, sbs_rows)
        last_known = np.full(s, np.nan)
        for slot in range(config.slot_count):
            try:
                true = corpus.loads[sbs_rows, slot]
                decision, _, p_true = solve(net, NetworkLoadState(*base, tuple(true.tolist())))
                asleep = np.array(decision.asleep, dtype=bool)
                sleepers = np.flatnonzero(asleep)
                est = true.copy()
                est[sleepers] = _estimate_sleepers(config, corpus, sbs_rows, sleepers, slot,
                                                   _estimator_seed(config.estimator.seed, iteration, slot),
                                                   last_known, nearest)
                last_known[~asleep] = true[~asleep]
                decision_est, _, p_est = solve(net, NetworkLoadState(*base, tuple(est.tolist())))

                lam, lam_hat = true[sleepers], est[sleepers]
                eps, skipped = mean_estimation_error(lam, lam_hat)
                skipped_total += skipped
                p_off_on, p_on_off = empirical_p_err(lam, lam_hat, config.lambda_th)
                rows.append(SlotRow(iteration, slot, eps, p_true, p_est,
                                    decision_change_rate(decision.delta, decision_est.delta), p_off_on, p_on_off))
            except SimulationError as exc:
                raise SimulationError(f"iteration {iteration}, slot {slot}: {exc}") from exc
    return ExperimentReport(rows=rows, config_echo=config.to_yaml(), seed=config.seed,
                            skipped_zero_load=skipped_total)
