"""The vectorised estimator kernels and the table-driven solvers against the
loops they replaced.

`sorted_rank_neighbors`, `loop_plus_plus_init` and `lloyd_kmeans` are the
earlier implementations, kept here as references: a full sort of every
candidate, and Lloyd's algorithm on the full (points x centroids) distance
matrix with its own k-means++ draws for every fit. `resorting_lloyd_sorted`
is the scalar prefix-sum loop as it was before it kept the centroids in one
rank order: it sorts them again at every iteration and sums each SSE in the
loop. `rank_neighbors` on each
slot's pool is the reference for the pipeline's one ranking per SBS cell, and
`object_path_estimates`, which builds each sleeper's neighbour set from
`Neighbor` tuples, for the array neighbour sets the pipeline builds instead.
`trial_state_greedy` and `inline_table_exhaustive` are the P1 solvers as they
were before both read one offload table: greedy built a switch vector, a load
state and its power per trial switch-off. Both move load through the
test-side `switch_helpers.apply_switch_off` and price a state with
`switch_helpers.state_power`, not through `power.total_power`.
`record_path_ingest` is the CDR ingest as it was before it summed lines
straight into arrays: one record per line and dicts of totals and profiles.
The kernels and solvers must return exactly what they return.
"""

import bisect
import gzip
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import vhetsim.estimate
import vhetsim.experiment
from vhetsim.config import resolve_config
from vhetsim.estimate import (
    _KMEANS_MAX_ITER,
    _PointSet,
    _lloyd_sorted,
    _nearest_is_own,
    _sq_distances,
    _weighted_index,
    CellLoad,
    CellPool,
    ClusterModel,
    Neighbor,
    NeighborSet,
    elbow_g,
    estimate_mean,
    estimate_weighted,
    kmeans_cluster,
    mlc_estimate,
    rank_neighbors,
    select_random,
)
from vhetsim.errors import InsufficientNeighborsError
from vhetsim.experiment import _NearestCells, run_experiment
from vhetsim.ingest import DAY_MS, SLOT_MS, Corpus, SynthParams, grid_centroids, ingest_dataset, synth_traffic
from vhetsim.power import (
    BaseStation,
    Network,
    NetworkLoadState,
    PowerParams,
    Tier,
    bs_power,
    snap_load,
    total_power,
)
from vhetsim.switching import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    HAPS,
    MBS,
    optimize_exhaustive,
    optimize_greedy,
)

from switch_helpers import InfeasibleTransition, apply_switch_off, decision_of, state_power


def sorted_rank_neighbors(target, cells, n_neighbors):
    candidates = sorted(
        (Neighbor(c.cell_id, math.hypot(c.position[0] - target.position[0],
                                        c.position[1] - target.position[1]), c.load)
         for c in cells if c.cell_id != target.cell_id),
        key=lambda nb: (nb.distance, nb.cell_id),
    )
    if len(candidates) < n_neighbors:
        raise InsufficientNeighborsError("too few cells")
    return NeighborSet(tuple(candidates[:n_neighbors]))


def loop_plus_plus_init(pts, g, rng):
    centroids = [pts[rng.integers(len(pts))]]
    for _ in range(1, g):
        d2 = np.min(((pts[:, None, :] - np.asarray(centroids)[None]) ** 2).sum(-1), axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(pts[rng.integers(len(pts))])
            continue
        centroids.append(pts[rng.choice(len(pts), p=d2 / total)])
    return np.asarray(centroids, dtype=float)


def lloyd_kmeans(points, g, seed):
    pts = np.atleast_2d(np.asarray(points, dtype=float).T).T
    rng = np.random.default_rng(seed)
    centroids = loop_plus_plus_init(pts, g, rng)
    assignment = None
    history = []
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(-1)
        new_assignment = d2.argmin(axis=1)
        counts = np.bincount(new_assignment, minlength=g)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            own_dist = d2[np.arange(len(pts)), new_assignment]
            eligible = np.flatnonzero(counts[new_assignment] > 1)
            far = int(eligible[own_dist[eligible].argmax()])
            new_assignment[far] = empty
            counts = np.bincount(new_assignment, minlength=g)
        for cluster in range(g):
            centroids[cluster] = pts[new_assignment == cluster].mean(axis=0)
        d2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(-1)
        history.append(float(d2[np.arange(len(pts)), new_assignment].sum()))
        if assignment is not None and (new_assignment == assignment).all():
            break
        assignment = new_assignment
    return ClusterModel(
        centroids=tuple(tuple(float(x) for x in c) for c in centroids),
        assignment=tuple(int(a) for a in assignment),
        sse=history[-1],
        sse_history=tuple(history),
    )


def resorting_lloyd_sorted(context, centroids):
    """`_lloyd_sorted` as it re-sorted the centroids at every iteration and
    tracked the SSE history inside the loop."""
    eps = sys.float_info.epsilon
    order, xs, csum, csq, sum_err, reach = context.prefix
    n, g = len(xs), len(centroids)
    cent = centroids.tolist()
    err = [0.0] * g
    history, state, converged = [], None, False
    for _ in range(_KMEANS_MAX_ITER):
        rank = sorted(range(g), key=cent.__getitem__)
        bounds = [0]
        for a, b in zip(rank, rank[1:]):
            gap = cent[b] - cent[a]
            if gap <= err[a] + err[b] + reach:
                break
            mid = (cent[a] + cent[b]) / 2
            band = (err[a] + err[b]) / 2 + eps * (abs(mid) + gap)
            cut = bisect.bisect_left(xs, mid - band)
            if cut <= bounds[-1] or bisect.bisect_right(xs, mid + band) != cut:
                break
            bounds.append(cut)
        else:
            if bounds[-1] < n:
                bounds.append(n)
        if len(bounds) <= g:
            break
        sse = 0.0
        for k, lo, hi in zip(rank, bounds, bounds[1:]):
            count, total = hi - lo, csum[hi] - csum[lo]
            cent[k] = total / count
            err[k] = sum_err / count + 2.0 * eps * abs(cent[k])
            sse += csq[hi] - csq[lo] - total * total / count
        history.append(sse)
        converged = state == (rank, bounds)
        state = (rank, bounds)
        if converged:
            break
    if state is None:
        return None, history, False
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.repeat(state[0], np.diff(state[1]))
    return labels, history, converged


def masked_mlc_estimate(loads, active, layers, clusters="elbow", seed=0, features=None):
    """`mlc_estimate` as it filled the sleepers before the stable label sort:
    three masks over every cell per cluster and layer."""
    lam = np.array(loads, dtype=float)
    global_mean = float(lam[active].mean())
    points = lam if features is None else np.asarray(features, dtype=float)
    g = min(elbow_g(points, seed=seed) if clusters == "elbow" else int(clusters), len(lam))
    first = 0 if features is None else layers - 1
    for layer in range(first, layers):
        model = kmeans_cluster(lam if features is None else points, g, seed + layer)
        for cluster in range(g):
            members = model.assignment == cluster
            source = members & active
            lam[members & ~active] = float(lam[source].mean()) if source.any() else global_mean
    return np.clip(lam, 0.0, 1.0)


def _sleep_set_state(net: Network, loads: NetworkLoadState, sleepers, targets):
    """Apply a batch of switch-offs; None if any sink constraint is violated."""
    state = loads
    try:
        for j, target in zip(sleepers, targets):
            sink = net.haps if target == HAPS else net.mbs
            state = apply_switch_off(state, j, target, net.sbs[j].capacity / sink.capacity)
    except InfeasibleTransition:
        return None
    return state


def _candidate_key(power: float, delta: tuple[int, ...], targets):
    # Tie-break: lowest power, then most SBSs on, then the vector whose first
    # differing bit is ON, then alphabetical sink tags.
    return (power, len(delta) - sum(delta), tuple(1 - b for b in delta), tuple(targets))


def inline_table_exhaustive(
    net: Network,
    loads: NetworkLoadState,
    sinks: tuple[str, ...] = (HAPS, MBS),
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
):
    """Enumerate every on/off vector and sink assignment; return the best.

    Returns (Decision, (haps_load, mbs_load), power in watts). The all-on
    configuration is always feasible, so a result always exists.

    The enumeration tracks sink loads and power increments as plain floats
    (the load grid makes the sink arithmetic exact) and only materializes the
    winning configuration, keeping the 3^s scan cheap.
    """
    s = len(net.sbs)
    if s > limit:
        raise ValueError(f"exhaustive search refused for s={s} > limit {limit}")
    sink_order = tuple(sorted(sinks))
    # per (sbs, sink): snapped load moved on switch-off, None if alone infeasible
    moved = {}
    for j, station in enumerate(net.sbs):
        for target in sink_order:
            sink_bs = net.haps if target == HAPS else net.mbs
            raw = station.capacity / sink_bs.capacity * loads.lambda_sbs[j]
            moved[j, target] = snap_load(raw) if raw <= 1.0 else None
    active_power = [bs_power(b.power, lam, True)
                    for b, lam in zip(net.sbs, loads.lambda_sbs)]
    all_on_power = state_power(net, (1,) * s, loads)
    eta_pt = {HAPS: net.haps.power.amplifier_eff * net.haps.power.transmit_w,
              MBS: net.mbs.power.amplifier_eff * net.mbs.power.transmit_w}

    best = None
    best_key = None
    for delta in itertools.product((1, 0), repeat=s):
        sleepers = [j for j, bit in enumerate(delta) if bit == 0]
        for targets in itertools.product(sink_order, repeat=len(sleepers)):
            lam_h, lam_m = loads.lambda_haps, loads.lambda_mbs
            power = all_on_power
            feasible = True
            for j, target in zip(sleepers, targets):
                m = moved[j, target]
                if m is None:
                    feasible = False
                    break
                if target == HAPS:
                    lam_h += m
                    if lam_h > 1.0:
                        feasible = False
                        break
                else:
                    lam_m += m
                    if lam_m > 1.0:
                        feasible = False
                        break
                power += eta_pt[target] * m + net.sbs[j].power.sleep_w - active_power[j]
            if not feasible:
                continue
            key = _candidate_key(power, delta, targets)
            if best_key is None or key < best_key:
                best, best_key = (delta, tuple(zip(sleepers, targets))), key
    delta, assignment = best
    state = _sleep_set_state(net, loads, [j for j, _ in assignment],
                             [t for _, t in assignment])
    return decision_of(delta, dict(assignment)), (state.lambda_haps, state.lambda_mbs), state_power(net, delta, state)


def trial_state_greedy(net: Network, loads: NetworkLoadState, sinks: tuple[str, ...] = (HAPS, MBS)):
    """Sleep SBSs in ascending-load order whenever it strictly lowers power.

    Returns (Decision, (haps_load, mbs_load), power in watts); never worse
    than the all-on configuration.
    """
    s = len(net.sbs)
    delta = [1] * s
    targets: dict[int, str] = {}
    state = loads
    current = state_power(net, delta, state)
    order = sorted(range(s), key=lambda j: (loads.lambda_sbs[j], j))
    for j in order:
        best_choice = None
        for target in sorted(sinks):
            sink = net.haps if target == HAPS else net.mbs
            try:
                candidate = apply_switch_off(state, j, target, net.sbs[j].capacity / sink.capacity)
            except InfeasibleTransition:
                continue
            trial_delta = tuple(0 if k == j else delta[k] for k in range(s))
            power = state_power(net, trial_delta, candidate)
            if best_choice is None or power < best_choice[0]:
                best_choice = (power, target, candidate)
        if best_choice is not None and best_choice[0] < current:
            current, targets[j], state = best_choice[0], best_choice[1], best_choice[2]
            delta[j] = 0
    return decision_of(delta, targets), (state.lambda_haps, state.lambda_mbs), current


def assert_same_model(got, want):
    # scalar points track the SSE history on prefix sums, so only the final
    # SSE is computed as the loop computes it
    assert np.array_equal(got.assignment, want.assignment)
    assert len(got.sse_history) == len(want.sse_history)
    assert got.centroids == want.centroids
    assert got.sse == want.sse
    np.testing.assert_allclose(got.sse_history, want.sse_history, rtol=1e-9, atol=1e-12)


def grid_cells(side, loads):
    ids = range(1, side * side + 1)
    return [CellLoad(i, (x, y), float(load))
            for i, (x, y), load in zip(ids, grid_centroids(ids, side).tolist(), loads)]


class TestRankNeighbors:
    def test_grid_ties_match_full_sort(self):
        # a square grid: every ring of cells around a target is a distance tie
        side = 17
        rng = np.random.default_rng(3)
        cells = grid_cells(side, rng.random(side * side))
        for trial in range(40):
            gone = set(rng.choice(side * side, size=int(rng.integers(0, 60)), replace=False) + 1)
            pool = [c for c in cells if c.cell_id not in gone]
            target_id = int(rng.integers(1, side * side + 1))
            target = cells[target_id - 1]._replace(load=0.0)
            for n in (1, 4, 5, 8, 9, 12, 21, 60):
                want = sorted_rank_neighbors(target, pool, n)
                assert rank_neighbors(target, pool, n) == want
                assert rank_neighbors(target, CellPool.of(pool), n) == want

    def test_off_grid_positions_match_full_sort(self):
        rng = np.random.default_rng(8)
        cells = [CellLoad(i, (float(x), float(y)), float(l)) for i, (x, y, l)
                 in enumerate(zip(rng.random(300) * 3e3, rng.random(300) * 3e3, rng.random(300)))]
        for _ in range(30):
            target = CellLoad(-1, tuple(float(v) for v in rng.random(2) * 3e3), 0.0)
            assert rank_neighbors(target, cells, 13) == sorted_rank_neighbors(target, cells, 13)

    def test_target_in_pool_is_not_counted(self):
        cells = grid_cells(2, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InsufficientNeighborsError, match="^need 4 active cells, only 3 available$"):
            rank_neighbors(cells[0], CellPool.of(cells), 4)
        assert rank_neighbors(cells[0], cells, 3) == sorted_rank_neighbors(cells[0], cells, 3)

    def test_overflowing_squared_distances(self):
        # every squared distance is inf, so every other cell is a candidate and
        # `math.hypot` alone orders them; the target still never is one
        cells = [CellLoad(i, (x * 1e300, y * 1e300), 0.5) for i, (x, y)
                 in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (-1.5, 0.5), (0.0, -1.0)])]
        for target in cells:
            for n in (1, 2, 4):
                with np.errstate(over="ignore"):
                    got = rank_neighbors(target, cells, n)
                assert got == sorted_rank_neighbors(target, cells, n)

    def test_pool_iterates_as_cell_loads(self):
        cells = grid_cells(4, np.linspace(0.0, 1.0, 16))
        assert list(CellPool.of(cells)) == cells

    def test_select_random_draws_unchanged(self):
        cells = grid_cells(10, np.linspace(0.0, 1.0, 100))
        target = cells[37]
        for seed in range(20):
            pool = [c for c in cells if c.cell_id != target.cell_id]
            chosen = np.random.default_rng(seed).choice(len(pool), size=7, replace=False)
            want = [pool[i].cell_id for i in chosen]
            got = select_random(target, CellPool.of(cells), 7, seed)
            assert [nb.cell_id for nb in got.neighbors] == want


def shuffled_corpus(xy, seed):
    """A corpus at the positions `xy` whose cell ids are not in row order."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10 * len(xy), size=len(xy), replace=False) + 1
    return Corpus(ids, xy, rng.random((len(xy), 144)))


class TestNearestCells:
    """One ranking per SBS cell, less each slot's sleepers, against
    `rank_neighbors` on the slot's pool of active cells."""

    @staticmethod
    def check(corpus, s, n, seed, slots=6):
        rng = np.random.default_rng(seed)
        sbs_rows = rng.choice(len(corpus), size=s, replace=False)
        nearest = _NearestCells(corpus, min(n + s - 1, len(corpus) - 1))
        for _ in range(slots):
            slot = int(rng.integers(144))
            sleepers = rng.choice(sbs_rows, size=int(rng.integers(1, s + 1)), replace=False)
            active = np.ones(len(corpus), dtype=bool)
            active[sleepers] = False
            pool = CellPool(corpus.ids[active], corpus.xy[active], corpus.loads[active, slot])
            for row in sleepers.tolist():
                x, y = corpus.xy[row].tolist()
                target = CellLoad(int(corpus.ids[row]), (x, y), 0.0)
                try:
                    want = rank_neighbors(target, pool, n)
                except InsufficientNeighborsError as exc:
                    with pytest.raises(InsufficientNeighborsError) as got:
                        nearest.neighbors(target, row, active, slot, n)
                    assert str(got.value) == str(exc)
                    continue
                # same ids, math.hypot distances and loads, in the same order
                got = nearest.neighbors(target, row, active, slot, n)
                assert got == want
                # in read-only arrays of the set's own
                ranked = nearest.ranked[row]
                for array, source in ((got.ids, corpus.ids), (got.distances, ranked[1]),
                                      (got.loads, corpus.loads)):
                    assert not array.flags.writeable and not np.shares_memory(array, source)
        assert len(nearest.ranked) <= s

    def test_grid_ties(self):
        # every ring of cells around a target is an exact distance tie
        corpus = shuffled_corpus(grid_centroids(range(1, 17 * 17 + 1), 17), seed=5)
        for trial in range(12):
            for n in (1, 4, 8, 12, 20):
                self.check(corpus, s=int(1 + trial % 8 * 3), n=n, seed=100 * trial + n)

    def test_off_grid_positions(self):
        rng = np.random.default_rng(12)
        corpus = shuffled_corpus(rng.random((300, 2)) * 3e3, seed=6)
        for trial in range(10):
            self.check(corpus, s=20, n=13, seed=trial)

    def test_pool_smaller_than_n(self):
        # 25 cells, up to 10 asleep: pools of 15 to 24 cells for 20 neighbours
        corpus = shuffled_corpus(grid_centroids(range(1, 26), 5), seed=7)
        for trial in range(10):
            self.check(corpus, s=10, n=20, seed=trial)


def object_path_estimates(corpus, sbs_rows, sleepers, slot, spec, ranked):
    """The sleepers' estimates as the pipeline made them while neighbour sets held
    objects: each SBS cell's `sorted_rank_neighbors` over the whole corpus (kept in
    `ranked`), its first N active cells as `Neighbor` tuples, a `NeighborSet` of
    those, and `estimate_weighted` or `estimate_mean` on it."""
    count = min(spec.neighbor_count + len(sbs_rows) - 1, len(corpus) - 1)
    row_of = {cell_id: row for row, cell_id in enumerate(corpus.ids.tolist())}
    sleeper_rows = {sbs_rows[j] for j in sleepers}
    out = {}
    for j in sleepers:
        row = sbs_rows[j]
        if row not in ranked:
            x, y = corpus.xy[row].tolist()
            cells = [CellLoad(cell_id, (cx, cy), 0.0)
                     for cell_id, (cx, cy) in zip(corpus.ids.tolist(), corpus.xy.tolist())]
            ranked[row] = sorted_rank_neighbors(CellLoad(int(corpus.ids[row]), (x, y), 0.0), cells, count).neighbors
        kept = [nb for nb in ranked[row] if row_of[nb.cell_id] not in sleeper_rows][:spec.neighbor_count]
        neighbors = NeighborSet(tuple(Neighbor(nb.cell_id, nb.distance, float(corpus.loads[row_of[nb.cell_id], slot]))
                                      for nb in kept))
        if spec.method == "distance_weighted":
            out[j] = estimate_weighted(neighbors, spec.distance_exponent)
        else:
            out[j] = estimate_mean(neighbors)
    return out


class TestArrayNeighborSets:
    """Every sleeper estimate of a whole distance day, from the pipeline's array
    neighbour sets, has the bits of the `Neighbor`-tuple path above."""

    @pytest.mark.parametrize("method", ["distance_weighted", "distance_unweighted"])
    def test_day_bit_equal_to_object_path(self, monkeypatch, method):
        config = resolve_config({
            "sbs_count": 8, "synth": {"grid_side": 24, "noise_std": 0.3, "seed": 4},
            "estimator": {"method": method, "neighbor_count": 20, "distance_exponent": 3},
            "iteration_count": 1, "slot_count": 144, "optimizer": "greedy", "seed": 15})
        estimate_sleepers = vhetsim.experiment._estimate_sleepers
        ranked, compared = {}, []

        def checked(config, corpus, sbs_rows, sleepers, true_loads, slot, *rest):
            got = estimate_sleepers(config, corpus, sbs_rows, sleepers, true_loads, slot, *rest)
            want = object_path_estimates(corpus, sbs_rows, sleepers, slot, config.estimator, ranked)
            assert {j: v.hex() for j, v in got.items()} == {j: v.hex() for j, v in want.items()}, slot
            compared.extend(got)
            return got

        monkeypatch.setattr(vhetsim.experiment, "_estimate_sleepers", checked)
        run_experiment(config)
        assert len(compared) >= 144


def criterion_5_slots():
    """The scalar load vectors criterion 5 clusters, with its sleeper guesses."""
    for seed in (9, 17, 23, 31):
        loads = synth_traffic(SynthParams(grid_side=24, spatial_correlation_length=4 * 235.0,
                                          noise_std=0.3, seed=seed)).loads
        rng = np.random.default_rng(seed)
        for _ in range(10):
            slot = int(rng.integers(1, 144))
            sleepers = rng.choice(len(loads), size=50, replace=False)
            lam = loads[:, slot].copy()
            lam[sleepers] = loads[sleepers, slot - 1]
            yield seed, lam


class TestKmeans:
    def test_criterion_5_corpora(self):
        for seed, lam in criterion_5_slots():
            for layer in range(7):
                assert_same_model(kmeans_cluster(lam, 8, seed + layer), lloyd_kmeans(lam, 8, seed + layer))

    def test_criterion_5_elbow_range(self):
        for k, (seed, lam) in enumerate(criterion_5_slots()):
            if k % 5:
                continue
            for g in range(1, 11):
                assert_same_model(kmeans_cluster(lam, g, seed), lloyd_kmeans(lam, g, seed))

    def test_criterion_10_blobs(self):
        rng = np.random.default_rng(31)
        blobs = np.concatenate([rng.normal(0.15, 0.02, 60), rng.normal(0.5, 0.02, 60),
                                rng.normal(0.85, 0.02, 60)])
        for g in range(1, 11):
            for seed in range(4):
                assert_same_model(kmeans_cluster(blobs, g, seed), lloyd_kmeans(blobs, g, seed))

    @pytest.mark.parametrize("values", [6, 11, 40])
    def test_repeated_values(self, values):
        # few distinct values: equal centroids, empty clusters and points on
        # midpoints, which the scalar path hands to the general loop
        rng = np.random.default_rng(values)
        pts = rng.integers(0, values, size=150) / (values - 1)
        for g in range(1, 9):
            for seed in range(6):
                assert_same_model(kmeans_cluster(pts, g, seed), lloyd_kmeans(pts, g, seed))

    def test_profile_features(self):
        # criterion 6 clusters 144-slot profiles: the general loop, with the
        # running-min k-means++ init
        features = synth_traffic(SynthParams(grid_side=14, spatial_correlation_length=940.0,
                                             noise_std=0.25, seed=7)).loads
        for seed in range(3):
            assert kmeans_cluster(features, 12, seed) == lloyd_kmeans(features, 12, seed)

    def test_one_cluster_and_equal_points(self):
        lam = next(criterion_5_slots())[1]
        for pts, seeds in ((lam, range(3)), (np.full(50, 0.7), range(3)), (np.zeros(9), range(2))):
            for g in (1, 2, 3):
                for seed in seeds:
                    assert_same_model(kmeans_cluster(pts, g, seed), lloyd_kmeans(pts, g, seed))

    def test_more_than_255_clusters(self):
        # labels above 255 need a wider dtype for the stable label sort
        rng = np.random.default_rng(2)
        for pts, g in ((rng.random(320), 260), (rng.integers(0, 400, size=330) / 399, 300)):
            model = kmeans_cluster(pts, g, 1)
            assert model.assignment.max() > 255
            assert_same_model(model, lloyd_kmeans(pts, g, 1))

    def test_assignment_is_a_read_only_int_array(self):
        model = kmeans_cluster(next(criterion_5_slots())[1], 4, 0)
        assert model.assignment.dtype.kind == "i" and not model.assignment.flags.writeable


def bench_gen_inputs():
    """bench/gen_inputs.py, the benchmark's input generator, as a module."""
    spec = importlib.util.spec_from_file_location(
        "gen_inputs", Path(__file__).resolve().parent.parent / "bench" / "gen_inputs.py")
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    return gen_inputs


def bench_cache_loads(seed):
    """The load factors of the bench's 100 x 100 profile cache at `seed`, as
    bench/gen_inputs.py writes them (its CSV holds each float's repr)."""
    return np.clip(bench_gen_inputs().raw_loads(np.random.default_rng(seed), 100)[0], 0.0, 1.0)


def scalar_sets():
    """Scalar point sets with their cluster counts: uniform values, grid values
    with duplicates and clusters a few ulps to 1e-8 apart, g = 1..10 and n from
    g to 2 000, then three 10 000-point bench-cache columns at every g."""
    rng = np.random.default_rng(17)
    for k in range(2400):
        g = k % 10 + 1
        n = int(np.exp(rng.uniform(np.log(g), np.log(2000)))) if k % 7 else g
        kind = k % 4
        if kind == 0:
            pts = rng.uniform(0.0, 1.0, n)
        elif kind == 1:
            pts = rng.integers(0, int(rng.integers(1, 40)), n) / 16
        elif kind == 2:
            # evenly repeated grid values: runs of equal weight put midpoints on points
            pts = rng.permutation(np.arange(n) % int(rng.integers(2, 60))) / 8
        else:
            # a few groups 1e-15 to 1e-8 apart, around the error bounds of the
            # prefix-sum means, each a handful of adjacent floats
            centres = rng.uniform(0.1, 0.9) + rng.uniform(0, 10.0 ** -rng.integers(8, 16), int(rng.integers(1, 12)))
            pts = centres[rng.integers(len(centres), size=n)]
            for _ in range(int(rng.integers(0, 6))):
                pts = np.nextafter(pts, np.where(rng.random(n) < 0.5, -np.inf, np.inf))
        yield pts, g, k
    loads = bench_cache_loads(1)
    for slot in (0, 1, 72):
        for g in range(1, 11):
            yield loads[:, slot], g, slot


class TestLloydSorted:
    """`_lloyd_sorted` against the loop that sorted the centroids again at every iteration."""

    def test_matches_resorting_loop(self):
        ran, stopped = 0, {"at once": 0, "mid-way": 0, "converged": 0}
        for pts, g, seed in scalar_sets():
            context = _PointSet(pts)
            seeds = context.seeds(g, seed)
            labels, counts, history, converged = _lloyd_sorted(context, seeds.copy())
            want_labels, want_history, want_converged = resorting_lloyd_sorted(context, seeds.copy())
            assert (labels is None) == (counts is None) == (want_labels is None)
            if labels is not None:
                assert np.array_equal(labels, want_labels)
                assert np.array_equal(counts, np.bincount(labels, minlength=g))
            assert converged == want_converged
            assert len(history) == len(want_history)
            np.testing.assert_allclose(history, want_history, rtol=1e-9, atol=1e-12)
            ran += 1
            stopped["at once" if labels is None else "converged" if converged else "mid-way"] += 1
        # some fits leave the prefix sums to the general loop at once or mid-way
        assert ran >= 2000 and min(stopped.values()) >= 10, stopped


    def test_run_emptied_by_its_neighbours(self):
        # the middle run {3, 7} moves its mean to 5, halfway between its
        # neighbours' new means 2.9 and 7.1, and no point is left in its cell
        context = _PointSet([7.1, 3.0, 2.9, 7.0])
        labels, counts, history, converged = _lloyd_sorted(context, np.array([5.9, 0.0, 8.2]))
        want_labels, want_history, _ = resorting_lloyd_sorted(context, np.array([5.9, 0.0, 8.2]))
        assert labels.tolist() == want_labels.tolist() == [2, 0, 1, 0]
        assert counts.tolist() == [2, 1, 1] and not converged
        assert len(history) == len(want_history) == 1


class TestWeightedDraw:
    """`_weighted_index` against `Generator.choice(len(p), p=p)` from an identically seeded generator."""

    @staticmethod
    def draws(d2, seed):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        total = d2.sum()
        got, want = _weighted_index(d2, total, mine), theirs.choice(len(d2), p=d2 / total)
        assert mine.bit_generator.state == theirs.bit_generator.state
        return got, want

    @pytest.mark.parametrize("case", ["random", "many zeros", "one non-zero"])
    def test_same_index_and_stream(self, case):
        rng = np.random.default_rng(5)
        for seed in range(300):
            n = int(rng.integers(1, 3000))
            d2 = rng.random(n) ** 3
            if case == "many zeros":
                d2[rng.random(n) < 0.95] = 0.0
                d2[rng.integers(n)] = rng.random() + 0.1
            elif case == "one non-zero":
                d2[:] = 0.0
                d2[rng.integers(n)] = rng.random() + 0.1
            got, want = self.draws(d2, seed)
            assert got == want and isinstance(got, int)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_total_raises(self, bad):
        d2 = np.array([0.5, bad, 0.25])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(3, p=d2 / d2.sum())
            with pytest.raises(ValueError):
                _weighted_index(d2, d2.sum(), np.random.default_rng(0))


class TestFixedPointCheck:
    """`_nearest_is_own` against the general loop's argmin over all centroids."""

    @staticmethod
    def checked(monkeypatch, pts, centroids, assignment):
        """The check's answer, the full argmin's, and whether the check fell back to it."""
        pts, centroids, assignment = np.asarray(pts, float), np.asarray(centroids, float), np.asarray(assignment)
        calls = []
        monkeypatch.setattr(vhetsim.estimate, "_sq_distances", lambda *a: calls.append(1) or _sq_distances(*a))
        own = (pts - centroids[assignment]) ** 2
        got = _nearest_is_own(pts, centroids, assignment, own)
        want = bool((((pts[:, None] - centroids[None]) ** 2).argmin(axis=1) == assignment).all())
        return got, want, bool(calls)

    @pytest.mark.parametrize("centroids, assignment, nearest", [
        ((1.0, 3.0), (0, 0, 1), True),     # 2.0 is halfway: the tie goes to the lower index, its own
        ((3.0, 1.0), (1, 1, 0), False),    # the same tie goes to index 0, not its own centroid
        ((1.0, 3.0), (0, 1, 1), False),
        ((1.0, 1.0, 3.0), (0, 0, 2), True),      # two equal centroids: 0.0 ties between them
        ((1.0, 1.0, 3.0), (1, 0, 2), False),
    ])
    def test_float_ties_fall_back(self, monkeypatch, centroids, assignment, nearest):
        got, want, fell_back = self.checked(monkeypatch, [0.0, 2.0, 3.0], centroids, assignment)
        assert fell_back and got == want == nearest

    def test_strict_points_need_no_matrix(self, monkeypatch):
        assert self.checked(monkeypatch, [0.0, 0.5, 2.9, 3.0], [0.25, 3.0], [0, 0, 1, 1]) == (True, True, False)
        assert self.checked(monkeypatch, [0.3, 0.4], [0.35], [0, 0]) == (True, True, False)

    def test_grid_values(self, monkeypatch):
        # points and centroids on a grid of quarters: many exact ties
        rng = np.random.default_rng(11)
        fell_back = 0
        for _ in range(400):
            g = int(rng.integers(1, 6))
            pts = rng.integers(0, 13, size=40) / 4
            centroids = rng.integers(0, 13, size=g) / 4
            nearest = ((pts[:, None] - centroids[None]) ** 2).argmin(axis=1)
            if rng.random() < 0.5:
                nearest[rng.integers(40)] = rng.integers(g)
            got, want, fell = self.checked(monkeypatch, pts, centroids, nearest)
            assert got == want
            fell_back += fell
        assert 0 < fell_back < 400


class TestSharedContext:
    """Fits that share one point set's context against fresh fits and the loop."""

    def test_out_of_order_g(self):
        for k, (seed, lam) in enumerate(criterion_5_slots()):
            if k % 10:
                continue
            context = _PointSet(lam)
            for g in (10, 3, 7, 3):
                got = kmeans_cluster(lam, g, seed, context=context)
                assert got == kmeans_cluster(lam, g, seed)
                assert_same_model(got, lloyd_kmeans(lam, g, seed))

    def test_all_equal_points(self):
        # every squared distance is 0, so each seed after the first is drawn uniformly
        pts = np.full(40, 0.25)
        for seed in range(3):
            context = _PointSet(pts)
            for g in (5, 1, 8):
                got = kmeans_cluster(pts, g, seed, context=context)
                assert got == kmeans_cluster(pts, g, seed)
                assert_same_model(got, lloyd_kmeans(pts, g, seed))

    def test_profile_features(self):
        features = synth_traffic(SynthParams(grid_side=10, spatial_correlation_length=940.0,
                                             noise_std=0.25, seed=7)).loads
        context = _PointSet(features)
        for g in (6, 2, 4):
            got = kmeans_cluster(features, g, 1, context=context)
            assert got == kmeans_cluster(features, g, 1) == lloyd_kmeans(features, g, 1)

    def test_layer_zero_reuses_elbow_fit(self, monkeypatch):
        fits = []

        def recording(points, g, seed, **kwargs):
            model = kmeans_cluster(points, g, seed, **kwargs)
            fits.append((np.array(points, dtype=float), g, seed, model))
            return model

        monkeypatch.setattr(vhetsim.estimate, "kmeans_cluster", recording)
        rng = np.random.default_rng(4)
        for k, (seed, lam) in enumerate(criterion_5_slots()):
            if k % 10:
                continue
            g = elbow_g(lam, seed=seed)
            fits.clear()
            active = np.ones(len(lam), dtype=bool)
            active[rng.choice(len(lam), size=50, replace=False)] = False
            mlc_estimate(lam, active, layers=3, seed=seed)
            # ten elbow fits, then one per layer; layer 0 is the elbow's fit at g
            assert [f[1:3] for f in fits] == [(h, seed) for h in range(1, 11)] + \
                [(g, seed), (g, seed + 1), (g, seed + 2)]
            assert fits[10][3] is fits[g - 1][3]
            for points, h, fit_seed, model in fits:
                assert_same_model(model, lloyd_kmeans(points, h, fit_seed))


class TestMlcFill:
    """`mlc_estimate` against the masked loop it replaced, bit for bit."""

    def test_criterion_5_slots(self):
        rng = np.random.default_rng(11)
        for k, (seed, lam) in enumerate(criterion_5_slots()):
            if k % 4:
                continue
            active = np.ones(len(lam), dtype=bool)
            active[rng.choice(len(lam), size=50, replace=False)] = False
            for layers in (1, 3):
                got = mlc_estimate(lam, active, layers=layers, seed=seed)
                assert np.array_equal(got, masked_mlc_estimate(lam, active, layers, seed=seed))

    def test_cluster_without_active_members(self):
        # the five sleepers' guesses sit far from every active load, so they
        # form a cluster of their own and fall back to the global active mean
        rng = np.random.default_rng(2)
        lam = np.r_[rng.uniform(0.1, 0.3, 60), np.full(5, 0.95)]
        active = np.arange(len(lam)) < 60
        got = mlc_estimate(lam, active, layers=1, clusters=2, seed=3)
        assert np.array_equal(got, masked_mlc_estimate(lam, active, 1, clusters=2, seed=3))
        assert np.all(got[~active] == lam[active].mean())
        got = mlc_estimate(lam, active, layers=3, clusters=2, seed=3)
        assert np.array_equal(got, masked_mlc_estimate(lam, active, 3, clusters=2, seed=3))

    def test_labels_above_255(self):
        rng = np.random.default_rng(6)
        lam = rng.random(700)
        active = rng.random(700) > 0.2
        got = mlc_estimate(lam, active, layers=2, clusters=300, seed=1)
        assert kmeans_cluster(lam, 300, 1).assignment.max() > 255
        assert np.array_equal(got, masked_mlc_estimate(lam, active, 2, clusters=300, seed=1))

    def test_profile_features(self):
        corpus = synth_traffic(SynthParams(grid_side=10, spatial_correlation_length=940.0,
                                           noise_std=0.25, seed=7))
        active = np.random.default_rng(3).random(100) > 0.3
        lam = corpus.loads[:, 50]
        got = mlc_estimate(lam, active, layers=2, clusters=4, seed=5, features=corpus.loads)
        assert np.array_equal(got, masked_mlc_estimate(lam, active, 2, clusters=4, seed=5,
                                                       features=corpus.loads))


@dataclass(frozen=True)
class CdrRecord:
    square_id: int
    time_interval: int
    country_code: int
    sms_in: float = 0.0
    sms_out: float = 0.0
    call_in: float = 0.0
    call_out: float = 0.0
    internet: float = 0.0

    @property
    def activity(self) -> float:
        return self.sms_in + self.sms_out + self.call_in + self.call_out + self.internet

    @property
    def slot_of_day(self) -> int:
        return (self.time_interval % DAY_MS) // SLOT_MS


def record_path_ingest(dataset_dir, grid_side, day_count=None):
    """The CDR ingest with one record per line of valid input: each file's
    (square, slot) totals in a dict, merged in file order into one dict,
    divided by the day count into a square -> profile dict, then normalized
    by the peak."""
    totals, days = {}, set()
    for path in sorted(p for p in Path(dataset_dir).iterdir() if p.suffix in {".txt", ".tsv", ".gz"}):
        shard = {}
        with (gzip.open if path.suffix == ".gz" else open)(path, "rt", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    fields = line.rstrip("\n").split("\t")
                    rec = CdrRecord(*map(int, fields[:3]), *(float(f) if f else 0.0 for f in fields[3:]))
                    days.add(rec.time_interval // DAY_MS)
                    key = (rec.square_id, rec.slot_of_day)
                    shard[key] = shard.get(key, 0.0) + rec.activity
        for key, value in shard.items():
            totals[key] = totals.get(key, 0.0) + value
    day_count = day_count if day_count is not None else len(days)
    profiles = {}
    for (square, slot), total in totals.items():
        profiles.setdefault(square, np.zeros(144))[slot] = total / day_count
    ids = np.array(sorted(profiles), dtype=np.int64)
    raw = np.array([profiles[square] for square in ids.tolist()])
    return Corpus(ids, grid_centroids(ids, grid_side), raw / float(raw.max()))


def write_random_cdr_dir(path, seed):
    """Three CDR files, one gzip-compressed, over 3 days and a 4 x 4 grid:
    (square, slot) keys repeat within and across files and country codes,
    lines hold 3 to 8 fields, some of them empty, and some lines are blank."""
    rng = np.random.default_rng(seed)
    path.mkdir()
    for name in ("a.txt", "b.txt.gz", "c.tsv"):
        lines = []
        for _ in range(600):
            if rng.random() < 0.05:
                lines.append(" " * int(rng.integers(0, 3)))
                continue
            interval = 1_383_523_200_000 + int(rng.integers(0, 3)) * DAY_MS + int(rng.integers(0, 6)) * SLOT_MS
            values = [repr(float(rng.random() * 10.0 ** rng.integers(-3, 4))) if rng.random() < 0.8 else ""
                      for _ in range(int(rng.integers(0, 6)))]
            lines.append("\t".join([str(rng.integers(1, 17)), str(interval), str(rng.choice([39, 33, 49]))]
                                   + values))
        text = "\n".join(lines) + "\n"
        if name.endswith(".gz"):
            (path / name).write_bytes(gzip.compress(text.encode()))
        else:
            (path / name).write_text(text, encoding="utf-8")
    return path


class TestIngestDataset:
    """`ingest_dataset` against the record-and-dict path, and on the bench's CDR input."""

    @pytest.mark.parametrize("day_count", [None, 1, 2, 7])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_record_path(self, tmp_path, seed, day_count):
        data = write_random_cdr_dir(tmp_path / "cdr", seed)
        assert ingest_dataset(data, 4, day_count=day_count) == record_path_ingest(data, 4, day_count)

    def test_bench_cdr_input_is_totals_over_days_over_peak(self, tmp_path):
        # the bench's ingest reference check, on a 6 x 6 grid over the generator's 3 days
        make_up = bench_gen_inputs().write_cdr(1, 6, tmp_path)
        daily = np.load(tmp_path / "totals.npy") / make_up["days"]
        corpus = ingest_dataset(tmp_path, 6)
        assert make_up["days"] == 3 and corpus.ids.tolist() == list(range(1, 37))
        assert np.abs(corpus.loads - daily / daily.max()).max() <= 1e-12
        assert corpus == record_path_ingest(tmp_path, 6)


SBS_P = PowerParams(operational_w=56.0, amplifier_eff=2.6, transmit_w=6.3, sleep_w=6.0)
MBS_P = PowerParams(operational_w=130.0, amplifier_eff=4.7, transmit_w=20.0, sleep_w=75.0)
HAPS_P = PowerParams(operational_w=180.0, amplifier_eff=4.0, transmit_w=120.0, sleep_w=100.0)
# (C_sbs, C_mbs, C_haps): the README default; an MBS just past the size where
# sleeping the smallest loads stops being optimal; SBSs larger than both sinks
CAPACITIES = ((10.0, 50.0, 50.0), (10.0, 58.0, 50.0), (25.0, 10.0, 10.0))
LOAD_GRID = (0.0, 0.25, 0.5, 0.7, 1.0)
SINK_MODES = ((HAPS, MBS), (HAPS,))


def solver_instances(seed, count, max_s):
    """Seeded (network, loads, sinks) with uniform or grid-valued loads."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        c_sbs, c_mbs, c_haps = CAPACITIES[k % 3]
        s = int(rng.integers(1, max_s + 1))
        if (k // 3) % 2:
            draw = [float(v) for v in rng.choice(LOAD_GRID, size=s + 2)]
        else:
            draw = [float(v) for v in rng.random(s + 2)]
            draw[:2] = [0.3 * v for v in draw[:2]]
        net = Network(BaseStation("haps", Tier.HAPS, (0.0, 0.0), c_haps, HAPS_P),
                      BaseStation("mbs", Tier.MBS, (0.0, 0.0), c_mbs, MBS_P),
                      tuple(BaseStation(f"sbs-{i}", Tier.SBS, (float(i), 0.0), c_sbs, SBS_P)
                            for i in range(s)))
        yield net, NetworkLoadState(draw[0], draw[1], tuple(draw[2:])), SINK_MODES[(k // 6) % 2]


def assert_same_solution(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert repr(got[2]) == repr(want[2])


class TestSolvers:
    def test_greedy_matches_trial_states(self):
        for net, loads, sinks in solver_instances(5, 10_000, 22):
            assert_same_solution(optimize_greedy(net, loads, sinks), trial_state_greedy(net, loads, sinks))

    def test_exhaustive_matches_inline_table(self):
        for net, loads, sinks in solver_instances(6, 10_000, 7):
            assert_same_solution(optimize_exhaustive(net, loads, sinks),
                                 inline_table_exhaustive(net, loads, sinks))

    def test_solvers_keep_sinks_at_or_below_one(self):
        # the returned sink loads and power are total_power's for the returned decision
        for solve, instances in ((optimize_greedy, solver_instances(7, 2_000, 22)),
                                 (optimize_exhaustive, solver_instances(8, 1_000, 7))):
            for net, loads, sinks in instances:
                decision, sink_loads, power = solve(net, loads, sinks)
                got = total_power(net, *decision, loads.lambda_sbs, loads.lambda_haps, loads.lambda_mbs)
                assert got == (power, *sink_loads)
                assert max(sink_loads) <= 1.0
