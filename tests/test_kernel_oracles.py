"""The vectorised estimator kernels against the loops they replaced.

`sorted_rank_neighbors`, `loop_plus_plus_init` and `lloyd_kmeans` are the
earlier implementations, kept here as references: a full sort of every
candidate, and Lloyd's algorithm on the full (points x centroids) distance
matrix. The kernels must return exactly what they return.
"""

import math

import numpy as np
import pytest

from vhetsim.estimate import (
    _KMEANS_MAX_ITER,
    CellLoad,
    CellPool,
    ClusterModel,
    Neighbor,
    NeighborSet,
    kmeans_cluster,
    rank_neighbors,
    select_random,
)
from vhetsim.errors import InsufficientNeighborsError
from vhetsim.ingest import SynthParams, grid_centroids, synth_traffic


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


def assert_same_model(got, want):
    # scalar points track the SSE history on prefix sums, so only the final
    # SSE is computed as the loop computes it
    assert got.assignment == want.assignment
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
