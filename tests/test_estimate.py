import dataclasses

import numpy as np
import pytest

from vhetsim.errors import DegenerateDistanceError, InsufficientNeighborsError
from vhetsim.estimate import (
    CellLoad,
    EstimatorSpec,
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


def cells_on_line(loads):
    return [CellLoad(i + 1, (235.0 * (i + 1), 0.0), l) for i, l in enumerate(loads)]


class TestEstimatorSpec:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            EstimatorSpec(method="psychic")

    def test_perfect_allowed(self):
        assert EstimatorSpec(method="perfect").method == "perfect"

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            EstimatorSpec(method="mlc", layer_count=0)
        with pytest.raises(ValueError):
            EstimatorSpec(method="distance_weighted", distance_exponent=0)
        with pytest.raises(ValueError):
            EstimatorSpec(method="distance_unweighted", neighbor_count=0)


class TestRankNeighbors:
    def test_single_nearest(self):
        target = CellLoad(99, (0.0, 0.0), 0.0)
        out = rank_neighbors(target, cells_on_line([0.1, 0.2, 0.3]), 1)
        assert out.neighbors[0].cell_id == 1

    def test_two_nearest_sorted(self):
        target = CellLoad(99, (0.0, 0.0), 0.0)
        out = rank_neighbors(target, cells_on_line([0.1, 0.2, 0.3]), 2)
        assert [n.cell_id for n in out.neighbors] == [1, 2]
        assert out.neighbors[0].distance == pytest.approx(235.0)

    def test_self_excluded(self):
        cells = cells_on_line([0.1, 0.2])
        target = CellLoad(1, cells[0].position, 0.5)
        out = rank_neighbors(target, cells, 1)
        assert out.neighbors[0].cell_id == 2

    def test_insufficient(self):
        target = CellLoad(99, (0.0, 0.0), 0.0)
        with pytest.raises(InsufficientNeighborsError):
            rank_neighbors(target, cells_on_line([0.1]), 2)

    def test_distance_tie_lower_id(self):
        cells = [CellLoad(5, (1.0, 0.0), 0.1), CellLoad(3, (-1.0, 0.0), 0.2)]
        target = CellLoad(99, (0.0, 0.0), 0.0)
        out = rank_neighbors(target, cells, 1)
        assert out.neighbors[0].cell_id == 3


class TestSelectRandom:
    def test_full_pool_regardless_of_seed(self):
        target = CellLoad(99, (0.0, 0.0), 0.0)
        cells = cells_on_line([0.1, 0.2, 0.3])
        for seed in (0, 1, 2):
            out = select_random(target, cells, 3, seed)
            assert sorted(n.cell_id for n in out.neighbors) == [1, 2, 3]

    def test_deterministic_per_seed(self):
        target = CellLoad(99, (0.0, 0.0), 0.0)
        cells = cells_on_line(np.linspace(0.1, 0.9, 30))
        a = select_random(target, cells, 5, 7)
        b = select_random(target, cells, 5, 7)
        assert a == b

    def test_inclusion_frequency_uniform(self):
        # each of 10 cells should appear with frequency N/10 = 0.3 over many draws
        target = CellLoad(99, (0.0, 0.0), 0.0)
        cells = cells_on_line(np.linspace(0.1, 0.9, 10))
        draws = 10_000
        counts = {c.cell_id: 0 for c in cells}
        for seed in range(draws):
            for n in select_random(target, cells, 3, seed).neighbors:
                counts[n.cell_id] += 1
        p = 3 / 10
        sigma = np.sqrt(draws * p * (1 - p))
        for count in counts.values():
            assert abs(count - draws * p) < 3 * sigma


class TestNeighborSet:
    NEIGHBORS = (Neighbor(4, 1.5, 0.25), Neighbor(9, 2.0, 0.5), Neighbor(2, 3.25, 1.0))

    @staticmethod
    def arrays():
        return np.array([4, 9, 2]), np.array([1.5, 2.0, 3.25]), np.array([0.25, 0.5, 1.0])

    def test_arrays_equal_tuples(self):
        ns = NeighborSet(*self.arrays())
        assert ns.neighbors == self.NEIGHBORS
        assert ns == NeighborSet([4, 9, 2], [1.5, 2.0, 3.25], [0.25, 0.5, 1.0])
        assert ns != NeighborSet([4, 9], [1.5, 2.0], [0.25, 0.5])
        assert ns != NeighborSet([4, 9, 2], [1.5, 2.0, 3.25], [0.25, 0.5, 0.75])

    def test_source_arrays_may_change(self):
        ids, distances, loads = self.arrays()
        ns = NeighborSet(ids, distances, loads)
        ids[0], distances[0], loads[0] = 7, 9.0, 0.0
        assert ns.neighbors == self.NEIGHBORS

    @pytest.mark.parametrize("name", ["ids", "distances", "loads"])
    def test_read_only(self, name):
        ns = NeighborSet(*self.arrays())
        with pytest.raises(ValueError, match="read-only"):
            getattr(ns, name)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ns, name, np.zeros(3))
        assert ns.neighbors == self.NEIGHBORS

    def test_neighbors_round_trip(self):
        ns = NeighborSet(*self.arrays())
        assert ns.neighbors == self.NEIGHBORS
        assert [tuple(map(type, nb)) for nb in ns.neighbors] == [(int, float, float)] * 3
        assert NeighborSet(*zip(*ns.neighbors)) == ns
        assert ns.ids.dtype == np.int64 and ns.distances.dtype == ns.loads.dtype == np.float64

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    def test_zero_distance_raises(self, distance):
        ids, distances, loads = self.arrays()
        distances[1] = distance
        with pytest.raises(DegenerateDistanceError):
            NeighborSet(ids, distances, loads)

    @pytest.mark.parametrize("arrays", [
        ([4, 9], [1.5, 2.0, 3.25], [0.25, 0.5, 1.0]),
        ([4, 9, 2], [1.5, 2.0, 3.25], [0.25, 0.5]),
        ([[4, 9, 2]], [[1.5, 2.0, 3.25]], [[0.25, 0.5, 1.0]]),
    ], ids=["short-ids", "short-loads", "two-dimensional"])
    def test_misshapen_arrays_raise(self, arrays):
        with pytest.raises(ValueError, match="neighbor arrays must"):
            NeighborSet(*arrays)

    # sequences and arrays alike
    @pytest.mark.parametrize("empty", [NeighborSet([], [], []),
                                       NeighborSet(np.empty(0, dtype=int), np.empty(0), np.empty(0))])
    def test_empty_set_raises_in_both_estimators(self, empty):
        with pytest.raises(InsufficientNeighborsError):
            estimate_mean(empty)
        with pytest.raises(InsufficientNeighborsError):
            estimate_weighted(empty, 1.0)


class TestEstimateMean:
    def test_constant(self):
        ns = NeighborSet([1, 2, 3], [1.0, 2.0, 3.0], [0.5] * 3)
        assert estimate_mean(ns) == 0.5

    def test_hand_mean(self):
        ns = NeighborSet([1, 2, 3], [1.0, 2.0, 3.0], [0.2, 0.4, 0.9])
        assert estimate_mean(ns) == pytest.approx(0.5)

    def test_single(self):
        ns = NeighborSet([1], [1.0], [0.37])
        assert estimate_mean(ns) == 0.37

    def test_empty(self):
        with pytest.raises(InsufficientNeighborsError):
            estimate_mean(NeighborSet([], [], []))


class TestEstimateWeighted:
    def test_constant_loads(self):
        ns = NeighborSet([1, 2], [1.0, 9.0], [0.4, 0.4])
        for n in (1.0, 3.0, 10.0, 50.0):
            assert estimate_weighted(ns, n) == pytest.approx(0.4)

    def test_hand_value(self):
        ns = NeighborSet([1, 2], [1.0, 2.0], [0.2, 0.4])
        assert estimate_weighted(ns, 1.0) == pytest.approx(0.8 / 3)

    def test_large_exponent_limits_to_nearest(self):
        ns = NeighborSet([1, 2], [1.0, 2.0], [0.2, 0.4])
        assert estimate_weighted(ns, 50.0) == pytest.approx(0.2, abs=1e-9)

    def test_huge_exponent_no_overflow(self):
        ns = NeighborSet([1, 2], [100.0, 5000.0], [0.2, 0.9])
        assert estimate_weighted(ns, 500.0) == pytest.approx(0.2)

    @pytest.mark.parametrize("n", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_exponent_raises(self, n):
        # NaN passes an `n <= 0` test and would come out as a NaN estimate
        with pytest.raises(ValueError, match="^distance exponent n must be finite"):
            estimate_weighted(NeighborSet([1, 2], [1.0, 2.0], [0.2, 0.4]), n)
        with pytest.raises(ValueError, match="^distance_exponent must be finite"):
            EstimatorSpec(method="distance_weighted", distance_exponent=n)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = rng.integers(2, 12)
            loads = rng.random(k)
            dists = rng.random(k) * 1000 + 1
            ns = NeighborSet(np.arange(k), dists, loads)
            n = float(rng.random() * 12 + 0.1)
            out = estimate_weighted(ns, n)
            assert loads.min() <= out <= loads.max()

    def test_matches_definition_form(self):
        # the definition's d_max / d**n weights must agree with the normalized form
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            loads = rng.random(k)
            dists = rng.random(k) * 900 + 10
            ns = NeighborSet(np.arange(k), dists, loads)
            n = float(rng.random() * 8 + 0.2)
            w = dists.max() / dists ** n
            reference = float(np.dot(loads, w) / w.sum())
            assert estimate_weighted(ns, n) == pytest.approx(reference, rel=1e-12)


class TestSse:
    """The SSE that kmeans_cluster reports with its model."""

    def test_points_on_centroids(self):
        assert kmeans_cluster([1.0, 2.0], 2, seed=0).sse == 0.0

    def test_hand_value(self):
        assert kmeans_cluster([0.0, 2.0], 1, seed=0).sse == pytest.approx(2.0)

    def test_nonincreasing_in_g(self):
        rng = np.random.default_rng(21)
        pts = rng.random(40)
        sses = [kmeans_cluster(pts, g, seed=0).sse for g in range(1, 6)]
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))


class TestKmeans:
    def test_g1_is_global_mean(self):
        pts = [0.1, 0.2, 0.6]
        model = kmeans_cluster(pts, 1, seed=0)
        assert model.centroids[0][0] == pytest.approx(np.mean(pts))

    def test_two_blobs_partition(self):
        pts = [0.1, 0.11, 0.9, 0.91]
        model = kmeans_cluster(pts, 2, seed=3)
        a = model.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_sse_monotone_over_iterations(self):
        rng = np.random.default_rng(4)
        pts = rng.random((60, 2))
        model = kmeans_cluster(pts, 4, seed=1)
        hist = model.sse_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_no_empty_cluster(self):
        pts = [0.5, 0.5, 0.5, 0.5, 0.9]
        model = kmeans_cluster(pts, 3, seed=0)
        assert set(model.assignment) == {0, 1, 2}

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.random(30)
        assert kmeans_cluster(pts, 3, seed=5) == kmeans_cluster(pts, 3, seed=5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans_cluster([0.1, 0.2], 3, seed=0)


class TestElbow:
    def test_linear_sse_ties_to_smallest(self):
        # evenly spread points give a near-linear SSE curve in 1 cluster steps;
        # use a strictly linear synthetic curve via a 2-point degenerate range
        assert elbow_g([0.1, 0.9], g_range=range(1, 3), seed=0) in (1, 2)

    def test_three_blob_knee(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate([rng.normal(0.1, 0.01, 40),
                              rng.normal(0.5, 0.01, 40),
                              rng.normal(0.9, 0.01, 40)])
        assert elbow_g(pts, seed=0) == 3

    def test_empty_range(self):
        with pytest.raises(ValueError):
            elbow_g([0.1, 0.2], g_range=range(0), seed=0)


LINE = cells_on_line([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])


@pytest.mark.parametrize("call, name", [
    (lambda: kmeans_cluster([0.1, 0.2, 0.8], 0, 0), "g"),
    (lambda: elbow_g([0.1, 0.2, 0.8], range(0, 3)), "g_range"),
    (lambda: mlc_estimate([0.1, 0.2, 0.8], [True, False, True], layers=1, clusters=0), "clusters"),
    (lambda: rank_neighbors(LINE[0], LINE, -1), "n_neighbors"),
    (lambda: select_random(LINE[0], LINE, -1, 0), "n_neighbors"),
    (lambda: EstimatorSpec(method="mlc", cluster_count="elbowx"), "cluster_count"),
], ids=["kmeans_cluster", "elbow_g", "mlc_estimate", "rank_neighbors", "select_random", "EstimatorSpec"])
def test_count_below_one_names_its_argument(call, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: EstimatorSpec(method="distance_weighted", neighbor_count=2.5), "neighbor_count"),
    (lambda: EstimatorSpec(method="mlc", layer_count=1.5), "layer_count"),
    (lambda: EstimatorSpec(method="mlc", cluster_count=2.5), "cluster_count"),
    (lambda: EstimatorSpec(method="mlc", layer_count=True), "layer_count"),
    (lambda: rank_neighbors(LINE[0], LINE, 2.5), "n_neighbors"),
    (lambda: select_random(LINE[0], LINE, True, 0), "n_neighbors"),
    (lambda: kmeans_cluster([0.1, 0.2, 0.8], 1.5, 0), "g"),
    (lambda: mlc_estimate([0.1, 0.2, 0.8], [True, False, True], layers=1.5), "layers"),
    (lambda: kmeans_cluster([0.1, np.nan, 0.8], 2, 0), "points"),
    (lambda: kmeans_cluster([[0.1, 0.2], [np.inf, 0.3], [0.8, 0.9]], 2, 0), "points"),
    (lambda: elbow_g([0.1, -np.inf, 0.8]), "points"),
    (lambda: mlc_estimate([0.1, np.nan, 0.8], [True, False, True], layers=1), "loads"),
    (lambda: mlc_estimate([0.1, 0.2, np.inf], [True, False, True], layers=1, clusters=2), "loads"),
], ids=["spec-neighbor_count-float", "spec-layer_count-float", "spec-cluster_count-float", "spec-layer_count-bool",
        "rank_neighbors-float", "select_random-bool", "kmeans_cluster-float", "mlc_estimate-float",
        "kmeans_cluster-nan", "kmeans_cluster-inf-2d", "elbow_g-inf", "mlc_estimate-nan", "mlc_estimate-inf"])
def test_non_integer_count_or_non_finite_point_names_its_argument(call, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


@pytest.mark.parametrize("points", [
    np.random.default_rng(0).random(300) * 1e154,
    np.random.default_rng(0).random(300) * 1e200,
    np.random.default_rng(0).random(300) * 1e300,
    np.random.default_rng(0).random((50, 144)) * 1e153,
], ids=["1e154", "1e200", "1e300", "profiles-1e153"])
def test_overflowing_points_name_their_argument(points):
    # the k-means++ total, or a squared distance itself, would overflow
    with pytest.raises(ValueError, match="^points must "):
        kmeans_cluster(points, 2, 0)


def test_large_points_that_fit_still_cluster():
    # their squares' prefix sums would overflow, so no SSE comes from them
    model = kmeans_cluster(np.random.default_rng(0).random(300) * 1e153, 3, 0)
    assert model.sse > 0 and np.isfinite(model.sse_history).all()


class TestMlcEstimate:
    def test_constant_actives(self):
        loads = [0.3, 0.3, 0.3, 0.0]
        active = [True, True, True, False]
        for layers in (1, 3):
            out = mlc_estimate(loads, active, layers=layers, clusters=2, seed=0)
            assert out[3] == pytest.approx(0.3)

    def test_single_cluster_reduces_to_active_mean(self):
        loads = [0.2, 0.4, 0.6, 0.0]
        active = [True, True, True, False]
        out = mlc_estimate(loads, active, layers=1, clusters=1, seed=0)
        assert out[3] == pytest.approx(np.mean([0.2, 0.4, 0.6]))

    def test_hand_two_cluster_fixpoint(self):
        # sleeper initialized near the low blob lands in the low cluster
        loads = [0.1, 0.12, 0.8, 0.82, 0.11]
        active = [True, True, True, True, False]
        first = mlc_estimate(loads, active, layers=1, clusters=2, seed=0)
        assert first[4] == pytest.approx(0.11)
        deep = mlc_estimate(loads, active, layers=5, clusters=2, seed=0)
        assert deep[4] == pytest.approx(first[4])

    def test_actives_untouched(self):
        loads = [0.25, 0.75, 0.5]
        active = [True, True, False]
        out = mlc_estimate(loads, active, layers=2, clusters=2, seed=1)
        assert out[0] == 0.25 and out[1] == 0.75

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for trial in range(50):
            k = int(rng.integers(4, 20))
            loads = rng.random(k)
            active = rng.random(k) > 0.4
            if not active.any():
                active[0] = True
            out = mlc_estimate(loads, active, layers=2, clusters="elbow", seed=trial)
            assert (out >= 0).all() and (out <= 1).all()

    def test_requires_active_cell(self):
        with pytest.raises(InsufficientNeighborsError):
            mlc_estimate([0.1, 0.2], [False, False], layers=1, clusters=1, seed=0)

    def test_profile_features(self):
        loads = [0.1, 0.12, 0.8, 0.82, 0.5]
        active = [True, True, True, True, False]
        features = np.array([[0.1, 0.1], [0.1, 0.12], [0.9, 0.8], [0.8, 0.9], [0.11, 0.1]])
        out = mlc_estimate(loads, active, layers=1, clusters=2, seed=0, features=features)
        # feature space puts the sleeper with the low blob despite its 0.5 init
        assert out[4] == pytest.approx(0.11)

    @pytest.mark.parametrize("seed", [0, 5, 41])
    def test_profile_layers_pick_the_last_seed(self, seed):
        # with static features only the last layer's clustering survives
        rng = np.random.default_rng(seed)
        features = rng.random((60, 6))
        values = rng.random(60)
        active = rng.random(60) > 0.3
        deep = mlc_estimate(values, active, layers=3, clusters=4, seed=seed, features=features)
        last = mlc_estimate(values, active, layers=1, clusters=4, seed=seed + 2, features=features)
        assert deep.tobytes() == last.tobytes()
