"""Traffic load estimators for sleeping small base stations.

Five schemes: nearest-neighbor averaging with and without inverse-distance
weighting, random neighbor selection with and without weighting, and
multi-level k-means clustering with elbow-based cluster-count selection.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDistanceError, InsufficientNeighborsError

# method -> (neighbour selection, inverse-distance weighting). "perfect" is a
# diagnostic baseline (lambda_hat := lambda), not an estimation scheme; it
# anchors the zero-error sanity checks.
METHODS = {"distance_unweighted": ("distance", False), "distance_weighted": ("distance", True),
           "random_unweighted": ("random", False), "random_weighted": ("random", True),
           "mlc": ("clusters", False), "perfect": ("truth", False)}

DEFAULT_G_RANGE = range(1, 11)
_KMEANS_MAX_ITER = 300


def _check_count(name: str, value, elbow: bool = False) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer >= 1 (a bool or a
    float is not one) or, where `elbow`, the word 'elbow'."""
    if elbow and value == "elbow":
        return
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        what = "'elbow' or an integer >= 1" if elbow else "an integer >= 1"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimation scheme to run, with its hyperparameters."""

    method: str
    neighbor_count: int = 20
    distance_exponent: float = 1.0
    cluster_count: int | str = "elbow"
    layer_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown estimator method {self.method!r}")
        _check_count("neighbor_count", self.neighbor_count)
        if not 0 < self.distance_exponent < math.inf:
            raise ValueError("distance_exponent must be finite and > 0")
        _check_count("layer_count", self.layer_count)
        _check_count("cluster_count", self.cluster_count, elbow=True)


class Neighbor(NamedTuple):
    cell_id: int
    distance: float
    load: float


@dataclass(frozen=True, eq=False)
class NeighborSet:
    """A target's neighbours in rank order, as three read-only arrays that the
    set owns: `ids`, `distances` and `loads`.

    `NeighborSet(ids, distances, loads)` copies its inputs into int64 ids and
    float64 distances and loads, so the caller's arrays may change later.
    `neighbors` gives them back as `Neighbor` tuples.
    """

    ids: np.ndarray
    distances: np.ndarray
    loads: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ids", np.int64), ("distances", np.float64), ("loads", np.float64)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not self.ids.ndim == self.distances.ndim == self.loads.ndim == 1:
            raise ValueError("neighbor arrays must be one-dimensional")
        if not len(self.ids) == len(self.distances) == len(self.loads):
            raise ValueError("neighbor arrays must have one entry per neighbor")
        if (self.distances <= 0).any():
            raise DegenerateDistanceError("neighbor distances must be > 0")

    @property
    def neighbors(self) -> tuple[Neighbor, ...]:
        return tuple(map(Neighbor, self.ids.tolist(), self.distances.tolist(), self.loads.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NeighborSet):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids) and np.array_equal(self.distances, other.distances)
                and np.array_equal(self.loads, other.loads))


class CellLoad(NamedTuple):
    """One observable cell at the current time slot."""

    cell_id: int
    position: tuple[float, float]
    load: float


@dataclass(frozen=True, eq=False)
class CellPool:
    """The observable cells of one slot as arrays; iterates as CellLoads.

    `ids` holds the cell ids, `xy` the (cells, 2) positions, kept column-major
    so that each coordinate column is contiguous, and `loads` the current load
    of each cell. The estimators accept a pool or any iterable of CellLoads.
    """

    ids: np.ndarray
    xy: np.ndarray
    loads: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xy", np.asfortranarray(self.xy, dtype=np.float64))

    @classmethod
    def of(cls, cells) -> CellPool:
        if isinstance(cells, CellPool):
            return cells
        cells = list(cells)
        count = len(cells)
        return cls(np.fromiter((c.cell_id for c in cells), np.int64, count),
                   np.fromiter(itertools.chain.from_iterable(c.position for c in cells),
                               float, 2 * count).reshape(count, 2),
                   np.fromiter((c.load for c in cells), float, count))

    def __iter__(self):
        for cell_id, (x, y), load in zip(self.ids.tolist(), self.xy.tolist(), self.loads.tolist()):
            yield CellLoad(cell_id, (x, y), load)


def _hypot(pool: CellPool, rows: np.ndarray, target: CellLoad) -> list[float]:
    """The `math.hypot` distance from the target to each pool cell at `rows`."""
    tx, ty = target.position
    return [math.hypot(x - tx, y - ty) for x, y in zip(pool.xy[rows, 0].tolist(), pool.xy[rows, 1].tolist())]


# relative slack on the k-th squared distance: far above the rounding of a
# squared distance, so no cell whose hypot ties the k-th one is left out
_D2_SLACK = 1e-9


def rank_neighbors(target: CellLoad, cells, n_neighbors: int) -> NeighborSet:
    """The n nearest active cells by Euclidean distance, ties to lower id.

    Squared distances select the candidates at or inside the n-th distance;
    the candidates are then ordered by their `math.hypot` distance and id.
    """
    _check_count("n_neighbors", n_neighbors)
    pool = CellPool.of(cells)
    itself = np.flatnonzero(pool.ids == target.cell_id)
    available = len(pool.ids) - len(itself)
    if available < n_neighbors:
        raise InsufficientNeighborsError(
            f"need {n_neighbors} active cells, only {available} available"
        )
    # dx * dx + dy * dy, in place
    d2 = pool.xy[:, 0] - target.position[0]
    d2 *= d2
    dy = pool.xy[:, 1] - target.position[1]
    dy *= dy
    d2 += dy
    # NaN, not inf, leaves the target out: it sorts after every distance and
    # fails every comparison, even where a squared distance overflows to inf
    d2[itself] = np.nan
    kth = np.partition(d2, n_neighbors - 1)[n_neighbors - 1]
    candidates = np.flatnonzero(d2 <= kth * (1.0 + _D2_SLACK))
    # the candidate's place last, so equal (distance, id) pairs keep pool order
    ranked = sorted(zip(_hypot(pool, candidates, target), pool.ids[candidates].tolist(),
                        candidates.tolist()))[:n_neighbors]
    rows = np.array([row for _, _, row in ranked], dtype=np.intp)
    return NeighborSet(pool.ids[rows], [d for d, _, _ in ranked], pool.loads[rows])


def select_random(target: CellLoad, cells, n_neighbors: int, seed: int) -> NeighborSet:
    """n distinct active cells drawn uniformly without replacement (seeded)."""
    _check_count("n_neighbors", n_neighbors)
    pool = CellPool.of(cells)
    others = np.flatnonzero(pool.ids != target.cell_id)
    if len(others) < n_neighbors:
        raise InsufficientNeighborsError(
            f"need {n_neighbors} active cells, only {len(others)} available"
        )
    rng = np.random.default_rng(seed)
    rows = others[rng.choice(len(others), size=n_neighbors, replace=False)]
    return NeighborSet(pool.ids[rows], _hypot(pool, rows, target), pool.loads[rows])


def estimate_mean(neighbors: NeighborSet) -> float:
    """Unweighted average of the neighbor loads."""
    if not len(neighbors.loads):
        raise InsufficientNeighborsError("cannot average an empty neighbor set")
    return float(neighbors.loads.mean())


def estimate_weighted(neighbors: NeighborSet, n: float) -> float:
    """Inverse-distance weighted average of the neighbor loads.

    Computed via the normalized form sum(lam * (d_min/d)**n) / sum((d_min/d)**n),
    algebraically identical to the d_max/d**n weighting (the constant cancels)
    but immune to overflow/underflow at large exponents.
    """
    if not len(neighbors.loads):
        raise InsufficientNeighborsError("cannot estimate from an empty neighbor set")
    if not 0 < n < math.inf:
        raise ValueError("distance exponent n must be finite and > 0")
    d = neighbors.distances                 # all > 0: a NeighborSet refuses any other
    w = (d.min() / d) ** n
    loads = neighbors.loads
    # clamp away float noise: the result is a convex combination of the loads
    return float(min(max(np.dot(loads, w) / w.sum(), loads.min()), loads.max()))


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """A k-means fit; `assignment` is a read-only integer array, one cluster per point."""
    centroids: tuple[tuple[float, ...], ...]
    assignment: np.ndarray
    sse: float
    sse_history: tuple[float, ...] = ()

    def __eq__(self, other) -> bool:
        return NotImplemented if not isinstance(other, ClusterModel) else (
            self.centroids == other.centroids and np.array_equal(self.assignment, other.assignment)
            and self.sse == other.sse and self.sse_history == other.sse_history)


class _PointSet:
    """One point set's shared k-means work: the points (scalars as a 1-D array),
    for scalars their sort and prefix sums, one k-means++ stream per seed, and
    every finished fit by (g, seed). The points must not change meanwhile.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float).T).T
        self.pts = pts[:, 0] if pts.shape[1] == 1 else pts
        if not np.isfinite(self.pts).all():
            raise ValueError("points must be finite")
        self.fits: dict[tuple[int, int], ClusterModel] = {}
        self._streams: dict[int, tuple] = {}
        if self.pts.ndim == 1:
            eps = sys.float_info.epsilon
            # equal points always share a cluster, so the sort need not be stable
            order = np.argsort(self.pts)
            xs = self.pts[order]
            # bound on a prefix-sum segment mean's error times its count; any
            # summation order of the same points errs by less
            sum_err = 2.0 * len(xs) * eps * float(np.abs(xs).sum())
            # centroids closer than this may tie in the loop's rounded distances
            # |x - c| <= 2 max|x| of a far point
            reach = 8.0 * eps * float(np.abs(xs).max(initial=0.0))
            # the loop bisects a list, which is faster to probe than an array('d')
            self.prefix = (order, xs.tolist(), _prefix_sums(xs), _prefix_sums(xs * xs), sum_err, reach)

    def seeds(self, g: int, seed: int) -> np.ndarray:
        """The first g k-means++ seeds of `seed`, as a new array: each drawn with
        probability proportional to its squared distance to the nearest seed so
        far. A larger g continues the same stream, so its seeds start with a smaller g's."""
        if seed not in self._streams:
            self._streams[seed] = (self._plus_plus(self.pts, np.random.default_rng(seed)), [])
        stream, chosen = self._streams[seed]
        chosen.extend(itertools.islice(stream, max(0, g - len(chosen))))
        return np.array(chosen[:g], dtype=float)

    @staticmethod
    def _plus_plus(pts: np.ndarray, rng: np.random.Generator):
        # holds no reference to the context, so dropping a context frees it at once
        latest, d2 = pts[rng.integers(len(pts))], None
        while True:
            yield latest
            # squared distance to the nearest seed so far, kept as a running min
            dist = pts - latest
            dist *= dist
            dist = dist if pts.ndim == 1 else dist.sum(-1)
            d2 = dist if d2 is None else np.minimum(d2, dist, out=d2)
            total = d2.sum()
            latest = pts[rng.integers(len(pts)) if total <= 0 else rng.choice(len(d2), p=d2 / total)]


def _prefix_sums(values: np.ndarray) -> array:
    """0 and the running sums of `values`, as an array('d'): its items index as floats."""
    sums = np.empty(len(values) + 1)
    sums[0] = 0.0
    np.cumsum(values, out=sums[1:])
    return array("d", sums.tobytes())


def _lloyd_sorted(context: _PointSet, centroids: np.ndarray):
    """Lloyd's iterations on scalars, on the sorted points with prefix sums.

    Each cluster is the run of sorted points between two centroid midpoints,
    so an iteration costs O(g log n) instead of O(n g). The prefix-sum
    centroids differ from the general loop's means by rounding only, and an
    iteration goes ahead only when that rounding, and the rounding of the
    loop's distance comparison, cannot move any point: no point lies in a
    band around a midpoint, no two centroids are that close, and no cluster
    is empty. Each assignment is then the one the general loop makes. At the
    first iteration that fails the test this stops, unconverged, and the
    general loop takes over.

    The runs are disjoint and in order, so their exact means keep the order
    of the seeds, which are sorted once, stably. A rounded mean that passes
    its neighbour's is within their error bounds of it and fails the gap
    test, so the centroids stay in that rank order throughout, and only the
    cuts between the runs can change.

    Returns the last cuts between the runs (None before the first
    iteration), the rank order of the centroids, one per run, the SSE history
    from prefix sums and whether the cuts stopped changing.
    """
    eps = sys.float_info.epsilon
    two_eps = 2.0 * eps
    _, xs, csum, _, sum_err, reach = context.prefix
    n, g = len(xs), len(centroids)
    seeds = centroids.tolist()
    rank = sorted(range(g), key=seeds.__getitem__)
    # centroids and their error bounds in rank order; the k-means++ seeds are exact
    cent, err = [seeds[k] for k in rank], [0.0] * g
    history, cuts, converged = [], None, False
    for _ in range(_KMEANS_MAX_ITER):
        # the cuts between the runs and, as each run closes, its mean and error bound
        new, next_cent, next_err = [0], [], []
        lo, sum_lo = 0, 0.0
        for a, b, err_a, err_b in zip(cent, cent[1:], err, err[1:]):
            gap, err_ab = b - a, err_a + err_b
            if gap <= err_ab + reach:
                break
            mid = (a + b) / 2
            band = err_ab / 2 + eps * (abs(mid) + gap)
            cut = bisect_left(xs, mid - band)
            if cut <= lo or (cut < n and xs[cut] <= mid + band):
                break
            new.append(cut)
            sum_hi = csum[cut]
            mean = (sum_hi - sum_lo) / (cut - lo)
            next_cent.append(mean)
            next_err.append(sum_err / (cut - lo) + two_eps * abs(mean))
            lo, sum_lo = cut, sum_hi
        else:
            if lo < n:
                new.append(n)
                mean = (csum[n] - sum_lo) / (n - lo)
                next_cent.append(mean)
                next_err.append(sum_err / (n - lo) + two_eps * abs(mean))
        if len(new) <= g:       # a pair failed the test, or the last run is empty
            break
        cent, err = next_cent, next_err
        history.append(new)
        converged, cuts = new == cuts, new
        if converged:
            break
    return cuts, rank, _sse_history(context, history) if history else [], converged


def _sse_history(context: _PointSet, history: list[list[int]]) -> list[float]:
    """Each iteration's SSE from the prefix sums, given its cuts between the runs."""
    _, _, csum, csq, _, _ = context.prefix
    csum, csq = np.frombuffer(csum), np.frombuffer(csq)
    cuts = np.array(history)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    total = csum[hi] - csum[lo]
    return (csq[hi] - csq[lo] - total * total / (hi - lo)).sum(axis=1).tolist()


def _sq_distances(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The (points, centroids) squared distances, one centroid at a time, so a
    profile fit holds one points-sized buffer, never a (points, centroids, 144) array."""
    d2, sq = np.empty((len(pts), len(centroids))), np.empty_like(pts)
    for k, centroid in enumerate(centroids):
        np.subtract(pts, centroid, out=sq)
        sq *= sq
        d2[:, k] = sq if pts.ndim == 1 else sq.sum(-1)
    return d2


def _grouped(values: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """`values[labels == k]` for each k, which `counts[k]` labels hold. A stable
    (radix) sort of the labels keeps each group in row order, so a mean over a
    group adds the same values in the same order as one over the mask and has
    the same bits."""
    grouped = values[np.argsort(labels.astype(np.min_scalar_type(len(counts) - 1)), kind="stable")]
    return np.split(grouped, np.cumsum(counts)[:-1])


def _refresh(pts: np.ndarray, centroids: np.ndarray, assignment: np.ndarray, counts: np.ndarray) -> None:
    """Move every centroid to its members' mean; `counts[k]` points have label k.
    The sum over the members and the division by their count are what `mean` does."""
    for cluster, members in enumerate(_grouped(pts, assignment, counts)):
        centroids[cluster] = np.add.reduce(members, axis=0) / len(members)


def _runs_are_nearest(context: _PointSet, cent: list[float], cuts: list[int]) -> bool:
    """Whether the general loop's argmin surely gives each run of sorted scalars,
    xs[cuts[k]:cuts[k + 1]], its own centroid cent[k]. It does if adjacent centroids
    are over `reach` apart, with a normal square, and each run's boundary points are
    strictly nearer their own centroid than the next one, squared as that loop does:
    rounding is monotone, so on the near side of its centroid a run's boundary point
    is its worst point, and on the far side a point is nearer its own centroid by a
    gap over 4 eps of any distance (at most 2 max|x|), more than the squares' rounding."""
    xs, reach = context.prefix[1], context.prefix[5]
    for a, b, cut in zip(cent, cent[1:], cuts[1:]):
        gap, lo_a, lo_b, hi_a, hi_b = b - a, xs[cut - 1] - a, xs[cut - 1] - b, xs[cut] - a, xs[cut] - b
        if not (gap > reach and gap * gap >= sys.float_info.min and lo_a * lo_a < lo_b * lo_b
                and hi_b * hi_b < hi_a * hi_a):
            return False
    return True


def kmeans_cluster(points, g: int, seed: int, *, context: _PointSet | None = None) -> ClusterModel:
    """Lloyd's algorithm with seeded k-means++ init, run to a fixed point.

    Empty clusters are reseeded to the point currently farthest from its
    centroid, so every cluster in the result is non-empty. Scalar points run
    the iterations on sorted prefix sums, and their SSE history before the
    last entry comes from those sums; their fixed point is then checked at
    the runs' boundary points with the general loop's centroids and squares,
    and that loop takes over if the check fails.

    `context`, built from these very points, shares their sort, k-means++
    draws and finished fits with other calls on them; without one the call
    builds its own.
    """
    context = _PointSet(points) if context is None else context
    pts = context.pts
    _check_count("g", g)
    if len(pts) < g:
        raise ValueError(f"need at least {g} points for {g} clusters, got {len(pts)}")
    if (g, seed) in context.fits:
        return context.fits[g, seed]
    centroids = context.seeds(g, seed)
    assignment, history = None, []
    if pts.ndim == 1:
        cuts, rank, history, converged = _lloyd_sorted(context, centroids)
    if history:     # the sorted runs went through at least one iteration
        sizes = np.diff(cuts)
        assignment = np.empty(len(pts), dtype=np.intp)
        assignment[context.prefix[0]] = np.repeat(rank, sizes)
        _refresh(pts, centroids, assignment, sizes[np.argsort(rank)])
        history[-1] = float(((pts - centroids[assignment]) ** 2).sum())
        if converged and _runs_are_nearest(context, centroids[rank].tolist(), cuts):
            return context.fits.setdefault((g, seed), _model(centroids, assignment, history))
    # d2 always holds the squared distances to the current centroids
    d2 = _sq_distances(pts, centroids)
    rows = np.arange(len(pts))
    for _ in range(len(history), _KMEANS_MAX_ITER):
        new_assignment = d2.argmin(axis=1)
        # an empty cluster steals the point farthest from its centroid among
        # clusters that can spare one, so every cluster stays non-empty
        counts = np.bincount(new_assignment, minlength=g)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            own_dist = d2[rows, new_assignment]
            eligible = np.flatnonzero(counts[new_assignment] > 1)
            far = int(eligible[own_dist[eligible].argmax()])
            new_assignment[far] = empty
            counts = np.bincount(new_assignment, minlength=g)
        _refresh(pts, centroids, new_assignment, counts)
        d2 = _sq_distances(pts, centroids)
        history.append(float(d2[rows, new_assignment].sum()))
        if assignment is not None and (new_assignment == assignment).all():
            break
        assignment = new_assignment
    return context.fits.setdefault((g, seed), _model(centroids, assignment, history))


def _model(centroids: np.ndarray, assignment: np.ndarray, history: list[float]) -> ClusterModel:
    assignment.setflags(write=False)
    return ClusterModel(tuple(map(tuple, centroids.reshape(len(centroids), -1).tolist())), assignment,
                        sse=history[-1], sse_history=tuple(history))


def elbow_g(points, g_range=DEFAULT_G_RANGE, seed: int = 0, *, context: _PointSet | None = None) -> int:
    """Cluster count at the knee of the SSE curve.

    The knee is the g with the largest perpendicular distance from the line
    joining the curve's endpoints; ties go to the smallest g.
    """
    gs = [g for g in g_range]
    if not gs:
        raise ValueError("empty cluster-count range")
    if min(gs) < 1:
        raise ValueError("g_range must hold cluster counts >= 1")
    context = _PointSet(points) if context is None else context
    gs = [g for g in gs if g <= len(context.pts)]
    if not gs:
        raise ValueError("no feasible cluster count for this corpus size")
    sses = [kmeans_cluster(points, g, seed, context=context).sse for g in gs]
    if len(gs) == 1:
        return gs[0]
    x1, y1, x2, y2 = gs[0], sses[0], gs[-1], sses[-1]
    norm = math.hypot(x2 - x1, y2 - y1)
    best_g, best_dist = gs[0], -1.0
    for g, s in zip(gs, sses):
        dist = abs((y2 - y1) * g - (x2 - x1) * s + x2 * y1 - y2 * x1) / norm if norm > 0 else 0.0
        if dist > best_dist + 1e-12:
            best_g, best_dist = g, dist
    return best_g


def mlc_estimate(loads, active, layers: int, clusters: int | str = "elbow", seed: int = 0,
                 features=None) -> np.ndarray:
    """Multi-level clustering estimation for every sleeping cell.

    `loads` holds the current load of active cells and an initial guess for
    sleeping ones (caller supplies e.g. the last observed value). With
    `clusters="elbow"` the cluster count is `elbow_g` over its default range
    (`DEFAULT_G_RANGE`, capped at the cell count), else `clusters`. A layer
    clusters the cells with k-means and replaces every sleeper's value with
    its cluster's mean active load; a cluster without any active member falls
    back to the global active mean.

    Without `features`, layer l (0-based) clusters the current scalar values,
    sleepers' estimates from the layer before included, with seed `seed + l`.
    With `features` (one row per cell, e.g. full daily profiles) every layer
    would cluster the same static matrix, and each overwrites every sleeper
    from the active means alone, so only the last layer is run: `layers`
    then only picks its seed, `seed + layers - 1`. The elbow search for the
    cluster count always uses `seed`.

    Returns the full load vector with sleepers replaced by their estimates.
    """
    lam = np.array(loads, dtype=float)
    active = np.asarray(active, dtype=bool)
    if lam.shape != active.shape:
        raise ValueError("loads and active mask must have the same length")
    if not np.isfinite(lam).all():
        raise ValueError("loads must be finite")
    _check_count("layers", layers)
    _check_count("clusters", clusters, elbow=True)
    if not active.any():
        raise InsufficientNeighborsError("at least one active cell is required")
    global_mean = float(lam[active].mean())
    if not (~active).any():
        return lam
    points = lam if features is None else np.asarray(features, dtype=float)
    if len(points) != len(lam):
        raise ValueError("feature matrix must have one row per cell")
    context = _PointSet(points)     # shared by the elbow and the first layer
    if clusters == "elbow":
        g = elbow_g(points, seed=seed, context=context)
    else:
        g = int(clusters)
    g = min(g, len(lam))
    first = 0 if features is None else layers - 1
    for layer in range(first, layers):
        if layer > first:
            context = _PointSet(lam)     # the layer before changed the sleepers
        labels = kmeans_cluster(points, g, seed + layer, context=context).assignment
        on = labels[active]
        means = np.array([members.mean() if len(members) else global_mean
                          for members in _grouped(lam[active], on, np.bincount(on, minlength=g))])
        lam[~active] = means[labels[~active]]
    return np.clip(lam, 0.0, 1.0)
