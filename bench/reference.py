"""References computed apart from the program, for the checks in `checks.py`.

Every reference here is written from the model's definition, not from the
program's code path:

* the P1 optimum by a vectorised enumeration of {on, HAPS, MBS} per SBS with
  both sink capacity limits, evaluated on the EARTH objective directly;
* nearest neighbours by brute force on exact squared grid distances with the
  (distance, id) tie rule, and the inverse-distance formula;
* the Lloyd fixed-point conditions for a k-means result;
* ingested profiles as generator totals / days / corpus peak.

`self_test()` runs each reference on small cases worked by hand.
"""

from __future__ import annotations

import math

import numpy as np

_GRID = 2.0 ** 50       # the program's load grid: multiples of 2^-50
ENUM_MAX_S = 12         # largest network the exact enumeration is run on


def _snap(x):
    return np.rint(np.asarray(x, dtype=float) * _GRID) / _GRID


def _station_power(p, load):
    """EARTH model of an active station: P_o + eta * load * P_t."""
    return p["operational_w"] + p["amplifier_eff"] * load * p["transmit_w"]


def _params(station) -> dict:
    p = station.power
    return {k: float(getattr(p, k)) for k in ("operational_w", "amplifier_eff", "transmit_w", "sleep_w")}


def problem_from_call(call: dict) -> dict:
    """Plain-number description of one solver call, from its bound arguments."""
    net, loads, sinks = call["net"], call["loads"], call["sinks"]
    return problem(
        sbs=[_params(b) for b in net.sbs], sbs_capacity=[float(b.capacity) for b in net.sbs],
        haps=_params(net.haps), mbs=_params(net.mbs),
        haps_capacity=float(net.haps.capacity), mbs_capacity=float(net.mbs.capacity),
        lambda_haps=float(loads.lambda_haps), lambda_mbs=float(loads.lambda_mbs),
        lambda_sbs=[float(v) for v in loads.lambda_sbs], sinks=tuple(sinks))


def problem(sbs, sbs_capacity, haps, mbs, haps_capacity, mbs_capacity,
            lambda_haps, lambda_mbs, lambda_sbs, sinks) -> dict:
    """Per-SBS choice table: power of the SBS itself and load moved to each sink.

    Choice 0 is on, 1 is sleep to HAPS, 2 is sleep to MBS; a choice that is not
    allowed or would move more than a whole sink gets infinite power.
    """
    lam = _snap(lambda_sbs)
    s = len(lam)
    own = np.full((s, 3), np.inf)
    to_h = np.zeros((s, 3))
    to_m = np.zeros((s, 3))
    for j in range(s):
        own[j, 0] = _station_power(sbs[j], lam[j])
        for choice, sink, cap, moved in ((1, "HAPS", haps_capacity, to_h), (2, "MBS", mbs_capacity, to_m)):
            raw = sbs_capacity[j] / cap * lam[j]
            if sink in sinks and raw <= 1.0:
                own[j, choice] = sbs[j]["sleep_w"]
                moved[j, choice] = _snap(raw)
    return {"own": own, "to_h": to_h, "to_m": to_m, "haps": haps, "mbs": mbs,
            "lambda_haps": float(_snap(lambda_haps)), "lambda_mbs": float(_snap(lambda_mbs))}


def _network_power(pb, own_sum, h, m):
    return _station_power(pb["haps"], h) + _station_power(pb["mbs"], m) + own_sum


def exact_optimum(pb) -> float:
    """Minimum network power over all 3^s choices that respect both sink limits."""
    own_sum, h, m = np.zeros(1), np.full(1, pb["lambda_haps"]), np.full(1, pb["lambda_mbs"])
    for j in range(len(pb["own"])):
        own_sum = (own_sum[:, None] + pb["own"][j][None, :]).ravel()
        # sums of grid multiples below 8 are exact in double precision
        h = (h[:, None] + pb["to_h"][j][None, :]).ravel()
        m = (m[:, None] + pb["to_m"][j][None, :]).ravel()
        feasible = (h <= 1.0) & (m <= 1.0) & np.isfinite(own_sum)
        own_sum, h, m = own_sum[feasible], h[feasible], m[feasible]
    return float(_network_power(pb, own_sum, h, m).min())


def all_on_power(pb) -> float:
    return float(_network_power(pb, pb["own"][:, 0].sum(), pb["lambda_haps"], pb["lambda_mbs"]))


def relaxed_lower_bound(pb) -> float:
    """Optimum without the sink capacity limits: a lower bound on the optimum."""
    eta_h = pb["haps"]["amplifier_eff"] * pb["haps"]["transmit_w"]
    eta_m = pb["mbs"]["amplifier_eff"] * pb["mbs"]["transmit_w"]
    per_sbs = pb["own"] + eta_h * pb["to_h"] + eta_m * pb["to_m"]
    return float(_network_power(pb, per_sbs.min(axis=1).sum(), pb["lambda_haps"], pb["lambda_mbs"]))


def nearest_ids(cell_ids, xy, target_id, target_xy, n):
    """Brute-force n nearest cells other than the target; ties go to the lower id.

    Grid coordinates are multiples of half a cell size, so squared distances
    are exact and equal distances compare equal.
    """
    d2 = (xy[:, 0] - target_xy[0]) ** 2 + (xy[:, 1] - target_xy[1]) ** 2
    keep = cell_ids != target_id
    ids, d2 = cell_ids[keep], d2[keep]
    order = np.lexsort((ids, d2))[:n]
    return ids[order], np.sqrt(d2[order])


def inverse_distance_estimate(loads, distances, n) -> float:
    """sum(lambda_i d_i^-n) / sum(d_i^-n)."""
    w = np.asarray(distances, dtype=float) ** -float(n)
    return float(np.dot(np.asarray(loads, dtype=float), w) / w.sum())


def lloyd_fixed_point_error(points, centroids, assignment) -> str | None:
    """None if every point sits at its nearest centroid and every centroid is
    the mean of its members; otherwise a description of the first violation."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(len(pts), -1)
    cen = np.asarray(centroids, dtype=float).reshape(-1, pts.shape[1])
    assign = np.asarray(assignment)
    d2 = ((pts[:, None, :] - cen[None]) ** 2).sum(-1)
    own = d2[np.arange(len(pts)), assign]
    scale = 1e-12 * (1.0 + d2.max())
    worse = np.flatnonzero(own > d2.min(axis=1) + scale)
    if worse.size:
        i = int(worse[0])
        return f"point {i} is nearer centroid {int(d2[i].argmin())} than its own {int(assign[i])}"
    for g in range(len(cen)):
        members = pts[assign == g]
        if len(members) and np.abs(members.mean(axis=0) - cen[g]).max() > 1e-12 * (1.0 + np.abs(cen[g]).max()):
            return f"centroid {g} is not the mean of its {len(members)} members"
    return None


def ingested_profiles(totals, days) -> np.ndarray:
    """Expected normalised profiles: totals / days / corpus peak."""
    daily = np.asarray(totals, dtype=float) / days
    return daily / daily.max()


def self_test() -> list[str]:
    """Run every reference on hand-worked cases; returns the failures."""
    failures = []

    def expect(name, ok):
        if not ok:
            failures.append(name)

    sbs = {"operational_w": 56.0, "amplifier_eff": 2.6, "transmit_w": 6.3, "sleep_w": 6.0}
    mbs = {"operational_w": 130.0, "amplifier_eff": 4.7, "transmit_w": 20.0, "sleep_w": 75.0}
    haps = {"operational_w": 180.0, "amplifier_eff": 4.0, "transmit_w": 120.0, "sleep_w": 100.0}

    def two_sbs(lambda_mbs, sinks=("HAPS", "MBS")):
        return problem([sbs, sbs], [10.0, 10.0], haps, mbs, 50.0, 50.0, 0.1, lambda_mbs, [0.5, 0.9], sinks)

    # all on: 228 + 148.8 + 64.19 + 70.742; both SBSs sleep to the MBS:
    # 228 + (130 + 4.7 * 0.48 * 20) + 6 + 6
    expect("exact: both sleep to MBS", abs(exact_optimum(two_sbs(0.2)) - 415.12) < 1e-9)
    expect("exact: all-on power", abs(all_on_power(two_sbs(0.2)) - 511.732) < 1e-9)
    # MBS at 0.85 takes only SBS 0 (+0.1); SBS 1 stays on since HAPS costs +21.658 W
    expect("exact: MBS capacity binds", abs(exact_optimum(two_sbs(0.85)) - 524.042) < 1e-9)
    # HAPS only: SBS 0 to HAPS saves 10.19 W, SBS 1 would cost 21.658 W
    expect("exact: HAPS only", abs(exact_optimum(two_sbs(0.2, ("HAPS",))) - 501.542) < 1e-9)
    expect("relaxation below optimum",
           relaxed_lower_bound(two_sbs(0.85)) <= exact_optimum(two_sbs(0.85)) + 1e-9)

    # 3x3 grid, unit spacing, target is the centre (id 5): the four edge
    # neighbours at distance 1, then the lowest-id corner
    ids = np.arange(1, 10)
    xy = np.array([[c, r] for r in range(3) for c in range(3)], dtype=float)
    got, dist = nearest_ids(ids, xy, 5, (1.0, 1.0), 5)
    expect("nearest: tie rule", got.tolist() == [2, 4, 6, 8, 1])
    expect("nearest: distances", np.allclose(dist, [1, 1, 1, 1, math.sqrt(2)]))
    # weights 1 and 1/2: (1 * 1 + 0 * 0.5) / 1.5
    expect("inverse distance", abs(inverse_distance_estimate([1.0, 0.0], [1.0, 2.0], 1) - 2 / 3) < 1e-15)

    expect("lloyd: fixed point", lloyd_fixed_point_error([0, 1, 10, 11], [0.5, 10.5], [0, 0, 1, 1]) is None)
    expect("lloyd: point at the wrong centroid",
           lloyd_fixed_point_error([0, 1, 10, 11], [0.0, 22 / 3], [0, 1, 1, 1]) is not None)
    expect("lloyd: centroid off the mean",
           lloyd_fixed_point_error([0, 1, 10, 11], [0.4, 10.5], [0, 0, 1, 1]) is not None)

    expect("ingest: totals / days / peak",
           np.array_equal(ingested_profiles([[2.0, 4.0], [8.0, 0.0]], 2), [[0.25, 0.5], [1.0, 0.0]]))
    return failures
