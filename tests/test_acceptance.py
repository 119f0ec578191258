"""End-to-end acceptance gates.

Each test prints one "criterion N: PASS/FAIL" line; the statistical criteria
run on seeded synthetic corpora and are fully deterministic.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from vhetsim.config import resolve_config
from vhetsim.estimate import (
    CellLoad,
    CellPool,
    elbow_g,
    estimate_weighted,
    mlc_estimate,
    rank_neighbors,
)
from vhetsim.experiment import run_experiment
from vhetsim.ingest import SynthParams, synth_traffic
from vhetsim.power import BaseStation, Network, NetworkLoadState, PowerParams, Tier, snap_load, total_power
from vhetsim.reporting import emit_report
from vhetsim.switching import HAPS, MBS, optimize_exhaustive, optimize_greedy

SBS_P = PowerParams(56.0, 2.6, 6.3, 6.0)
MBS_P = PowerParams(130.0, 4.7, 20.0, 75.0)
HAPS_P = PowerParams(180.0, 4.0, 120.0, 100.0)


def verdict(number: int, ok: bool, message: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number} failed: {message}"


def make_net(s, c_sbs=10.0, c_mbs=50.0, c_haps=50.0):
    haps = BaseStation("haps", Tier.HAPS, (0.0, 0.0), c_haps, HAPS_P)
    mbs = BaseStation("mbs", Tier.MBS, (0.0, 0.0), c_mbs, MBS_P)
    sbs = tuple(BaseStation(f"s{i}", Tier.SBS, (float(i), 0.0), c_sbs, SBS_P)
                for i in range(s))
    return Network(haps, mbs, sbs)


def carried_traffic(loads, net) -> float:
    """Total carried traffic sum(C * lambda) over all stations."""
    return (loads.lambda_haps * net.haps.capacity + loads.lambda_mbs * net.mbs.capacity
            + math.fsum(l * b.capacity for l, b in zip(loads.lambda_sbs, net.sbs)))


def sleeper_sinks(decision):
    """The (j, sink) pair of each SBS the decision sends to a sink, in index order.
    An SBS that is on but marked for the HAPS gives a pair as well, so a
    comparison with the sleepers' pairs fails on it."""
    return tuple((j, HAPS if to_h else MBS) for j, (off, to_h) in enumerate(zip(*decision)) if off or to_h)


def brute_force_reference(net, loads):
    """Independent plain-arithmetic enumerator with the documented tie-break:
    lowest power, most stations on, first differing bit on, alphabetical sinks.

    Each move adds snap_load(phi * lambda) to its sink, which must stay at or
    below 1.0.
    """
    s = len(net.sbs)
    best, best_key = None, None
    for delta in itertools.product((1, 0), repeat=s):
        sleepers = [j for j in range(s) if delta[j] == 0]
        for targets in itertools.product((HAPS, MBS), repeat=len(sleepers)):
            lam_h, lam_m = loads.lambda_haps, loads.lambda_mbs
            ok = True
            for j, tgt in zip(sleepers, targets):
                sink = net.haps if tgt == HAPS else net.mbs
                raw = net.sbs[j].capacity / sink.capacity * loads.lambda_sbs[j]
                if raw > 1.0:
                    ok = False
                    break
                if tgt == HAPS:
                    lam_h += snap_load(raw)
                    ok = lam_h <= 1.0
                else:
                    lam_m += snap_load(raw)
                    ok = lam_m <= 1.0
                if not ok:
                    break
            if not ok:
                continue
            power = (HAPS_P.operational_w + HAPS_P.amplifier_eff * lam_h * HAPS_P.transmit_w
                     + MBS_P.operational_w + MBS_P.amplifier_eff * lam_m * MBS_P.transmit_w)
            for j in range(s):
                if delta[j] == 1:
                    power += (SBS_P.operational_w
                              + SBS_P.amplifier_eff * loads.lambda_sbs[j] * SBS_P.transmit_w)
                else:
                    power += SBS_P.sleep_w
            key = (round(power, 9), len(delta) - sum(delta),
                   tuple(1 - b for b in delta), targets)
            if best_key is None or key < best_key:
                best, best_key = (delta, tuple(zip(sleepers, targets)), power), key
    return best


def test_criterion_01_solver_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    greedy_violations = 0
    for _ in range(200):
        s = rng.randint(1, 10)
        net = make_net(s)
        loads = NetworkLoadState(rng.random() * 0.5, rng.random() * 0.5,
                                 tuple(rng.random() for _ in range(s)))
        decision, _, p_ex = optimize_exhaustive(net, loads)
        ref_delta, ref_targets, p_ref = brute_force_reference(net, loads)
        _, _, p_gr = optimize_greedy(net, loads)
        if (decision.delta != ref_delta
                or sleeper_sinks(decision) != tuple(sorted(ref_targets))
                or abs(p_ex - p_ref) > 1e-9):
            mismatches += 1
        if p_gr < p_ex - 1e-9:
            greedy_violations += 1
    verdict(1, mismatches == 0 and greedy_violations == 0,
            f"200 instances s<=10: {mismatches} oracle mismatches, "
            f"{greedy_violations} greedy-below-exhaustive violations")


def test_oracle_sink_filled_to_one():
    # MBS base 0.2 and four SBSs at load 1.0 (phi = 0.2): snap_load(0.2) is just
    # above 0.2, so a fourth move to the MBS would take it past 1.0. The oracle
    # keeps one SBS on, as the program does, instead of sleeping all four.
    net = make_net(4)
    loads = NetworkLoadState(0.0, 0.2, (1.0,) * 4)
    ref_delta, ref_targets, p_ref = brute_force_reference(net, loads)
    decision, _, p_ex = optimize_exhaustive(net, loads)
    assert sum(ref_delta) == 1 and all(target == MBS for _, target in ref_targets)
    assert decision.delta == ref_delta and sleeper_sinks(decision) == tuple(sorted(ref_targets))
    assert p_ref == pytest.approx(475.58) and abs(p_ex - p_ref) <= 1e-9


def test_criterion_02_weighted_estimator_algebraic_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    from vhetsim.estimate import Neighbor, NeighborSet
    for _ in range(10_000):
        k = int(rng.integers(2, 10))
        loads = rng.random(k)
        dists = rng.random(k) * 990 + 10
        n = float(rng.random() * 9.9 + 0.1)
        d_max = dists.max()
        w_def = d_max / dists ** n                 # definition form
        simplified = dists ** (-n)                 # d_max cancels
        a = float(np.dot(loads, w_def) / w_def.sum())
        b = float(np.dot(loads, simplified) / simplified.sum())
        ns = NeighborSet(tuple(Neighbor(i, float(d), float(l))
                               for i, (d, l) in enumerate(zip(dists, loads))))
        c = estimate_weighted(ns, n)
        worst = max(worst, abs(a - b) / abs(b), abs(c - b) / abs(b))
    verdict(2, worst <= 1e-12,
            f"both algebraic forms agree on 10^4 random inputs, worst rel diff {worst:.2e}")


@pytest.fixture(scope="module")
def weighted_error_table():
    """Mean relative estimation error per (N, n) on the correlated corpus."""
    params = SynthParams(grid_side=24, spatial_correlation_length=4 * 235.0,
                         noise_std=0.3, seed=11)
    corpus = synth_traffic(params)
    rng = np.random.default_rng(11)
    trials = [(int(rng.integers(len(corpus))), int(rng.integers(144)))
              for _ in range(300)]
    table = {}
    for N in (5, 20, 50):
        for n in (1, 3, 5, 10):
            errs = []
            for idx, slot in trials:
                lam_true = float(corpus.loads[idx, slot])
                if lam_true == 0.0:
                    continue
                others = np.arange(len(corpus)) != idx
                pool = CellPool(corpus.ids[others], corpus.xy[others], corpus.loads[others, slot])
                x, y = corpus.xy[idx].tolist()
                target = CellLoad(int(corpus.ids[idx]), (x, y), 0.0)
                lam_hat = estimate_weighted(rank_neighbors(target, pool, N), n)
                errs.append(abs(lam_true - lam_hat) / lam_true)
            table[N, n] = float(np.mean(errs))
    return table


def test_criterion_03_error_decreases_with_distance_exponent(weighted_error_table):
    ok = True
    for N in (5, 20, 50):
        row = [weighted_error_table[N, n] for n in (1, 3, 5, 10)]
        ok = ok and all(a >= b - 1e-12 for a, b in zip(row, row[1:]))
    summary = ", ".join(
        f"N={N}: " + "/".join(f"{weighted_error_table[N, n]:.3f}" for n in (1, 3, 5, 10))
        for N in (5, 20, 50))
    verdict(3, ok, f"mean eps monotone non-increasing over n in {{1,3,5,10}} ({summary})")


def test_criterion_04_neighbor_count_hurts_and_exponent_damps(weighted_error_table):
    growth_ok = weighted_error_table[50, 1] >= weighted_error_table[5, 1]
    spread_n1 = weighted_error_table[50, 1] - weighted_error_table[5, 1]
    spread_n10 = weighted_error_table[50, 10] - weighted_error_table[5, 10]
    spread_ok = spread_n10 <= 0.5 * spread_n1
    verdict(4, growth_ok and spread_ok,
            f"at n=1 eps grows with N (spread {spread_n1:.4f}); "
            f"at n=10 the spread shrinks to {spread_n10:.4f} (<= half)")


def test_criterion_05_mlc_error_drops_with_layers():
    def pooled_error(layers):
        errs = []
        for seed in (9, 17, 23, 31):
            params = SynthParams(grid_side=24, spatial_correlation_length=4 * 235.0,
                                 noise_std=0.3, seed=seed)
            loads_all = np.array([p.slots for p in synth_traffic(params)])
            rng = np.random.default_rng(seed)
            for _ in range(10):
                slot = int(rng.integers(1, 144))
                sleepers = rng.choice(len(loads_all), size=50, replace=False)
                active = np.ones(len(loads_all), dtype=bool)
                active[sleepers] = False
                lam = loads_all[:, slot].copy()
                truth = lam[sleepers].copy()
                # sleepers start from their last observed value (previous slot)
                lam[sleepers] = loads_all[sleepers, slot - 1]
                est = mlc_estimate(lam, active, layers=layers, clusters=8, seed=seed)
                errs.extend(abs(t - e) / t for t, e in zip(truth, est[sleepers]) if t > 0)
        return float(np.mean(errs))

    l1, l7 = pooled_error(1), pooled_error(7)
    verdict(5, l7 <= l1,
            f"pooled mean eps at 7 layers ({l7:.4f}) <= 1 layer ({l1:.4f})")


def test_criterion_06_clustering_power_gap_beats_distance_baseline():
    def power_gap(estimator, extra=None):
        raw = {
            "sbs_count": 8,
            "synth": {"grid_side": 14, "noise_std": 0.25, "seed": 7},
            "estimator": estimator,
            "iteration_count": 3,
            "slot_count": 144,
            "optimizer": "greedy",
            "seed": 42,
        }
        if extra:
            raw.update(extra)
        report = run_experiment(resolve_config(raw))
        return float(np.mean([
            abs(r.metrics.power_est - r.metrics.power_true) / r.metrics.power_true
            for r in report.rows]))

    gap_mlc = power_gap({"method": "mlc", "cluster_count": 12, "layer_count": 7},
                        {"cluster_features": "profile"})
    gap_dist = power_gap({"method": "distance_unweighted", "neighbor_count": 50})
    verdict(6, gap_mlc <= gap_dist,
            f"clustering power gap {gap_mlc:.5f} <= distance-unweighted {gap_dist:.5f}")


def test_criterion_07_conservation_feasibility_roundtrip():
    # conservation and the round trip on total_power's unbounded sink loads;
    # feasibility of the decision greedy returns for every draw's loads, and
    # the exhaustive solver's for every tenth (it takes eight times as long)
    rng = random.Random(123)
    net = make_net(4)
    violations = 0
    for draw in range(100_000):
        loads = NetworkLoadState(rng.random() * 0.4, rng.random() * 0.4,
                                 tuple(rng.random() for _ in range(4)))
        asleep, to_haps = [False] * 4, [False] * 4
        moves = []  # (to the HAPS, phi * lambda_j) of each sleeper
        for j in rng.sample(range(4), rng.randint(1, 3)):
            asleep[j], to_haps[j] = True, rng.random() < 0.5
            sink = net.haps if to_haps[j] else net.mbs
            moves.append((to_haps[j], net.sbs[j].capacity / sink.capacity * loads.lambda_sbs[j]))
        _, haps_load, mbs_load = total_power(net, asleep, to_haps, loads.lambda_sbs,
                                             loads.lambda_haps, loads.lambda_mbs)
        for haps, base, sink_load in ((True, loads.lambda_haps, haps_load), (False, loads.lambda_mbs, mbs_load)):
            if abs(sink_load - base - math.fsum(m for to_h, m in moves if to_h == haps)) > 1e-9:
                violations += 1
        for to_h, phi_lam in reversed(moves):
            if to_h:
                haps_load -= snap_load(phi_lam)
            else:
                mbs_load -= snap_load(phi_lam)
        if (haps_load, mbs_load) != (loads.lambda_haps, loads.lambda_mbs):  # bitwise restoration
            violations += 1
        for solve in (optimize_greedy, optimize_exhaustive) if draw % 10 == 0 else (optimize_greedy,):
            haps_load, mbs_load = solve(net, loads)[1]
            if haps_load > 1.0 or mbs_load > 1.0:
                violations += 1
    verdict(7, violations == 0,
            f"10^5 decisions and greedy solves, 10^4 exhaustive: {violations} feasibility/conservation/"
            "round-trip violations")


def test_criterion_08_perfect_knowledge_anchor():
    # the profile stays well above zero so eps is defined in every slot
    profile = [0.45 - 0.25 * np.cos(2 * np.pi * t / 144) for t in range(144)]
    raw = {
        "sbs_count": 5,
        "synth": {"grid_side": 10, "noise_std": 0.04, "seed": 1,
                  "temporal_profile": profile},
        "estimator": {"method": "perfect"},
        "iteration_count": 2,
        "slot_count": 144,
        "seed": 3,
    }
    report = run_experiment(resolve_config(raw))
    bad = sum(1 for r in report.rows
              if r.metrics.estimation_error != 0.0
              or r.metrics.decision_change_rate != 0.0
              or r.metrics.power_est != r.metrics.power_true)
    verdict(8, bad == 0 and len(report.rows) == 288,
            f"perfect estimator: eps=0, decision change=0, P_est=P_T in all "
            f"{len(report.rows)} slots ({bad} violations)")


def test_criterion_09_byte_identical_reruns(tmp_path):
    raw = {
        "sbs_count": 4,
        "synth": {"grid_side": 8, "noise_std": 0.2, "seed": 5},
        "estimator": {"method": "distance_weighted", "neighbor_count": 10,
                      "distance_exponent": 3},
        "iteration_count": 2,
        "slot_count": 20,
        "seed": 17,
    }
    outputs = []
    for run in ("a", "b"):
        paths = emit_report(run_experiment(resolve_config(raw)), tmp_path / run)
        outputs.append({name: p.read_bytes() for name, p in paths.items()})
    identical = outputs[0] == outputs[1]
    verdict(9, identical, "re-running an identical config+seed reproduces every "
            "output file byte for byte")


def test_criterion_10_elbow_finds_three_blobs():
    rng = np.random.default_rng(31)
    blobs = np.concatenate([rng.normal(0.15, 0.02, 60),
                            rng.normal(0.5, 0.02, 60),
                            rng.normal(0.85, 0.02, 60)])
    g = elbow_g(blobs, seed=0)
    verdict(10, g == 3, f"elbow method picks G={g} on a seeded 3-blob corpus")


def test_criterion_09_summary_structure(tmp_path):
    # supporting check for criterion 9: the summary is valid JSON with the
    # config echo embedded, so reruns can be diffed structurally as well
    raw = {
        "sbs_count": 3,
        "synth": {"grid_side": 6, "noise_std": 0.1, "seed": 2},
        "estimator": {"method": "random_weighted", "neighbor_count": 5},
        "iteration_count": 1,
        "slot_count": 5,
        "seed": 0,
    }
    cfg = resolve_config(raw)
    paths = emit_report(run_experiment(cfg), tmp_path / "s")
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    assert summary["config"] == cfg.to_yaml()
    assert summary["rows"] == 5
