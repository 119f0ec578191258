import itertools
import math
import random

import numpy as np
import pytest

from vhetsim.metrics import (
    decision_change_rate,
    empirical_p_err,
    mean_estimation_error,
)
from vhetsim.switching import Decision


class TestMeanEstimationError:
    def test_perfect(self):
        assert mean_estimation_error([0.4], [0.4]) == (0.0, 0)

    def test_hand_ratio(self):
        assert mean_estimation_error([0.4], [0.3])[0] == pytest.approx(0.25)

    def test_zero_true_load(self):
        mean, skipped = mean_estimation_error([0.0], [0.3])
        assert math.isnan(mean) and skipped == 1

    def test_scale_invariance(self):
        rng = random.Random(1)
        for _ in range(200):
            lam, lam_hat, c = rng.random() + 0.01, rng.random(), rng.random() * 10 + 0.1
            assert mean_estimation_error([lam], [lam_hat])[0] == pytest.approx(
                mean_estimation_error([c * lam], [c * lam_hat])[0])

    def test_skips_and_counts_zero_loads(self):
        mean, skipped = mean_estimation_error([0.4, 0.0, 0.4], [0.3, 0.2, 0.5])
        assert skipped == 1
        assert mean == pytest.approx(0.25)

    def test_all_skipped_is_nan(self):
        mean, skipped = mean_estimation_error([0.0], [0.1])
        assert math.isnan(mean) and skipped == 1

    def test_empty(self):
        mean, skipped = mean_estimation_error(np.empty(0), np.empty(0))
        assert math.isnan(mean) and skipped == 0

    def test_bits_of_the_scalar_sum(self):
        # each ratio is IEEE-rounded and the sum is exact, in sleeper order
        rng = np.random.default_rng(3)
        lam, lam_hat = rng.random(50), rng.random(50)
        lam[::7] = 0.0
        defined = [(a, b) for a, b in zip(lam.tolist(), lam_hat.tolist()) if a != 0.0]
        want = math.fsum(abs(a - b) / a for a, b in defined) / len(defined)
        assert mean_estimation_error(lam, lam_hat) == (want, 50 - len(defined))
        assert type(mean_estimation_error(lam, lam_hat)[0]) is float


class TestDecisionChangeRate:
    def test_identical(self):
        assert decision_change_rate((1, 0, 1), (1, 0, 1)) == 0.0

    def test_one_of_three(self):
        assert decision_change_rate((1, 0, 1), (1, 1, 1)) == pytest.approx(1 / 3)

    def test_complement(self):
        assert decision_change_rate((1, 0), (0, 1)) == 1.0

    def test_sink_choices_are_not_compared(self):
        a = Decision((False, True), (False, True))
        b = Decision((False, True), (False, False))
        assert decision_change_rate(a.delta, b.delta) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decision_change_rate((1,), (1, 0))

    def test_is_a_metric(self):
        vectors = list(itertools.product((0, 1), repeat=4))
        for a in vectors:
            assert decision_change_rate(a, a) == 0.0
            for b in vectors:
                d_ab = decision_change_rate(a, b)
                assert d_ab == decision_change_rate(b, a)
                if a != b:
                    assert d_ab > 0
                for c in vectors:
                    assert d_ab <= (decision_change_rate(a, c)
                                    + decision_change_rate(c, b) + 1e-12)


def p_err(samples, lambda_th):
    """`empirical_p_err` on (true, estimate) pairs."""
    lam, lam_hat = np.array(samples, dtype=float).reshape(-1, 2).T
    return empirical_p_err(lam, lam_hat, lambda_th)


def same(got, want):
    """Equal pairs, with NaN equal to NaN."""
    return all(a == b or math.isnan(a) and math.isnan(b) for a, b in zip(got, want, strict=True))


class TestThresholdPolicy:
    """The wake-up rule `empirical_p_err` applies: an estimate turns a truly-low
    cell ON iff it strictly exceeds the threshold `lambda_th`."""

    def test_boundary_is_off(self):
        assert same(p_err([(0.05, 0.1)], 0.1), (0.0, math.nan))

    def test_high_is_on(self):
        assert same(p_err([(0.05, 1.0)], 0.1), (1.0, math.nan))

    def test_low_is_off(self):
        assert same(p_err([(0.05, 0.05)], 0.1), (0.0, math.nan))

    def test_invalid_threshold(self):
        # refused before the samples are read, so an empty list is refused too
        for samples, lambda_th in itertools.product([[], [(0.05, 0.5)]], [0.0, 1.0, -0.5, math.nan]):
            with pytest.raises(ValueError, match="lambda_th"):
                p_err(samples, lambda_th)


class TestEmpiricalPErr:
    def test_perfect_estimation(self):
        samples = [(0.05, 0.05), (0.5, 0.5), (0.9, 0.9)]
        assert p_err(samples, 0.1) == (0.0, 0.0)

    def test_hand_off_on(self):
        samples = [(0.05, 0.2), (0.05, 0.05)]
        p_off_on, p_on_off = p_err(samples, 0.1)
        assert p_off_on == pytest.approx(0.5)
        assert math.isnan(p_on_off)

    def test_no_high_samples_undefined(self):
        _, p_on_off = p_err([(0.01, 0.02)], 0.1)
        assert math.isnan(p_on_off)

    def test_no_samples_undefined(self):
        assert all(map(math.isnan, p_err([], 0.1)))

    def test_noise_far_from_threshold_gives_zero(self):
        rng = random.Random(2)
        u = 0.05
        samples = []
        for _ in range(500):
            lam = rng.choice([0.02, 0.9])  # both more than u away from 0.3
            samples.append((lam, min(1.0, max(0.0, lam + rng.uniform(-u, u)))))
        assert p_err(samples, 0.3) == (0.0, 0.0)

    def test_boundary_conventions(self):
        th = 0.1
        # lambda_true == th conditions both events; lambda_hat == th triggers neither
        p_off_on, p_on_off = p_err([(0.1, 0.1)], th)
        assert p_off_on == 0.0 and p_on_off == 0.0

    def test_fractions_are_python_floats(self):
        got = p_err([(0.05, 0.2), (0.05, 0.05), (0.05, 0.3)], 0.1)
        assert got[0] == 2 / 3 and type(got[0]) is float
