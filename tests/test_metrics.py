import itertools
import math
import random

import pytest

from vhetsim.errors import UndefinedRatioError
from vhetsim.metrics import (
    ThresholdPolicy,
    decision_change_rate,
    empirical_p_err,
    estimation_error,
    mean_estimation_error,
)
from vhetsim.switching import Decision


class TestEstimationError:
    def test_perfect(self):
        assert estimation_error(0.4, 0.4) == 0.0

    def test_hand_ratio(self):
        assert estimation_error(0.4, 0.3) == pytest.approx(0.25)

    def test_zero_true_load(self):
        with pytest.raises(UndefinedRatioError):
            estimation_error(0.0, 0.3)

    def test_scale_invariance(self):
        rng = random.Random(1)
        for _ in range(200):
            lam, lam_hat, c = rng.random() + 0.01, rng.random(), rng.random() * 10 + 0.1
            assert estimation_error(lam, lam_hat) == pytest.approx(
                estimation_error(c * lam, c * lam_hat))


class TestMeanEstimationError:
    def test_skips_and_counts_zero_loads(self):
        mean, skipped = mean_estimation_error([(0.4, 0.3), (0.0, 0.2), (0.4, 0.5)])
        assert skipped == 1
        assert mean == pytest.approx(0.25)

    def test_all_skipped_is_nan(self):
        mean, skipped = mean_estimation_error([(0.0, 0.1)])
        assert math.isnan(mean) and skipped == 1

    def test_empty(self):
        mean, skipped = mean_estimation_error([])
        assert math.isnan(mean) and skipped == 0


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


class TestThresholdPolicy:
    """An estimate turns a truly-low cell ON iff it strictly exceeds the threshold."""

    def test_boundary_is_off(self):
        policy = ThresholdPolicy(0.1)
        assert empirical_p_err([(0.05, 0.1)], policy) == (0.0, None)

    def test_high_is_on(self):
        assert empirical_p_err([(0.05, 1.0)], ThresholdPolicy(0.1)) == (1.0, None)

    def test_low_is_off(self):
        assert empirical_p_err([(0.05, 0.05)], ThresholdPolicy(0.1)) == (0.0, None)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(1.0)


class TestEmpiricalPErr:
    def test_perfect_estimation(self):
        samples = [(0.05, 0.05), (0.5, 0.5), (0.9, 0.9)]
        assert empirical_p_err(samples, ThresholdPolicy(0.1)) == (0.0, 0.0)

    def test_hand_off_on(self):
        samples = [(0.05, 0.2), (0.05, 0.05)]
        p_off_on, p_on_off = empirical_p_err(samples, ThresholdPolicy(0.1))
        assert p_off_on == pytest.approx(0.5)
        assert p_on_off is None

    def test_no_high_samples_undefined(self):
        _, p_on_off = empirical_p_err([(0.01, 0.02)], ThresholdPolicy(0.1))
        assert p_on_off is None

    def test_noise_far_from_threshold_gives_zero(self):
        rng = random.Random(2)
        u = 0.05
        samples = []
        for _ in range(500):
            lam = rng.choice([0.02, 0.9])  # both more than u away from 0.3
            samples.append((lam, min(1.0, max(0.0, lam + rng.uniform(-u, u)))))
        assert empirical_p_err(samples, ThresholdPolicy(0.3)) == (0.0, 0.0)

    def test_boundary_conventions(self):
        th = ThresholdPolicy(0.1)
        # lambda_true == th conditions both events; lambda_hat == th triggers neither
        p_off_on, p_on_off = empirical_p_err([(0.1, 0.1)], th)
        assert p_off_on == 0.0 and p_on_off == 0.0
