"""Evaluation metrics: estimation error, decision change, error probabilities."""

from __future__ import annotations

import math

from .errors import UndefinedRatioError


def estimation_error(lambda_true: float, lambda_hat: float) -> float:
    """Relative error |lambda_true - lambda_hat| / lambda_true."""
    if lambda_true == 0.0:
        raise UndefinedRatioError("relative error is undefined at zero true load")
    return abs(lambda_true - lambda_hat) / lambda_true


def mean_estimation_error(pairs) -> tuple[float, int]:
    """Mean relative error over (true, estimated) pairs.

    Zero-true-load samples are skipped and counted separately rather than
    poisoning the average; returns (mean or NaN, skipped count).
    """
    errors = []
    skipped = 0
    for lam, lam_hat in pairs:
        try:
            errors.append(estimation_error(lam, lam_hat))
        except UndefinedRatioError:
            skipped += 1
    if not errors:
        return math.nan, skipped
    return math.fsum(errors) / len(errors), skipped


def decision_change_rate(bits_true, bits_est) -> float:
    """Fraction of on/off bits that differ between two equal-length bit sequences."""
    if len(bits_true) != len(bits_est):
        raise ValueError("state vectors must have equal length")
    return sum(a != b for a, b in zip(bits_true, bits_est)) / len(bits_true)


def empirical_p_err(samples, lambda_th: float) -> tuple[float | None, float | None]:
    """Empirical over/under-estimation probabilities around the wake-up threshold.

    samples: iterable of (lambda_true, lambda_hat); lambda_th: the threshold on
    the load factor, strictly inside (0, 1), else ValueError. Returns (p_off_on,
    p_on_off); a component is None when its conditioning event never occurs.

    p_off_on conditions on truly-low cells (lambda_true <= lambda_th) and counts
    estimates strictly above the threshold; p_on_off conditions on truly-high
    cells (lambda_true >= lambda_th) and counts estimates strictly below it.
    """
    if not 0.0 < lambda_th < 1.0:
        raise ValueError("lambda_th must lie strictly inside (0, 1)")
    low_total = low_wrong = high_total = high_wrong = 0
    for lam, lam_hat in samples:
        if lam <= lambda_th:
            low_total += 1
            if lam_hat > lambda_th:
                low_wrong += 1
        if lam >= lambda_th:
            high_total += 1
            if lam_hat < lambda_th:
                high_wrong += 1
    p_off_on = low_wrong / low_total if low_total else None
    p_on_off = high_wrong / high_total if high_total else None
    return p_off_on, p_on_off
