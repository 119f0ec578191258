"""Evaluation metrics over one slot.

The estimate metrics take two equal-length arrays over the slot's sleeping
SBSs, in sleeper order: `lam`, their true loads, and `lam_hat`, their
estimates. A metric whose samples are all missing is NaN, so a slot in which
no SBS sleeps has no defined estimation error and no error probability.
"""

from __future__ import annotations

import math

import numpy as np


def mean_estimation_error(lam, lam_hat) -> tuple[float, int]:
    """Mean relative error |lam - lam_hat| / lam over the sleepers.

    Zero-true-load samples, where the ratio is undefined, are skipped and
    counted rather than poisoning the average; returns (mean or NaN, skipped
    count). The errors are summed exactly (`math.fsum`) in sleeper order.
    """
    lam, lam_hat = np.asarray(lam, dtype=float), np.asarray(lam_hat, dtype=float)
    defined = lam != 0.0
    errors = np.abs(lam[defined] - lam_hat[defined]) / lam[defined]
    skipped = len(lam) - len(errors)
    if not len(errors):
        return math.nan, skipped
    return math.fsum(errors.tolist()) / len(errors), skipped


def decision_change_rate(bits_true, bits_est) -> float:
    """Fraction of on/off bits that differ between two equal-length bit sequences."""
    if len(bits_true) != len(bits_est):
        raise ValueError("state vectors must have equal length")
    return sum(a != b for a, b in zip(bits_true, bits_est)) / len(bits_true)


def empirical_p_err(lam, lam_hat, lambda_th: float) -> tuple[float, float]:
    """Empirical over/under-estimation probabilities around the wake-up threshold.

    lambda_th: the threshold on the load factor, strictly inside (0, 1), else
    ValueError. Returns (p_off_on, p_on_off); a component is NaN when its
    conditioning event never occurs.

    p_off_on conditions on truly-low cells (lam <= lambda_th) and counts
    estimates strictly above the threshold; p_on_off conditions on truly-high
    cells (lam >= lambda_th) and counts estimates strictly below it.
    """
    if not 0.0 < lambda_th < 1.0:
        raise ValueError("lambda_th must lie strictly inside (0, 1)")
    lam, lam_hat = np.asarray(lam, dtype=float), np.asarray(lam_hat, dtype=float)
    low, high = lam <= lambda_th, lam >= lambda_th
    n_low, n_high = np.count_nonzero(low), np.count_nonzero(high)
    p_off_on = float(np.count_nonzero(low & (lam_hat > lambda_th)) / n_low) if n_low else math.nan
    p_on_off = float(np.count_nonzero(high & (lam_hat < lambda_th)) / n_high) if n_high else math.nan
    return p_off_on, p_on_off
