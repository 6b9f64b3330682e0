"""Agreement metrics between the best model's profile and the Rashomon band,
plus the cross-dataset rank-correlation analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pdp import RashomonPdpResult

# Spearman-adjusted standard error multiplier for the Fisher-z interval.
FISHER_Z_SE_FACTOR = 1.03


@dataclass(frozen=True)
class ExplanationMetrics:
    """Per-feature agreement summary; undefined for singleton Rashomon sets.

    When `defined` is False (one member curve) the numeric values are degenerate
    (mwci 0, cr 1) and must be reported as "-" rather than aggregated.
    """

    feature_index: int
    mwci: float
    cr: float
    defined: bool


@dataclass(frozen=True)
class CorrelationResult:
    """Spearman rank correlation with a confidence interval and p-value."""

    rho: float
    ci_lo: float
    ci_hi: float
    p_value: float
    n_pairs: int

    def __post_init__(self) -> None:
        if not self.ci_lo <= self.rho <= self.ci_hi:
            raise ValueError("correlation must lie within its confidence interval")


def mwci(result: RashomonPdpResult) -> float:
    """Mean width of the confidence band across the grid."""
    if result.grid.size == 0:
        raise ValueError("result has no grid points")
    return float(np.mean(result.ci_hi - result.ci_lo))


def coverage_rate(result: RashomonPdpResult) -> float:
    """Fraction of grid points where the best model's profile lies inside the
    band, boundaries included."""
    best = result.best_values
    inside = (result.ci_lo <= best) & (best <= result.ci_hi)
    return float(np.mean(inside))


def compute_metrics(result: RashomonPdpResult) -> ExplanationMetrics:
    """Bundle MWCI and CR for one feature, flagging singleton sets."""
    return ExplanationMetrics(
        feature_index=result.feature_index,
        mwci=mwci(result),
        cr=coverage_rate(result),
        defined=len(result.model_ids) > 1,
    )


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    starts = np.r_[True, sorted_values[1:] != sorted_values[:-1]]
    group = np.empty(values.size, dtype=np.intp)
    group[order] = np.cumsum(starts)
    bounds = np.r_[np.flatnonzero(starts), values.size]
    return 0.5 * (bounds[group] + bounds[group - 1] + 1)


def spearman(xs: np.ndarray, ys: np.ndarray) -> CorrelationResult:
    """Spearman rank correlation with mid-ranks for ties.

    The coefficient is the Pearson correlation of the rank vectors. The 95%
    interval comes from the Fisher z-transform with standard error
    1.03/sqrt(n-3); the two-sided p-value from the t-approximation
    t = rho*sqrt((n-2)/(1-rho^2)) on n-2 degrees of freedom.
    """
    # Imported here so `explain` never loads scipy; scipy.stats, which has
    # the same functions, takes about a second to import.
    from scipy.special import ndtri, stdtr
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"inputs must be equal-length vectors, got {xs.shape} vs {ys.shape}")
    n = xs.size
    if n < 4:
        raise ValueError(f"need at least 4 pairs, got {n}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("inputs must be finite")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("correlation is undefined for a constant input vector")

    rank_x = _mid_ranks(xs)
    rank_y = _mid_ranks(ys)
    if np.array_equal(rank_x, rank_y):
        rho = 1.0
    elif np.array_equal(rank_y, (n + 1) - rank_x):
        rho = -1.0
    else:
        rho = float(np.corrcoef(rank_x, rank_y)[0, 1])
        rho = max(-1.0, min(1.0, rho))

    if abs(rho) == 1.0:
        return CorrelationResult(rho=rho, ci_lo=rho, ci_hi=rho, p_value=0.0, n_pairs=n)

    z = math.atanh(rho)
    se = FISHER_Z_SE_FACTOR / math.sqrt(n - 3)
    z_crit = float(ndtri(0.975))
    ci_lo = math.tanh(z - z_crit * se)
    ci_hi = math.tanh(z + z_crit * se)

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p_value = float(2.0 * stdtr(n - 2, -abs(t)))
    return CorrelationResult(rho=rho, ci_lo=ci_lo, ci_hi=ci_hi,
                             p_value=min(p_value, 1.0), n_pairs=n)
