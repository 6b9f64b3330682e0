"""Partial dependence profiles aggregated over a Rashomon set.

Per-model profiles are averaged pointwise into the Rashomon profile; its
stability is quantified by resampling whole models with replacement and
taking percentile bands of the resampled means.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Split, feature_grid
from .learners.pool import TrainedModel, checked_predictions, predict_batch
from .rashomon import RashomonSet
from .seeding import ROLE_BOOTSTRAP, ROLE_PDP_ROWS, derive_seed

DEFAULT_BOOTSTRAP_COUNT = 1000
DEFAULT_ALPHA = 0.05
# Profile averaging uses at most this many training rows (seeded subsample).
MAX_PDP_ROWS = 1000


@dataclass(frozen=True)
class PdpCurve:
    """One feature's profile: grid values paired with averaged predictions."""

    feature_index: int
    grid: np.ndarray
    values: np.ndarray
    model_id: int | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d vectors of equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RashomonPdpResult:
    """Aggregated profile with confidence bands and its inputs' provenance.

    `per_model` holds the member curves in ascending model-id order, the
    canonical order used for bootstrap resampling.
    """

    feature_index: int
    grid: np.ndarray
    mean: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    best_curve: PdpCurve
    per_model: tuple[PdpCurve, ...]
    n_boot: int
    alpha: float
    seed: int
    feature_name: str = field(default="")

    def __post_init__(self) -> None:
        m = np.asarray(self.grid).shape[0]
        for name in ("mean", "ci_lo", "ci_hi"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (m,):
                raise ValueError(f"{name} must have the grid's length {m}")
            object.__setattr__(self, name, vec)
        if np.any(self.ci_lo > self.ci_hi):
            raise ValueError("lower band must not exceed upper band")


def pdp_single(model: TrainedModel, ds: Dataset, rows: np.ndarray,
               feature_index: int, grid: np.ndarray) -> PdpCurve:
    """Profile of one model: for each grid value, overwrite the feature on
    every averaging row, predict, and take the mean prediction. A predictor
    with `predict_grid` (the tree families) returns those predictions itself."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("profile averaging needs at least one row")
    if not 0 <= feature_index < ds.n_features:
        raise ValueError(
            f"feature index {feature_index} out of range for {ds.n_features} features"
        )
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be non-empty and strictly increasing")

    base = ds.features[rows]
    predict_grid = getattr(model.predictor, "predict_grid", None)
    if predict_grid is not None:  # exactly predict_batch on the tiled rows below
        predictions = checked_predictions(model, predict_grid(base, feature_index, grid),
                                          grid.size * rows.size)
    else:
        tiled = np.tile(base, (grid.size, 1))
        tiled[:, feature_index] = np.repeat(grid, rows.size)
        predictions = predict_batch(model, tiled)
    values = predictions.reshape(grid.size, rows.size).mean(axis=1)
    return PdpCurve(feature_index=feature_index, grid=grid, values=values,
                    model_id=model.id)


def _check_shared_grid(curves: list[PdpCurve] | tuple[PdpCurve, ...]) -> np.ndarray:
    if not curves:
        raise ValueError("need at least one profile curve")
    grid = curves[0].grid
    for c in curves[1:]:
        if not np.array_equal(c.grid, grid):
            raise ValueError("all curves must share an identical grid")
    return grid


def rashomon_pdp(curves: list[PdpCurve] | tuple[PdpCurve, ...]) -> np.ndarray:
    """Pointwise arithmetic mean across curves sharing one grid."""
    _check_shared_grid(curves)
    stacked = np.stack([c.values for c in curves])
    return stacked.mean(axis=0)


def _percentile_band(replicate_means: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Type-7 percentile band of pointwise replicate means, shape (B, m)."""
    lo, hi = np.quantile(replicate_means, [alpha / 2.0, 1.0 - alpha / 2.0],
                         axis=0, method="linear")
    return lo, hi


def bootstrap_bands(curves: list[PdpCurve] | tuple[PdpCurve, ...], n_boot: int,
                    alpha: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Percentile confidence band from resampling curves with replacement.

    Each replicate draws as many curves as there are members, averages them
    pointwise, and the band is the empirical [alpha/2, 1 - alpha/2] quantile
    range of the replicate means at each grid point. Deterministic in `seed`
    for a fixed curve order; callers pass curves in canonical model-id order.
    """
    _check_shared_grid(curves)
    if n_boot < 1:
        raise ValueError(f"bootstrap count must be >= 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    stacked = np.stack([c.values for c in curves])
    n_curves = stacked.shape[0]
    rng = np.random.default_rng(int(seed))
    indices = rng.integers(0, n_curves, size=(int(n_boot), n_curves))
    replicate_means = stacked[indices].mean(axis=1)
    return _percentile_band(replicate_means, alpha)


def rashomon_profile(rset: RashomonSet, ds: Dataset, sp: Split, feature_index: int,
                     grid_size: int, n_boot: int = DEFAULT_BOOTSTRAP_COUNT,
                     alpha: float = DEFAULT_ALPHA, seed: int = 0) -> RashomonPdpResult:
    """Full pipeline for one feature: grid, member curves, mean, bands.

    The averaging rows are the training rows, subsampled to MAX_PDP_ROWS
    when larger; subsampling and bootstrap use independent streams derived
    from `seed`. The member curves are in ascending model-id order.
    """
    grid = feature_grid(ds, feature_index, grid_size, rows=sp.train_indices)
    rows = np.asarray(sp.train_indices, dtype=np.intp)
    if rows.size > MAX_PDP_ROWS:
        rng = np.random.default_rng(derive_seed(seed, ROLE_PDP_ROWS))
        rows = np.sort(rng.choice(rows, size=MAX_PDP_ROWS, replace=False))

    members = sorted(rset.members, key=lambda m: m.id)
    curves = [pdp_single(model, ds, rows, feature_index, grid) for model in members]

    mean = rashomon_pdp(curves)
    ci_lo, ci_hi = bootstrap_bands(curves, n_boot, alpha,
                                   derive_seed(seed, ROLE_BOOTSTRAP))
    best_curve = next(c for c in curves if c.model_id == rset.best_id)
    return RashomonPdpResult(
        feature_index=feature_index,
        grid=grid,
        mean=mean,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        best_curve=best_curve,
        per_model=tuple(curves),
        n_boot=int(n_boot),
        alpha=float(alpha),
        seed=int(seed),
        feature_name=ds.feature_names[feature_index],
    )


def write_profile_csv(result: RashomonPdpResult, path: str | os.PathLike[str]) -> None:
    """Emit the profile table: grid, best, mean, band, one column per member.

    Values use 17-significant-digit formatting so re-parsing reproduces them
    exactly.
    """
    header = ["grid", "best", "mean", "ci_lo", "ci_hi"]
    header += [f"model_{c.model_id}" for c in result.per_model]
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(result.grid.size):
            row = [
                format(result.grid[i], ".17g"),
                format(result.best_curve.values[i], ".17g"),
                format(result.mean[i], ".17g"),
                format(result.ci_lo[i], ".17g"),
                format(result.ci_hi[i], ".17g"),
            ]
            row += [format(c.values[i], ".17g") for c in result.per_model]
            writer.writerow(row)
