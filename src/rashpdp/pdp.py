"""Partial dependence profiles aggregated over a Rashomon set.

Per-model profiles are averaged pointwise into the Rashomon profile; its
stability is quantified by resampling whole models with replacement and
taking percentile bands of the resampled means.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Split, row_indices
from .learners.pool import TrainedModel, checked_predictions
from .parallel import fork_map
from .rashomon import RashomonSet
from .seeding import ROLE_BOOTSTRAP, ROLE_PDP_ROWS, derive_seed

DEFAULT_BOOTSTRAP_COUNT = 1000
DEFAULT_ALPHA = 0.05
# Profile averaging uses at most this many training rows (seeded subsample).
MAX_PDP_ROWS = 1000


@dataclass(frozen=True)
class RashomonPdpResult:
    """One feature's member profiles with their mean, its band and provenance.

    Row `i` of `curves` (shape (k, m)) is the profile of model `model_ids[i]`
    on `grid`. The ids ascend, the canonical order used for bootstrap
    resampling; `best` is the row of the set's best model. `mean`, computed
    here and never passed, is `curves.mean(axis=0)`.
    """

    feature_index: int
    grid: np.ndarray
    curves: np.ndarray
    model_ids: tuple[int, ...]
    best: int
    mean: np.ndarray = field(init=False)
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_boot: int
    alpha: float
    seed: int
    feature_name: str = field(default="")

    def __post_init__(self) -> None:
        m = np.asarray(self.grid).shape[0]
        curves = np.asarray(self.curves, dtype=np.float64)
        if not self.model_ids or curves.shape != (len(self.model_ids), m):
            raise ValueError(f"curves must hold one row of the grid's length {m} "
                             f"per model id, and at least one row")
        if not np.all(np.isfinite(curves)):
            raise ValueError("profile values must be finite")
        if not 0 <= self.best < len(self.model_ids):
            raise ValueError(f"best row {self.best} out of range for {len(self.model_ids)} curves")
        curves.setflags(write=False)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "mean", curves.mean(axis=0))
        for name in ("ci_lo", "ci_hi"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (m,):
                raise ValueError(f"{name} must have the grid's length {m}")
            object.__setattr__(self, name, vec)
        if np.any(self.ci_lo > self.ci_hi):
            raise ValueError("lower band must not exceed upper band")

    @property
    def best_values(self) -> np.ndarray:
        """The best model's profile."""
        return self.curves[self.best]


def member_profiles(model: TrainedModel, ds: Dataset, rows: np.ndarray,
                    grids: dict[int, np.ndarray]) -> list[np.ndarray]:
    """Profiles of one model, one per feature index keyed in `grids` (feature
    index -> its grid), in `grids` order: for each grid value, overwrite the
    feature on every averaging row, predict, and take the mean prediction.
    `rows` are at least one integer row index of `ds`, and a grid must be
    finite and strictly increasing. A predictor with `predict_grid` (the tree
    families) returns one vector per feature from one call, which walks each
    averaging row down each tree once and splits a feature's grid only where
    the path tests it; the others predict one tiled matrix per feature."""
    rows = row_indices(rows, ds.n_rows)
    grids = {j: np.asarray(grid, dtype=np.float64) for j, grid in grids.items()}
    for feature_index, grid in grids.items():
        if not 0 <= feature_index < ds.n_features:
            raise ValueError(
                f"feature index {feature_index} out of range for {ds.n_features} features"
            )
        # NaN passes `np.diff(grid) <= 0`, so finiteness is its own test
        if (grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all()
                or np.any(np.diff(grid) <= 0)):
            raise ValueError("grid must be non-empty, finite and strictly increasing")

    base = ds.features[rows]
    predict_grid = getattr(model.predictor, "predict_grid", None)
    if predict_grid is not None:  # exactly predict_many of the tiled rows below
        predictions = predict_grid(base, grids)
    else:
        predictions = []
        for feature_index, grid in grids.items():
            tiled = np.tile(base, (grid.size, 1))
            tiled[:, feature_index] = np.repeat(grid, rows.size)
            predictions.append(model.predictor.predict_many(tiled))
    return [checked_predictions(model, p, grid.size * rows.size).reshape(grid.size, -1).mean(axis=1)
            for p, grid in zip(predictions, grids.values(), strict=True)]


def pdp_single(model: TrainedModel, ds: Dataset, rows: np.ndarray,
               feature_index: int, grid: np.ndarray) -> np.ndarray:
    """Profile of one model on one feature: `member_profiles` of that feature."""
    return member_profiles(model, ds, rows, {feature_index: grid})[0]


def _percentile_band(replicate_means: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Type-7 percentile band of pointwise replicate means, shape (B, m)."""
    lo, hi = np.quantile(replicate_means, [alpha / 2.0, 1.0 - alpha / 2.0],
                         axis=0, method="linear")
    return lo, hi


def bootstrap_bands(curves: np.ndarray, n_boot: int, alpha: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Percentile confidence band from resampling the rows of `curves`, one
    member profile per row, with replacement.

    Each replicate draws as many rows as there are members, averages them
    pointwise, and the band is the empirical [alpha/2, 1 - alpha/2] quantile
    range of the replicate means at each grid point. Deterministic in `seed`
    for a fixed row order; callers pass rows in canonical model-id order.
    """
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2 or curves.shape[0] == 0:
        raise ValueError("need a (members, grid) matrix of at least one profile curve")
    if n_boot < 1:
        raise ValueError(f"bootstrap count must be >= 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n_curves = curves.shape[0]
    rng = np.random.default_rng(int(seed))
    indices = rng.integers(0, n_curves, size=(int(n_boot), n_curves))
    replicate_means = curves[indices].mean(axis=1)
    return _percentile_band(replicate_means, alpha)


def rashomon_profile(rset: RashomonSet, ds: Dataset, sp: Split,
                     grids: dict[int, np.ndarray], n_boot: int = DEFAULT_BOOTSTRAP_COUNT,
                     alpha: float = DEFAULT_ALPHA, seed: int = 0,
                     workers: int = 1) -> list[RashomonPdpResult]:
    """Full pipeline for the features keyed in `grids` (feature index -> its
    grid): member curves, mean and bands, one result per feature in `grids`
    order.

    The averaging rows are the training rows, subsampled to MAX_PDP_ROWS
    when larger; subsampling and bootstrap use independent streams derived
    from `seed`, and every feature's band uses the same bootstrap seed. Each
    member profiles every feature in one `member_profiles` pass; with
    `workers` > 1 the passes run in that many forked processes
    (`parallel.fork_map`; a singleton set runs in this process). The member
    curves are taken in ascending model-id order, so the results are the same
    bytes for any `workers`.
    """
    rows = np.asarray(sp.train_indices, dtype=np.intp)
    if rows.size > MAX_PDP_ROWS:
        rng = np.random.default_rng(derive_seed(seed, ROLE_PDP_ROWS))
        rows = np.sort(rng.choice(rows, size=MAX_PDP_ROWS, replace=False))

    members = sorted(rset.members, key=lambda m: m.id)
    with fork_map(functools.partial(member_profiles, ds=ds, rows=rows, grids=grids),
                  members, workers,
                  [f"member {m.id} ({m.family})" for m in members]) as passes:
        profiles = list(passes)
    model_ids = tuple(m.id for m in members)
    results = []
    for feature_index, member_curves in zip(grids, zip(*profiles)):
        curves = np.array(member_curves)
        ci_lo, ci_hi = bootstrap_bands(curves, n_boot, alpha,
                                       derive_seed(seed, ROLE_BOOTSTRAP))
        results.append(RashomonPdpResult(
            feature_index=feature_index,
            grid=np.asarray(grids[feature_index], dtype=np.float64),
            curves=curves,
            model_ids=model_ids,
            best=model_ids.index(rset.best_id),
            ci_lo=ci_lo,
            ci_hi=ci_hi,
            n_boot=int(n_boot),
            alpha=float(alpha),
            seed=int(seed),
            feature_name=ds.feature_names[feature_index],
        ))
    return results


def write_profile_csv(result: RashomonPdpResult, path: str | os.PathLike[str]) -> None:
    """Emit the profile table: grid, best, mean, band, one column per member.

    Values use 17-significant-digit formatting so re-parsing reproduces them
    exactly.
    """
    header = ["grid", "best", "mean", "ci_lo", "ci_hi"]
    header += [f"model_{model_id}" for model_id in result.model_ids]
    table = np.column_stack([result.grid, result.best_values, result.mean,
                             result.ci_lo, result.ci_hi, result.curves.T])
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") for v in row] for row in table)
