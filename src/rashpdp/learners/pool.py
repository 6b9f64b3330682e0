"""Model pool: randomized search over a fixed zoo of regression families."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..data import Dataset, Split
from ..parallel import fork_map
from .boosting import GradientBoostingRegression
from .forest import RandomForestRegression
from .knn import KNearestNeighborsRegression
from .linear import RidgeRegression
from .tree import RegressionTree


@dataclass(frozen=True)
class Family:
    """One searched model family. `sample(rng)` draws its hyperparameters, in
    an order that is part of the pool's seed contract; `build(hp, fit_seed)`
    returns the unfitted model, made from exactly those values. The archive
    writes a fitted one's constructor arguments and `FITTED` attributes, read
    one array at a time through `archive._fields`, and
    `archive.from_state(model_class, state)` restores it."""

    name: str
    model_class: type
    sample: Callable[[np.random.Generator], dict[str, Any]]
    build: Callable[[dict[str, Any], int], Any]


# Training cycles through families in this fixed order, so any pool of five
# or more models contains every family. Dict displays draw left to right. A
# family's name is its `family` string in metrics.json and the pool archive.
REGISTRY = {family.name: family for family in (
    Family("LinearRidge", RidgeRegression,
           lambda rng: {"alpha": float(10.0 ** rng.uniform(-6.0, 1.0))},
           lambda hp, fit_seed: RidgeRegression(**hp)),
    Family("DecisionTree", RegressionTree,
           lambda rng: {"max_depth": int(rng.integers(2, 13)),
                        "min_samples_leaf": int(rng.integers(1, 21))},
           lambda hp, fit_seed: RegressionTree(**hp)),
    Family("RandomForest", RandomForestRegression,
           lambda rng: {"n_estimators": int(rng.integers(50, 301)),
                        "max_features": str(rng.choice(["sqrt", "third"]))},
           lambda hp, fit_seed: RandomForestRegression(**hp, seed=fit_seed)),
    Family("GradientBoosting", GradientBoostingRegression,
           lambda rng: {"n_estimators": int(rng.integers(50, 501)),
                        "learning_rate": float(rng.uniform(0.01, 0.3)),
                        "max_depth": int(rng.integers(2, 7))},
           lambda hp, fit_seed: GradientBoostingRegression(**hp)),
    Family("KNearestNeighbors", KNearestNeighborsRegression,
           lambda rng: {"n_neighbors": int(rng.integers(3, 26)),
                        "weights": str(rng.choice(["uniform", "inverse_distance"]))},
           lambda hp, fit_seed: KNearestNeighborsRegression(**hp)),
)}
FAMILIES = tuple(REGISTRY)

DEFAULT_MAX_MODELS = 20
DEFAULT_MAX_RUNTIME_SECS = 360.0


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the randomized search: model count, wall clock, and seed."""

    max_models: int = DEFAULT_MAX_MODELS
    max_runtime_secs: float = DEFAULT_MAX_RUNTIME_SECS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {self.max_models}")
        if not self.max_runtime_secs > 0:
            raise ValueError(f"max_runtime_secs must be > 0, got {self.max_runtime_secs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted regressor with its provenance and holdout score.

    `predictor` is any object with a deterministic `predict_many(X)`; the
    stored score is the RMSE of its predictions on the split's test rows and
    can be recomputed from the model state alone.
    """

    id: int
    family: str
    hyperparameters: dict[str, Any] = field(compare=False)
    predictor: Any = field(compare=False, repr=False)
    score: float = 0.0


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error of `predictions` against `truth`."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError(
            f"length mismatch: predictions {predictions.shape} vs truth {truth.shape}"
        )
    if predictions.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def holdout_rmse(predictor: Any, ds: Dataset, sp: Split) -> float:
    """A model's `score`: the RMSE of its predictions on the split's test rows."""
    test_idx = np.asarray(sp.test_indices, dtype=np.intp)
    return rmse(predictor.predict_many(ds.features[test_idx]), ds.target[test_idx])


def checked_predictions(model: TrainedModel, out: Any, n_rows: int) -> np.ndarray:
    """`out` as float64 if it holds n_rows finite predictions of `model`."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != (n_rows,):
        raise ValueError(f"predictor returned shape {out.shape} for {n_rows} rows")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"model {model.id} ({model.family}) produced non-finite predictions")
    return out


def _fit_unit(X: np.ndarray, y: np.ndarray, unit: tuple[Any, range | None]) -> Any:
    """Fit one unit of work: a whole model, or one range of a forest's trees."""
    model, trees = unit
    return model.fit(X, y) if trees is None else model.fit_trees(X, y, trees)


def train_pool(ds: Dataset, sp: Split, budget: SearchBudget,
               workers: int = 1) -> list[TrainedModel]:
    """Train up to `budget.max_models` models under the wall-clock cap.

    Families rotate in FAMILIES order; each model's hyperparameters and any
    fitting randomness come from a stream derived from (budget.seed, model
    index), so the pool is exactly reproducible apart from the wall-clock
    cutoff. A unit of work is one model, or one of a forest's `units`, grown
    in one lockstep batch; with `workers` > 1 the units are fitted in that many
    forked processes (`parallel.fork_map`), handed out in model order.
    Results are taken in model order and the clock is checked before each
    model's, so the pool is the models 0..k-1 taken before the cap, whatever
    the number of workers. A fit in progress always runs to completion.
    """
    train_idx = np.asarray(sp.train_indices, dtype=np.intp)
    X_train = ds.features[train_idx]
    y_train = ds.target[train_idx]

    started = time.monotonic()
    drawn = []  # (id, family, hyperparameters, unfitted model, its tree ranges or [None])
    for i in range(budget.max_models):
        family = REGISTRY[FAMILIES[i % len(FAMILIES)]]
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(i,)))
        hp = family.sample(rng)
        fit_seed = int(rng.integers(0, 2**63))
        model = family.build(hp, fit_seed)
        ranges = [None]
        if isinstance(model, RandomForestRegression):
            ranges = model.units(*X_train.shape)
        drawn.append((i, family, hp, model, ranges))
    units = [(model, trees) for *_, model, ranges in drawn for trees in ranges]
    labels = [f"model {i} ({family.name})" for i, family, *_, ranges in drawn for _ in ranges]

    pool: list[TrainedModel] = []
    with fork_map(functools.partial(_fit_unit, X_train, y_train), units, workers,
                  labels) as results:
        for i, family, hp, model, ranges in drawn:
            if time.monotonic() - started > budget.max_runtime_secs:
                break
            parts = [next(results) for _ in ranges]
            if isinstance(model, RandomForestRegression):
                model.trees_ = [tree for part in parts for tree in part]
            else:
                (model,) = parts
            pool.append(
                TrainedModel(id=i, family=family.name, hyperparameters=hp,
                             predictor=model, score=holdout_rmse(model, ds, sp))
            )
    if not pool:
        raise RuntimeError(
            f"no model completed within max_runtime_secs={budget.max_runtime_secs}"
        )
    return pool
