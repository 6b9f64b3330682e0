"""Gradient boosting with squared-error loss over shallow CART trees."""

from __future__ import annotations

import numpy as np

from .tree import RegressionTree, TreeEnsemble, rank

BOOSTING_MIN_SAMPLES_LEAF = 5


class GradientBoostingRegression(TreeEnsemble):
    """Stagewise additive model: mean prediction plus shrunken residual trees.

    Final predictions are clamped to the observed training-target range so
    boosted outputs, like plain tree averages, never extrapolate beyond the
    targets seen in training. Every stage grows on the same X, so `fit`
    ranks it once (`rank`) and hands the ranks to each stage's grower.
    """

    FITTED = dict(init_=float, y_min_=float, y_max_=float, **TreeEnsemble.FITTED)

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1, max_depth: int = 3):
        super().__init__(n_estimators)
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.init_: float = 0.0
        self.y_min_: float = 0.0
        self.y_max_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.init_ = float(y.mean())
        self.y_min_ = float(y.min())
        self.y_max_ = float(y.max())
        self.trees_ = []
        pred = np.full(y.shape, self.init_)
        ranks = rank(X)
        for _ in range(self.n_estimators):
            residual = y - pred
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=BOOSTING_MIN_SAMPLES_LEAF,
            )
            pred += self.learning_rate * tree.fit_predict(X, residual, ranks=ranks)
            self.trees_.append(tree)
        return self

    def _combine(self, predictions) -> np.ndarray:
        pred = self.init_  # the first += makes the array
        for v in predictions:
            pred += self.learning_rate * v
        return np.clip(pred, self.y_min_, self.y_max_)
