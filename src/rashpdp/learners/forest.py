"""Random forest of CART regression trees."""

from __future__ import annotations

import math

import numpy as np

from .tree import RegressionTree, TreeEnsemble

# Desk-scale fixed knobs; only tree count and feature subsampling are searched.
FOREST_MAX_DEPTH = 18
FOREST_MIN_SAMPLES_LEAF = 3


# Features drawn per node, from the feature count p, for each subsampling mode.
MAX_FEATURES = {
    "sqrt": lambda p: max(1, round(math.sqrt(p))),
    "third": lambda p: max(1, round(p / 3)),
}


class RandomForestRegression(TreeEnsemble):
    """Bagged trees with per-node feature subsampling.

    Each tree is grown on a bootstrap row sample; its rng is derived from
    (seed, tree index), so the trees can be grown in ranges, in any process,
    and joined in index order.
    """

    def __init__(self, n_estimators: int = 100, max_features: str = "sqrt", seed: int = 0):
        super().__init__(n_estimators)
        if max_features not in MAX_FEATURES:
            raise ValueError(f"unknown feature subsampling mode '{max_features}'")
        self.max_features = str(max_features)
        self.seed = int(seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegression":
        self.trees_ = self.fit_trees(X, y, range(self.n_estimators))
        return self

    def fit_trees(self, X: np.ndarray, y: np.ndarray, trees: range) -> list[RegressionTree]:
        """Grow the forest's trees numbered `trees`, leaving the forest as it is.
        Tree t is the same whichever range grows it."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        mtry = MAX_FEATURES[self.max_features](p)
        grown = []
        for t in trees:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(t,)))
            rows = rng.integers(0, n, size=n)
            tree = RegressionTree(
                max_depth=FOREST_MAX_DEPTH,
                min_samples_leaf=FOREST_MIN_SAMPLES_LEAF,
                max_features=mtry,
            )
            grown.append(tree.fit(X[rows], y[rows], rng=rng))
        return grown

    def _combine(self, predictions) -> np.ndarray:
        # The bytes of np.stack(predictions).mean(axis=0) without the stack:
        # that sum also starts from 0.0 (so -0.0 + -0.0 gives 0.0) and adds
        # the trees in order; the first += makes the array.
        total = 0.0
        for v in predictions:
            total += v
        return total / self.n_estimators
