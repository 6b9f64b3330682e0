"""Random forest of CART regression trees."""

from __future__ import annotations

import math

import numpy as np

from .tree import RegressionTree, TreeEnsemble, grow, rank

# Desk-scale fixed knobs; only tree count and feature subsampling are searched.
FOREST_MAX_DEPTH = 18
FOREST_MIN_SAMPLES_LEAF = 3
# A forest's unit of work, in a pool or by `fit`, is one lockstep batch of at
# most this many (tree, row, feature) cells, and at least one tree, so the
# grower's working arrays stay small however large X is: 32 trees on 20 000
# Friedman rows peaked at 67 MB of RSS grown one tree a batch, 473 MB in one.
# A unit holds 116 trees on the `train` benchmark's 225 × 10 training data
# (2 units), 34 on the bundled 750 × 10, and one above 131 072 cells a tree.
# In process on two cores, the `train` pool trained in a median 0.472 s this
# way and 0.562 s in 32-tree units (15 alternating rounds of 3 fits).
LOCKSTEP_CELLS = 1 << 18


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
        self.trees_ = [tree for trees in self.units(*np.shape(X))
                       for tree in self.fit_trees(X, y, trees)]
        return self

    def units(self, n: int, p: int) -> list[range]:
        """The forest's tree numbers in consecutive ranges of
        LOCKSTEP_CELLS // (n·p) trees, and at least one: its units of work on
        n training rows of p features, each grown in one lockstep batch."""
        size = max(1, LOCKSTEP_CELLS // max(1, n * p))
        return [range(t, min(t + size, self.n_estimators))
                for t in range(0, self.n_estimators, size)]

    def fit_trees(self, X: np.ndarray, y: np.ndarray, trees: range) -> list[RegressionTree]:
        """Grow the forest's trees numbered `trees` in one lockstep batch
        (`grow`), leaving the forest as it is; `units` sizes the ranges. Tree
        t draws its bootstrap rows and then its candidate features from its
        own rng, so it is the same whichever range grows it, and the same as
        grown alone."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        rngs = [np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(t,)))
                for t in trees]
        rows = np.array([rng.integers(0, n, size=n) for rng in rngs], dtype=np.intp)
        grown = [RegressionTree(max_depth=FOREST_MAX_DEPTH,
                                min_samples_leaf=FOREST_MIN_SAMPLES_LEAF,
                                max_features=MAX_FEATURES[self.max_features](p))
                 for _ in trees]
        grow(grown, X[rows], y[rows], rngs, rank(X)[:, rows])
        return grown

    def _combine(self, predictions) -> np.ndarray:
        # The bytes of np.stack(predictions).mean(axis=0) without the stack:
        # that sum also starts from 0.0 (so -0.0 + -0.0 gives 0.0) and adds
        # the trees in order; the first += makes the array.
        total = 0.0
        for v in predictions:
            total += v
        return total / self.n_estimators
