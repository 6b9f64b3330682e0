"""Random forest of CART regression trees."""

from __future__ import annotations

import math

import numpy as np

from .tree import RegressionTree, TreeEnsemble, grow

# Desk-scale fixed knobs; only tree count and feature subsampling are searched.
FOREST_MAX_DEPTH = 18
FOREST_MIN_SAMPLES_LEAF = 3
# Trees per unit of work when a forest is fitted, in a pool or by `fit`. A
# unit's trees grow in lockstep. On two cores the benchmark's `train` pool (a
# 221-tree forest) trained in a median 0.654 s of wall clock with ranges of
# 32 trees and 0.674 s with 64 (30 rounds each), both at a median 1.07 s of
# CPU time.
FOREST_UNIT_TREES = 32
# A range's trees grow in lockstep batches of at most this many (tree, row,
# feature) cells, and at least one tree. The grower's working arrays are a
# few 8-byte arrays of a batch's cells, so they stay small however large X
# is. One 32-tree range on 20 000 Friedman rows peaked at 67 MB of RSS in
# batches of one tree, 473 MB in one batch of 32, and 61 MB under the
# per-node grower this one replaced. The bundled data's 750 training rows ×
# 10 features still grow 32 trees a batch.
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
        self.trees_ = [tree for trees in self.units() for tree in self.fit_trees(X, y, trees)]
        return self

    def units(self) -> list[range]:
        """The forest's tree numbers in ranges of FOREST_UNIT_TREES, the
        units of work in which its trees are grown."""
        return [range(t, min(t + FOREST_UNIT_TREES, self.n_estimators))
                for t in range(0, self.n_estimators, FOREST_UNIT_TREES)]

    def fit_trees(self, X: np.ndarray, y: np.ndarray, trees: range) -> list[RegressionTree]:
        """Grow the forest's trees numbered `trees` in lockstep (`grow`), in
        batches of LOCKSTEP_CELLS, leaving the forest as it is. Tree t draws
        its bootstrap rows and then its candidate features from its own rng,
        so it is the same whichever range or batch grows it, and the same as
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
        batch = max(1, LOCKSTEP_CELLS // max(1, n * p))
        for first in range(0, len(grown), batch):
            part = slice(first, first + batch)
            grow(grown[part], X[rows[part]], y[rows[part]], rngs[part])
        return grown

    def _combine(self, predictions) -> np.ndarray:
        # The bytes of np.stack(predictions).mean(axis=0) without the stack:
        # that sum also starts from 0.0 (so -0.0 + -0.0 gives 0.0) and adds
        # the trees in order; the first += makes the array.
        total = 0.0
        for v in predictions:
            total += v
        return total / self.n_estimators
