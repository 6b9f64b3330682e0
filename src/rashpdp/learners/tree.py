"""CART regression tree with variance-reduction (SSE) splitting."""

from __future__ import annotations

import numpy as np


class RegressionTree:
    """Binary regression tree stored in flat arrays.

    Splits minimize the summed squared error of the two children, which is
    equivalent to maximizing variance reduction. Thresholds are midpoints
    between consecutive distinct sorted values; rows with x <= threshold go
    left. Feature scan order breaks ties, so fitting is fully deterministic
    for a given feature-candidate sequence. Each feature is sorted once per
    tree and a split's children inherit their sorted rows, which grows the
    same trees, byte for byte, as sorting every feature at every node.
    """

    FITTED = dict(feature=np.intp, threshold=np.float64, left=np.intp, right=np.intp,
                  value=np.float64)

    def __init__(self, max_depth: int = 12, min_samples_leaf: int = 1,
                 max_features: int | None = None):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be >= 1 or None, got {max_features}")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = None if max_features is None else int(max_features)
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray,
            rng: np.random.Generator | None = None) -> "RegressionTree":
        """Grow the tree on (X, y); `rng` drives per-node feature subsampling."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        if self.max_features is not None and rng is None:
            raise ValueError("feature subsampling requires an rng")

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        # Each feature's rows by increasing x, ties in row order. A node keeps
        # its rows in row order, so filtering its parent's lists by its rows
        # gives the stable sort of its own rows: no node sorts again.
        root = new_node()
        go = np.zeros(n, dtype=bool)
        stack = [(root, np.arange(n, dtype=np.intp), np.argsort(X.T, axis=1, kind="stable"), 0)]
        while stack:
            node, rows, order, depth = stack.pop()
            ys = y[rows]
            mean = ys.mean()
            value[node] = float(mean)
            if depth >= self.max_depth or rows.size < 2 * self.min_samples_leaf:
                continue
            node_sse = float(np.sum((ys - mean) ** 2))
            if node_sse <= 0.0:
                continue

            if self.max_features is not None and self.max_features < p:
                candidates = np.sort(rng.choice(p, size=self.max_features, replace=False))
            else:
                candidates = np.arange(p)
            if not candidates.size:
                continue

            # Score every candidate feature at once, one row per feature.
            ranked = order[candidates]
            xs = X[ranked, candidates[:, None]]
            ys_sorted = y[ranked]
            cum = np.cumsum(ys_sorted, axis=1)
            cumsq = np.cumsum(ys_sorted * ys_sorted, axis=1)
            n_left = np.arange(1, rows.size)
            n_right = rows.size - n_left
            valid = xs[:, 1:] > xs[:, :-1]
            valid &= (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            sse_left = cumsq[:, :-1] - cum[:, :-1] ** 2 / n_left
            sse_right = ((cumsq[:, -1:] - cumsq[:, :-1])
                         - (cum[:, -1:] - cum[:, :-1]) ** 2 / n_right)
            child_sse = sse_left + sse_right
            child_sse[~valid] = np.inf
            k = np.argmin(child_sse, axis=1)
            best = child_sse[np.arange(k.size), k]
            # the first feature with the least SSE strictly below the node's
            c = int(np.argmin(np.where(best < node_sse, best, np.inf)))
            if not best[c] < node_sse:
                continue
            best_feat = int(candidates[c])
            best_thr = float((xs[c, k[c]] + xs[c, k[c] + 1]) / 2.0)

            go_left = X[rows, best_feat] <= best_thr
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            # Midpoint thresholds guarantee both sides are non-empty, but a
            # degenerate float midpoint could collapse one side; bail out then.
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            feature[node] = best_feat
            threshold[node] = best_thr
            lid = new_node()
            rid = new_node()
            left[node] = lid
            right[node] = rid
            go[left_rows] = True
            goes_left = go[order]
            go[left_rows] = False
            stack.append((rid, right_rows, order[~goes_left].reshape(p, -1), depth + 1))
            stack.append((lid, left_rows, order[goes_left].reshape(p, -1), depth + 1))

        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        if self.feature is None:
            raise ValueError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        idx = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.flatnonzero(self.feature[idx] >= 0)  # the rows not yet at a leaf
        while rows.size:
            nodes = idx[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            idx[rows] = nodes = np.where(go_left, self.left[nodes], self.right[nodes])
            rows = rows[self.feature[nodes] >= 0]
        return self.value[idx]

    def predict_grid(self, base: np.ndarray, j: int, grid: np.ndarray) -> np.ndarray:
        """`predict_many` of `base` tiled once per grid value with column j set
        to it, predicting once per interval between the thresholds on j: grid
        values with as many thresholds strictly below them take the same path."""
        base = np.asarray(base, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        cuts = np.sort(self.threshold[self.feature == j])
        classes = np.searchsorted(cuts, grid, "left")
        _, first, inverse = np.unique(classes, return_index=True, return_inverse=True)
        X = np.tile(base, (first.size, 1))
        X[:, j] = np.repeat(grid[first], base.shape[0])
        return self.predict_many(X).reshape(first.size, -1)[inverse].ravel()

    def validate(self) -> None:
        check_trees([self], 1)


class TreeEnsemble:
    """Regression trees fitted by a subclass's `fit`. Its `_combine(n, predictions)`
    turns an iterator of each tree's n predictions, in tree order, into the model's."""

    FITTED = dict(trees_=RegressionTree)

    def __init__(self, n_estimators: int):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = int(n_estimators)
        self.trees_: list[RegressionTree] = []

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._predict(X.shape[0], lambda tree: tree.predict_many(X))

    def predict_grid(self, base: np.ndarray, j: int, grid: np.ndarray) -> np.ndarray:
        return self._predict(len(grid) * len(base), lambda tree: tree.predict_grid(base, j, grid))

    def _predict(self, n: int, predict) -> np.ndarray:
        if not self.trees_:
            raise ValueError("model is not fitted")
        return self._combine(n, map(predict, self.trees_))

    def validate(self) -> None:
        check_trees(self.trees_, self.n_estimators)


def check_trees(trees: list[RegressionTree], n_trees: int) -> None:
    """Reject restored trees the grower cannot make, all in one pass. The grower
    appends children after their parent, so child > parent rules out cycles."""
    if len(trees) != n_trees:
        raise ValueError(f"field 'trees': {len(trees)} trees, n_estimators is {n_trees}")
    sizes = [tree.feature.size for tree in trees]
    expected = [(n,) for n in sizes]
    for name in RegressionTree.FITTED:
        shapes = [getattr(tree, name).shape for tree in trees]
        if shapes != expected or 0 in sizes:
            k = next(k for k, shape in enumerate(shapes) if shape != expected[k] or not sizes[k])
            raise ValueError(f"RegressionTree {k} field '{name}': shape {shapes[k]}, expected "
                             f"{expected[k]} like 'feature', at least one node")
    ends = np.cumsum(sizes)
    node = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    feature, left, right = (np.concatenate([getattr(tree, name) for tree in trees])
                            for name in ("feature", "left", "right"))
    internal = feature >= 0
    lowest = internal * (node + 2) - 1  # node + 1 at an internal node, -1 at a leaf
    highest = internal * np.repeat(sizes, sizes) - 1
    for name, values, bad in (("feature", feature, feature < -1),
                              ("left", left, (left < lowest) | (left > highest)),
                              ("right", right, (right < lowest) | (right > highest))):
        if bad.any():
            i = int(bad.argmax())
            k = int(np.searchsorted(ends, i, "right"))
            raise ValueError(f"RegressionTree {k} field '{name}': node {node[i]} has {values[i]}, "
                             f"expected " + ("-1 or more" if name == "feature"
                                             else f"{lowest[i]}..{highest[i]}"))
