"""CART regression trees with SSE splitting, their ensembles, and the walk that predicts all."""

from __future__ import annotations

import numpy as np

# Trees that one GridWalk takes side by side: each level's numpy calls serve
# them all. 8 measured best on the benchmark's all-feature profile.
GRID_CHUNK = 8


class TreeEnsemble:
    """Regression trees fitted by a subclass's `fit`, predicted and profiled
    by one `GridWalk`. Its `_combine(predictions)` turns an iterator of each
    tree's vector, in tree order, into the model's. A `RegressionTree` is the
    one-tree ensemble of itself."""

    def __init__(self, n_estimators: int):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = int(n_estimators)
        self.trees_: list[RegressionTree] = []

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """The model's prediction of each row of X: the walk with no profiled feature."""
        return self._predict(GridWalk(X, {}))

    def predict_grid(self, base: np.ndarray, grids: dict[int, np.ndarray]) -> list[np.ndarray]:
        """For each feature index j of `grids`, with its grid, in `grids` order:
        `predict_many` of `base` tiled once per grid value with column j set
        to it. Each row of `base` walks each tree once, and only where its
        path tests j does its grid split."""
        walk = GridWalk(base, grids)
        # _combine works elementwise, so the walk's layout is arranged once, after it
        return walk.arrange(self._predict(walk))

    def _predict(self, walk: GridWalk) -> np.ndarray:
        """`_combine` of the walk's vector of each tree, walked GRID_CHUNK trees at a time."""
        if not self.trees_:
            raise ValueError("model is not fitted")
        return self._combine(vector for i in range(0, len(self.trees_), GRID_CHUNK)
                             for vector in walk(self.trees_[i:i + GRID_CHUNK]))

    def validate(self) -> None:
        check_trees(self.trees_, self.n_estimators)


class RegressionTree(TreeEnsemble):
    """Binary regression tree stored in flat arrays.

    Splits minimize the summed squared error of the two children, which is
    equivalent to maximizing variance reduction. Thresholds are midpoints
    between consecutive distinct sorted values; rows with x <= threshold go
    left. Feature scan order breaks ties, so fitting is fully deterministic
    for a given feature-candidate sequence. Each feature is sorted once per
    tree and a split's children inherit their sorted rows, which grows the
    same trees, byte for byte, as sorting every feature at every node.
    A tree is the one-tree `TreeEnsemble` of itself.
    """

    FITTED = dict(feature=np.intp, threshold=np.float64, left=np.intp, right=np.intp,
                  value=np.float64)
    n_estimators = 1

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

    @property
    def trees_(self) -> list[RegressionTree]:
        return [] if self.feature is None else [self]

    def fit(self, X: np.ndarray, y: np.ndarray,
            rng: np.random.Generator | None = None) -> RegressionTree:
        """Grow the tree on (X, y); `rng` drives per-node feature subsampling."""
        self.fit_predict(X, y, rng)
        return self

    def fit_predict(self, X: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator | None = None) -> np.ndarray:
        """Grow the tree as `fit` does and return `predict_many(X)` without
        walking X: each node writes its mean to its rows, and its children,
        grown after it, overwrite it, so a row ends with its leaf's value."""
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
        fitted = np.empty(n, dtype=np.float64)
        stack = [(root, np.arange(n, dtype=np.intp), np.argsort(X.T, axis=1, kind="stable"), 0)]
        while stack:
            node, rows, order, depth = stack.pop()
            ys = y[rows]
            mean = ys.mean()
            value[node] = fitted[rows] = float(mean)
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
        return fitted

    def _combine(self, predictions) -> np.ndarray:
        (vector,) = predictions
        return vector


TreeEnsemble.FITTED = dict(trees_=RegressionTree)


class GridWalk:
    """The tiled predictions of `TreeEnsemble.predict_grid`, for several trees
    at once, without tiling: each row of `base` walks each tree once, down its
    own path. At the first node on that path that tests a feature j of
    `grids`, a walker for (row, j) starts with the grid-index range [0, G). At
    a node testing another feature it follows the row; at one testing j its
    range splits at the grid values <= the threshold, which go left, and a
    second walker takes the right part. A leaf writes its value to a walker's
    range; a (row, j) whose path never tests j starts at its row's leaf, so it
    has that leaf's value at every grid point. Every (grid value, row) so
    reaches the leaf its tiled row reaches.

    After the slots of `grids` comes one slot with a one-point grid that no
    node tests, so each tree's vector ends with each row's own leaf value:
    `GridWalk(X, {})` is plain prediction of X, the walk with no profiled
    feature, and `arrange` drops that slot."""

    def __init__(self, base: np.ndarray, grids: dict[int, np.ndarray]):
        self.base = np.asarray(base, dtype=np.float64)
        self.features = [int(j) for j in grids]
        self.grids = [np.asarray(grid, dtype=np.float64) for grid in grids.values()]
        self.sizes = np.array([grid.size for grid in self.grids] + [1], dtype=np.intp)
        # slot of each feature, -1 if not in `grids`; a leaf's feature -1 reads the last entry
        self.slot = np.full(self.base.shape[1] + 1, -1, dtype=np.intp)
        self.slot[self.features] = np.arange(len(self.features))

    def __call__(self, trees: list[RegressionTree]):
        """An iterator over `trees` of each tree's vector: slot by slot (the
        features of `grids`, then the leaf), each base row's values at its grid."""
        n, n_slots = self.base.shape[0], self.sizes.size
        counts = [tree.feature.size for tree in trees]
        roots = np.cumsum([0] + counts[:-1])
        shift = np.repeat(roots, counts)
        feature, threshold, value = (np.concatenate([getattr(tree, name) for tree in trees])
                                     for name in ("feature", "threshold", "value"))
        left = np.concatenate([tree.left for tree in trees]) + shift
        right = np.concatenate([tree.right for tree in trees]) + shift
        slot = self.slot[feature]
        cut = np.zeros(feature.size, dtype=np.intp)  # grid values below it go left
        for s, j in enumerate(self.features):
            tests = feature == j
            cut[tests] = np.searchsorted(self.grids[s], threshold[tests], "right")

        # The base walk over pairs q = tree * n + row. A walker, and a piece
        # of the output, is keyed by w = (tree * slots + slot) * n + row; it
        # starts at the first node on its pair's path that tests its feature.
        node = np.repeat(roots, n)
        start = np.full(len(trees) * n_slots * n, -1, dtype=np.intp)
        pairs = np.flatnonzero(feature[node] >= 0)
        while pairs.size:
            nodes = node[pairs]
            tests = slot[nodes] >= 0
            q, tested = pairs[tests], nodes[tests]
            w = (q // n * n_slots + slot[tested]) * n + q % n  # distinct within a level
            first = start[w] < 0
            start[w[first]] = tested[first]
            go_left = self.base[pairs % n, feature[nodes]] <= threshold[nodes]
            node[pairs] = nodes = np.where(go_left, left[nodes], right[nodes])
            pairs = pairs[feature[nodes] >= 0]
        w = np.arange(start.size)  # a walker never testing its feature starts at its leaf
        node_w = np.where(start < 0, node[w // (n_slots * n) * n + w % n], start)
        lo, hi = np.zeros(w.size, dtype=np.intp), self.sizes[w // n % n_slots]

        done = [(w[:0], lo[:0], hi[:0], value[:0])]  # so a walk without walkers has a piece
        while w.size:
            f = feature[node_w]
            leaf = f < 0
            done.append((w[leaf], lo[leaf], hi[leaf], value[node_w[leaf]]))
            inner = ~leaf
            w, node_w, lo, hi, f = w[inner], node_w[inner], lo[inner], hi[inner], f[inner]
            # At a node testing its own feature a walker's grid indices below
            # the cut go left; elsewhere it goes where its base row goes.
            c = cut[node_w]
            own = slot[node_w] == w // n % n_slots
            go_left = np.where(own, c > lo, self.base[w % n, f] <= threshold[node_w])
            split = np.flatnonzero(go_left & own & (c < hi))
            w = np.concatenate([w, w[split]])
            node_w = np.concatenate([np.where(go_left, left[node_w], right[node_w]),
                                     right[node_w[split]]])
            cs = c[split]  # the left part ends, the right part starts, at the cut
            lo = np.concatenate([lo, cs])
            hi = np.concatenate([hi, hi[split]])
            hi[split] = cs

        w, lo, hi, values = (np.concatenate(part) for part in zip(*done))
        order = np.argsort(w * self.sizes.max() + lo)
        values, lengths = values[order], (hi - lo)[order]
        # a tree's pieces are consecutive; one tree's vector is made at a time
        ends = np.cumsum(np.bincount(w // (n_slots * n), minlength=len(trees)))
        return (np.repeat(values[a:b], lengths[a:b]) for a, b in zip([0, *ends[:-1]], ends))

    def arrange(self, values: np.ndarray) -> list[np.ndarray]:
        """A vector in the walk's layout as `predict_grid` returns it: one vector
        per feature of `grids`, each grid value's block of base rows. Each is a
        contiguous copy, so a grid value's rows are summed in row order."""
        n = self.base.shape[0]
        ends = np.cumsum(self.sizes * n)
        return [values[end - size * n:end].reshape(n, size).T.ravel()
                for size, end in zip(self.sizes[:-1], ends)]


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
