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
                    rng: np.random.Generator | None = None,
                    order: np.ndarray | None = None) -> np.ndarray:
        """Grow the tree as `fit` does and return `predict_many(X)` without
        walking X: each node writes its mean to its rows, and its children,
        grown after it, overwrite it, so a row ends with its leaf's value.

        `order` is `presort(X)`, made here if not given: boosting sorts X once
        for all its stages. A node scores all its candidate features at once,
        and only the splits that leave `min_samples_leaf` rows on each side.
        It makes the floating-point operations of sorting and scoring every
        split at every node, in the same order, so the trees are the same
        bytes: its mean is `np.add.reduce` of its targets over its row count,
        which is `np.mean` of float64, its SSE sums `dev * dev`, which is
        `dev ** 2`, and Σy and Σy² are running sums in sorted order."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        if self.max_features is not None and rng is None:
            raise ValueError("feature subsampling requires an rng")
        if order is None:
            order = presort(X)
        max_depth, leaf = self.max_depth, self.min_samples_leaf
        draw = self.max_features if self.max_features is not None and self.max_features < p else 0
        columns = np.arange(p)[:, None]  # each candidate's column of X, when every feature is one
        ysq = np.stack([y, y * y])  # one gather and one cumsum give Σy and Σy²
        counts = np.arange(n + 1, dtype=np.float64)  # a split's row counts, sliced

        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        # Each feature's rows by increasing x, ties in row order. A node keeps
        # its rows in row order, so filtering its parent's lists by its rows
        # gives the stable sort of its own rows: no node sorts again.
        # A node too deep or too small to split gets no sorted rows (None).
        go = np.empty(n, dtype=bool)
        fitted = np.empty(n, dtype=np.float64)
        stack = [(0, np.arange(n, dtype=np.intp), order if p and n >= 2 * leaf else None, 0)]
        while stack:
            node, rows, order, depth = stack.pop()
            size = rows.size
            ys = y[rows]
            # np.mean's float64 sum and division, and np.sum of (ys - mean) ** 2
            mean = float(np.add.reduce(ys)) / size
            value[node] = fitted[rows] = mean
            if order is None:
                continue
            dev = ys - mean
            node_sse = float(np.add.reduce(dev * dev))
            if node_sse <= 0.0:
                continue

            if draw:
                candidates = rng.choice(p, size=draw, replace=False)
                candidates.sort()
                ranked = order[candidates]
                xs = X[ranked, candidates[:, None]]
            else:
                ranked = order
                xs = X[ranked, columns]

            # Score, one row per candidate feature, the splits after sorted
            # position k that leave `leaf` rows on each side: k = leaf - 1 .. size - leaf - 1.
            sums = ysq.take(ranked, 1).cumsum(2)  # Σy, Σy²; candidate; position
            lefts = sums[:, :, leaf - 1:size - leaf]
            rights = sums[:, :, -1:] - lefts
            n_left, n_right = counts[leaf:size - leaf + 1], counts[size - leaf:leaf - 1:-1]
            child_sse = lefts[1] - lefts[0] ** 2 / n_left
            child_sse += rights[1] - rights[0] ** 2 / n_right
            child_sse[~(xs[:, leaf:size - leaf + 1] > xs[:, leaf - 1:size - leaf])] = np.inf
            # The first least SSE, in candidate then position order, is the
            # first feature's with the least SSE, at its first position with it.
            # argmin takes a NaN first; a feature with one must lose, as to a
            # per-feature argmin and a test of its score against the node's.
            c, at = divmod(int(child_sse.argmin()), child_sse.shape[1])
            if child_sse[c, at] != child_sse[c, at]:
                child_sse[np.isnan(child_sse).any(1)] = np.inf
                c, at = divmod(int(child_sse.argmin()), child_sse.shape[1])
            if not child_sse[c, at] < node_sse:
                continue
            best_feat = int(candidates[c]) if draw else c
            at += leaf - 1
            best_thr = float((xs[c, at] + xs[c, at + 1]) / 2.0)

            go_left = X[:, best_feat][rows] <= best_thr
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            # Midpoint thresholds guarantee both sides are non-empty, but a
            # degenerate float midpoint could collapse one side; bail out then.
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            lid = len(feature)
            feature[node], threshold[node], left[node], right[node] = best_feat, best_thr, lid, lid + 1
            feature += (-1, -1)
            threshold += (0.0, 0.0)
            left += (-1, -1)
            right += (-1, -1)
            value += (0.0, 0.0)
            depth += 1
            left_splits = depth < max_depth and left_rows.size >= 2 * leaf
            right_splits = depth < max_depth and right_rows.size >= 2 * leaf
            left_order = right_order = None
            if left_splits or right_splits:
                # go holds this node's rows' sides; only its own children read them
                go[rows] = go_left
                goes_left = go[order]
                if left_splits:
                    left_order = order[goes_left].reshape(p, -1)
                if right_splits:
                    right_order = order[~goes_left].reshape(p, -1)
            stack.append((lid + 1, right_rows, right_order, depth))
            stack.append((lid, left_rows, left_order, depth))

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


def presort(X: np.ndarray) -> np.ndarray:
    """Each feature's rows of X by increasing value, ties in row order: one
    row of row indices per column, the `order` that `fit_predict` takes."""
    return np.argsort(np.asarray(X, dtype=np.float64).T, axis=1, kind="stable")


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

    With no `grids`, the walk has one slot with a one-point grid that no node
    tests, so each tree's vector is each row's own leaf value: `GridWalk(X, {})`
    is plain prediction of X, the walk with no profiled feature."""

    def __init__(self, base: np.ndarray, grids: dict[int, np.ndarray]):
        self.base = np.asarray(base, dtype=np.float64)
        self.features = [int(j) for j in grids]
        self.grids = [np.asarray(grid, dtype=np.float64) for grid in grids.values()]
        self.sizes = np.array([grid.size for grid in self.grids] or [1], dtype=np.intp)
        # slot of each feature, -1 if not in `grids`; a leaf's feature -1 reads the last entry
        self.slot = np.full(self.base.shape[1] + 1, -1, dtype=np.intp)
        self.slot[self.features] = np.arange(len(self.features))

    def __call__(self, trees: list[RegressionTree]):
        """An iterator over `trees` of each tree's vector: slot by slot (the
        features of `grids`, or the leaf if none), each base row's values at its grid."""
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
        return [values[end - grid.size * n:end].reshape(n, grid.size).T.ravel()
                for grid, end in zip(self.grids, ends)]


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
