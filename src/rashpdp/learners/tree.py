"""CART regression trees with SSE splitting, their ensembles, and the walk that predicts all."""

from __future__ import annotations

import numpy as np

# Trees that one GridWalk takes side by side: each level's numpy calls serve
# them all. On the `profile` benchmark archive's 10-feature passes, sizes
# rotated in one process (least of 15 rounds, 2-core x86 with AVX-512), the
# forest took 0.159 / 0.151 / 0.150 s at 4 / 8 / 16 trees and boosting 0.083 /
# 0.073 / 0.076 s. 16 won neither pass there and doubles the walk's memory
# (the forest pass's traced peak 4.6 -> 8.2 MB), though on the `train`
# archive's one feature it took 0.043 s for the forest and 0.017 s for
# boosting, against 0.050 and 0.021 s at 8.
GRID_CHUNK = 8
# The grower scores a step's nodes in groups of like size, padded to each
# group's largest: a group ends where padding the rest to it would cost more
# (node, candidate, position) cells than this. Measured in process: with one
# group a step instead, the `train` forest took 1.09× as long, and 64 trees
# on the bundled data's 750 training rows 1.33×; 1000 to 16 000 timed
# alike, and 0 (a new group at every new size) took 1.4× as long as 4000.
GROUP_CELLS = 4000


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
    for a given feature-candidate sequence. `grow` grows it, alone or in
    lockstep with other trees, with one split search: each node sorts its
    candidates' rank keys and scores each one's positions where its rank
    rises, which gives the same trees, byte for byte, as sorting and scoring
    every candidate feature at every node. `rank` rejects a NaN in X.
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
        X = np.asarray(X, dtype=np.float64)
        grow([self], X[None], np.asarray(y, dtype=np.float64)[None], [rng])
        return self

    def fit_predict(self, X: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator | None = None,
                    ranks: np.ndarray | None = None) -> np.ndarray:
        """Grow the tree as `fit` does and return `predict_many(X)` without
        walking X: each leaf writes its value to its rows when the grower
        makes it. Only this builds that vector; `fit` does not. `ranks` is
        `rank(X)`, made here if not given: boosting ranks X once for all
        its stages."""
        X = np.asarray(X, dtype=np.float64)
        (fitted,) = grow([self], X[None], np.asarray(y, dtype=np.float64)[None], [rng],
                         None if ranks is None else ranks[:, None], predict=True)
        return fitted

    def _combine(self, predictions) -> np.ndarray:
        (vector,) = predictions
        return vector


TreeEnsemble.FITTED = dict(trees_=RegressionTree)


def rank(X: np.ndarray) -> np.ndarray:
    """Each feature's dense ranks of the rows of X, of shape (..., n, p), as
    (p, ..., n): 0 at the least value, one more at each higher one, and one
    rank for equal values (-0.0 and 0.0 too). A NaN would share the last
    finite value's rank, so it raises ValueError."""
    x = np.moveaxis(np.asarray(X, dtype=np.float64), -1, 0)
    order = np.argsort(x, axis=-1)  # equal values share a rank in any order
    xs = np.take_along_axis(x, order, -1)
    nan = np.nonzero(np.isnan(xs[..., -1:]))[0]  # NaN sorts last
    if nan.size:
        raise ValueError(f"X column {nan[0]} holds NaN: tree features must not")
    ranks = np.zeros_like(order)
    np.cumsum(xs[..., 1:] > xs[..., :-1], axis=-1, out=ranks[..., 1:])
    np.put_along_axis(ranks, order, ranks.copy(), -1)  # from sorted order to row order
    return ranks


class FeatureDraws:
    """The grower's candidate features: for each tree of a group, in group
    order, `np.sort(rng.choice(p, d, replace=False))` from the tree's rng,
    the bytes that call makes. `close` leaves each rng where those calls
    would have. Several trees may share one Generator, or bit generator.

    Unless numpy shuffles the tail of arange(p) instead (p > 10 000 and
    d > p // 50, where `choice` itself is called), `choice` is Floyd's
    sample: for j from p - d to p - 1 it draws v in [0, j] and takes v, or
    j if v is taken already. A Fisher-Yates shuffle of the d values
    follows, one value in [0, i] for i from d - 1 down to 1, which the sort
    undoes: those are read and not used. A value in [0, k) is Lemire's:
    the high word of u·k, u the generator's next 32-bit output, drawn again
    while the low word is below 2**32 mod k. So a draw reads 2d - 1 outputs
    unless one is rejected (for small k, about one output in 10**9).

    The draws do not depend on the data, so each rng's are made ahead, 64
    at a time, for every rng that needs them at once: its outputs are read
    through `integers(0, 2**32, dtype=np.uint32)`, which is the stream
    `choice` reads (`random_raw` is not: it skips PCG64's buffered
    half-word), and Floyd's steps run as numpy operations over all the
    draws. A rejected output ends its rng's block there, and that draw is
    made again one output at a time. Each rng is put back where its block
    starts once the block is read, and moved past the block's draws when
    they are all taken, or by `close` past those taken, so nothing is kept
    to restore it."""

    def __init__(self, rngs: list[np.random.Generator], p: int, d: int):
        self.p, self.d = p, d
        # each tree's stream: Generators that share a bit generator share one
        index: dict[int, int] = {}
        self.source = [index.setdefault(id(rng.bit_generator), len(index)) for rng in rngs]
        self.rngs = list({id(rng.bit_generator): rng for rng in rngs}.values())
        self.floyd = p <= 10_000 or d <= p // 50
        if not self.floyd:
            return
        self.width = 2 * d - 1
        # Floyd's ranges j + 1, then the shuffle's i + 1, and the low words
        # below which each value is rejected
        self.bound = np.concatenate([np.arange(p - d + 1, p + 1),
                                     np.arange(d, 1, -1)]).astype(np.uint64)
        self.reject = ((1 << 32) % self.bound).astype(np.uint32)
        # Draws made ahead per rng. The `train` benchmark forest's trees take
        # 61 on average and 66 at most. In process (least of 3 fits, on a
        # shared 2-core host that timed them within ±40 %), its draws took
        # 20-36 ms made 32 ahead and 18-31 ms made 64 ahead, where its
        # `rng.choice` calls took 135 ms; on the bundled data's 750 training
        # rows 108-142 and 72-130 ms.
        self.ahead = 64
        n = len(self.rngs)
        # each rng's draws made, in the least type that holds p: in a forest
        # unit it lives as long as the growth
        self.table = np.empty((n, self.ahead, d), dtype=np.min_scalar_type(p))
        self.made = [0] * n  # draws in its row of the table
        self.taken = [0] * n  # of which taken
        # In counts of the rng's outputs: where its row's first draw starts,
        # which is where the rng stands between calls, and where its last
        # one ends.
        self.start = [0] * n
        self.end = [0] * n

    def __call__(self, trees: list[int]) -> np.ndarray:
        """Each tree's sorted candidates, one row per tree, in `trees` order."""
        if not self.floyd:
            return np.sort([self.rngs[self.source[t]].choice(self.p, self.d, replace=False)
                            for t in trees], axis=1)
        sources = [self.source[t] for t in trees]
        if len(set(sources)) < len(sources):  # a shared rng: one tree at a time
            return np.concatenate([self([t]) for t in trees])
        empty = [s for s in sources if self.taken[s] == self.made[s]]
        if empty:
            self._make(empty)
        at = [self.taken[s] for s in sources]
        for s in sources:
            self.taken[s] += 1
        return self.table[sources, at].astype(np.intp)

    def _make(self, sources: list[int]) -> None:
        """Fill these rngs' rows of the table with each one's next draws."""
        w, ahead = self.width, self.ahead
        blocks = np.empty((len(sources), ahead * w), dtype=np.uint32)
        for i, s in enumerate(sources):
            self._skip(s, self.end[s] - self.start[s])  # past the row's draws, all taken
            self.start[s] = self.end[s]
            blocks[i] = self._read(s, 0, ahead * w)
            self.end[s] += ahead * w
            self.made[s], self.taken[s] = ahead, 0
        # Each array is freed when its last use ends and Floyd's steps run in
        # 32 bits: a forest worker's memory peaks at the end of its growth,
        # and the first blocks' temporaries raised that peak by 0.3 MB.
        product = blocks.reshape(-1, w) * self.bound
        rejected = (product.astype(np.uint32) < self.reject).any(1).reshape(len(sources), ahead)
        product >>= 32
        values = product[:, :self.d].astype(np.int32)
        del product
        self.table[sources] = self._floyd(values).reshape(len(sources), ahead, -1)
        for i in np.flatnonzero(rejected.any(1)).tolist():
            s, first = sources[i], int(rejected[i].argmax())
            self.table[s, first], used = self._one(s, blocks[i].tolist(), first * w)
            self.made[s] = first + 1
            self.end[s] = self.start[s] + used

    def _floyd(self, v: np.ndarray) -> np.ndarray:
        """Floyd's samples, sorted, one a row, from each row's values v[:, k]
        in [0, p - d + k]."""
        (m, d), first = v.shape, self.p - self.d
        size = m * d
        steps = np.arange(d, dtype=np.int32)
        rows = np.arange(0, size, d, dtype=np.int32)[:, None]
        # Step k takes its j if its v is taken: drawn by an earlier step, or
        # the j of an earlier step that took its j. So a step whose v an
        # earlier step drew links to `size + 1`, yes; one whose v is an
        # earlier step's j links to that step; any other to `size`, no.
        # Pointer doubling follows each chain to its end.
        j_of = v - first
        link = np.empty(size + 2, dtype=np.int32)
        link[:size] = np.where((j_of >= 0) & (j_of < steps), j_of + rows, size).ravel()
        link[size:] = size, size + 1
        order = v.argsort(1, kind="stable")
        ordered = np.take_along_axis(v, order, 1)
        link[(order[:, 1:] + rows)[ordered[:, 1:] == ordered[:, :-1]]] = size + 1
        for _ in range((d - 1).bit_length()):
            link = link[link]
        v = np.where((link[:size] == size + 1).reshape(m, d), steps + first, v)
        v.sort(1)
        return v

    def _one(self, s: int, outputs: list[int], used: int) -> tuple[list[int], int]:
        """One draw, sorted, made one output at a time as `choice` makes it
        from `outputs[used:]`, rng s's outputs from its row's start, which it
        extends as it needs; and where in them it ends."""
        p, d = self.p, self.d

        def value(k: int) -> int:  # Lemire's value in [0, k)
            nonlocal used
            while True:
                if used == len(outputs):
                    outputs.extend(self._read(s, used, self.width).tolist())
                product = outputs[used] * k
                used += 1
                if product & 0xFFFFFFFF >= (1 << 32) % k:
                    return product >> 32

        taken: set[int] = set()
        for j in range(p - d, p):
            v = value(j + 1)
            taken.add(j if v in taken else v)
        for i in range(d - 1, 0, -1):
            value(i + 1)
        return sorted(taken), used

    def _read(self, s: int, skip: int, size: int) -> np.ndarray:
        """`size` outputs of rng s after the first `skip` from where it stands,
        leaving it there."""
        rng = self.rngs[s]
        state = rng.bit_generator.state
        self._skip(s, skip)
        outputs = rng.integers(0, 1 << 32, size=size, dtype=np.uint32)
        rng.bit_generator.state = state
        return outputs

    def _skip(self, s: int, size: int) -> None:
        """Move rng s on by `size` outputs."""
        if size:
            self.rngs[s].integers(0, 1 << 32, size=size, dtype=np.uint32)

    def close(self) -> None:
        """Leave each rng where `choice` would have: past the draws taken."""
        if not self.floyd:
            return
        for s, taken in enumerate(self.taken):
            self._skip(s, self.end[s] - self.start[s] if taken == self.made[s]
                       else taken * self.width)


def grow(trees: list[RegressionTree], X: np.ndarray, y: np.ndarray, rngs: list,
         ranks: np.ndarray | None = None, predict: bool = False) -> np.ndarray | None:
    """Grow `trees`, which share their settings, tree t on (X[t], y[t]) with
    candidate features drawn from rngs[t], and set their node arrays. With
    `predict`, return each tree's in-sample predictions, one row per tree:
    each row gets its leaf's value. `ranks` is `rank(X)`, made here if not
    given; any ranks below n with its order and ties grow the same trees.

    The trees grow in lockstep, each depth first as it would alone. A node
    is made with its mean, and with its SSE if it is not too deep or too
    small to split; one that cannot split is a leaf then and takes no step.
    Each step takes the next node to score from every tree's stack, so each
    tree draws its candidates from its own rng in the order that growing it
    alone would (`FeatureDraws`, the bytes of `Generator.choice`); an rng
    that is not a `numpy.random.Generator` raises TypeError. The step's
    nodes are scored in groups of like size, each in one end-padded (node,
    candidate, position) pass, and each node splits where it scores best,
    if that beats its SSE.

    Splits minimize the summed SSE of the two children at midpoints between
    consecutive distinct values, with at least `min_samples_leaf` rows on
    each side; the first least SSE in candidate then position order wins.
    Every node sorts its candidates' sort keys: a row's key is its rank with
    the row in the low bits, so the sorted keys give the node's stable sort
    by x, and a split between two of them is valid where the rank rises.
    The candidates are the drawn features, or all of them without
    feature subsampling. The floating-point
    operations are those of sorting and scoring every candidate at every
    node, in the same order, so the trees are the same bytes as grown one
    node at a time: a node's mean is `np.add.reduce` of its targets in row
    order over its row count, which is `np.mean` of float64, its SSE sums
    `dev * dev`, which is `dev ** 2`, and Σy and Σy² are running sums in
    sorted order."""
    if not trees:
        return None
    T, n, p = X.shape
    tree = trees[0]
    max_depth, leaf = tree.max_depth, tree.min_samples_leaf
    for rng in rngs:
        if rng is not None and not isinstance(rng, np.random.Generator):
            raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    if tree.max_features is not None and None in rngs:
        raise ValueError("feature subsampling requires an rng")
    draw = tree.max_features if tree.max_features is not None and tree.max_features < p else 0
    draws = FeatureDraws(rngs, p, draw) if draw else None
    if ranks is None:
        ranks = rank(X)
    # Tree t's row r is row t * n + r of all the trees' rows. Row N pads a
    # node's positions up to its group's largest node. Its y of 0 leaves the
    # node's Σy and Σy² at the end of the padded positions, and a position
    # past the node's rows scores inf whatever its x.
    N = T * n
    XT = np.zeros((p, N + 1))
    XT[:, :N] = X.reshape(N, p).T
    ysq = np.zeros((2, N + 1))  # one gather and one cumsum give Σy and Σy²
    ysq[0, :N] = y.ravel()
    np.multiply(ysq[0], ysq[0], out=ysq[1])
    targets = ysq[0]
    # A split's row counts, sliced: the right-hand ones from the descending
    # copy, so that they too are contiguous.
    counts = np.arange(n + 1, dtype=np.float64)
    descending = counts[::-1].copy()
    offsets = np.arange(0, p * (N + 1), N + 1)[:, None]  # where each feature's x start in XT
    # A row's key for feature f: its tree's rank of its x in f above the
    # row, which the low bits keep. The pad row's key sorts last. Keys take
    # the smallest type that holds them: on an AVX-512 x86 core, sorting a
    # node of 10 features × 750 rows took half as long in 32 bits as in 64.
    # The type is signed (~k fits one exactly when k does): an unsigned
    # 64-bit row number plus an int64 column offset would promote to float.
    shift = N.bit_length()
    rows_of = (1 << shift) - 1  # a key's low bits: its row
    key = np.empty((p, N + 1), dtype=np.min_scalar_type(~(n << shift | N)))
    key[:, :N] = ranks.reshape(p, N) << shift | np.arange(N)
    key[:, N] = n << shift | N
    # Copied into XT, ysq and key: a caller's gathered X[rows] and ranks, two
    # of a forest unit's largest arrays, need not live through its growth.
    del X, y, ranks
    fitted = np.empty(N) if predict else None
    nodes = [([-1], [0.0], [-1], [-1], [0.0]) for _ in range(T)]  # as RegressionTree.FITTED
    stacks = [[] for _ in range(T)]

    def make(t, node, rows, depth):
        """Set tree t's new node's mean, and stack it, with its SSE, to be
        scored if it can split. `rows` are its rows in row order."""
        ys = targets[rows]
        mean = float(np.add.reduce(ys)) / rows.size
        nodes[t][4][node] = mean
        if depth < max_depth and rows.size >= 2 * leaf and p:
            dev = ys - mean
            sse = float(np.add.reduce(dev * dev))
            if not sse <= 0.0:
                stacks[t].append((t, node, rows, depth, sse))
                return
        if predict:
            fitted[rows] = mean

    def padded(group):
        """The group's nodes' rows stacked, each padded with the pad row to
        the group's largest node's size."""
        size = np.array([entry[2].size for entry in group])
        stacked = np.full((len(group), size[0]), N)
        stacked[np.arange(size[0]) < size[:, None]] = np.concatenate(
            [entry[2] for entry in group])
        return stacked

    def split(group):
        """Score the group's nodes, largest first, split each where it scores
        best if that beats its SSE, and make its children."""
        m = len(group)
        L = group[0][2].size
        # Each node's rows sorted by each candidate: (node;) candidate;
        # position, without the node axis in a group of one.
        if draw:
            candidates = draws([entry[0] for entry in group])
            columns = candidates[:, :, None] * (N + 1)
            if m == 1:
                columns = columns[0]
        else:
            columns = offsets
        keys = key.take((group[0][2] if m == 1 else padded(group)[:, None, :]) + columns)
        keys.sort(-1)
        ranked = keys & rows_of

        # Score the split after each sorted position k that leaves `leaf`
        # rows on each side of the group's largest node; for a smaller node,
        # the positions that leave it fewer than `leaf` rows on the right
        # score inf. The split is invalid unless x at k + 1 is above x at k:
        # unless key k + 1 is above key k with all its row bits set.
        sums = ysq.take(ranked, 1).cumsum(-1)  # Σy, Σy²; (node;) candidate; position
        lefts = sums[..., leaf - 1:L - leaf]
        rights = sums[..., -1:] - lefts
        n_left = counts[leaf:L - leaf + 1]
        invalid = keys[..., leaf:L - leaf + 1] <= keys[..., leaf - 1:L - leaf] | rows_of
        if group[-1][2].size == L:
            n_right = descending[n - L + leaf:n - leaf + 1]
        else:
            n_right = np.array([entry[2].size for entry in group])[:, None, None] - n_left
            invalid |= n_right < leaf
            n_right = np.maximum(n_right, 1.0)  # to no effect
        child_sse = lefts[1] - lefts[0] ** 2 / n_left
        child_sse += rights[1] - rights[0] ** 2 / n_right
        np.putmask(child_sse, invalid, np.inf)
        child_sse = child_sse.reshape(m, -1)
        ranked = ranked.reshape(m, -1, L)
        width = L - 2 * leaf + 1
        bests = [int(child_sse.argmin())] if m == 1 else child_sse.argmin(1).tolist()
        for i, (t, node, rows, depth, node_sse), best in zip(range(m), group, bests):
            # The first least SSE, in candidate then position order, is the
            # first candidate's with the least SSE, at its first position with
            # it. argmin takes a NaN first; a candidate with one must lose, as
            # to a per-candidate argmin and a test of its score against the node's.
            score = float(child_sse[i, best])
            if score != score:
                scores = child_sse[i].reshape(-1, width)
                scores[np.isnan(scores).any(1)] = np.inf
                best = int(scores.argmin())
                score = float(child_sse[i, best])
            if not score < node_sse:
                if predict:
                    fitted[rows] = nodes[t][4][node]
                continue
            c, at = divmod(best, width)
            feature = int(candidates[i, c]) if draw else c
            x = XT[feature]
            at += leaf - 1
            threshold = float((x[ranked[i, c, at]] + x[ranked[i, c, at + 1]]) / 2.0)

            go_left = x[rows] <= threshold
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            # Midpoint thresholds guarantee both sides are non-empty, but a
            # degenerate float midpoint could collapse one side; bail out then.
            if left_rows.size == 0 or right_rows.size == 0:
                if predict:
                    fitted[rows] = nodes[t][4][node]
                continue
            tree_feature, tree_threshold, tree_left, tree_right, tree_value = nodes[t]
            lid = len(tree_feature)
            tree_feature[node] = feature
            tree_threshold[node] = threshold
            tree_left[node] = lid
            tree_right[node] = lid + 1
            tree_feature += (-1, -1)
            tree_threshold += (0.0, 0.0)
            tree_left += (-1, -1)
            tree_right += (-1, -1)
            tree_value += (0.0, 0.0)
            depth += 1
            # the left child is stacked last, so it is scored first
            make(t, lid + 1, right_rows, depth)
            make(t, lid, left_rows, depth)

    for t in range(T):
        make(t, 0, np.arange(t * n, t * n + n), 0)
    try:
        while True:
            step = [stack.pop() for stack in stacks if stack]
            if len(step) == 1:
                split(step)
            elif step:
                step.sort(key=lambda entry: -entry[2].size)
                for first, end in _groups([entry[2].size for entry in step], draw or p):
                    split(step[first:end])
            else:
                break
    finally:  # each rng where the draws taken leave it, also if a split raised
        if draws is not None:
            draws.close()

    for tree, (feature, threshold, left, right, value) in zip(trees, nodes):
        tree.feature = np.asarray(feature, dtype=np.intp)
        tree.threshold = np.asarray(threshold, dtype=np.float64)
        tree.left = np.asarray(left, dtype=np.intp)
        tree.right = np.asarray(right, dtype=np.intp)
        tree.value = np.asarray(value, dtype=np.float64)
    return None if fitted is None else fitted.reshape(T, n)


def _groups(sizes: list[int], width: int):
    """Runs (first, end) of nodes with these sizes, largest first, to pad to
    their first's size, `width` cells a position: a run ends before a node
    when padding the rest to the run's size would cost more cells than
    GROUP_CELLS."""
    first = 0
    for i, size in enumerate(sizes):
        if (sizes[first] - size) * width * (len(sizes) - i) > GROUP_CELLS:
            yield first, i
            first = i
    yield first, len(sizes)


class GridWalk:
    """The tiled predictions of `TreeEnsemble.predict_grid`, for several trees
    at once, without tiling: each row of `base` walks each tree once, down its
    own path, for every feature j of `grids` at once. For each j it keeps the
    grid-index range that follows that path, [0, G) at the root. At a node
    testing j the range splits at the grid values <= the threshold, which go
    left: the row's side keeps its part, and the other part, if not empty,
    walks on from the other child as an off-path walker. An off-path walker
    follows its row at a node testing another feature and splits the same way
    at one testing j. A leaf writes its value to the ranges that reach it, the
    row's own and the off-path walkers'; a (row, j) whose path never tests j
    keeps [0, G) down to its row's leaf, so it has that leaf's value at every
    grid point. Every (grid value, row) so reaches the leaf its tiled row
    reaches.

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
        # of the output, is keyed by w = (tree * slots + slot) * n + row; each
        # keeps the grid range [lo, hi) that follows its pair's own path. At a
        # node testing its feature, the part on the other side of the cut
        # leaves, if not empty, as an off-path walker for the other child.
        node = np.repeat(roots, n)
        lo = np.zeros(len(trees) * n_slots * n, dtype=np.intp)
        hi = np.tile(np.repeat(self.sizes, n), len(trees))
        off = [(lo[:0], lo[:0], lo[:0], lo[:0])]  # w, node, lo, hi
        pairs = np.flatnonzero(feature[node] >= 0)
        while pairs.size:
            nodes = node[pairs]
            go_left = self.base[pairs % n, feature[nodes]] <= threshold[nodes]
            tests = slot[nodes] >= 0
            q, tested, row_left = pairs[tests], nodes[tests], go_left[tests]
            w = (q // n * n_slots + slot[tested]) * n + q % n  # distinct within a level
            lo_w, hi_w, c = lo[w], hi[w], cut[tested]
            left_end, right_start = np.minimum(hi_w, c), np.maximum(lo_w, c)
            off_lo = np.where(row_left, right_start, lo_w)
            off_hi = np.where(row_left, hi_w, left_end)
            leaves = off_lo < off_hi
            off.append((w[leaves], np.where(row_left, right[tested], left[tested])[leaves],
                        off_lo[leaves], off_hi[leaves]))
            lo[w] = np.where(row_left, lo_w, right_start)
            hi[w] = np.where(row_left, left_end, hi_w)
            node[pairs] = nodes = np.where(go_left, left[nodes], right[nodes])
            pairs = pairs[feature[nodes] >= 0]
        # what is left of a walker's range, if anything, takes its row's leaf
        w = np.flatnonzero(lo < hi)
        done = [(w, lo[w], hi[w], value[node[w // (n_slots * n) * n + w % n]])]

        # The off-path walkers: at a node testing its own feature a walker's
        # grid indices below the cut go left; elsewhere it goes where its base
        # row goes.
        w, node_w, lo, hi = (np.concatenate(part) for part in zip(*off))
        while w.size:
            f = feature[node_w]
            leaf = f < 0
            done.append((w[leaf], lo[leaf], hi[leaf], value[node_w[leaf]]))
            inner = ~leaf
            w, node_w, lo, hi, f = w[inner], node_w[inner], lo[inner], hi[inner], f[inner]
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
