"""Property-based invariants over random pools, curves, and bands."""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashpdp.data import Dataset, feature_grid, split
from rashpdp.learners import (GradientBoostingRegression, KNearestNeighborsRegression,
                              RandomForestRegression, RegressionTree)
from rashpdp.learners.boosting import BOOSTING_MIN_SAMPLES_LEAF
from rashpdp.learners import forest as forest_module
from rashpdp.learners.forest import FOREST_MAX_DEPTH, FOREST_MIN_SAMPLES_LEAF, MAX_FEATURES
from rashpdp.learners.knn import _QUERY_CHUNK
from rashpdp.learners.tree import GRID_CHUNK, FeatureDraws, grow, rank
from rashpdp.metrics import coverage_rate, mwci
from rashpdp.pdp import RashomonPdpResult, bootstrap_bands
from rashpdp.rashomon import form_set
from rashpdp.synthetic import make_friedman

from conftest import fit_per_node, knn_predict_reference, stub_pool

COMMON = settings(max_examples=100, deadline=None)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)
scores = st.lists(st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                  min_size=1, max_size=25)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def curve_sets(draw, min_curves=1, max_curves=6):
    m = draw(st.integers(2, 8))
    r = draw(st.integers(min_curves, max_curves))
    grid = np.arange(m, dtype=np.float64)
    values = draw(st.lists(
        st.lists(finite, min_size=m, max_size=m), min_size=r, max_size=r,
    ))
    return np.array(values, dtype=np.float64)


def band_result(curves, lo, hi, best=None):
    """Result over the member rows `curves`; a `best` profile that is not a
    member is appended as one more row, outside the band."""
    rows = curves if best is None else np.vstack([curves, best])
    k, m = rows.shape
    return RashomonPdpResult(
        feature_index=0, grid=np.arange(m, dtype=np.float64), curves=rows,
        model_ids=tuple(range(k)), best=k - 1 if best is not None else 0,
        ci_lo=lo, ci_hi=hi, n_boot=1, alpha=0.05, seed=0,
    )


# --- epsilon monotonicity of Rashomon membership ---------------------------

@COMMON
@given(scores=scores,
       eps_pair=st.tuples(st.floats(min_value=1e-6, max_value=2.0),
                          st.floats(min_value=1e-6, max_value=2.0)))
def test_membership_grows_with_epsilon(scores, eps_pair):
    eps_small, eps_large = sorted(eps_pair)
    pool = stub_pool(scores)
    small = set(form_set(pool, eps_small).member_ids)
    large = set(form_set(pool, eps_large).member_ids)
    assert small <= large
    assert form_set(pool, eps_small).rss >= 1


# --- alpha nestedness of bands ----------------------------------------------

@COMMON
@given(curves=curve_sets(), seed=seeds,
       alphas=st.tuples(st.floats(min_value=0.005, max_value=0.6),
                        st.floats(min_value=0.005, max_value=0.6)))
def test_wider_alpha_gives_nested_band(curves, seed, alphas):
    a_small, a_large = sorted(alphas)
    lo_wide, hi_wide = bootstrap_bands(curves, 200, a_small, seed)
    lo_narrow, hi_narrow = bootstrap_bands(curves, 200, a_large, seed)
    assert np.all(lo_narrow >= lo_wide - 1e-12)
    assert np.all(hi_narrow <= hi_wide + 1e-12)


# --- affine equivariance of mean and bands ----------------------------------

@COMMON
@given(curves=curve_sets(), seed=seeds,
       a=st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 0.01),
       c=st.floats(min_value=-5.0, max_value=5.0))
def test_affine_transform_maps_mean_and_bands(curves, seed, a, c):
    transformed = a * curves + c
    base_mean = curves.mean(axis=0)
    new_mean = transformed.mean(axis=0)
    np.testing.assert_allclose(new_mean, a * base_mean + c, rtol=1e-9, atol=1e-9)

    lo, hi = bootstrap_bands(curves, 150, 0.1, seed)
    new_lo, new_hi = bootstrap_bands(transformed, 150, 0.1, seed)
    if a > 0:
        np.testing.assert_allclose(new_lo, a * lo + c, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(new_hi, a * hi + c, rtol=1e-9, atol=1e-9)
    else:
        np.testing.assert_allclose(new_lo, a * hi + c, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(new_hi, a * lo + c, rtol=1e-9, atol=1e-9)
    # width scales by |a|
    np.testing.assert_allclose(new_hi - new_lo, abs(a) * (hi - lo),
                               rtol=1e-9, atol=1e-9)


# --- coverage rate stays a fraction ------------------------------------------

@COMMON
@given(curves=curve_sets(min_curves=2), seed=seeds,
       best_values=st.lists(finite, min_size=8, max_size=8))
def test_coverage_rate_is_a_fraction(curves, seed, best_values):
    lo, hi = bootstrap_bands(curves, 120, 0.1, seed)
    best = np.asarray(best_values[:curves.shape[1]])
    cr = coverage_rate(band_result(curves, lo, hi, best=best))
    assert 0.0 <= cr <= 1.0
    assert mwci(band_result(curves, lo, hi, best=best)) >= 0.0


# --- mean lies within the pointwise envelope ---------------------------------

@COMMON
@given(curves=curve_sets())
def test_mean_within_pointwise_envelope(curves):
    mean = curves.mean(axis=0)
    assert np.all(mean >= curves.min(axis=0) - 1e-12)
    assert np.all(mean <= curves.max(axis=0) + 1e-12)


# --- closed-interval coverage at band boundaries -----------------------------

@COMMON
@given(curves=curve_sets(min_curves=2), seed=seeds,
       on_upper=st.booleans())
def test_boundary_points_count_as_covered(curves, seed, on_upper):
    lo, hi = bootstrap_bands(curves, 100, 0.1, seed)
    boundary = hi.copy() if on_upper else lo.copy()
    assert coverage_rate(band_result(curves, lo, hi, best=boundary)) == 1.0
    outside = hi + 1.0 if on_upper else lo - 1.0
    assert coverage_rate(band_result(curves, lo, hi, best=outside)) == 0.0


# --- metric transform behavior ------------------------------------------------

@COMMON
@given(curves=curve_sets(min_curves=2), seed=seeds,
       a=st.floats(min_value=0.01, max_value=3.0),
       c=st.floats(min_value=-5.0, max_value=5.0),
       offsets=st.lists(st.sampled_from([-1.0, -0.001, 0.0, 0.001, 1.0]),
                        min_size=8, max_size=8))
def test_coverage_invariant_and_width_scaling_under_affine_maps(curves, seed, a, c,
                                                                offsets):
    lo, hi = bootstrap_bands(curves, 120, 0.1, seed)
    # offsets place the best curve exactly on, clearly inside, or clearly
    # outside the band; ulp-scale gaps would not survive the affine map
    best = lo + np.asarray(offsets[:curves.shape[1]])
    base = band_result(curves, lo, hi, best=best)
    moved = band_result(curves, a * lo + c, a * hi + c, best=a * best + c)
    assert coverage_rate(moved) == coverage_rate(base)
    assert mwci(moved) == pytest.approx(a * mwci(base), rel=1e-9, abs=1e-12)


# --- the path-sharing grid walk equals tiled prediction ---------------------

# Small integer-valued columns make repeated values and ties with thresholds common.
levels = st.integers(0, 6).map(float)


@st.composite
def tree_models(draw):
    """A fitted tree-family model, the rows it profiles over and a feature
    index; the last column is constant, so no tree ever splits on it. An
    ensemble may hold up to two full grid-walk chunks of trees and a partial one."""
    n, p = draw(st.integers(1, 25)), draw(st.integers(1, 3))
    X = np.asarray(draw(st.lists(st.lists(levels, min_size=p, max_size=p),
                                 min_size=n, max_size=n)))
    X = np.column_stack([X, np.full(n, 2.0)])
    y = np.asarray(draw(st.lists(finite, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["tree", "forest", "boosting"]))
    if kind == "tree":  # one leaf when y is constant or n < 2 * min_samples_leaf
        model = RegressionTree(max_depth=draw(st.integers(1, 5)),
                               min_samples_leaf=draw(st.integers(1, 4))).fit(X, y)
    elif kind == "forest":
        model = RandomForestRegression(n_estimators=draw(st.integers(1, 2 * GRID_CHUNK + 1)),
                                       max_features=draw(st.sampled_from(["sqrt", "third"])),
                                       seed=draw(seeds)).fit(X, y)
    else:
        model = GradientBoostingRegression(n_estimators=draw(st.integers(1, 2 * GRID_CHUNK + 1)),
                                           learning_rate=draw(st.floats(0.05, 1.0)),
                                           max_depth=draw(st.integers(1, 3))).fit(X, y)
    base = X[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    return model, base, draw(st.integers(0, p))


def _walk(tree, x):
    """One row's prediction by following the node arrays from the root."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


def _walked(model, rows):
    """The model's prediction of `rows` from the per-row oracle: each tree's
    `_walk` of every row, combined as the model combines its trees."""
    return model._combine(np.array([_walk(tree, x) for x in rows], dtype=np.float64)
                          for tree in model.trees_)


@COMMON
@given(fitted=tree_models(), data=st.data())
def test_predict_grid_equals_tiled_prediction(fitted, data):
    model, base, _ = fitted
    trees = model.trees_
    constant = base.shape[1] - 1  # no tree tests it
    features = data.draw(st.lists(st.integers(0, constant - 1), max_size=constant, unique=True))
    features.insert(data.draw(st.integers(0, len(features))), constant)
    grids, tiled_predictions = {}, []
    for j in features:
        cuts = np.concatenate([t.threshold[t.feature == j] for t in trees])
        extra = data.draw(st.lists(st.floats(-1.0, 8.0), max_size=6))
        # every threshold itself, values below the smallest and above the largest
        grid = np.unique(np.concatenate([cuts, cuts - 1.0, cuts + 1.0, [-1.0, 8.0], extra]))
        if data.draw(st.booleans()):  # a one-point grid
            grid = grid[[len(grid) // 2]]
        tiled = np.tile(base, (grid.size, 1))
        tiled[:, j] = np.repeat(grid, base.shape[0])
        grids[j] = grid
        tiled_predictions.append(_walked(model, tiled))
    predictions = model.predict_grid(base, grids)
    assert [p.tobytes() for p in predictions] == [p.tobytes() for p in tiled_predictions]


def test_predict_grid_where_the_rows_own_range_empties_before_its_leaf():
    # Node 0 and node 1 both test x0. A row with x0 = 1.5 goes left at 0,
    # keeping the grid point 1.0, and right at 1, where 1.0 goes left: no
    # grid point is left to follow the row on to node 4 and its leaves.
    tree = RegressionTree()
    tree.feature = np.array([0, 0, -1, -1, 1, -1, -1])
    tree.threshold = np.array([1.75, 1.25, 0.0, 0.0, 0.5, 0.0, 0.0])
    tree.left = np.array([1, 3, -1, -1, 5, -1, -1])
    tree.right = np.array([2, 4, -1, -1, 6, -1, -1])
    tree.value = np.array([0.0, 0.0, 10.0, 20.0, 0.0, 30.0, 40.0])
    base = np.array([[1.5, 0.0], [1.5, 1.0], [0.0, 1.0], [3.0, 0.0], [1.0, 2.0]])
    grids = {0: np.array([1.0, 2.0]), 1: np.array([0.0])}  # x1's is a one-point grid
    expected = []
    for j, grid in grids.items():
        tiled = np.tile(base, (grid.size, 1))
        tiled[:, j] = np.repeat(grid, base.shape[0])
        expected.append(_walked(tree, tiled))
    predictions = tree.predict_grid(base, grids)
    assert [p.tobytes() for p in predictions] == [p.tobytes() for p in expected]
    assert predictions[0][:2].tolist() == [20.0, 20.0]  # grid point 1.0 for both x0 = 1.5 rows


@COMMON
@given(fitted=tree_models(), values=st.lists(st.floats(-1.0, 8.0), max_size=6))
def test_predict_many_equals_per_row_walk(fitted, values):
    model, base, j = fitted
    one_leaf = RegressionTree().fit(base, np.zeros(len(base)))
    X = np.tile(base, (len(values), 1))  # no rows when values is empty
    X[:, j] = np.repeat(values, base.shape[0])
    for tree in [*model.trees_, one_leaf]:
        for rows in (base, X, base[:0]):
            walked = np.array([_walk(tree, x) for x in rows], dtype=np.float64)
            assert tree.predict_many(rows).tobytes() == walked.tobytes()


# --- rank-keyed growth equals the per-node grower ----------------------------

@st.composite
def tree_fits(draw):
    """Training data with tied values, bootstrap-duplicated rows, constant
    and copied columns, a tree's settings and the seed of the rng it draws
    candidate features from."""
    n, p = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(["levels", "constant", "copy"]))
        if kind == "levels" or not columns:  # integer values: ties in x
            columns.append(draw(st.lists(levels, min_size=n, max_size=n)))
        elif kind == "constant":
            columns.append([draw(levels)] * n)
        else:  # equal SSE on two features: the first must win
            columns.append(columns[0])
    X = np.asarray(columns, dtype=np.float64).T
    y = np.asarray(draw(st.lists(st.one_of(levels, finite), min_size=n, max_size=n)))
    seed = draw(seeds)
    if draw(st.booleans()):  # rows duplicated as a bootstrap sample does
        rows = np.random.default_rng(seed).integers(0, n, n)
        X, y = X[rows], y[rows]
    tree = RegressionTree(max_depth=draw(st.integers(1, 8)),
                          min_samples_leaf=draw(st.integers(1, n // 2 + 2)),
                          max_features=draw(st.one_of(st.none(), st.integers(1, p))))
    return tree, X, y, seed


@COMMON
@given(case=tree_fits())
def test_tree_bytes_and_rng_state_equal_the_per_node_grower(case):
    tree, X, y, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    oracle = fit_per_node(copy.copy(tree), X, y, oracle_rng)
    grown = tree.fit(X, y, rng)
    for name in RegressionTree.FITTED:
        assert getattr(grown, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert rng.random() == oracle_rng.random()


def same_state(a, b):
    """Two `bit_generator.state` dicts hold the same values, arrays included."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            same_state(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def generators(bit_generator, seed, n):
    """Two Generators of each of n streams, each stream after an odd number of
    32-bit outputs, so that one with a 64-bit word holds half of it."""
    pairs = []
    for k in range(n):
        rngs = [np.random.Generator(bit_generator(seed + k)) for _ in range(2)]
        for rng in rngs:
            rng.integers(0, 1 << 32, size=2 * k + 1, dtype=np.uint32)
        pairs.append(rngs)
    return zip(*pairs)


def check_draws(rngs, oracle_rngs, p, d, groups):
    """FeatureDraws over `groups` of tree numbers, one call each, against
    np.sort(Generator.choice) per tree in the same order, and each rng's
    state after `close` against its oracle's."""
    draws = FeatureDraws(list(rngs), p, d)
    for group in groups:
        expected = [np.sort(oracle_rngs[t].choice(p, d, replace=False)) for t in group]
        assert draws(group).tolist() == np.array(expected).tolist(), (p, d, group)
    draws.close()
    for rng, oracle in zip(rngs, oracle_rngs):
        same_state(rng.bit_generator.state, oracle.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_feature_draws_equal_sorted_choice_and_its_rng_state(bit_generator):
    # every d < p up to 64 features, and both sides of numpy's switch from
    # Floyd's sample to its tail shuffle: (10 001, 200) is Floyd's, 201 is not
    cases = [(p, d) for p in range(2, 65) for d in range(1, p)] + [(10_001, 200), (10_001, 201)]
    for p, d in cases:
        rngs, oracle_rngs = generators(bit_generator, p * 100 + d, 2)
        check_draws(rngs, oracle_rngs, p, d, [[1, 0], [1], [0, 1]])


@pytest.mark.parametrize("p, d", [(10, 3), (50, 7), (3, 1)])
def test_feature_draws_across_blocks_and_a_shared_rng_equal_choice(p, d):
    # 200 calls cross several blocks made ahead; trees 1 and 3 share one
    # Generator, and tree 4 has another on tree 2's bit generator: each
    # stream draws in the order of the calls
    rngs, oracle_rngs = (list(side) for side in generators(np.random.PCG64, p, 3))
    for side in rngs, oracle_rngs:
        side += [side[1], np.random.Generator(side[2].bit_generator)]
    order = np.random.default_rng(d)
    groups = [sorted(order.choice(5, size=order.integers(1, 6), replace=False).tolist())
              for _ in range(200)]
    check_draws(rngs, oracle_rngs, p, d, groups)


def rejecting_mt19937(at):
    """An MT19937 Generator whose output `at` is 0, which Lemire rejects for
    a range of 3: choice(3, 1) reads one more output there."""
    rng = np.random.Generator(np.random.MT19937(7))
    rng.integers(0, 1 << 32, size=2, dtype=np.uint32)  # past its first twist: pos is 1
    state = rng.bit_generator.state
    state["state"]["key"][state["state"]["pos"] + at] = 0
    rng.bit_generator.state = state
    return rng


class CountingGenerator(np.random.Generator):
    """A Generator that counts its `choice` calls."""

    choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


@pytest.mark.parametrize("p, d, calls", [(12, 4, 0), (10_001, 200, 0), (10_001, 201, 2)])
def test_feature_draws_call_choice_only_for_its_tail_shuffle(p, d, calls):
    rng = CountingGenerator(np.random.PCG64(p + d))
    draws = FeatureDraws([rng], p, d)
    draws([0])
    draws([0])
    draws.close()
    assert rng.choices == calls


# The output that is 0 is the value at `offset` of draw `draw` of block `block`
# of draws made ahead, where its range is 3. A draw reads values of ranges 3
# at (3, 1); 2, 3, 2 at (3, 2); and 3, 4, 5, 3, 2 at (5, 3), the last two for
# the shuffle.
@pytest.mark.parametrize("p, d, block, draw, offset", [
    (3, 1, 0, 0, 0),  # the first draw
    (3, 1, 0, -1, 0),  # the last one of the first block
    (3, 1, 1, 5, 0),  # one of the next block
    (3, 2, 0, 1, 1),  # Floyd's second value of the second draw
    (5, 3, 0, 0, 3),  # the shuffle's first value
    (5, 3, 1, 0, 0),  # the first draw of the next block
])
def test_feature_draws_redraw_a_rejected_output(p, d, block, draw, offset):
    ahead = FeatureDraws([np.random.default_rng(0)], p, d).ahead
    at = (block * ahead + draw % ahead) * (2 * d - 1) + offset
    # two trees, each with its own such rng, so one block holds two rejections
    rngs, oracles = ([rejecting_mt19937(at) for _ in range(2)] for _ in range(2))
    assert int(copy.deepcopy(oracles[0]).integers(0, 1 << 32, size=at + 1, dtype=np.uint32)[-1]) == 0
    check_draws(rngs, oracles, p, d, [[0, 1]] * (2 * ahead + 10))


def test_tree_with_a_rejected_output_equals_the_per_node_grower():
    X = np.random.default_rng(2).normal(size=(40, 3))
    y = X @ [1.0, -2.0, 0.5]
    rng, oracle_rng = rejecting_mt19937(0), rejecting_mt19937(0)
    grown = RegressionTree(max_depth=4, max_features=1).fit(X, y, rng)
    same_trees(grown, fit_per_node(RegressionTree(max_depth=4, max_features=1), X, y, oracle_rng))
    same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)


def test_growth_that_raises_leaves_the_rng_where_the_per_node_grower_does():
    # (Σy)² of the three large targets overflows where Σy² does not: both
    # growers draw the root's candidates and raise while scoring them
    X = np.random.default_rng(3).normal(size=(30, 4))
    y = np.zeros(30)
    y[:3] = 5e153
    rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            RegressionTree(max_features=2).fit(X, y, rng)
        with pytest.raises(FloatingPointError):
            fit_per_node(RegressionTree(max_features=2), X, y, oracle_rng)
    same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)


@COMMON
@given(case=tree_fits(), seed=seeds)
def test_rank_keys_sort_a_node_stably_and_rise_where_x_does(case, seed):
    # A row's key is its rank above its row number, as `grow` makes it; a
    # node's rows are any of X's rows in row order, so their ranks need not
    # be dense.
    _, X, _, _ = case
    rng = np.random.default_rng(seed)
    X[(X == 0.0) & (rng.random(X.shape) < 0.5)] = -0.0  # beside 0.0, one rank
    X[X == 5.0], X[X == 6.0] = -np.inf, np.inf
    n = len(X)
    shift = n.bit_length()
    row_bits = (1 << shift) - 1
    keys = rank(X) << shift | np.arange(n)
    rows = np.flatnonzero(rng.random(n) < 0.7)
    for f, x in enumerate(X.T):
        node = np.sort(keys[f, rows])
        order = np.argsort(x[rows], kind="stable")
        assert (node & row_bits).tolist() == rows[order].tolist()
        xs = x[rows][order]
        assert (node[1:] > node[:-1] | row_bits).tolist() == (xs[1:] > xs[:-1]).tolist()


def same_trees(grown, oracle):
    for name in RegressionTree.FITTED:
        assert getattr(grown, name).tobytes() == getattr(oracle, name).tobytes(), name


# Above 128 rows a node's mean and SSE leave numpy's first pairwise-sum block,
# where their rounding path changes: `tree_fits` draws 30 rows at most.
@pytest.mark.parametrize("mode", sorted(MAX_FEATURES))
def test_forest_trees_equal_per_node_grower_on_300_rows(mode):
    ds = make_friedman(n_rows=300, seed=3)
    X, y = ds.features, ds.target
    n, p = X.shape
    forest = RandomForestRegression(n_estimators=6, max_features=mode, seed=9).fit(X, y)
    for t, tree in enumerate(forest.trees_):
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(t,)))
        rows = rng.integers(0, n, size=n)
        oracle = RegressionTree(FOREST_MAX_DEPTH, FOREST_MIN_SAMPLES_LEAF,
                                MAX_FEATURES[mode](p))
        same_trees(tree, fit_per_node(oracle, X[rows], y[rows], rng))


def forest_case(n, p, tied, kind, n_trees, cuts, mode, seed):
    """A forest, its data and its trees cut into ranges at `cuts`. `tied`
    columns hold a few integers. `kind` "overflow" targets make (Σy)²
    overflow, so scores hold inf and NaN; "one odd" targets are 0 but one,
    so some bootstrap samples are pure and their trees stop at the root."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, tied] = rng.integers(0, 4, size=(n, len(tied)))
    y = rng.normal(size=n)
    if kind == "overflow":  # three rows with (Σy)² above the float maximum, Σy² below it
        y[rng.choice(n, size=min(n, 3), replace=False)] = 2e153
    elif kind == "one odd":
        y = np.zeros(n)
        y[rng.integers(0, n)] = 1.0
    ranges = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n_trees])]
    return RandomForestRegression(n_trees, mode, seed=seed), X, y, ranges, kind == "overflow"


@st.composite
def forest_fits(draw):
    """`forest_case` over 2 to 300 rows, so nodes cross numpy's 128-value
    pairwise-sum block, 1 to 7 features, so at one feature a tree draws
    every feature, both subsampling modes and 1 to 12 trees."""
    p, n_trees = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    cuts = draw(st.sets(st.integers(1, n_trees - 1), max_size=3)) if n_trees > 1 else set()
    return forest_case(
        draw(st.integers(2, 300)), p, sorted(draw(st.sets(st.integers(0, p - 1)))),
        draw(st.sampled_from(["normal", "overflow", "one odd"])), n_trees, sorted(cuts),
        draw(st.sampled_from(sorted(MAX_FEATURES))), draw(seeds))


def check_forest_case(case):
    """fit() equals fit_trees over the case's ranges, and each tree equals
    the per-node grower on its own bootstrap rows with its own rng."""
    forest, X, y, ranges, overflow = case
    n, p = X.shape
    with np.errstate(all="ignore") if overflow else contextlib.nullcontext():
        whole = copy.copy(forest).fit(X, y).trees_
        joined = [tree for trees in ranges for tree in forest.fit_trees(X, y, trees)]
        for t, (tree, part) in enumerate(zip(whole, joined)):
            same_trees(part, tree)
            rng = np.random.default_rng(np.random.SeedSequence(forest.seed, spawn_key=(t,)))
            rows = rng.integers(0, n, size=n)
            oracle = RegressionTree(FOREST_MAX_DEPTH, FOREST_MIN_SAMPLES_LEAF,
                                    MAX_FEATURES[forest.max_features](p))
            same_trees(tree, fit_per_node(oracle, X[rows], y[rows], rng))
    assert len(whole) == len(joined) == forest.n_estimators


@settings(max_examples=40, deadline=None)
@given(case=forest_fits())
def test_forest_trees_in_lockstep_equal_ranges_and_the_per_node_grower(case):
    check_forest_case(case)


# Hypothesis favours small cases: these pin large ones of each kind.
@pytest.mark.parametrize("n, p, tied, kind, n_trees, cuts, mode", [
    (300, 7, [2], "normal", 12, [5], "sqrt"),
    (300, 10, [0, 3], "normal", 12, [1, 7], "third"),
    (260, 1, [], "normal", 9, [4], "sqrt"),  # one feature: no draws, every tree scores it
    (260, 1, [0], "normal", 9, [4], "third"),  # the same, tied: its nodes read x to check splits
    (200, 3, [1], "overflow", 8, [3], "third"),
    (40, 2, [0, 1], "one odd", 12, [6], "sqrt"),
])
def test_large_forests_in_lockstep_equal_ranges_and_the_per_node_grower(
        n, p, tied, kind, n_trees, cuts, mode):
    check_forest_case(forest_case(n, p, tied, kind, n_trees, cuts, mode, seed=n + p))


@COMMON
@given(n_trees=st.integers(1, 300), n=st.integers(1, 30_000), p=st.integers(1, 40))
def test_forest_units_cover_its_trees_in_order_within_the_lockstep_cells(n_trees, n, p):
    # fit_trees grows a unit in one batch, so units alone bound its cells
    size = max(1, forest_module.LOCKSTEP_CELLS // (n * p))
    units = RandomForestRegression(n_trees).units(n, p)
    assert [t for trees in units for t in trees] == list(range(n_trees))
    assert all(1 <= len(trees) <= size for trees in units)
    assert len(units) == -(-n_trees // size)


@pytest.mark.parametrize("trees_a_batch", [1, 3])
def test_lockstep_batches_equal_ranges_and_the_per_node_grower(monkeypatch, trees_a_batch):
    # fit() grows units of LOCKSTEP_CELLS cells, each in one lockstep batch,
    # and the case's ranges are cut elsewhere; any unit size gives the same trees.
    n, p = 150, 4
    monkeypatch.setattr(forest_module, "LOCKSTEP_CELLS", trees_a_batch * n * p)
    for mode in sorted(MAX_FEATURES):
        check_forest_case(forest_case(n, p, [1], "normal", 8, [5], mode, seed=trees_a_batch))


@pytest.mark.parametrize("max_features", [None, 2])
def test_untied_trees_in_lockstep_equal_the_per_node_grower(max_features):
    # No column of any tree holds a tie, so no node reads x to check its
    # split positions, while a step's groups still mix node sizes.
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(5, 150, 4)), rng.normal(size=(5, 150))
    trees = [RegressionTree(6, 3, max_features) for _ in range(5)]
    grow(trees, X, y, [np.random.default_rng(t) for t in range(5)])
    for t, tree in enumerate(trees):
        oracle = RegressionTree(6, 3, max_features)
        same_trees(tree, fit_per_node(oracle, X[t], y[t], np.random.default_rng(t)))


def test_tied_tree_whose_keys_pass_32_bits_equals_the_per_node_grower():
    # 65 536 rows put the largest sort key at 2**33: the keys are 64-bit,
    # and the tied column makes each node read x at its ranked rows.
    rng = np.random.default_rng(9)
    X = rng.integers(0, 20, size=(1 << 16, 1)).astype(np.float64)
    y = X[:, 0] + rng.normal(size=1 << 16)
    tree = RegressionTree(max_depth=1).fit(X, y)
    same_trees(tree, fit_per_node(RegressionTree(max_depth=1), X, y))


def test_boosting_stages_equal_per_node_grower_on_300_rows():
    ds = make_friedman(n_rows=300, seed=4)
    X, y = ds.features, ds.target
    model = GradientBoostingRegression(n_estimators=12, learning_rate=0.3,
                                       max_depth=4).fit(X, y)
    pred = np.full(y.shape, float(y.mean()))
    for stage in model.trees_:
        oracle = fit_per_node(RegressionTree(4, BOOSTING_MIN_SAMPLES_LEAF), X, y - pred)
        same_trees(stage, oracle)
        pred += 0.3 * oracle.predict_many(X)


def test_feature_whose_scores_hold_nan_loses_as_with_the_per_node_grower():
    # Σy² is just below the float maximum in feature 0's sorted order (rows 0,
    # 1, 2) and inf in feature 1's (rows 0, 2, 1), so feature 1's scores hold
    # NaN: the per-feature argmin drops it and splits on feature 0.
    X = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
    y = np.array([8.533894350684834e153, -5.618440293253383e153, 8.681882823945961e153])
    with np.errstate(all="ignore"):
        grown = RegressionTree(max_depth=2).fit(X, y)
        oracle = fit_per_node(RegressionTree(max_depth=2), X, y)
    assert grown.feature.tolist() == [0, 0, -1, -1, -1]
    same_trees(grown, oracle)


@pytest.mark.parametrize("max_features", [None, 3])
def test_fit_predict_with_given_ranks_equals_ranking_itself(max_features):
    ds = make_friedman(n_rows=300, seed=5)
    X, y = ds.features, ds.target
    given_ranks, itself = (RegressionTree(max_features=max_features) for _ in range(2))
    fitted = given_ranks.fit_predict(X, y, np.random.default_rng(1), ranks=rank(X))
    assert fitted.tobytes() == itself.fit_predict(X, y, np.random.default_rng(1)).tobytes()
    same_trees(given_ranks, itself)


@COMMON
@given(case=tree_fits(), adjacent=st.booleans())
def test_fit_predict_equals_predict_many_of_the_grown_tree(case, adjacent):
    tree, X, y, seed = case
    if adjacent:  # x in {a, b} whose midpoint rounds up to b: a split there bails out
        a = np.nextafter(1.0, 2.0)
        X[:, 0] = np.where(X[:, 0] % 2 == 0, a, np.nextafter(a, 2.0))
    fitted = tree.fit_predict(X, y, np.random.default_rng(seed))
    assert fitted.tobytes() == tree.predict_many(X).tobytes()


@st.composite
def knn_fits(draw):
    """A fitted k-NN model and its queries: either weighting, data rounded to
    one decimal (repeated rows, and queries at distance 0 from one or more
    training rows), `n_neighbors` up to above the training rows, and at times
    more queries than one chunk."""
    rng = np.random.default_rng(draw(seeds))
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    X = rng.normal(size=(n, p))
    queries = rng.normal(size=(draw(st.sampled_from([1, 37, _QUERY_CHUNK + 301])), p))
    if draw(st.booleans()):
        X = np.round(X, 1)
        hits = rng.random(queries.shape[0]) < 0.5
        queries[hits] = X[rng.integers(0, n, hits.sum())]
        queries = np.round(queries, 1)
    model = KNearestNeighborsRegression(
        n_neighbors=draw(st.integers(1, n + 3)),
        weights=draw(st.sampled_from(["uniform", "inverse_distance"])),
    )
    return model.fit(X, rng.normal(size=n)), queries


@COMMON
@given(case=knn_fits())
def test_knn_weighted_mean_equals_reference(case):
    model, queries = case
    assert model.predict_many(queries).tobytes() == knn_predict_reference(model, queries).tobytes()


# --- supporting invariants ----------------------------------------------------

@COMMON
@given(n=st.integers(4, 60),
       fraction=st.floats(min_value=0.05, max_value=0.95), seed=seeds)
def test_split_is_pure_function_of_inputs(n, fraction, seed):
    import math

    n_test = math.floor(n * fraction)
    if n_test < 1 or n - n_test < 1:
        return
    X = np.arange(float(n))[:, None]
    ds = Dataset("p", X, ("x",), np.zeros(n), "y")
    a = split(ds, fraction, seed)
    b = split(ds, fraction, seed)
    assert a == b
    assert len(a.test_indices) == n_test


@COMMON
@given(values=st.lists(finite, min_size=5, max_size=60, unique=True),
       m=st.integers(2, 12))
def test_grid_increasing_and_inside_column_range(values, m):
    col = np.asarray(values)
    ds = Dataset("g", np.column_stack([col, np.arange(len(values), dtype=float)]),
                 ("x", "pad"), np.zeros(len(values)), "y")
    grid = feature_grid(ds, 0, m)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= col.min() - 1e-12
    assert grid[-1] <= col.max() + 1e-12


@COMMON
@given(curves=curve_sets(min_curves=2), seed=seeds)
def test_curve_order_does_not_change_aggregates(curves, seed):
    reordered = curves[::-1]
    np.testing.assert_allclose(curves.mean(axis=0), reordered.mean(axis=0),
                               rtol=1e-12, atol=1e-12)
