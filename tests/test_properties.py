"""Property-based invariants over random pools, curves, and bands."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashpdp.data import Dataset, feature_grid, split
from rashpdp.learners import (GradientBoostingRegression, KNearestNeighborsRegression,
                              RandomForestRegression, RegressionTree)
from rashpdp.learners.knn import _QUERY_CHUNK
from rashpdp.learners.tree import GRID_CHUNK
from rashpdp.metrics import coverage_rate, mwci
from rashpdp.pdp import RashomonPdpResult, bootstrap_bands
from rashpdp.rashomon import form_set

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


# --- presorted growth equals the per-node grower -----------------------------

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
def test_presorted_fit_equals_per_node_grower(case):
    tree, X, y, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    oracle = fit_per_node(copy.copy(tree), X, y, oracle_rng)
    grown = tree.fit(X, y, rng)
    for name in RegressionTree.FITTED:
        assert getattr(grown, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert rng.random() == oracle_rng.random()


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
