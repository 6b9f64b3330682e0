"""Property-based invariants over random pools, curves, and bands."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashpdp.data import Dataset, feature_grid, split
from rashpdp.learners import GradientBoostingRegression, RandomForestRegression, RegressionTree
from rashpdp.metrics import coverage_rate, mwci
from rashpdp.pdp import PdpCurve, RashomonPdpResult, bootstrap_bands, rashomon_pdp
from rashpdp.rashomon import form_set

from conftest import fit_per_node, stub_pool

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
    return [PdpCurve(0, grid, np.asarray(v), model_id=i) for i, v in enumerate(values)]


def band_result(curves, lo, hi, best=None):
    best_curve = best if best is not None else curves[0]
    return RashomonPdpResult(
        feature_index=0, grid=curves[0].grid, mean=rashomon_pdp(curves),
        ci_lo=lo, ci_hi=hi, best_curve=best_curve, per_model=tuple(curves),
        n_boot=1, alpha=0.05, seed=0,
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
    transformed = [
        PdpCurve(0, cu.grid, a * cu.values + c, model_id=cu.model_id)
        for cu in curves
    ]
    base_mean = rashomon_pdp(curves)
    new_mean = rashomon_pdp(transformed)
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
    m = curves[0].grid.size
    best = PdpCurve(0, curves[0].grid, np.asarray(best_values[:m]), model_id=99)
    cr = coverage_rate(band_result(curves, lo, hi, best=best))
    assert 0.0 <= cr <= 1.0
    assert mwci(band_result(curves, lo, hi, best=best)) >= 0.0


# --- mean lies within the pointwise envelope ---------------------------------

@COMMON
@given(curves=curve_sets())
def test_mean_within_pointwise_envelope(curves):
    mean = rashomon_pdp(curves)
    stacked = np.stack([c.values for c in curves])
    assert np.all(mean >= stacked.min(axis=0) - 1e-12)
    assert np.all(mean <= stacked.max(axis=0) + 1e-12)


# --- closed-interval coverage at band boundaries -----------------------------

@COMMON
@given(curves=curve_sets(min_curves=2), seed=seeds,
       on_upper=st.booleans())
def test_boundary_points_count_as_covered(curves, seed, on_upper):
    lo, hi = bootstrap_bands(curves, 100, 0.1, seed)
    boundary = hi.copy() if on_upper else lo.copy()
    best = PdpCurve(0, curves[0].grid, boundary, model_id=99)
    assert coverage_rate(band_result(curves, lo, hi, best=best)) == 1.0
    outside = hi + 1.0 if on_upper else lo - 1.0
    best_out = PdpCurve(0, curves[0].grid, outside, model_id=99)
    assert coverage_rate(band_result(curves, lo, hi, best=best_out)) == 0.0


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
    m = curves[0].grid.size
    # offsets place the best curve exactly on, clearly inside, or clearly
    # outside the band; ulp-scale gaps would not survive the affine map
    best = PdpCurve(0, curves[0].grid, lo + np.asarray(offsets[:m]), model_id=99)
    base = band_result(curves, lo, hi, best=best)
    moved = band_result(
        curves, a * lo + c, a * hi + c,
        best=PdpCurve(0, curves[0].grid, a * best.values + c, model_id=99),
    )
    assert coverage_rate(moved) == coverage_rate(base)
    assert mwci(moved) == pytest.approx(a * mwci(base), rel=1e-9, abs=1e-12)


# --- tree profiles per threshold interval equal tiled prediction ------------

# Small integer-valued columns make repeated values and ties with thresholds common.
levels = st.integers(0, 6).map(float)


@st.composite
def tree_models(draw):
    """A fitted tree-family model, the rows it profiles over and a feature
    index; the last column is constant, so no tree ever splits on it."""
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
        model = RandomForestRegression(n_estimators=draw(st.integers(1, 4)),
                                       max_features=draw(st.sampled_from(["sqrt", "third"])),
                                       seed=draw(seeds)).fit(X, y)
    else:
        model = GradientBoostingRegression(n_estimators=draw(st.integers(1, 4)),
                                           learning_rate=draw(st.floats(0.05, 1.0)),
                                           max_depth=draw(st.integers(1, 3))).fit(X, y)
    base = X[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    return model, base, draw(st.integers(0, p))


@COMMON
@given(fitted=tree_models(), extra=st.lists(st.floats(-1.0, 8.0), max_size=6),
       one_point=st.booleans())
def test_predict_grid_equals_tiled_prediction(fitted, extra, one_point):
    model, base, j = fitted
    trees = getattr(model, "trees_", [model])
    cuts = np.concatenate([t.threshold[t.feature == j] for t in trees])
    # every threshold itself, values below the smallest and above the largest
    grid = np.unique(np.concatenate([cuts, cuts - 1.0, cuts + 1.0, [-1.0, 8.0], extra]))
    if one_point:
        grid = grid[[len(grid) // 2]]
    tiled = np.tile(base, (grid.size, 1))
    tiled[:, j] = np.repeat(grid, base.shape[0])
    assert model.predict_grid(base, j, grid).tobytes() == model.predict_many(tiled).tobytes()


def _walk(tree, x):
    """One row's prediction by following the node arrays from the root."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


@COMMON
@given(fitted=tree_models(), values=st.lists(st.floats(-1.0, 8.0), max_size=6))
def test_predict_many_equals_per_row_walk(fitted, values):
    model, base, j = fitted
    one_leaf = RegressionTree().fit(base, np.zeros(len(base)))
    X = np.tile(base, (len(values), 1))  # no rows when values is empty
    X[:, j] = np.repeat(values, base.shape[0])
    for tree in [*getattr(model, "trees_", [model]), one_leaf]:
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
    reordered = list(reversed(curves))
    np.testing.assert_allclose(rashomon_pdp(curves), rashomon_pdp(reordered),
                               rtol=1e-12, atol=1e-12)
