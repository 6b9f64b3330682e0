"""Profiles, aggregation, and bootstrap bands, checked against independent
oracles where the arithmetic is non-trivial."""

from __future__ import annotations

import itertools
import math
import multiprocessing

import numpy as np
import pytest

from rashpdp.data import Dataset, feature_grid, split
from rashpdp.learners import (
    FAMILIES,
    RandomForestRegression,
    RegressionTree,
    SearchBudget,
    train_pool,
)
from rashpdp.learners.tree import TreeEnsemble
from rashpdp.pdp import (
    RashomonPdpResult,
    bootstrap_bands,
    member_profiles,
    pdp_single,
    rashomon_profile,
    write_profile_csv,
    _percentile_band,
)
from rashpdp.rashomon import form_set

from conftest import ConstantPredictor, LinearPredictor, stub_model


def curves(*rows):
    """Member-profile matrix, one row per model."""
    return np.array(rows, dtype=np.float64)


def profile_one(rset, ds, sp, feature_index, grid_size, **kwargs):
    """The Rashomon profile of one feature on its training-row grid."""
    grid = feature_grid(ds, feature_index, grid_size, rows=sp.train_indices)
    return rashomon_profile(rset, ds, sp, {feature_index: grid}, **kwargs)[0]


# ---------------------------------------------------------------------------
# independent type-7 quantile oracle, written from the definition

def type7_quantile(values, p):
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] * (1 - (h - lo)) + s[hi] * (h - lo)


def oracle_band(replicate_means, alpha):
    return (type7_quantile(replicate_means, alpha / 2),
            type7_quantile(replicate_means, 1 - alpha / 2))


class TestPdpSingle:
    def test_constant_model_gives_flat_curve(self, tiny_dataset):
        model = stub_model(0, 1.0, ConstantPredictor(2.5))
        grid = np.array([-1.0, 0.0, 1.0])
        c = pdp_single(model, tiny_dataset, np.arange(tiny_dataset.n_rows), 0, grid)
        np.testing.assert_array_equal(c, [2.5, 2.5, 2.5])

    def test_linear_model_gives_affine_curve(self, tiny_dataset):
        # f(x) = 3*x0 + 2*x1 - 1: profile over x0 is 3*g + mean(2*x1 - 1)
        model = stub_model(1, 1.0, LinearPredictor([3.0, 2.0, 0.0], -1.0))
        rows = np.arange(tiny_dataset.n_rows)
        grid = np.array([-2.0, 0.5, 4.0])
        c = pdp_single(model, tiny_dataset, rows, 0, grid)
        offset = np.mean(2.0 * tiny_dataset.features[rows, 1] - 1.0)
        np.testing.assert_allclose(c, 3.0 * grid + offset, rtol=1e-12)

    def test_two_row_stump_hand_average(self):
        # stump on feature 0 splits at 5 with leaves 0 and 10; profiling
        # feature 0 replaces both rows' value, so each grid point averages
        # two identical leaf outputs
        X = np.array([[0.0, 0.0], [10.0, 1.0]])
        y = np.array([0.0, 10.0])
        ds = Dataset("stump", X, ("x0", "x1"), y, "y")
        tree = RegressionTree(max_depth=1).fit(X, y)
        model = stub_model(0, 0.0, tree)
        c0 = pdp_single(model, ds, np.array([0, 1]), 0, np.array([1.0, 5.0, 9.0]))
        np.testing.assert_array_equal(c0, [0.0, 0.0, 10.0])
        # profiling the unused feature leaves each row at its own leaf:
        # hand average = (0 + 10) / 2 at every grid point
        c1 = pdp_single(model, ds, np.array([0, 1]), 1, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(c1, [5.0, 5.0, 5.0])

    @pytest.mark.parametrize("grid_output, message", [
        (lambda sizes: [np.full(size, np.nan) for size in sizes], "non-finite predictions"),
        (lambda sizes: [np.zeros(size - 1) for size in sizes], "predictor returned shape"),
        (lambda sizes: [np.zeros(size) for size in sizes[:-1]], "longer than argument 1"),
    ], ids=["nan", "short", "one-vector-too-few"])
    def test_predict_grid_output_is_checked(self, tiny_dataset, grid_output, message):
        class GridPredictor(ConstantPredictor):
            def predict_grid(self, base, grids):
                return grid_output([len(grid) * len(base) for grid in grids.values()])

        model = stub_model(0, 1.0, GridPredictor(0.0))
        grids = {0: np.array([0.0, 1.0]), 2: np.array([0.5, 1.5, 2.5])}
        with pytest.raises(ValueError, match=message):
            member_profiles(model, tiny_dataset, np.arange(4), grids)

    def test_empty_rows_rejected(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="at least one row"):
            pdp_single(model, tiny_dataset, np.array([], dtype=int), 0, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("rows, message", [
        ([-1], "row index -1 out of range"), ([0, 40], "row index 40 out of range"),
        ([1.7], "each an integer"), ([1.0, 2.0], "each an integer"),
        ([True, False], "each an integer"), ([], "at least one row"),
        ([[0, 1]], "at least one row"),
    ], ids=["negative", "too-large", "fraction", "whole-float", "bool", "empty", "2-d"])
    @pytest.mark.parametrize("tree", [False, True], ids=["tiled", "grid-walk"])
    def test_rows_that_are_not_row_indices_rejected(self, tiny_dataset, rows, message, tree):
        # -1 used to profile the last row, and 1.7 row 1
        predictor = (RegressionTree(max_depth=2).fit(tiny_dataset.features, tiny_dataset.target)
                     if tree else LinearPredictor([1.0, 0.0, 0.0], 0.0))
        with pytest.raises(ValueError, match=message):
            pdp_single(stub_model(0, 1.0, predictor), tiny_dataset, rows, 0,
                       np.array([0.0, 1.0]))

    def test_no_features_give_no_profiles(self, tiny_dataset):
        rows = np.arange(tiny_dataset.n_rows)
        forest = RandomForestRegression(n_estimators=3, seed=0).fit(tiny_dataset.features,
                                                                   tiny_dataset.target)
        for predictor in (ConstantPredictor(1.0), forest.trees_[0], forest):
            assert member_profiles(stub_model(0, 1.0, predictor), tiny_dataset, rows, {}) == []
        rset = form_set([stub_model(0, 1.0, forest), stub_model(1, 1.0)], 0.5)
        assert rashomon_profile(rset, tiny_dataset, split(tiny_dataset, 0.25, seed=2), {}) == []

    def test_feature_index_out_of_range(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            pdp_single(model, tiny_dataset, np.array([0]), 9, np.array([0.0, 1.0]))

    def test_non_increasing_grid_rejected(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            pdp_single(model, tiny_dataset, np.array([0]), 0, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("grid", [[0.1, np.nan, 0.9], [0.1, 0.9, np.inf],
                                      [-np.inf, 0.1, 0.9]], ids=["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected(self, tiny_dataset, grid):
        # each passes the strictly-increasing test: NaN compares false, inf is a real step
        forest = RandomForestRegression(n_estimators=3, seed=0).fit(tiny_dataset.features,
                                                                   tiny_dataset.target)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            pdp_single(stub_model(0, 1.0, forest), tiny_dataset, np.arange(4), 0, np.array(grid))


class TestRashomonPdp:
    """The Rashomon profile is the pointwise mean of the member profiles."""

    @staticmethod
    def profile(ds, predictors):
        pool = [stub_model(i, 1.0, p) for i, p in enumerate(predictors)]
        return profile_one(form_set(pool, 0.5), ds, split(ds, 0.25, seed=2), 0, 4,
                           n_boot=20, alpha=0.05, seed=1)

    def test_single_curve_unchanged(self, tiny_dataset):
        result = self.profile(tiny_dataset, [LinearPredictor([2.0, 0.0, 0.0], 1.0)])
        np.testing.assert_array_equal(result.mean, result.curves[0])

    def test_two_constants_average_to_half(self, tiny_dataset):
        result = self.profile(tiny_dataset, [ConstantPredictor(0.0), ConstantPredictor(1.0)])
        np.testing.assert_array_equal(result.mean, [0.5] * 4)

    def test_three_curve_mean(self, tiny_dataset):
        result = self.profile(tiny_dataset, [LinearPredictor([a, 0.0, 0.0], b)
                                             for a, b in ((1.0, 0.0), (3.0, 1.0), (5.0, 2.0))])
        np.testing.assert_allclose(result.mean, 3.0 * result.grid + 1.0, rtol=1e-12)


class TestBootstrapBands:
    def test_single_curve_degenerates_to_the_curve(self):
        cs = curves([4.0, 5.0, 6.0])
        lo, hi = bootstrap_bands(cs, n_boot=64, alpha=0.05, seed=3)
        np.testing.assert_array_equal(lo, cs[0])
        np.testing.assert_array_equal(hi, cs[0])

    @pytest.mark.parametrize("empty", [np.empty((0, 3)), np.array([])], ids=["no-rows", "1-d"])
    def test_empty_input_rejected(self, empty):
        with pytest.raises(ValueError, match="at least one"):
            bootstrap_bands(empty, n_boot=4, alpha=0.05, seed=0)

    def test_identical_curves_give_zero_width(self):
        cs = curves(*[[1.0, -2.0, 0.5]] * 4)
        lo, hi = bootstrap_bands(cs, n_boot=128, alpha=0.1, seed=0)
        np.testing.assert_array_equal(lo, hi)

    def test_large_b_two_constant_curves_covers_both(self):
        cs = curves([0.0, 0.0], [1.0, 1.0])
        lo, hi = bootstrap_bands(cs, n_boot=4000, alpha=0.05, seed=9)
        # replicate means are {0, .5, 1} with weights {1/4, 1/2, 1/4}; a 95%
        # band over 4000 draws reaches both extremes
        assert lo[0] == 0.0 and hi[0] == 1.0

    def test_band_matches_oracle_for_drawn_replicates(self):
        # reproduce the documented draw procedure, then check the quantile
        # step against the independent oracle
        cs = curves([0.0, 2.0], [1.0, 4.0], [3.0, 0.0])
        for seed in range(12):
            lo, hi = bootstrap_bands(cs, n_boot=7, alpha=0.1, seed=seed)
            idx = np.random.default_rng(seed).integers(0, 3, size=(7, 3))
            means = cs[idx].mean(axis=1)
            for col in range(2):
                olo, ohi = oracle_band(list(means[:, col]), 0.1)
                assert lo[col] == pytest.approx(olo, abs=1e-15)
                assert hi[col] == pytest.approx(ohi, abs=1e-15)

    @pytest.mark.parametrize("n_curves,values", [(2, (0.0, 1.0)), (3, (0.0, 1.0, 2.0))])
    @pytest.mark.parametrize("n_boot", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_exhaustive_enumeration_of_replicate_means(self, n_curves, values, n_boot, alpha):
        # every possible multiset of replicate means (the only thing the
        # quantile step can see) must map to the oracle band exactly
        per_replicate = sorted({
            sum(draw) / n_curves
            for draw in itertools.product(values, repeat=n_curves)
        })
        for means in itertools.combinations_with_replacement(per_replicate, n_boot):
            arr = np.asarray(means)[:, None]
            lo, hi = _percentile_band(arr, alpha)
            olo, ohi = oracle_band(list(means), alpha)
            assert lo[0] == pytest.approx(olo, abs=1e-15)
            assert hi[0] == pytest.approx(ohi, abs=1e-15)

    def test_implementation_band_lies_in_enumerated_support(self):
        values = (0.0, 1.0)
        per_replicate = sorted({
            sum(d) / 2 for d in itertools.product(values, repeat=2)
        })
        possible = set()
        for means in itertools.combinations_with_replacement(per_replicate, 5):
            possible.add(oracle_band(list(means), 0.05))
        cs = curves([0.0], [1.0])
        for seed in range(40):
            lo, hi = bootstrap_bands(cs, n_boot=5, alpha=0.05, seed=seed)
            assert (lo[0], hi[0]) in possible

    def test_deterministic_in_seed(self):
        cs = curves([0.0, 1.0], [2.0, 3.0])
        a = bootstrap_bands(cs, n_boot=100, alpha=0.05, seed=42)
        b = bootstrap_bands(cs, n_boot=100, alpha=0.05, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            bootstrap_bands(curves([1.0]), n_boot=4, alpha=1.5, seed=0)


class TestRashomonProfile:
    @pytest.fixture()
    def trained(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=2)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=6, seed=8))
        return tiny_dataset, sp, pool

    def test_singleton_set_collapses_bands_onto_best_curve(self, trained):
        ds, sp, pool = trained
        rset = form_set(pool, 1e-9)
        if rset.rss != 1:
            pytest.skip("pool happens to have exact ties")
        result = profile_one(rset, ds, sp, 0, 10, n_boot=50, alpha=0.05, seed=1)
        np.testing.assert_array_equal(result.mean, result.best_values)
        np.testing.assert_array_equal(result.ci_lo, result.ci_hi)

    def test_result_is_complete_and_consistent(self, trained):
        ds, sp, pool = trained
        rset = form_set(pool, 5.0)
        result = profile_one(rset, ds, sp, 1, 8, n_boot=100, alpha=0.1, seed=3)
        assert result.curves.shape == (rset.rss, result.grid.size)
        assert list(result.model_ids) == sorted(rset.member_ids)
        np.testing.assert_array_equal(result.mean, result.curves.mean(axis=0))
        assert result.model_ids[result.best] == rset.best_id
        np.testing.assert_array_equal(result.best_values, result.curves[result.best])
        assert np.all(result.ci_lo <= result.ci_hi)
        assert result.n_boot == 100 and result.alpha == 0.1 and result.seed == 3

    def test_pool_order_does_not_matter(self, trained):
        ds, sp, pool = trained
        forward = profile_one(form_set(pool, 5.0), ds, sp, 2, 6,
                              n_boot=40, alpha=0.05, seed=5)
        backward = profile_one(form_set(list(reversed(pool)), 5.0), ds, sp, 2, 6,
                               n_boot=40, alpha=0.05, seed=5)
        np.testing.assert_array_equal(forward.mean, backward.mean)
        np.testing.assert_array_equal(forward.ci_lo, backward.ci_lo)


class TestSeveralFeatures:
    """One member pass over several features gives the one-feature profiles."""

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)], ids=["ascending", "shuffled"])
    def test_equals_one_feature_calls(self, tiny_dataset, order):
        ds = tiny_dataset
        sp = split(ds, 0.25, seed=2)
        pool = train_pool(ds, sp, SearchBudget(max_models=6, seed=8))
        rset = form_set(pool, 5.0)
        grids = {j: feature_grid(ds, j, 7, rows=sp.train_indices) for j in order}
        results = rashomon_profile(rset, ds, sp, grids, n_boot=60, alpha=0.1, seed=4)
        assert [r.feature_index for r in results] == list(order)
        for result in results:
            one = profile_one(rset, ds, sp, result.feature_index, 7,
                              n_boot=60, alpha=0.1, seed=4)
            assert result.feature_name == one.feature_name
            for name in ("grid", "curves", "mean", "ci_lo", "ci_hi"):
                assert getattr(result, name).tobytes() == getattr(one, name).tobytes(), name

    def test_tree_walks_follow_each_row_path(self, tiny_dataset, monkeypatch):
        ds = tiny_dataset
        sp = split(ds, 0.25, seed=2)
        rows = np.asarray(sp.train_indices)
        X = ds.features[rows].copy()
        X[:, 2] = 0.0  # constant in training, so no tree tests feature 2
        forest = RandomForestRegression(n_estimators=6, seed=3).fit(X, ds.target[rows])
        assert all(not (tree.feature == 2).any() for tree in forest.trees_)
        grids = {j: feature_grid(ds, j, 6, rows=sp.train_indices) for j in range(3)}
        base = ds.features[rows]
        for tree in forest.trees_:  # each row's base leaf at every grid point
            leaves = np.tile(tree.predict_many(base), grids[2].size)
            assert tree.predict_grid(base, {2: grids[2]})[0].tobytes() == leaves.tobytes()
        flat = np.full(grids[2].size, forest.predict_many(base).mean())

        calls = []  # rows of every RegressionTree.predict_many call
        predict_many = RegressionTree.predict_many

        def spy(tree, matrix):
            calls.append(len(matrix))
            return predict_many(tree, matrix)

        monkeypatch.setattr(RegressionTree, "predict_many", spy)
        results = rashomon_profile(form_set([stub_model(0, 1.0, forest)], 0.5), ds, sp, grids,
                                   n_boot=10, alpha=0.1, seed=0)
        assert calls == []  # no tiled rows: the grid walk follows each row's own path
        assert results[2].curves[0].tobytes() == flat.tobytes()


class TestForkedMemberPasses:
    """Under `workers` > 1 each member's pass runs in a forked worker, and the
    results are the bytes of the passes run in this process."""

    @pytest.fixture()
    def every_family(self, tiny_dataset):
        ds = tiny_dataset
        sp = split(ds, 0.25, seed=1)
        pool = train_pool(ds, sp, SearchBudget(max_models=10, seed=13))
        assert {m.family for m in pool} == set(FAMILIES)
        assert {"uniform", "inverse_distance"} == {
            m.hyperparameters["weights"] for m in pool if m.family == "KNearestNeighbors"}
        rset = form_set(pool, 10.0)
        assert rset.rss == len(pool)
        grids = {j: feature_grid(ds, j, 9, rows=sp.train_indices) for j in (2, 0, 1)}
        return ds, sp, rset, grids

    def test_two_workers_give_the_bytes_of_one(self, every_family):
        ds, sp, rset, grids = every_family
        serial = rashomon_profile(rset, ds, sp, grids, n_boot=50, alpha=0.1, seed=4)
        forked = rashomon_profile(rset, ds, sp, grids, n_boot=50, alpha=0.1, seed=4, workers=2)
        assert multiprocessing.active_children() == []
        assert len(forked) == len(serial) == len(grids)
        for one, two in zip(serial, forked):
            assert two.model_ids == one.model_ids and two.best == one.best
            for name in ("grid", "curves", "mean", "ci_lo", "ci_hi"):
                assert getattr(two, name).tobytes() == getattr(one, name).tobytes(), name

    @pytest.mark.parametrize("epsilon, workers", [(1e-9, 4), (10.0, 1)],
                             ids=["singleton-set", "one-worker"])
    def test_no_executor_without_two_members_and_two_workers(self, every_family, monkeypatch,
                                                             epsilon, workers):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        ds, sp, rset, grids = every_family
        rset = form_set(list(rset.members), epsilon)
        results = rashomon_profile(rset, ds, sp, grids, n_boot=20, seed=1, workers=workers)
        assert [r.curves.shape[0] for r in results] == [rset.rss] * len(grids)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_member_pass_error_surfaces_unchanged(self, every_family, monkeypatch, workers):
        # every tree member's pass fails; ridge (model 0) profiles first
        monkeypatch.setattr(TreeEnsemble, "predict_grid",
                            lambda self, base, grids: [np.full(len(base) * g.size, np.nan)
                                                       for g in grids.values()])
        ds, sp, rset, grids = every_family
        with pytest.raises(ValueError,
                           match=r"^model 1 \(DecisionTree\) produced non-finite predictions$"):
            rashomon_profile(rset, ds, sp, grids, n_boot=20, seed=1, workers=workers)
        assert multiprocessing.active_children() == []


def make_result(cs, model_ids=(3, 7), best=0, **changes):
    lo, hi = bootstrap_bands(cs, n_boot=50, alpha=0.05, seed=0)
    fields = dict(feature_index=0, grid=np.arange(cs.shape[1], dtype=np.float64),
                  curves=cs, model_ids=model_ids, best=best, ci_lo=lo, ci_hi=hi,
                  n_boot=50, alpha=0.05, seed=0, feature_name="x")
    return RashomonPdpResult(**{**fields, **changes})


class TestRashomonPdpResult:
    @pytest.mark.parametrize("changes, message", [
        ({"model_ids": (3,)}, "one row of the grid's length 2 per model id"),
        ({"curves": np.ones((2, 3))}, "one row of the grid's length 2 per model id"),
        ({"curves": np.empty((0, 2)), "model_ids": ()}, "at least one row"),
        ({"curves": np.array([[0.0, np.inf], [1.0, 1.0]])}, "must be finite"),
        ({"best": 2}, "best row 2 out of range for 2 curves"),
        ({"best": -1}, "best row -1 out of range"),
        ({"ci_lo": np.ones(2), "ci_hi": np.zeros(2)}, "lower band"),
    ], ids=["ids", "grid-length", "empty", "non-finite", "best-past-end", "best-negative",
            "band-order"])
    def test_inconsistent_result_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            make_result(curves([0.0, 1.0], [2.0, 3.0]), **changes)

    def test_mean_is_computed_from_the_curves(self):
        cs = curves([0.1, 0.7, 1.3], [0.2, 0.3, 2.9], [1e-17, 5.0, -0.4])
        result = make_result(cs, model_ids=(1, 4, 6))
        assert result.mean.tobytes() == cs.mean(axis=0).tobytes()
        with pytest.raises(TypeError, match="mean"):
            make_result(cs, model_ids=(1, 4, 6), mean=cs[0])

    def test_curves_are_read_only(self):
        result = make_result(curves([0.0, 1.0], [2.0, 3.0]))
        with pytest.raises(ValueError, match="read-only"):
            result.curves[0, 0] = 5.0


class TestProfileCsv:
    def test_values_round_trip_exactly(self, tmp_path):
        cs = curves([0.123456789012345678, 2.0], [1.0, 1e-17])
        result = make_result(cs, best=1)
        path = tmp_path / "profile.csv"
        write_profile_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        assert header == ["grid", "best", "mean", "ci_lo", "ci_hi", "model_3", "model_7"]
        for i, line in enumerate(lines[1:]):
            fields = [float(v) for v in line.split(",")]
            assert fields[0] == result.grid[i]
            assert fields[1] == cs[1, i]
            assert fields[2] == result.mean[i]
            assert fields[3] == result.ci_lo[i]
            assert fields[4] == result.ci_hi[i]
            assert fields[5] == cs[0, i]
            assert fields[6] == cs[1, i]
