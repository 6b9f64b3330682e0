"""Profiles, aggregation, and bootstrap bands, checked against independent
oracles where the arithmetic is non-trivial."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from rashpdp.data import Dataset, split
from rashpdp.learners import RegressionTree, SearchBudget, train_pool
from rashpdp.pdp import (
    PdpCurve,
    bootstrap_bands,
    pdp_single,
    rashomon_pdp,
    rashomon_profile,
    write_profile_csv,
    _percentile_band,
)
from rashpdp.rashomon import form_set

from conftest import ConstantPredictor, LinearPredictor, stub_model


def curve(values, grid=None, model_id=None):
    values = np.asarray(values, dtype=np.float64)
    if grid is None:
        grid = np.arange(values.size, dtype=np.float64)
    return PdpCurve(feature_index=0, grid=np.asarray(grid, dtype=np.float64),
                    values=values, model_id=model_id)


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
        np.testing.assert_array_equal(c.values, [2.5, 2.5, 2.5])
        assert c.model_id == 0

    def test_linear_model_gives_affine_curve(self, tiny_dataset):
        # f(x) = 3*x0 + 2*x1 - 1: profile over x0 is 3*g + mean(2*x1 - 1)
        model = stub_model(1, 1.0, LinearPredictor([3.0, 2.0, 0.0], -1.0))
        rows = np.arange(tiny_dataset.n_rows)
        grid = np.array([-2.0, 0.5, 4.0])
        c = pdp_single(model, tiny_dataset, rows, 0, grid)
        offset = np.mean(2.0 * tiny_dataset.features[rows, 1] - 1.0)
        np.testing.assert_allclose(c.values, 3.0 * grid + offset, rtol=1e-12)

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
        np.testing.assert_array_equal(c0.values, [0.0, 0.0, 10.0])
        # profiling the unused feature leaves each row at its own leaf:
        # hand average = (0 + 10) / 2 at every grid point
        c1 = pdp_single(model, ds, np.array([0, 1]), 1, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(c1.values, [5.0, 5.0, 5.0])

    @pytest.mark.parametrize("grid_output, message", [
        (lambda size: np.full(size, np.nan), "non-finite predictions"),
        (lambda size: np.zeros(size - 1), "predictor returned shape"),
    ], ids=["nan", "short"])
    def test_predict_grid_output_is_checked(self, tiny_dataset, grid_output, message):
        class GridPredictor(ConstantPredictor):
            def predict_grid(self, base, j, grid):
                return grid_output(len(grid) * len(base))

        model = stub_model(0, 1.0, GridPredictor(0.0))
        with pytest.raises(ValueError, match=message):
            pdp_single(model, tiny_dataset, np.arange(4), 0, np.array([0.0, 1.0]))

    def test_empty_rows_rejected(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="at least one row"):
            pdp_single(model, tiny_dataset, np.array([], dtype=int), 0, np.array([0.0, 1.0]))

    def test_feature_index_out_of_range(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            pdp_single(model, tiny_dataset, np.array([0]), 9, np.array([0.0, 1.0]))

    def test_non_increasing_grid_rejected(self, tiny_dataset):
        model = stub_model(0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            pdp_single(model, tiny_dataset, np.array([0]), 0, np.array([1.0, 1.0]))


class TestRashomonPdp:
    def test_single_curve_unchanged(self):
        c = curve([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(rashomon_pdp([c]), c.values)

    def test_two_constants_average_to_half(self):
        out = rashomon_pdp([curve([0.0, 0.0]), curve([1.0, 1.0])])
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_three_curve_mean(self):
        out = rashomon_pdp([curve([1.0, 2.0]), curve([3.0, 4.0]), curve([5.0, 6.0])])
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical grid"):
            rashomon_pdp([curve([1.0, 2.0]), curve([1.0, 2.0], grid=[0.0, 5.0])])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rashomon_pdp([])


class TestBootstrapBands:
    def test_single_curve_degenerates_to_the_curve(self):
        c = curve([4.0, 5.0, 6.0])
        lo, hi = bootstrap_bands([c], n_boot=64, alpha=0.05, seed=3)
        np.testing.assert_array_equal(lo, c.values)
        np.testing.assert_array_equal(hi, c.values)

    def test_identical_curves_give_zero_width(self):
        cs = [curve([1.0, -2.0, 0.5]) for _ in range(4)]
        lo, hi = bootstrap_bands(cs, n_boot=128, alpha=0.1, seed=0)
        np.testing.assert_array_equal(lo, hi)

    def test_large_b_two_constant_curves_covers_both(self):
        cs = [curve([0.0, 0.0]), curve([1.0, 1.0])]
        lo, hi = bootstrap_bands(cs, n_boot=4000, alpha=0.05, seed=9)
        # replicate means are {0, .5, 1} with weights {1/4, 1/2, 1/4}; a 95%
        # band over 4000 draws reaches both extremes
        assert lo[0] == 0.0 and hi[0] == 1.0

    def test_band_matches_oracle_for_drawn_replicates(self):
        # reproduce the documented draw procedure, then check the quantile
        # step against the independent oracle
        cs = [curve([0.0, 2.0], model_id=0), curve([1.0, 4.0], model_id=1),
              curve([3.0, 0.0], model_id=2)]
        stacked = np.stack([c.values for c in cs])
        for seed in range(12):
            lo, hi = bootstrap_bands(cs, n_boot=7, alpha=0.1, seed=seed)
            idx = np.random.default_rng(seed).integers(0, 3, size=(7, 3))
            means = stacked[idx].mean(axis=1)
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
        cs = [curve([0.0], grid=[0.0]), curve([1.0], grid=[0.0])]
        for seed in range(40):
            lo, hi = bootstrap_bands(cs, n_boot=5, alpha=0.05, seed=seed)
            assert (lo[0], hi[0]) in possible

    def test_deterministic_in_seed(self):
        cs = [curve([0.0, 1.0]), curve([2.0, 3.0])]
        a = bootstrap_bands(cs, n_boot=100, alpha=0.05, seed=42)
        b = bootstrap_bands(cs, n_boot=100, alpha=0.05, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            bootstrap_bands([curve([1.0])], n_boot=4, alpha=1.5, seed=0)


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
        result = rashomon_profile(rset, ds, sp, 0, 10, n_boot=50, alpha=0.05, seed=1)
        np.testing.assert_array_equal(result.mean, result.best_curve.values)
        np.testing.assert_array_equal(result.ci_lo, result.ci_hi)

    def test_result_is_complete_and_consistent(self, trained):
        ds, sp, pool = trained
        rset = form_set(pool, 5.0)
        result = rashomon_profile(rset, ds, sp, 1, 8, n_boot=100, alpha=0.1, seed=3)
        assert len(result.per_model) == rset.rss
        ids = [c.model_id for c in result.per_model]
        assert ids == sorted(ids)
        np.testing.assert_array_equal(
            result.mean, rashomon_pdp(list(result.per_model))
        )
        assert result.best_curve.model_id == rset.best_id
        assert np.all(result.ci_lo <= result.ci_hi)
        assert result.n_boot == 100 and result.alpha == 0.1 and result.seed == 3

    def test_pool_order_does_not_matter(self, trained):
        ds, sp, pool = trained
        forward = rashomon_profile(form_set(pool, 5.0), ds, sp, 2, 6,
                                   n_boot=40, alpha=0.05, seed=5)
        backward = rashomon_profile(form_set(list(reversed(pool)), 5.0), ds, sp, 2, 6,
                                    n_boot=40, alpha=0.05, seed=5)
        np.testing.assert_array_equal(forward.mean, backward.mean)
        np.testing.assert_array_equal(forward.ci_lo, backward.ci_lo)


class TestProfileCsv:
    def test_values_round_trip_exactly(self, tmp_path):
        cs = [curve([0.123456789012345678, 2.0], model_id=3),
              curve([1.0, 1e-17], model_id=7)]
        from rashpdp.pdp import RashomonPdpResult

        lo, hi = bootstrap_bands(cs, n_boot=50, alpha=0.05, seed=0)
        result = RashomonPdpResult(
            feature_index=0, grid=cs[0].grid, mean=rashomon_pdp(cs),
            ci_lo=lo, ci_hi=hi, best_curve=cs[0], per_model=tuple(cs),
            n_boot=50, alpha=0.05, seed=0, feature_name="x",
        )
        path = tmp_path / "profile.csv"
        write_profile_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        assert header == ["grid", "best", "mean", "ci_lo", "ci_hi", "model_3", "model_7"]
        for i, line in enumerate(lines[1:]):
            fields = [float(v) for v in line.split(",")]
            assert fields[0] == result.grid[i]
            assert fields[1] == result.best_curve.values[i]
            assert fields[2] == result.mean[i]
            assert fields[3] == result.ci_lo[i]
            assert fields[4] == result.ci_hi[i]
            assert fields[5] == cs[0].values[i]
            assert fields[6] == cs[1].values[i]
