"""Dataset loading, splitting, and grid construction."""

from __future__ import annotations

import codecs

import numpy as np
import pytest

from rashpdp.data import Dataset, Split, feature_grid, load_csv, save_csv, split
from rashpdp.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_three_row_parse(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y")
        assert ds.n_rows == 3
        assert ds.n_features == 2
        assert ds.feature_names == ("a", "b")
        assert ds.target_name == "y"
        np.testing.assert_array_equal(ds.target, [3.0, 6.0, 9.0])
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 4.0, 7.0])

    def test_target_extracted_from_middle_column(self, tmp_path):
        path = write(tmp_path, "a,y,b\n1,3,2\n4,6,5\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ds.target, [3.0, 6.0])

    def test_non_numeric_feature_column_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,red,3\n4,blue,6\n")
        with pytest.raises(DataError, match="non-numeric feature column 'b'"):
            load_csv(path, "y")

    def test_nan_target_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n1,3\n4,nan\n")
        with pytest.raises(DataError, match="invalid target value"):
            load_csv(path, "y")

    def test_inf_feature_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n1,3\ninf,6\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, "y")

    def test_missing_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,,3\n4,5,6\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "y")

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="target column 'y'"):
            load_csv(path, "y")

    def test_fewer_than_two_rows(self, tmp_path):
        path = write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(DataError, match="fields"):
            load_csv(path, "y")

    def test_duplicate_header_rejected(self, tmp_path):
        path = write(tmp_path, "a,a,y\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, "y")

    @pytest.mark.parametrize("text", ["y,a\n1,2\n3,4\n", "a,y\n2,1\n4,3\n"],
                             ids=["target first", "feature first"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, text):
        # as a spreadsheet's "CSV UTF-8" export writes it
        plain = load_csv(write(tmp_path, text), "y", name="d")
        marked_path = tmp_path / "marked.csv"
        marked_path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        marked = load_csv(marked_path, "y", name="d")
        assert (marked.feature_names, marked.target_name) == (("a",), "y")
        assert marked.features.tobytes() == plain.features.tobytes()
        assert marked.target.tobytes() == plain.target.tobytes()

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            name="rt",
            features=rng.normal(size=(17, 4)) * 1e3,
            feature_names=("p", "q", "r", "s"),
            target=rng.normal(size=17),
            target_name="t",
        )
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, "t", name="rt")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.target, ds.target)
        assert back.feature_names == ds.feature_names


class TestSplit:
    def test_sizes_and_determinism(self, tiny_dataset):
        # n=40 here; the contract is |test| = floor(n * fraction)
        sp1 = split(tiny_dataset, 0.2, seed=7)
        sp2 = split(tiny_dataset, 0.2, seed=7)
        assert len(sp1.test_indices) == 8
        assert len(sp1.train_indices) == 32
        assert sp1 == sp2

    def test_ten_rows_point_two(self):
        ds = Dataset("ten", np.arange(10.0)[:, None], ("x",), np.arange(10.0), "y")
        sp = split(ds, 0.2, seed=7)
        assert len(sp.train_indices) == 8
        assert len(sp.test_indices) == 2
        assert sp == split(ds, 0.2, seed=7)

    def test_two_rows_half(self):
        ds = Dataset("two", np.array([[0.0], [1.0]]), ("x",), np.array([0.0, 1.0]), "y")
        sp = split(ds, 0.5, seed=0)
        assert len(sp.train_indices) == 1
        assert len(sp.test_indices) == 1

    def test_heavy_fraction_still_valid(self):
        ds = Dataset("five", np.arange(5.0)[:, None], ("x",), np.arange(5.0), "y")
        sp = split(ds, 0.9, seed=0)
        assert len(sp.test_indices) == 4
        assert len(sp.train_indices) == 1

    def test_single_row_dataset_rejected(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            Dataset("one", np.array([[0.0]]), ("x",), np.array([0.0]), "y")

    def test_degenerate_fraction(self, tiny_dataset):
        with pytest.raises(DataError):
            split(tiny_dataset, 0.001, seed=0)  # floor gives empty test

    def test_partition_properties(self, tiny_dataset):
        sp = split(tiny_dataset, 0.3, seed=11)
        all_idx = sorted(sp.train_indices + sp.test_indices)
        assert all_idx == list(range(tiny_dataset.n_rows))
        assert not set(sp.train_indices) & set(sp.test_indices)

    @pytest.mark.parametrize("train, test, message", [
        ((), (0, 1), "must both be non-empty"),
        ((0, 0), (1,), "contain duplicates"),
        ((0, 1), (1,), "overlap"),
        ((0, 2), (3,), "must cover 0..n-1 exactly"),
    ], ids=["empty side", "duplicates", "overlap", "gap"])
    def test_invalid_indices_rejected(self, train, test, message):
        with pytest.raises(DataError, match=message):
            Split(train, test)


class TestFeatureGrid:
    def test_quantile_span_oracle(self):
        # independent type-7 oracle: for 0..100, q_0.01 -> sorted[1] = 1,
        # q_0.99 -> sorted[99] = 99, then 5 equal steps
        col = np.arange(101.0)
        ds = Dataset("g", np.column_stack([col, np.ones(101) + np.arange(101.0)]),
                     ("x", "pad"), np.zeros(101), "y")

        def type7(values, p):
            s = np.sort(values)
            h = (len(s) - 1) * p
            lo = int(np.floor(h))
            hi = min(lo + 1, len(s) - 1)
            return s[lo] * (1 - (h - lo)) + s[hi] * (h - lo)

        lo, hi = type7(col, 0.01), type7(col, 0.99)
        expected = np.linspace(lo, hi, 5)
        grid = feature_grid(ds, 0, 5)
        np.testing.assert_allclose(grid, expected)
        np.testing.assert_allclose(grid, [1.0, 25.5, 50.0, 74.5, 99.0])

    def test_low_cardinality_collapses_to_distinct_values(self):
        col = np.array([0.0, 1.0] * 10)
        ds = Dataset("b", np.column_stack([col, np.arange(20.0)]),
                     ("x", "pad"), np.zeros(20), "y")
        grid = feature_grid(ds, 0, 20)
        np.testing.assert_array_equal(grid, [0.0, 1.0])

    def test_constant_column_rejected(self):
        ds = Dataset("c", np.column_stack([np.ones(10), np.arange(10.0)]),
                     ("x", "pad"), np.zeros(10), "y")
        with pytest.raises(DataError, match="constant"):
            feature_grid(ds, 0, 5)

    def test_grid_span_too_narrow_for_distinct_points_rejected(self):
        # the [1%, 99%] span is one ulp wide: linspace(1, 1 + ulp, 3) repeats 1.0
        col = np.array([1.0, np.nextafter(1.0, 2.0)] * 100)
        col[0], col[1] = 0.0, 5.0
        ds = Dataset("n", np.column_stack([col, np.arange(200.0)]),
                     ("x", "pad"), np.zeros(200), "y")
        with pytest.raises(DataError, match="feature 'x' has a grid span too narrow for 3"):
            feature_grid(ds, 0, 3)

    def test_rows_argument_restricts_quantiles(self):
        col = np.concatenate([np.arange(101.0), [1e6]])
        ds = Dataset("r", np.column_stack([col, np.arange(102.0)]),
                     ("x", "pad"), np.zeros(102), "y")
        grid = feature_grid(ds, 0, 5, rows=tuple(range(101)))
        np.testing.assert_allclose(grid, [1.0, 25.5, 50.0, 74.5, 99.0])

    @pytest.mark.parametrize("rows, message", [
        ((-1, 0, 1), "row index -1 out of range"), ((0, 1, 102), "row index 102 out of range"),
        ((0.5, 1.5, 2.5), "each an integer"), ((), "at least one row"),
    ], ids=["negative", "too-large", "fractions", "empty"])
    def test_rows_that_are_not_row_indices_rejected(self, rows, message):
        # each used to give a grid: over the last row, over truncated rows, or
        # "constant" for no rows at all
        col = np.concatenate([np.arange(101.0), [1e6]])
        ds = Dataset("r", np.column_stack([col, np.arange(102.0)]),
                     ("x", "pad"), np.zeros(102), "y")
        with pytest.raises(DataError, match=message):
            feature_grid(ds, 0, 5, rows=rows)

    def test_strictly_increasing_and_bounded(self, tiny_dataset):
        grid = feature_grid(tiny_dataset, 1, 20)
        assert np.all(np.diff(grid) > 0)
        col = tiny_dataset.features[:, 1]
        assert grid[0] >= col.min() and grid[-1] <= col.max()

    def test_grid_size_must_be_at_least_two(self, tiny_dataset):
        with pytest.raises(DataError):
            feature_grid(tiny_dataset, 0, 1)
