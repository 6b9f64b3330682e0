"""Tabular regression datasets: CSV loading, train/test splits, feature grids."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_TEST_FRACTION = 0.25
DEFAULT_GRID_SIZE = 20
GRID_QUANTILE_LO = 0.01
GRID_QUANTILE_HI = 0.99


@dataclass(frozen=True)
class Dataset:
    """An in-memory numeric regression dataset.

    Features are an (n, p) float matrix with all-finite entries; the target
    is a finite float vector of length n. Column names are unique and
    non-empty. Instances are immutable and safe to share across threads.
    """

    name: str
    features: np.ndarray
    feature_names: tuple[str, ...]
    target: np.ndarray
    target_name: str

    def __post_init__(self) -> None:
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.target, dtype=np.float64)
        if X.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n, p = X.shape
        if n < 2:
            raise DataError(f"dataset '{self.name}' needs at least 2 rows, got {n}")
        if p < 1:
            raise DataError(f"dataset '{self.name}' needs at least 1 feature column")
        if y.shape != (n,):
            raise DataError("target length does not match feature rows")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain NaN/Inf values")
        if not np.all(np.isfinite(y)):
            raise DataError("target contains NaN/Inf values")
        names = tuple(self.feature_names)
        if len(names) != p:
            raise DataError("feature_names length does not match feature columns")
        if any(not s for s in names):
            raise DataError("feature names must be non-empty")
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if not self.target_name:
            raise DataError("target name must be non-empty")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature '{name}' in dataset '{self.name}'") from None


@dataclass(frozen=True)
class Split:
    """Disjoint train/test row indices covering the whole dataset."""

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        train = set(self.train_indices)
        test = set(self.test_indices)
        if not self.train_indices or not self.test_indices:
            raise DataError("train and test index sets must both be non-empty")
        if len(train) != len(self.train_indices) or len(test) != len(self.test_indices):
            raise DataError("split indices contain duplicates")
        if train & test:
            raise DataError("train and test indices overlap")
        n = len(train) + len(test)
        if train | test != set(range(n)):
            raise DataError("split indices must cover 0..n-1 exactly")


def _parse_cell(raw: str, column: str, row_number: int, is_target: bool) -> float:
    kind = "target" if is_target else "feature"
    text = raw.strip()
    if text == "":
        raise DataError(
            f"missing value in {kind} column '{column}' at data row {row_number}"
        )
    try:
        value = float(text)
    except ValueError:
        if is_target:
            raise DataError(
                f"invalid target value '{raw}' in column '{column}' at data row {row_number}"
            ) from None
        raise DataError(
            f"non-numeric feature column '{column}': value '{raw}' at data row {row_number}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"invalid {kind} value '{raw}' (non-finite) in column '{column}' at data row {row_number}"
        )
    return value


def load_csv(path: str | os.PathLike[str], target_column: str) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset named after the
    file without its extension.

    All feature columns must be numeric; missing and non-finite cells are
    rejected rather than imputed. Row order is preserved.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise DataError(f"blank column name in header of {path}")
        if len(set(header)) != len(header):
            raise DataError(f"duplicate column names in header of {path}")
        if target_column not in header:
            raise DataError(f"target column '{target_column}' not found in {path}")
        target_pos = header.index(target_column)
        feature_names = [h for i, h in enumerate(header) if i != target_pos]
        if not feature_names:
            raise DataError(f"no feature columns besides target '{target_column}' in {path}")

        rows: list[list[float]] = []
        targets: list[float] = []
        for row_number, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and record[0].strip() == ""):
                continue
            if len(record) != len(header):
                raise DataError(
                    f"row {row_number} of {path} has {len(record)} fields, expected {len(header)}"
                )
            values = []
            for i, raw in enumerate(record):
                cell = _parse_cell(raw, header[i], row_number, is_target=(i == target_pos))
                if i == target_pos:
                    targets.append(cell)
                else:
                    values.append(cell)
            rows.append(values)

    if len(rows) < 2:
        raise DataError(f"{path} has {len(rows)} data rows; at least 2 are required")

    return Dataset(
        name=os.path.splitext(os.path.basename(path))[0],
        features=np.asarray(rows, dtype=np.float64),
        feature_names=tuple(feature_names),
        target=np.asarray(targets, dtype=np.float64),
        target_name=target_column,
    )


def save_csv(ds: Dataset, path: str | os.PathLike[str]) -> None:
    """Write a Dataset back to CSV; load_csv(save_csv(ds)) reproduces ds exactly."""
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        for i in range(ds.n_rows):
            row = [format(v, ".17g") for v in ds.features[i]]
            row.append(format(ds.target[i], ".17g"))
            writer.writerow(row)


def split(ds: Dataset, test_fraction: float = DEFAULT_TEST_FRACTION, seed: int = 0) -> Split:
    """Deterministic uniform-shuffle holdout split.

    |test| = floor(n * test_fraction); both sides must be non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = ds.n_rows
    n_test = int(math.floor(n * test_fraction))
    n_train = n - n_test
    if n_test < 1 or n_train < 1:
        raise DataError(
            f"degenerate split for n={n}, test_fraction={test_fraction}: "
            f"train={n_train}, test={n_test}"
        )
    perm = np.random.default_rng(int(seed)).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return Split(
        train_indices=tuple(int(i) for i in train_idx),
        test_indices=tuple(int(i) for i in test_idx),
    )


def row_indices(rows, n_rows: int, error: type[Exception] = ValueError) -> np.ndarray:
    """`rows` as an index vector if it holds at least one index, each an integer
    in [0, n_rows), else `error`: numpy truncates a float and wraps a negative."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu":
        raise error(f"rows must be at least one row index, each an integer; "
                    f"got {rows.dtype} values of shape {rows.shape}")
    bad = rows[(rows < 0) | (rows >= n_rows)]
    if bad.size:
        raise error(f"row index {bad[0]} out of range for {n_rows} rows")
    return rows.astype(np.intp)


def feature_grid(
    ds: Dataset,
    feature_index: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    rows: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Equally spaced grid over the [1%, 99%] quantile span of one feature.

    Quantiles are type-7 (linear interpolation). Columns with fewer distinct
    values than `grid_size` collapse to their distinct values, so the result
    may be shorter than requested; a span too narrow for `grid_size`
    distinct floats raises DataError. `rows` (row indices) restricts the
    computation (the pipeline passes training rows); by default the whole column is used.
    """
    if grid_size < 2:
        raise DataError(f"grid_size must be >= 2, got {grid_size}")
    if not 0 <= feature_index < ds.n_features:
        raise DataError(
            f"feature index {feature_index} out of range for dataset '{ds.name}' "
            f"with {ds.n_features} features"
        )
    column = ds.features[:, feature_index]
    if rows is not None:
        column = column[row_indices(rows, ds.n_rows, DataError)]
    uniques = np.unique(column)
    if uniques.size < 2:
        raise DataError(
            f"feature '{ds.feature_names[feature_index]}' is constant; no grid span"
        )
    if uniques.size < grid_size:
        return uniques
    lo, hi = np.quantile(column, [GRID_QUANTILE_LO, GRID_QUANTILE_HI], method="linear")
    grid = np.linspace(lo, hi, grid_size)
    if np.any(np.diff(grid) <= 0):
        raise DataError(
            f"feature '{ds.feature_names[feature_index]}' has a grid span too narrow for "
            f"{grid_size} distinct points (near-constant column)"
        )
    return grid
