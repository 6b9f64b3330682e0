"""Golden values for the family registry, the run-config field table and
the pool archive.

The literals below were recorded from the code before each table existed,
so they pin the sampler draw order, the model builders, and the byte layout
of `config.echo`, metrics.json["config"] and the pool archive without running
the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from rashpdp.cli import main
from rashpdp.data import feature_grid, save_csv, split
from rashpdp.learners import SearchBudget, load_pool, save_pool, train_pool
from rashpdp.pdp import pdp_single
from rashpdp.report import RunConfig, config_from_mapping, parse_config_file
from rashpdp.synthetic import make_friedman, make_linear

# train_pool(tiny_dataset, split(tiny_dataset, 0.25, seed=1),
#            SearchBudget(max_models=10, max_runtime_secs=inf, seed=13))
GOLDEN_POOL = [
    ("LinearRidge", {"alpha": 0.048172714801716386}, 0.12067182158783848),
    ("DecisionTree", {"max_depth": 12, "min_samples_leaf": 2}, 0.34150970230626),
    ("RandomForest", {"n_estimators": 164, "max_features": "third"}, 0.6054654305275723),
    ("GradientBoosting",
     {"n_estimators": 215, "learning_rate": 0.03857051915937957, "max_depth": 3},
     0.40629193701401456),
    ("KNearestNeighbors", {"n_neighbors": 24, "weights": "inverse_distance"},
     0.7509190025819485),
    ("LinearRidge", {"alpha": 0.006147532216560314}, 0.12027726650187452),
    ("DecisionTree", {"max_depth": 9, "min_samples_leaf": 11}, 0.5802049221129556),
    ("RandomForest", {"n_estimators": 298, "max_features": "sqrt"}, 0.4037767907040442),
    ("GradientBoosting",
     {"n_estimators": 326, "learning_rate": 0.11496539362085777, "max_depth": 4},
     0.42703780159721155),
    ("KNearestNeighbors", {"n_neighbors": 7, "weights": "uniform"}, 0.5214482890116987),
]
# sha256 of save_pool(pool) for that pool, recorded before the model-state codec.
GOLDEN_POOL_SHA256 = "e5d3d84d1605f2b8d19c7e07bef1747f1a4612741941ff79877332c4d3db7b21"

# Every flag that sets a RunConfig field, each at a non-default value.
EXPLAIN_FLAGS = [
    "--data", "lin.csv", "--target", "y", "--feature", "x2", "--feature", "x1",
    "--epsilon", "0.5", "--max-models", "2", "--max-runtime-secs", "99.5",
    "--test-fraction", "0.3", "--grid", "3", "--bootstrap", "7", "--alpha", "0.1",
    "--seed", "5", "--out", "out",
]
EXPECTED_CONFIG = RunConfig(
    data_path="lin.csv", target_column="y", features=("x2", "x1"), epsilon=0.5,
    max_models=2, max_runtime_secs=99.5, test_fraction=0.3, grid_size=3, n_boot=7,
    alpha=0.1, seed=5, out_dir="out",
)
GOLDEN_ECHO = (
    b"data = lin.csv\n"
    b"target = y\n"
    b"features = x2,x1\n"
    b"epsilon = 0.5\n"
    b"max_models = 2\n"
    b"max_runtime_secs = 99.5\n"
    b"test_fraction = 0.3\n"
    b"grid = 3\n"
    b"bootstrap = 7\n"
    b"alpha = 0.1\n"
    b"seed = 5\n"
    b"out = out\n"
)
GOLDEN_METRICS_CONFIG = (
    '  "config": {\n'
    '    "alpha": 0.1,\n'
    '    "bootstrap": 7,\n'
    '    "data": "lin.csv",\n'
    '    "epsilon": 0.5,\n'
    '    "features": [\n'
    '      "x2",\n'
    '      "x1"\n'
    '    ],\n'
    '    "grid": 3,\n'
    '    "max_models": 2,\n'
    '    "max_runtime_secs": 99.5,\n'
    '    "out": "out",\n'
    '    "seed": 5,\n'
    '    "target": "y",\n'
    '    "test_fraction": 0.3\n'
    '  },\n'
)


def test_pool_families_and_hyperparameters(tiny_dataset):
    sp = split(tiny_dataset, 0.25, seed=1)
    pool = train_pool(tiny_dataset, sp,
                      SearchBudget(max_models=10, max_runtime_secs=math.inf, seed=13))
    assert [(m.family, m.hyperparameters) for m in pool] == [
        (family, hp) for family, hp, _ in GOLDEN_POOL
    ]
    # The scores depend on how each family builds its model from the draw.
    assert [m.score for m in pool] == pytest.approx(
        [score for _, _, score in GOLDEN_POOL], rel=1e-9
    )


def test_pool_archive_bytes(tiny_dataset, tmp_path):
    sp = split(tiny_dataset, 0.25, seed=1)
    pool = train_pool(tiny_dataset, sp,
                      SearchBudget(max_models=10, max_runtime_secs=math.inf, seed=13))
    save_pool(pool, tmp_path / "pool.json")
    saved = (tmp_path / "pool.json").read_bytes()
    assert hashlib.sha256(saved).hexdigest() == GOLDEN_POOL_SHA256
    save_pool(load_pool(tmp_path / "pool.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == saved


@pytest.fixture(scope="module")
def five_families():
    """A pool of one model per family on Friedman 300 x 10 data."""
    ds = make_friedman(n_rows=300, seed=11)
    pool = train_pool(ds, split(ds, 0.25, seed=1),
                      SearchBudget(max_models=5, max_runtime_secs=math.inf, seed=3))
    assert len({m.family for m in pool}) == 5
    return pool


def test_save_pool_holds_one_array_at_a_time(five_families, tmp_path):
    # A copy of the pool's state as Python lists takes about twice the
    # archive's size; written one array at a time it stays far below that.
    pool = five_families
    tracemalloc.start()
    try:
        save_pool(pool, tmp_path / "pool.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "pool.json").stat().st_size / 2


def test_load_pool_holds_the_text_and_the_arrays(five_families, tmp_path):
    # Each array field is made an array as its object closes, so loading
    # holds the archive's text and the arrays; a Python object per number
    # took 4.5 times the archive's size.
    save_pool(five_families, tmp_path / "pool.json")
    tracemalloc.start()
    try:
        loaded = load_pool(tmp_path / "pool.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (tmp_path / "pool.json").stat().st_size
    intp, f64 = np.dtype(np.intp), np.dtype(np.float64)
    kinds = {("feature", intp, 1), ("left", intp, 1), ("right", intp, 1),
             ("threshold", f64, 1), ("value", f64, 1), ("coef_", f64, 1), ("center_", f64, 1),
             ("scale_", f64, 1), ("train_z_", f64, 2), ("train_y_", f64, 1)}
    for pool in (five_families, loaded):
        assert {(name, a.dtype, a.ndim) for m in pool for name, a in _arrays(m.predictor)} == kinds


def _arrays(model):
    """Each `FITTED` array of `model` and of the models it nests, with its attribute."""
    for attr in model.FITTED:
        value = getattr(model, attr)
        if isinstance(value, list):
            for part in value:
                yield from _arrays(part)
        elif isinstance(value, np.ndarray):
            yield attr, value


def test_every_golden_config_field_is_non_default():
    default = RunConfig(data_path="", target_column="")
    for f in dataclasses.fields(RunConfig):
        assert getattr(EXPECTED_CONFIG, f.name) != getattr(default, f.name), f.name


@pytest.fixture
def explained(tmp_path, monkeypatch):
    """Run `explain` with every config flag set, from inside tmp_path."""
    save_csv(make_linear(n_rows=60, noise=0.2, seed=5, name="lin"), tmp_path / "lin.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["explain", *EXPLAIN_FLAGS]) == 0
    return tmp_path / "out"


def test_config_echo_bytes(explained):
    assert (explained / "config.echo").read_bytes() == GOLDEN_ECHO


def test_metrics_config_block(explained):
    text = (explained / "metrics.json").read_text(encoding="utf-8")
    assert GOLDEN_METRICS_CONFIG in text


def test_config_echo_round_trips(explained):
    echoed = config_from_mapping(parse_config_file(explained / "config.echo"))
    assert echoed == EXPECTED_CONFIG


# sha256 over every member's pdp_single values for the GOLDEN_POOL run, feature by
# feature: on the pipeline's grid, then on the grid of every threshold any of its
# trees sets on the feature. Recorded with tiled prediction, before tree profiles
# were computed per threshold interval.
GOLDEN_PDP_SHA256 = "17be682edff9a2207216f2571835c7f208c8eb1636fd6f1e93ecf66a631eb230"


def test_member_profile_bytes(tiny_dataset):
    sp = split(tiny_dataset, 0.25, seed=1)
    pool = train_pool(tiny_dataset, sp,
                      SearchBudget(max_models=10, max_runtime_secs=math.inf, seed=13))
    trees = [tree for m in pool for tree in getattr(m.predictor, "trees_", [m.predictor])]
    rows = np.asarray(sp.train_indices)
    digest = hashlib.sha256()
    for j in range(tiny_dataset.n_features):
        cuts = np.unique(np.concatenate([t.threshold[t.feature == j] for t in trees
                                         if hasattr(t, "threshold")]))
        for grid in (feature_grid(tiny_dataset, j, rows=sp.train_indices), cuts):
            for m in pool:
                digest.update(pdp_single(m, tiny_dataset, rows, j, grid).tobytes())
    assert digest.hexdigest() == GOLDEN_PDP_SHA256


# sha256 over the profile CSVs and SVGs and metrics.json of one multi-member
# `explain` run, in file-name order. The best model (id 3) is not the first
# member column, so the best row, the bootstrap band and every member column
# are pinned. Recorded before the member profiles became one matrix.
GOLDEN_MULTI_MEMBER_SHA256 = "c4b3cd0687514280b1cc0e1b4af39f9f633c5aabfcfc4266e1757870130b326f"


def test_multi_member_run_bytes(tmp_path, monkeypatch):
    save_csv(make_friedman(n_rows=80, noise=0.5, seed=5, name="fried"), tmp_path / "fried.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["explain", "--data", "fried.csv", "--target", "y", "--feature", "x1",
                 "--feature", "x4", "--max-models", "5", "--epsilon", "100", "--grid", "5",
                 "--bootstrap", "50", "--seed", "2", "--out", "out"]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert report["rashomon"]["rss"] >= 3
    assert report["rashomon"]["best_id"] != min(report["rashomon"]["member_ids"])
    digest = hashlib.sha256()
    for path in sorted([*out.glob("profile_*.csv"), *out.glob("profile_*.svg"),
                        out / "metrics.json"]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_MULTI_MEMBER_SHA256
