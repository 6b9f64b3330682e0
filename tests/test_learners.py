"""Model zoo: scoring, prediction, pool training, serialization."""

from __future__ import annotations

import copy
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

import rashpdp
from rashpdp import parallel
from rashpdp.cli import main
from rashpdp.data import save_csv, split
from rashpdp.learners import forest as forest_module
from rashpdp.learners import pool as pool_module
from rashpdp.learners import (
    FAMILIES,
    GradientBoostingRegression,
    KNearestNeighborsRegression,
    RandomForestRegression,
    RegressionTree,
    RidgeRegression,
    SearchBudget,
    load_pool,
    rmse,
    save_pool,
    train_pool,
)
from rashpdp.learners.tree import TreeEnsemble
from rashpdp.synthetic import make_friedman, make_linear


class TestRmse:
    def test_identical_vectors_give_zero(self):
        assert rmse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_hand_computed_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            3.5355339059327378, abs=1e-15
        )

    def test_single_element(self):
        assert rmse(np.array([1.0]), np.array([-1.0])) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rmse(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty_vectors(self):
        with pytest.raises(ValueError, match="empty"):
            rmse(np.array([]), np.array([]))


def _constant_target_dataset(c: float) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, size=(60, 3))
    return X, np.full(60, c)


@pytest.mark.parametrize("make_model", [
    lambda: RidgeRegression(alpha=0.5),
    lambda: RegressionTree(max_depth=5, min_samples_leaf=2),
    lambda: RandomForestRegression(n_estimators=20, max_features="sqrt", seed=3),
    lambda: GradientBoostingRegression(n_estimators=30, learning_rate=0.2, max_depth=3),
    lambda: KNearestNeighborsRegression(n_neighbors=5, weights="uniform"),
    lambda: KNearestNeighborsRegression(n_neighbors=5, weights="inverse_distance"),
])
def test_constant_target_predicts_the_constant(make_model):
    X, y = _constant_target_dataset(6.5)
    model = make_model().fit(X, y)
    preds = model.predict_many(np.array([[0.0, 0.0, 0.0], [1.5, -1.5, 0.3]]))
    np.testing.assert_allclose(preds, 6.5, atol=1e-9)


def test_near_zero_ridge_recovers_exact_linear_relation():
    ds = make_linear(n_rows=200, slope=2.0, intercept=3.0, seed=1)
    sp = split(ds, 0.25, seed=0)
    train = np.asarray(sp.train_indices)
    test = np.asarray(sp.test_indices)
    model = RidgeRegression(alpha=1e-9).fit(ds.features[train], ds.target[train])
    err = rmse(model.predict_many(ds.features[test]), ds.target[test])
    assert err < 1e-6


@pytest.mark.parametrize("make_model", [
    lambda: RegressionTree(max_depth=8, min_samples_leaf=1),
    lambda: RandomForestRegression(n_estimators=25, max_features="third", seed=9),
    lambda: GradientBoostingRegression(n_estimators=120, learning_rate=0.3, max_depth=4),
])
def test_tree_family_predictions_stay_within_target_range(make_model):
    rng = np.random.default_rng(11)
    X = rng.uniform(-3.0, 3.0, size=(120, 4))
    y = X[:, 0] ** 2 + rng.normal(0, 0.5, size=120)
    model = make_model().fit(X, y)
    queries = rng.uniform(-12.0, 12.0, size=(300, 4))  # far outside training box
    preds = model.predict_many(queries)
    assert preds.min() >= y.min() - 1e-12
    assert preds.max() <= y.max() + 1e-12


@pytest.mark.parametrize("make_model", [
    lambda: RidgeRegression(alpha=0.5),
    lambda: RegressionTree(),
    lambda: RandomForestRegression(n_estimators=3),
    lambda: GradientBoostingRegression(n_estimators=3),
    lambda: KNearestNeighborsRegression(n_neighbors=3),
], ids=["ridge", "tree", "forest", "boosting", "knn"])
def test_unfitted_model_refuses_to_predict(make_model):
    model = make_model()
    X = np.zeros((4, 3))
    with pytest.raises(ValueError, match="not fitted"):
        model.predict_many(X)
    if isinstance(model, TreeEnsemble):  # the three tree families
        with pytest.raises(ValueError, match="not fitted"):
            model.predict_grid(X, {0: np.array([0.0, 1.0])})


@pytest.mark.parametrize("make_model", [
    lambda: RegressionTree(),
    lambda: RandomForestRegression(n_estimators=3),
    lambda: GradientBoostingRegression(n_estimators=3),
], ids=["tree", "forest", "boosting"])
def test_tree_families_reject_nan_in_x_naming_its_column(make_model):
    # a NaN would share its column's last finite rank and change the trees
    rng = np.random.default_rng(3)
    X, y = rng.integers(0, 3, size=(30, 3)).astype(np.float64), rng.normal(size=30)
    X[7, 1] = np.nan
    with pytest.raises(ValueError, match="X column 1 holds NaN"):
        make_model().fit(X, y)


@pytest.mark.parametrize("max_features", [None, 1])
def test_grow_refuses_an_rng_that_is_not_a_generator(max_features):
    # a RandomState draws by another algorithm than Generator.choice
    X, y = np.random.default_rng(1).normal(size=(20, 3)), np.arange(20.0)
    with pytest.raises(TypeError, match="numpy.random.Generator, got RandomState"):
        RegressionTree(max_features=max_features).fit(X, y, np.random.RandomState(0))


class TestRegressionTree:
    def test_stump_finds_the_obvious_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5
        np.testing.assert_array_equal(
            tree.predict_many(np.array([[1.4], [1.6]])), [0.0, 10.0]
        )

    def test_min_samples_leaf_respected(self):
        X = np.arange(10.0)[:, None]
        y = np.array([0.0] * 9 + [100.0])
        tree = RegressionTree(max_depth=3, min_samples_leaf=3).fit(X, y)
        # every leaf must hold >= 3 of the 10 training rows
        leaf_of_row = []
        for i in range(10):
            node = 0
            while tree.feature[node] >= 0:
                if X[i, 0] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            leaf_of_row.append(node)
        _, counts = np.unique(leaf_of_row, return_counts=True)
        assert counts.min() >= 3

    def test_variance_reduction_picks_informative_feature(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.normal(size=200), np.linspace(0, 1, 200)])
        y = (X[:, 1] > 0.5).astype(float) * 5.0
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert tree.feature[0] == 1

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_max_features_below_one_raises(self, max_features):
        with pytest.raises(ValueError, match=f"max_features must be >= 1 or None, "
                                             f"got {max_features}"):
            RegressionTree(max_features=max_features)

    def test_degenerate_midpoint_leaves_one_leaf(self):
        # adjacent floats whose midpoint rounds up to the larger one, so
        # `x <= threshold` sends both rows left and the split is dropped
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        tree = RegressionTree().fit(np.array([[a], [b]]), np.array([0.0, 1.0]))
        assert tree.feature.tolist() == [-1]
        assert tree.value.tolist() == [0.5]


@pytest.mark.parametrize("weights", ["uniform", "inverse_distance"])
def test_knn_neighbour_count_above_the_training_rows_is_clamped(weights):
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(9, 2)), rng.normal(size=9)
    queries = np.vstack([rng.normal(size=(20, 2)), X[:3]])  # X[:3] at distance 0
    above = KNearestNeighborsRegression(25, weights).fit(X, y)
    equal = KNearestNeighborsRegression(9, weights).fit(X, y)
    assert above.predict_many(queries).tobytes() == equal.predict_many(queries).tobytes()


def test_knn_prediction_holds_about_one_chunk_product():
    # The distances of a chunk are one product written in place; neighbours
    # are selected in row blocks of it. Whole-chunk temporaries took 3x.
    rng = np.random.default_rng(2)
    model = KNearestNeighborsRegression(5, "inverse_distance").fit(
        rng.normal(size=(750, 10)), rng.normal(size=750))
    queries = rng.normal(size=(4096, 10))
    tracemalloc.start()
    try:
        model.predict_many(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2048 * 750 * 8


def _fresh_interpreter(code: str, **env: str) -> str:
    """What a new interpreter that imports this rashpdp prints running `code`,
    with OPENBLAS_NUM_THREADS unset unless `env` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(rashpdp.__file__))
    path = os.environ.get("PYTHONPATH")
    environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    environ.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("env, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                         ids=["unset", "user's own"])
def test_import_defaults_to_one_blas_thread(env, expected):
    code = "import os, rashpdp; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_interpreter(code, **env) == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_knn_prediction_runs_on_the_one_python_thread():
    # OpenBLAS starts its threads when numpy loads it; a 2048-query chunk's
    # distance product is where more than one would work
    code = textwrap.dedent("""
        import os
        from rashpdp.learners import KNearestNeighborsRegression  # before numpy
        import numpy as np
        rng = np.random.default_rng(0)
        model = KNearestNeighborsRegression().fit(rng.normal(size=(300, 10)), rng.normal(size=300))
        model.predict_many(rng.normal(size=(2048, 10)))
        print(len(os.listdir("/proc/self/task")))
    """)
    assert _fresh_interpreter(code) == "1"


@pytest.mark.parametrize("make, message", [
    (lambda: GradientBoostingRegression(max_depth=0), "max_depth must be >= 1, got 0"),
    (lambda: RandomForestRegression(max_features="bogus"),
     "unknown feature subsampling mode 'bogus'"),
], ids=["boosting depth 0", "forest mode bogus"])
def test_constructor_rejects_what_fit_would(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestRandomForest:
    def test_tree_ranges_join_to_the_whole_forest(self):
        X = np.random.default_rng(4).normal(size=(50, 4))
        y = X[:, 0] - 2.0 * X[:, 2]
        whole = RandomForestRegression(n_estimators=7, max_features="third", seed=5).fit(X, y)
        forest = RandomForestRegression(n_estimators=7, max_features="third", seed=5)
        joined = [tree for trees in (range(0, 3), range(3, 4), range(4, 7))
                  for tree in forest.fit_trees(X, y, trees)]
        assert forest.trees_ == []
        assert len(joined) == len(whole.trees_) == 7
        for grown, expected in zip(joined, whole.trees_):
            for name in RegressionTree.FITTED:
                assert getattr(grown, name).tobytes() == getattr(expected, name).tobytes()

    def test_prediction_is_the_mean_of_the_stacked_trees(self):
        # the running sum gives the bytes of mean(axis=0), whose sum starts
        # from 0.0: rows where every tree predicts -0.0 average to 0.0
        X = np.random.default_rng(6).normal(size=(40, 3))
        y = X[:, 0] * 1e8 + X[:, 1]
        forest = RandomForestRegression(n_estimators=9, seed=2).fit(X, y)
        for tree in forest.trees_:
            tree.value[tree.value < 0] = -0.0
        stacked = np.stack([tree.predict_many(X) for tree in forest.trees_]).mean(axis=0)
        assert np.signbit(stacked).sum() == 0 and (stacked == 0).any()
        assert forest.predict_many(X).tobytes() == stacked.tobytes()


class TestTrainPool:
    def test_single_model_budget(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=1, seed=0))
        assert len(pool) == 1
        assert pool[0].id == 0
        assert pool[0].family == FAMILIES[0]

    def test_pool_training_is_deterministic(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        budget = SearchBudget(max_models=7, max_runtime_secs=math.inf, seed=13)
        a = train_pool(tiny_dataset, sp, budget)
        b = train_pool(tiny_dataset, sp, budget)
        assert [m.family for m in a] == [m.family for m in b]
        assert [m.hyperparameters for m in a] == [m.hyperparameters for m in b]
        assert [m.score for m in a] == [m.score for m in b]

    def test_all_families_present_with_five_or_more(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=5, seed=2))
        assert {m.family for m in pool} == set(FAMILIES)

    def test_knn_is_built_with_its_drawn_neighbour_count(self):
        # 6 training rows, fewer than most draws from 3..25: k-NN clamps when
        # it predicts, so the archived state matches metrics.json
        ds = make_linear(n_rows=8, seed=1)
        sp = split(ds, 0.25, seed=1)
        pool = train_pool(ds, sp, SearchBudget(max_models=10, max_runtime_secs=math.inf, seed=0))
        knn = [m for m in pool if m.family == "KNearestNeighbors"]
        assert [m.predictor.n_neighbors for m in knn] == [m.hyperparameters["n_neighbors"]
                                                         for m in knn]
        assert max(m.predictor.n_neighbors for m in knn) > len(sp.train_indices)

    def test_twenty_models_on_synthetic_data(self):
        ds = make_friedman(n_rows=500, noise=1.0, seed=3)
        sp = split(ds, 0.25, seed=3)
        pool = train_pool(ds, sp, SearchBudget(max_models=20, seed=3))
        assert len(pool) == 20
        assert [m.id for m in pool] == list(range(20))
        for m in pool:
            assert math.isfinite(m.score) and m.score > 0

    def test_scores_recomputable_from_stored_state(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=5, seed=4))
        test = np.asarray(sp.test_indices)
        for m in pool:
            again = rmse(m.predictor.predict_many(tiny_dataset.features[test]),
                         tiny_dataset.target[test])
            assert again == pytest.approx(m.score, rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_time_budget_raises(self, tiny_dataset, workers):
        sp = split(tiny_dataset, 0.25, seed=1)
        with pytest.raises(RuntimeError, match="no model completed"):
            train_pool(tiny_dataset, sp,
                       SearchBudget(max_models=3, max_runtime_secs=1e-12, seed=0),
                       workers=workers)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("k", [0, 2])
    def test_budget_out_after_model_k_keeps_models_up_to_k(self, tiny_dataset, monkeypatch,
                                                            workers, k):
        # the clock ticks a nanosecond a read (the worker pool's own waits
        # read it too, and spin on a clock that stands still) and jumps past
        # the cap once model k's result is taken and scored: the pool must be
        # models 0..k, however many workers
        scored = []
        score = pool_module.holdout_rmse
        ticks = itertools.count()
        monkeypatch.setattr(pool_module, "holdout_rmse",
                            lambda *args: scored.append(1) or score(*args))
        monkeypatch.setattr(pool_module.time, "monotonic",
                            lambda: next(ticks) * 1e-9 + (1e9 if len(scored) > k else 0.0))
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp,
                          SearchBudget(max_models=6, max_runtime_secs=60.0, seed=3),
                          workers=workers)
        assert [m.id for m in pool] == list(range(k + 1))

    def test_workers_below_one_raises(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            train_pool(tiny_dataset, sp, SearchBudget(max_models=1), workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fit_error_surfaces_unchanged(self, tiny_dataset, monkeypatch, workers):
        def fail(self, X, y):
            raise ArithmeticError(f"cannot fit {len(y)} rows")

        monkeypatch.setattr(GradientBoostingRegression, "fit", fail)
        sp = split(tiny_dataset, 0.25, seed=1)
        with pytest.raises(ArithmeticError, match="^cannot fit 30 rows$"):
            train_pool(tiny_dataset, sp, SearchBudget(max_models=5, seed=2), workers=workers)
        assert multiprocessing.active_children() == []

    def test_worker_count_capped_at_units(self, tiny_dataset, recording_executor,
                                          monkeypatch):
        # ridge, one tree and a forest in units of 32 trees: a handful of units
        sp = split(tiny_dataset, 0.25, seed=1)
        n, p = len(sp.train_indices), tiny_dataset.features.shape[1]
        monkeypatch.setattr(forest_module, "LOCKSTEP_CELLS", 32 * n * p)
        budget = SearchBudget(max_models=3, seed=2)
        pool = train_pool(tiny_dataset, sp, budget, workers=1000)
        forest_units = pool[2].predictor.units(n, p)
        assert len(forest_units) > 1
        units = 2 + len(forest_units)
        made, submitted = recording_executor
        assert made == [units, "shutdown"]
        assert submitted == list(range(units))
        serial = train_pool(tiny_dataset, sp, budget)
        assert [m.score for m in pool] == [m.score for m in serial]

    def test_short_cap_under_workers_keeps_the_models_that_came_back_before_it(
            self, tiny_dataset, monkeypatch):
        # ridge and the CART fit at once, every other unit takes 0.8 s: models
        # 0 and 1 come back well inside the 0.4 s cap and model 2's forest
        # well after it, so the pool is models 0..2, as at one worker
        fit_unit = pool_module._fit_unit

        def slow(X, y, unit):
            if not isinstance(unit[0], (RidgeRegression, RegressionTree)):
                time.sleep(0.8)
            return fit_unit(X, y, unit)

        monkeypatch.setattr(pool_module, "_fit_unit", slow)
        sp = split(tiny_dataset, 0.25, seed=1)
        budget = SearchBudget(max_models=5, max_runtime_secs=0.4, seed=2)
        pool = train_pool(tiny_dataset, sp, budget, workers=2)
        assert [(m.id, m.family) for m in pool] == [
            (0, "LinearRidge"), (1, "DecisionTree"), (2, "RandomForest")]
        assert multiprocessing.active_children() == []

    def test_predict_is_deterministic_per_row(self, tiny_dataset):
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=5, seed=5))
        row = tiny_dataset.features[:1]
        for m in pool:
            first = m.predictor.predict_many(row)
            assert m.predictor.predict_many(row).tobytes() == first.tobytes()


@pytest.fixture
def recording_executor(monkeypatch):
    """Stand in for `ProcessPoolExecutor`: run each submitted unit at once in
    this process and record the worker count, the unit indices in the order
    they were submitted, and the shutdown. Starts no process."""
    import concurrent.futures

    made: list = []
    submitted: list[int] = []

    class InProcess:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, index):
            submitted.append(index)
            future = concurrent.futures.Future()
            future.set_result(fn(index))
            return future

        def shutdown(self, cancel_futures):
            made.append("shutdown")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(parallel, "_inherited", None)
    return made, submitted


@pytest.fixture(scope="module")
def archive_payload(tmp_path_factory):
    """A saved pool of one ridge, CART, forest and boosting model, as JSON."""
    ds = make_linear(n_rows=60, noise=0.2, seed=3)
    path = tmp_path_factory.mktemp("archive") / "pool.json"
    save_pool(train_pool(ds, split(ds, 0.25, seed=1), SearchBudget(max_models=4, seed=6)), path)
    return json.loads(path.read_text(encoding="utf-8"))


# (family, key path into that model's state, change to the value there, error)
BROKEN_TREES = {
    "self-loop child": ("DecisionTree", ("left", 0), lambda old: 0,
                        "RegressionTree 0 field 'left': node 0 has 0, expected 1.."),
    "negative root feature": ("DecisionTree", ("feature", 0), lambda old: -5,
                              "RegressionTree 0 field 'feature': node 0 has -5,"),
    "unequal node arrays": ("RandomForest", ("trees", 0, "value"), lambda old: old[:-1],
                            "RegressionTree 0 field 'value': shape"),
    "child out of range": ("GradientBoosting", ("trees", 1, "right", 0), lambda old: 10**6,
                           "RegressionTree 1 field 'right': node 0 has 1000000, expected 1.."),
    "no trees": ("RandomForest", ("trees",), lambda old: [], "field 'trees': 0 trees"),
}


# (family, hyperparameter, value, error): a value its constructor refuses, set
# in both the model's hyperparameters and its state
UNBUILDABLE = {
    "boosting depth 0": ("GradientBoosting", "max_depth", 0,
                         "GradientBoostingRegression field 'n_estimators, learning_rate, "
                         "max_depth': max_depth must be >= 1, got 0"),
    "forest mode bogus": ("RandomForest", "max_features", "bogus",
                          "RandomForestRegression field 'n_estimators, max_features, seed': "
                          "unknown feature subsampling mode 'bogus'"),
}


class TestPoolArchive:
    @pytest.mark.parametrize("family, key, value, error", UNBUILDABLE.values(),
                             ids=UNBUILDABLE.keys())
    def test_hyperparameter_the_constructor_refuses_exits_three(
            self, archive_payload, tmp_path, capsys, family, key, value, error):
        payload = copy.deepcopy(archive_payload)
        index, entry = next((i, m) for i, m in enumerate(payload["models"])
                            if m["family"] == family)
        entry["hyperparameters"][key] = entry["state"][key] = value
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        data = tmp_path / "data.csv"
        save_csv(make_linear(n_rows=60, noise=0.2, seed=3), data)
        code = main(["explain", "--data", str(data), "--target", "y", "--load-pool", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"pool archive {path}: model {index}: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, keys, change, error", BROKEN_TREES.values(),
                             ids=BROKEN_TREES.keys())
    def test_broken_tree_fails_on_load(self, archive_payload, tmp_path, monkeypatch,
                                       family, keys, change, error):
        payload = copy.deepcopy(archive_payload)
        index, entry = next((i, m) for i, m in enumerate(payload["models"])
                            if m["family"] == family)
        *parents, last = keys
        node = entry["state"]
        for key in parents:
            node = node[key]
        node[last] = change(node[last])
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

        def no_prediction(self, X):
            raise AssertionError("a broken tree was asked to predict")

        monkeypatch.setattr(RegressionTree, "predict_many", no_prediction)
        with pytest.raises(ValueError) as info:
            load_pool(path)
        assert str(info.value).startswith(f"pool archive {path}: model {index}: ")
        assert error in str(info.value)

    def test_round_trip_preserves_predictions(self, tiny_dataset, tmp_path):
        sp = split(tiny_dataset, 0.25, seed=1)
        pool = train_pool(tiny_dataset, sp, SearchBudget(max_models=5, seed=6))
        path = tmp_path / "pool.json"
        save_pool(pool, path)
        back = load_pool(path)
        assert [m.id for m in back] == [m.id for m in pool]
        assert [m.family for m in back] == [m.family for m in pool]
        assert [m.score for m in back] == [m.score for m in pool]
        X = tiny_dataset.features
        for a, b in zip(pool, back):
            np.testing.assert_array_equal(a.predictor.predict_many(X), b.predictor.predict_many(X))

    def test_rejects_non_archive_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a model-pool archive"):
            load_pool(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format": "rashpdp-pool", "version": 99, "models": []}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_pool(path)
