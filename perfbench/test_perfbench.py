"""Tests of the benchmark's own code: span fold, digest, output invariants,
failure counting and seeded inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(span_id, parent, name, start, end, thread=1, **attrs):
    return {"run": "r", "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "thread": thread, "attrs": attrs}


# ---------------------------------------------------------------------------
# self-time fold

def test_self_time_subtracts_union_of_overlapping_children():
    trace = [
        _span(1, None, "pdp.rashomon_profile", 0, 100, workers=2),
        _span(2, 1, "pdp.pdp_single", 10, 30, thread=2, family="RandomForest", rows=60),
        _span(3, 1, "pdp.pdp_single", 20, 50, thread=3, family="LinearRidge", rows=40),
        _span(4, 1, "pdp.bootstrap_bands", 60, 70),
        _span(5, 2, "predict.RegressionTree", 12, 14, thread=2),
    ]
    own = spans.self_times(trace)
    assert own == {1: 100 - 40 - 10, 2: 20 - 2, 3: 30, 4: 10, 5: 2}


def test_fold_counts_families_rows_and_efficiency():
    trace = [
        _span(1, None, "report.run_dataset", 0, 1000),
        _span(2, 1, "learners.train_pool", 0, 400),
        _span(3, 2, "fit.RandomForestRegression", 0, 300),
        _span(4, 3, "fit.RegressionTree", 0, 100, nodes=7),
        _span(5, 2, "fit.RegressionTree", 300, 350, nodes=3),
        _span(6, 2, "predict.RandomForestRegression", 350, 390),
        _span(7, 1, "pdp.rashomon_profile", 400, 900, workers=2),
        _span(8, 7, "pdp.pdp_single", 400, 600, thread=2, family="RandomForest", rows=100),
        _span(9, 7, "pdp.pdp_single", 400, 500, thread=3, family="DecisionTree", rows=50),
        _span(10, 8, "predict.RegressionTree", 410, 420, thread=2),
        _span(11, 1, "rashomon.form_set", 390, 400, rss=2, rr=0.5),
    ]
    m = spans.fold(trace)
    assert m["learners.train_pool_s"] == pytest.approx(400e-9)
    assert m["learners.fit_count.RandomForest"] == 1
    assert m["learners.fit_count.DecisionTree"] == 1  # the forest's tree is not a pool model
    assert m["learners.fit_count.GradientBoosting"] == 0
    assert m["learners.tree_fit_calls"] == 2
    assert m["learners.tree_nodes"] == 10
    assert m["learners.score_s"] == pytest.approx(40e-9)
    assert m["pdp.rows_predicted"] == 150
    assert m["pdp.rows_predicted.RandomForest"] == 100
    assert m["pdp.tree_predict_calls"] == 1
    assert m["pdp.rows_per_s"] == pytest.approx(150 / 300e-9)
    # 300 ns busy over 2 workers x 200 ns of curve-phase wall
    assert m["pdp.parallel_efficiency"] == pytest.approx(0.75)
    assert m["rashomon.rss"] == 2
    assert m["report.self_s"] == pytest.approx((1000 - 900) * 1e-9)
    assert m["pdp.share_of_run"] == pytest.approx(0.5)
    assert m["archive.save_pool_s"] == 0


def test_worker_thread_spans_take_the_open_span_as_parent():
    tracer = spans.Tracer("run-1")

    def leaf(x):
        return tracer.call("leaf", lambda v: v * 2, (x,), {})

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.call("outer", outer, (), {}) == [0, 2, 4, 6]
    outer_span = next(s for s in tracer.spans if s["name"] == "outer")
    leaves = [s for s in tracer.spans if s["name"] == "leaf"]
    assert len(leaves) == 4
    assert all(s["parent"] == outer_span["id"] for s in leaves)
    assert {s["run"] for s in tracer.spans} == {"run-1"}


# ---------------------------------------------------------------------------
# digest

def _write(root, files):
    for rel, data in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def test_digest_depends_on_names_and_bytes_only(tmp_path):
    files = {"out/a.csv": b"1,2\r\n", "out/b.json": b"{}\n", "pool.json": b"[]"}
    first, second = tmp_path / "x", tmp_path / "deeper" / "y"
    _write(first, files)
    _write(second, dict(reversed(list(files.items()))))
    names = ["out", "pool.json"]
    assert outputs.digest(str(first), names) == outputs.digest(str(second), names)

    _write(second, {"out/a.csv": b"1,3\r\n"})
    assert outputs.digest(str(first), names) != outputs.digest(str(second), names)
    os.rename(first / "out" / "b.json", first / "out" / "c.json")
    _write(second, {"out/a.csv": b"1,2\r\n"})
    assert outputs.digest(str(first), names) != outputs.digest(str(second), names)


# ---------------------------------------------------------------------------
# invariants

@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """Outputs of a real explain run on a small dataset."""
    from rashpdp.data import save_csv
    from rashpdp.report import RunConfig, run_dataset
    from rashpdp.synthetic import make_linear

    root = tmp_path_factory.mktemp("run")
    ds = make_linear(n_rows=60, slope=1.0, noise=1.0, n_noise_features=1, seed=3)
    save_csv(ds, root / "data.csv")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        run_dataset(RunConfig(data_path="data.csv", target_column="y", max_models=5,
                              epsilon=10.0, n_boot=50, out_dir="out"),
                    save_pool_path="pool.json")
    finally:
        os.chdir(cwd)
    return root, list(ds.feature_names)


@pytest.fixture
def run_copy(real_run, tmp_path):
    root, names = real_run
    shutil.copytree(root, tmp_path / "run")
    return tmp_path / "run", names


def test_real_outputs_pass(run_copy):
    root, names = run_copy
    facts = outputs.check_outputs(str(root), "out", names, "pool.json")
    assert facts["rss"] == 5 and facts["mss"] == 5 and facts["rr"] == 1.0
    assert len(facts["families"]) == 5


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _swap_band(rows):
    rows[1][3], rows[1][4] = rows[1][4], rows[1][3]
    rows[1][3] = str(float(rows[1][3]) + 1.0)


def _drop_member_column(rows):
    for row in rows:
        del row[-1]


def _set(key, value):
    def edit(payload):
        payload["rashomon"][key] = value
    return edit


def _coverage(value):
    def edit(payload):
        next(iter(payload["features"].values()))["cr"] = value
    return edit


def _summary_field(index, value):
    def edit(rows):
        rows[1][index] = value
    return edit


@pytest.mark.parametrize("target, edit, message", [
    ("out/profile_x1.csv", _swap_band, "ci_lo"),
    ("out/profile_x1.csv", _drop_member_column, "header"),
    ("out/metrics.json", _set("rr", 0.5), "rr is not rss / mss"),
    ("out/metrics.json", _set("rss", 4), "rss"),
    ("out/metrics.json", _coverage(1.5), "coverage rate"),
    ("out/summary.csv", _summary_field(3, "4"), "mss/rss"),
    ("out/summary.csv", _summary_field(6, "0.123"), "cr"),
])
def test_broken_invariant_fails(run_copy, target, edit, message):
    root, names = run_copy
    path = str(root / target)
    (_edit_json if target.endswith(".json") else _edit_csv)(path, edit)
    with pytest.raises(outputs.CheckFailed, match=message):
        outputs.check_outputs(str(root), "out", names, "pool.json")


def test_missing_or_unparsable_output_fails(run_copy):
    root, names = run_copy
    (root / "out" / "profile_x2.svg").write_text("<svg>")
    with pytest.raises(outputs.CheckFailed, match="svg"):
        outputs.check_outputs(str(root), "out", names, "pool.json")
    os.remove(root / "out" / "summary.csv")
    with pytest.raises(outputs.CheckFailed, match="missing"):
        outputs.check_outputs(str(root), "out", names, "pool.json")


# ---------------------------------------------------------------------------
# failures and exits

def test_run_process_reports_exit_code(tmp_path):
    _, _, _, code = run.run_process([sys.executable, "-c", "import sys; sys.exit(3)"],
                                    str(tmp_path), dict(os.environ))
    assert code == 3


def test_nonzero_exit_counts_as_failure(tmp_path):
    bench = run.Bench(workloads.WORKLOADS["train"], str(tmp_path))
    sample = bench.explain(bench.workload, {"files": {}, "names": ["x4"]}, tag="no-data")
    assert sample.error is not None and sample.error.startswith("exit ")
    assert (bench.attempted, bench.failed) == (1, 1)


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# inputs

def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS.values():
        data = {}
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            path = tmp_path / f"{workload.name}-{tag}.csv"
            assert workload.write_data(seed, str(path))[0] == "x1"
            data[tag] = path.read_bytes()
        assert data["a"] == data["b"] != data["c"]
