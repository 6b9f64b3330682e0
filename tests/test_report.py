"""Orchestration: config handling, summary tables, file outputs, CLI."""

from __future__ import annotations

import codecs
import importlib.resources
import json
import math
import multiprocessing
import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from rashpdp import pdp
from rashpdp.cli import _read_suite_configs, main
from rashpdp.data import load_csv, save_csv, split
from rashpdp.errors import ConfigError, DataError
from rashpdp.learners import (
    KNearestNeighborsRegression,
    RidgeRegression,
    SearchBudget,
    TrainedModel,
    save_pool,
    train_pool,
)
from rashpdp.learners.tree import TreeEnsemble
from rashpdp.pdp import RashomonPdpResult
from rashpdp.report import (
    CONFIG_FIELDS,
    RunConfig,
    SuiteSummaryRow,
    config_from_mapping,
    correlate_rows,
    correlate_summary,
    parse_config_file,
    read_summary_csv,
    run_dataset,
    run_suite,
    write_summary_csv,
)
from rashpdp.svgplot import emit_svg
from rashpdp.synthetic import make_linear

FIXTURE = str(importlib.resources.files("rashpdp.resources") / "benchmark_summary.csv")


@pytest.fixture(scope="module")
def linear_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "linear.csv"
    save_csv(make_linear(n_rows=120, noise=0.2, seed=5, name="linear"), path)
    return str(path)


def quick_config(data_path, out_dir, **overrides):
    base = dict(
        data_path=data_path, target_column="y", features=("x1",),
        max_models=5, n_boot=150, grid_size=8, seed=11, out_dir=str(out_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestSummaryCsv:
    def test_round_trip_with_undefined_rows(self, tmp_path):
        rows = [
            SuiteSummaryRow("alpha", 1.2345678901234567, 20, 3, 0.15, 0.987654321, 0.7),
            SuiteSummaryRow("beta", 2.0, 10, 1, None, None, None),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "dataset,bmp,mss,rss,rr,mwci,cr"
        assert ",-,-,-" in text.splitlines()[2]
        back = read_summary_csv(path)
        assert back == rows  # 17g formatting round-trips float64 exactly

    def test_fixture_is_a_valid_summary(self):
        rows = read_summary_csv(FIXTURE)
        assert len(rows) == 35
        undefined = [r for r in rows if r.rr is None]
        assert len(undefined) == 6
        assert all(r.rss == 1 for r in undefined)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "marked.csv"
        with open(FIXTURE, "rb") as fh:
            path.write_bytes(codecs.BOM_UTF8 + fh.read())
        assert read_summary_csv(path) == read_summary_csv(FIXTURE)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_summary_csv(path)


# (config key, a value its rule rejects, the message validate() raises)
RULE_CASES = [
    ("data", "", "data must be set, got ''"),
    ("target", "", "target must be set, got ''"),
    ("features", ("x1", ""), "features must be non-blank names without ',', got ('x1', '')"),
    ("features", (" ",), "features must be non-blank names without ',', got (' ',)"),
    ("features", ("x1,x2",), "features must be non-blank names without ',', got ('x1,x2',)"),
    ("epsilon", -1.0, "epsilon must be finite and > 0, got -1.0"),
    ("epsilon", 0.0, "epsilon must be finite and > 0, got 0.0"),
    ("epsilon", math.nan, "epsilon must be finite and > 0, got nan"),
    ("epsilon", math.inf, "epsilon must be finite and > 0, got inf"),
    ("max_models", 0, "max_models must be >= 1, got 0"),
    ("max_runtime_secs", 0.0, "max_runtime_secs must be finite and > 0, got 0.0"),
    ("max_runtime_secs", math.nan, "max_runtime_secs must be finite and > 0, got nan"),
    ("max_runtime_secs", math.inf, "max_runtime_secs must be finite and > 0, got inf"),
    ("test_fraction", 0.0, "test_fraction must be in (0, 1), got 0.0"),
    ("test_fraction", 1.0, "test_fraction must be in (0, 1), got 1.0"),
    ("test_fraction", math.nan, "test_fraction must be in (0, 1), got nan"),
    ("grid", 1, "grid must be >= 2, got 1"),
    ("bootstrap", 0, "bootstrap must be >= 1, got 0"),
    ("alpha", 0.0, "alpha must be in (0, 1), got 0.0"),
    ("alpha", 1.0, "alpha must be in (0, 1), got 1.0"),
    ("alpha", math.nan, "alpha must be in (0, 1), got nan"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("out", "", "out must be set, got ''"),
]


class TestConfigFiles:
    def test_parse_and_build(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "data = d.csv\n"
            "target = y\n"
            "features = x1, x2\n"
            "epsilon = 0.1\n"
            "max_models = 7\n"
            "grid = 12\n"
            "bootstrap = 321\n"
            "alpha = 0.2\n"
            "seed = 99\n",
            encoding="utf-8",
        )
        cfg = config_from_mapping(parse_config_file(cfg_file), base_dir=str(tmp_path))
        assert cfg.data_path == str(tmp_path / "d.csv")
        assert cfg.features == ("x1", "x2")
        assert cfg.epsilon == 0.1
        assert cfg.max_models == 7
        assert cfg.grid_size == 12
        assert cfg.n_boot == 321
        assert cfg.alpha == 0.2
        assert cfg.seed == 99

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        (tmp_path / "run.cfg").write_bytes(codecs.BOM_UTF8 + b"data = d.csv\ntarget = y\n")
        assert parse_config_file(tmp_path / "run.cfg") == {"data": "d.csv", "target": "y"}
        (tmp_path / "suite.txt").write_bytes(codecs.BOM_UTF8 + b"run.cfg\n")
        (cfg,) = _read_suite_configs(str(tmp_path / "suite.txt"))
        assert cfg.data_path == str(tmp_path / "d.csv")

    def test_empty_features_means_all(self):
        assert config_from_mapping({"features": ""}).features == ()

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg_file)

    def test_overrides_take_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("data = d.csv\ntarget = y\nseed = 1\n", encoding="utf-8")
        base = config_from_mapping(parse_config_file(cfg_file), base_dir=str(tmp_path))
        final = config_from_mapping({"seed": "42"}, defaults=base)
        assert final.seed == 42
        assert final.data_path == str(tmp_path / "d.csv")

    @pytest.mark.parametrize("key, value, message", RULE_CASES,
                             ids=[f"{key}={value!r}" for key, value, _ in RULE_CASES])
    def test_validation_errors(self, key, value, message):
        attr = next(f.attr for f in CONFIG_FIELDS if f.key == key)
        cfg = RunConfig(data_path="d", target_column="y", out_dir="o")
        cfg.validate()
        with pytest.raises(ConfigError) as info:
            replace(cfg, **{attr: value}).validate()
        assert str(info.value) == message

    def test_every_config_key_has_a_rule_case(self):
        assert {key for key, _, _ in RULE_CASES} == {f.key for f in CONFIG_FIELDS}


class TestRunDataset:
    def test_outputs_and_summary_row(self, linear_csv, tmp_path):
        cfg = quick_config(linear_csv, tmp_path / "out")
        row, results = run_dataset(cfg)
        assert row.dataset == "linear"
        assert row.mss == 5
        assert row.rss >= 1
        assert 0 < (row.rr or 1.0) <= 1.0
        produced = sorted(os.listdir(cfg.out_dir))
        assert produced == [
            "config.echo", "metrics.json", "profile_x1.csv",
            "profile_x1.svg", "summary.csv",
        ]
        report = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert report["dataset"] == "linear"
        assert len(report["pool"]) == 5
        assert report["config"]["seed"] == 11

    def test_same_config_twice_is_byte_identical(self, linear_csv, tmp_path):
        cfg_a = quick_config(linear_csv, tmp_path / "a")
        cfg_b = quick_config(linear_csv, tmp_path / "b")
        run_dataset(cfg_a)
        run_dataset(cfg_b)
        for name in ("profile_x1.csv", "profile_x1.svg", "summary.csv", "metrics.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            # out_dir differs on purpose; it only appears in provenance echoes
            if name in ("metrics.json",):
                a = a.replace(str(tmp_path / "a").encode(), b"OUT")
                b = b.replace(str(tmp_path / "b").encode(), b"OUT")
            assert a == b, name

    def test_unknown_feature_is_named_in_error(self, linear_csv, tmp_path):
        cfg = quick_config(linear_csv, tmp_path / "out", features=("nope",))
        with pytest.raises(ConfigError, match="unknown feature 'nope'"):
            run_dataset(cfg)

    def test_dataset_name_attached_to_data_errors(self, tmp_path):
        cfg = quick_config(str(tmp_path / "absent.csv"), tmp_path / "out")
        with pytest.raises(DataError, match="absent.csv"):
            run_dataset(cfg)

    def test_dataset_name_attached_to_pipeline_errors(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "x1,x2,y\n" + "".join(f"5.0,{i},{i}\n" for i in range(30)),
            encoding="utf-8",
        )
        cfg = quick_config(str(path), tmp_path / "out", features=("x1",), max_models=2)
        with pytest.raises(DataError, match="dataset 'flat'.*constant"):
            run_dataset(cfg)

    def test_pool_save_and_load_paths(self, linear_csv, tmp_path):
        pool_path = str(tmp_path / "pool.json")
        cfg = quick_config(linear_csv, tmp_path / "first")
        row_a, _ = run_dataset(cfg, save_pool_path=pool_path)
        cfg2 = quick_config(linear_csv, tmp_path / "second")
        row_b, _ = run_dataset(cfg2, load_pool_path=pool_path)
        assert row_a == row_b
        a = (tmp_path / "first" / "profile_x1.csv").read_bytes()
        b = (tmp_path / "second" / "profile_x1.csv").read_bytes()
        assert a == b


class TestRunSuite:
    def test_three_datasets_skip_correlation_with_warning(self, tmp_path):
        configs = []
        for i in range(3):
            path = tmp_path / f"d{i}.csv"
            save_csv(make_linear(n_rows=80, noise=0.3, seed=i, name=f"d{i}"), path)
            configs.append(quick_config(str(path), ""))
        rows, correlation, warnings = run_suite(configs, str(tmp_path / "suite"))
        assert len(rows) == 3
        assert correlation is None
        assert warnings and "4" in warnings[0]
        assert (tmp_path / "suite" / "summary.csv").is_file()
        report = json.loads((tmp_path / "suite" / "suite_report.json").read_text())
        assert report["correlation"] is None

    def test_empty_suite_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            run_suite([], str(tmp_path / "suite"))


class TestCorrelate:
    def test_fixture_reproduces_reference_correlation(self, tmp_path):
        result = correlate_summary(FIXTURE, str(tmp_path / "out"))
        assert result.n_pairs == 29
        assert result.rho == pytest.approx(-0.53, abs=0.02)
        payload = json.loads((tmp_path / "out" / "correlation.json").read_text())
        assert payload["n_defined"] == 29

    def test_too_few_defined_rows(self, tmp_path):
        rows = [SuiteSummaryRow(f"d{i}", 1.0, 5, 1, None, None, None) for i in range(5)]
        path = tmp_path / "sparse.csv"
        write_summary_csv(rows, path)
        with pytest.raises(ConfigError, match="at least 4"):
            correlate_rows(read_summary_csv(path))


class TestSvg:
    def make_result(self, n=5, spread=0.2):
        grid = np.linspace(0.0, 1.0, n)
        mean = np.sin(grid * 3)
        return RashomonPdpResult(
            feature_index=0, grid=grid,
            curves=np.array([mean - spread / 2, mean + spread / 2]), model_ids=(2, 5),
            best=0, ci_lo=mean - spread, ci_hi=mean + spread,
            n_boot=100, alpha=0.05, seed=0, feature_name="load",
        )

    def test_well_formed_with_band_and_lines(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg(self.make_result(), path, dataset_name="demo", target_name="output",
                 epsilon=0.05)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        polygons = root.findall(f".//{ns}polygon")
        polylines = root.findall(f".//{ns}polyline")
        assert len(polygons) == 1
        assert len(polylines) >= 2
        text = path.read_text(encoding="utf-8")
        assert "demo" in text and "load" in text and "B=100" in text

    def test_two_point_grid(self, tmp_path):
        path = tmp_path / "two.svg"
        emit_svg(self.make_result(n=2), path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        line = root.find(f".//{ns}polyline")
        assert len(line.get("points").split()) == 2

    def test_zero_width_band_still_one_polygon(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_svg(self.make_result(spread=0.0), path)
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}polygon")) == 1

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_svg(self.make_result(), tmp_path / "missing" / "x.svg")


class TestCli:
    def test_correlate_exit_zero(self, tmp_path, capsys):
        code = main(["correlate", "--summary", FIXTURE, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho=-0.5" in out

    def test_missing_required_flag_exit_one(self, tmp_path, capsys):
        code = main(["explain", "--target", "y", "--out", str(tmp_path)])
        assert code == 1
        assert "data" in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, capsys):
        assert main(["correlate", "--summary", "x", "--bogus"]) == 1

    def test_missing_data_file_exit_two(self, tmp_path, capsys):
        code = main([
            "explain", "--data", str(tmp_path / "absent.csv"), "--target", "y",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_pool_archive_exit_three(self, linear_csv, tmp_path, capsys):
        bad = tmp_path / "pool.json"
        bad.write_text("{}", encoding="utf-8")
        code = main([
            "explain", "--data", linear_csv, "--target", "y",
            "--load-pool", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "missing", ["models", "id", "family", "hyperparameters", "score", "state"]
    )
    def test_malformed_pool_archive_names_missing_key(self, linear_csv, tmp_path, capsys,
                                                      missing):
        ds = load_csv(linear_csv, "y")
        archive = tmp_path / "pool.json"
        save_pool(train_pool(ds, split(ds, 0.25, seed=0), SearchBudget(max_models=1)), archive)
        payload = json.loads(archive.read_text(encoding="utf-8"))
        del (payload if missing == "models" else payload["models"][0])[missing]
        archive.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "explain", "--data", linear_csv, "--target", "y",
            "--load-pool", str(archive), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(archive) in err
        assert f"missing key '{missing}'" in err

    # Edits of a saved two-model pool (ridge, CART); an edit that returns a
    # value replaces the whole payload.
    BAD_ARCHIVES = {
        "payload not an object": (lambda p: [p], "{path} is not a model-pool archive"),
        "models not a list": (lambda p: p.update(models={}),
                              "pool archive {path}: 'models' must be a list"),
        "model not an object": (lambda p: p["models"].__setitem__(0, 5),
                                "pool archive {path}: model 0: entry must be an object, got int"),
        "state missing field": (lambda p: p["models"][0]["state"].__delitem__("coef"),
                                "pool archive {path}: model 0: "
                                "RidgeRegression state is missing field 'coef'"),
        "mistyped field": (lambda p: p["models"][0]["state"].update(coef="abc"),
                           "pool archive {path}: model 0: "
                           "RidgeRegression field 'coef': expected a list, got str"),
        "null threshold": (lambda p: p["models"][1]["state"]["threshold"].__setitem__(0, None),
                           "pool archive {path}: model 1: "
                           "RegressionTree field 'threshold': expected finite numbers"),
        "tree cycle": (lambda p: p["models"][1]["state"]["left"].__setitem__(0, 0),
                       "pool archive {path}: model 1: "
                       "RegressionTree 0 field 'left': node 0 has 0, expected 1.."),
        "fractional child": (lambda p: p["models"][1]["state"]["left"].__setitem__(0, 1.5),
                             "pool archive {path}: model 1: "
                             "RegressionTree field 'left': expected integers, got 1.5"),
        "string child": (lambda p: p["models"][1]["state"]["right"].__setitem__(0, "2"),
                         "pool archive {path}: model 1: "
                         "RegressionTree field 'right': expected integers, got '2'"),
        "bool child": (lambda p: p["models"][1]["state"]["left"].__setitem__(0, True),
                       "pool archive {path}: model 1: "
                       "RegressionTree field 'left': expected integers, got True"),
        "huge child": (lambda p: p["models"][1]["state"]["left"].__setitem__(0, 2**70),
                       "pool archive {path}: model 1: RegressionTree field 'left': "),
        "list family": (lambda p: p["models"][0].update(family=["LinearRidge"]),
                        "pool archive {path}: model 0: unknown model family ['LinearRidge']"),
        "list id": (lambda p: p["models"][0].update(id=[1]),
                    "pool archive {path}: model 0: key 'id' must be an integer, got [1]"),
        "string id": (lambda p: p["models"][0].update(id="0"),
                      "pool archive {path}: model 0: key 'id' must be an integer, got '0'"),
        "bool id": (lambda p: p["models"][0].update(id=False),
                    "pool archive {path}: model 0: key 'id' must be an integer, got False"),
        "repeated id": (lambda p: p["models"][1].update(id=0),
                        "pool archive {path}: model 1: key 'id' repeats an earlier model's id 0"),
        "string score": (lambda p: p["models"][0].update(score="0.5"),
                         "pool archive {path}: model 0: "
                         "key 'score' must be a finite number, got '0.5'"),
        "nan score": (lambda p: p["models"][0].update(score=math.nan),
                      "pool archive {path}: model 0: "
                      "key 'score' must be a finite number, got nan"),
        "bool score": (lambda p: p["models"][0].update(score=True),
                       "pool archive {path}: model 0: "
                       "key 'score' must be a finite number, got True"),
        "list hyperparameters": (lambda p: p["models"][0].update(hyperparameters=[["alpha", 1]]),
                                 "pool archive {path}: model 0: "
                                 "key 'hyperparameters' must be an object, got [['alpha', 1]]"),
        "changed hyperparameter": (lambda p: p["models"][1]["hyperparameters"].update(max_depth=99),
                                   "pool archive {path}: model 1: "
                                   "key 'hyperparameters': 'max_depth' is 99, the state's is "),
        "retyped hyperparameter": (lambda p: p["models"][1]["hyperparameters"].update(
                                       max_depth=float(p["models"][1]["state"]["max_depth"])),
                                   "pool archive {path}: model 1: "
                                   "key 'hyperparameters': 'max_depth' is "),
        "unknown hyperparameter": (lambda p: p["models"][0]["hyperparameters"].update(bogus=1),
                                   "pool archive {path}: model 0: key 'hyperparameters' "
                                   "has 'bogus', which LinearRidge does not draw"),
        "missing hyperparameter": (lambda p: p["models"][1]["hyperparameters"].__delitem__("max_depth"),
                                   "pool archive {path}: model 1: key 'hyperparameters' "
                                   "lacks 'max_depth', which DecisionTree draws"),
    }

    @pytest.mark.parametrize("edit, message", BAD_ARCHIVES.values(), ids=BAD_ARCHIVES.keys())
    def test_malformed_pool_archive_exit_three(self, linear_csv, tmp_path, capsys,
                                               edit, message):
        ds = load_csv(linear_csv, "y")
        archive = tmp_path / "pool.json"
        save_pool(train_pool(ds, split(ds, 0.25, seed=0), SearchBudget(max_models=2)), archive)
        payload = json.loads(archive.read_text(encoding="utf-8"))
        edited = edit(payload)
        archive.write_text(json.dumps(payload if edited is None else edited), encoding="utf-8")
        code = main([
            "explain", "--data", linear_csv, "--target", "y",
            "--load-pool", str(archive), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert message.format(path=archive) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # Edits of a saved pool of one ridge and one k-NN model whose fields no
    # longer agree with each other.
    INCONSISTENT_MODELS = {
        "ridge coef not a vector": (0, lambda s: s.update(coef=[s["coef"]]),
                                    "RidgeRegression field 'coef': shape (1, 3), "
                                    "expected a vector"),
        "ridge coef longer": (0, lambda s: s["coef"].append(1.0),
                              "RidgeRegression field 'center': shape (3,), "
                              "expected (4,) to match 'coef'"),
        "ridge scale shorter": (0, lambda s: s["scale"].pop(),
                                "RidgeRegression field 'scale': shape (2,), "
                                "expected (3,) to match 'coef'"),
        "ridge zero scale": (0, lambda s: s["scale"].__setitem__(1, 0.0),
                             "RidgeRegression field 'scale': zero at index 1"),
        "knn train_z not a matrix": (1, lambda s: s.update(train_z=s["train_z"][0]),
                                     "KNearestNeighborsRegression field 'train_z': "
                                     "shape (3,), expected a matrix"),
        "knn train_y doubled": (1, lambda s: s["train_y"].extend(s["train_y"]),
                                "KNearestNeighborsRegression field 'train_y': shape (180,), "
                                "expected (90,) to match 'train_z'"),
        "knn center shorter": (1, lambda s: s["center"].pop(),
                               "KNearestNeighborsRegression field 'center': shape (2,), "
                               "expected (3,) to match 'train_z'"),
        "knn scale longer": (1, lambda s: s["scale"].append(1.0),
                             "KNearestNeighborsRegression field 'scale': shape (4,), "
                             "expected (3,) to match 'train_z'"),
        "knn zero scale": (1, lambda s: s["scale"].__setitem__(0, 0.0),
                           "KNearestNeighborsRegression field 'scale': zero at index 0"),
    }

    @pytest.mark.parametrize("index, edit, message", INCONSISTENT_MODELS.values(),
                             ids=INCONSISTENT_MODELS.keys())
    def test_inconsistent_model_exit_three(self, linear_csv, tmp_path, capsys,
                                           index, edit, message):
        ds = load_csv(linear_csv, "y")
        train = np.asarray(split(ds, 0.25, seed=0).train_indices)
        X, y = ds.features[train], ds.target[train]
        pool = [TrainedModel(id=0, family="LinearRidge", hyperparameters={"alpha": 1.0},
                             predictor=RidgeRegression(1.0).fit(X, y), score=1.0),
                TrainedModel(id=1, family="KNearestNeighbors",
                             hyperparameters={"n_neighbors": 5, "weights": "uniform"},
                             predictor=KNearestNeighborsRegression(5).fit(X, y), score=1.0)]
        archive = tmp_path / "pool.json"
        save_pool(pool, archive)
        payload = json.loads(archive.read_text(encoding="utf-8"))
        edit(payload["models"][index]["state"])
        archive.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "explain", "--data", linear_csv, "--target", "y",
            "--load-pool", str(archive), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert f"pool archive {archive}: model {index}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pool_saved_into_the_output_directory_loads_back(self, linear_csv, tmp_path):
        flags = ["explain", "--data", linear_csv, "--target", "y", "--feature", "x1",
                 "--max-models", "3", "--bootstrap", "20", "--grid", "4"]
        archive = tmp_path / "out" / "pool.json"
        assert main(flags + ["--save-pool", str(archive), "--out", str(tmp_path / "out")]) == 0
        assert main(flags + ["--load-pool", str(archive), "--out", str(tmp_path / "loaded")]) == 0
        assert ((tmp_path / "loaded" / "profile_x1.csv").read_bytes()
                == (tmp_path / "out" / "profile_x1.csv").read_bytes())

    @pytest.mark.parametrize("target", ["data", "metrics.json", "config.echo", "summary.csv",
                                        "profile_x1.csv", "profile_x1.svg"])
    def test_archive_over_the_data_or_an_output_exit_one(self, linear_csv, tmp_path, capsys,
                                                         target):
        with open(linear_csv, "rb") as fh:
            before = fh.read()
        data = tmp_path / "d.csv"
        data.write_bytes(before)
        out = tmp_path / "out"
        archive = data if target == "data" else out / target
        code = main(["explain", "--data", str(data), "--target", "y", "--feature", "x1",
                     "--max-models", "2", "--bootstrap", "20", "--grid", "4",
                     "--save-pool", str(archive), "--out", str(out)])
        assert code == 1
        assert f"the pool archive {archive} would overwrite" in capsys.readouterr().err
        assert data.read_bytes() == before
        assert not out.exists()

    @pytest.mark.parametrize("name", ["summary.csv", "metrics.json", "profile_x1.csv"])
    def test_data_that_is_an_output_exit_one(self, linear_csv, tmp_path, capsys, name):
        out = tmp_path / "d"
        out.mkdir()
        data = out / name
        with open(linear_csv, "rb") as fh:
            data.write_bytes(fh.read())
        before = data.read_bytes()
        code = main(["explain", "--data", str(data), "--target", "y", "--feature", "x1",
                     "--max-models", "2", "--bootstrap", "20", "--grid", "4",
                     "--out", str(tmp_path / "elsewhere" / ".." / "d")])
        assert code == 1
        assert f"would overwrite {data}" in capsys.readouterr().err
        assert data.read_bytes() == before
        assert os.listdir(out) == [name]

    def test_suite_entry_whose_data_is_an_output_exit_one(self, linear_csv, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        with open(linear_csv, "rb") as fh:
            (tmp_path / "d" / "summary.csv").write_bytes(fh.read())
        (tmp_path / "run.cfg").write_text("data = d/summary.csv\ntarget = y\nout = d\n",
                                          encoding="utf-8")
        (tmp_path / "suite.txt").write_text("run.cfg\n", encoding="utf-8")
        code = main(["suite", "--configs", str(tmp_path / "suite.txt"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        data = tmp_path / "d" / "summary.csv"
        assert (f"suite entry 1 ('{data}'): dataset 'summary': the output {data} "
                f"would overwrite {data}" in capsys.readouterr().err)
        assert os.listdir(tmp_path / "d") == ["summary.csv"]
        assert not (tmp_path / "s").exists()

    @pytest.fixture(scope="class")
    def seed_42_archive(self, linear_csv, tmp_path_factory):
        """A two-model pool saved by `explain` on linear_csv at --seed 42."""
        archive = tmp_path_factory.mktemp("archive") / "pool.json"
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--feature", "x1",
            "--max-models", "2", "--bootstrap", "20", "--grid", "4", "--seed", "42",
            "--save-pool", str(archive), "--out", str(archive.parent / "o"),
        ])
        assert code == 0
        return archive

    def test_loaded_archive_that_is_an_output_exit_one(self, linear_csv, seed_42_archive,
                                                       tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        archive = out / "metrics.json"
        archive.write_bytes(seed_42_archive.read_bytes())
        code = main(["explain", "--data", linear_csv, "--target", "y", "--feature", "x1",
                     "--bootstrap", "20", "--grid", "4", "--seed", "42",
                     "--load-pool", str(archive), "--out", str(out)])
        assert code == 1
        assert (f"the output {archive} would overwrite {archive}"
                in capsys.readouterr().err)
        assert archive.read_bytes() == seed_42_archive.read_bytes()
        assert os.listdir(out) == ["metrics.json"]

    def test_save_pool_may_rewrite_the_loaded_archive(self, linear_csv, seed_42_archive,
                                                      tmp_path):
        archive = tmp_path / "pool.json"
        archive.write_bytes(seed_42_archive.read_bytes())
        code = main(["explain", "--data", linear_csv, "--target", "y", "--feature", "x1",
                     "--bootstrap", "20", "--grid", "4", "--seed", "42",
                     "--load-pool", str(archive), "--save-pool", str(archive),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert archive.read_bytes() == seed_42_archive.read_bytes()

    @pytest.mark.parametrize("data, flags", [
        ("linear", ["--seed", "7"]),
        ("linear", ["--test-fraction", "0.3"]),
        ("other", []),
    ], ids=["another seed", "another test fraction", "other same-width data"])
    def test_archive_scored_on_other_rows_exit_three(self, linear_csv, seed_42_archive,
                                                     tmp_path, capsys, data, flags):
        if data == "other":
            linear_csv = str(tmp_path / "other.csv")
            save_csv(make_linear(n_rows=120, noise=0.2, seed=6, name="other"), linear_csv)
        stored = json.loads(seed_42_archive.read_text(encoding="utf-8"))["models"][0]["score"]
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--seed", "42", *flags,
            "--load-pool", str(seed_42_archive), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"pool archive {seed_42_archive}: model 0: holdout RMSE on this data is " in err
        assert f"the archive says {stored!r}" in err
        assert not (tmp_path / "o").exists()

    def test_archive_of_another_width_exit_three(self, seed_42_archive, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        save_csv(make_linear(n_rows=120, noise=0.2, seed=5, n_noise_features=8, name="wide"),
                 wide)
        code = main([
            "explain", "--data", str(wide), "--target", "y", "--seed", "42",
            "--load-pool", str(seed_42_archive), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert (f"pool archive {seed_42_archive}: model 0: cannot predict this data's test rows"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--feature", ""], None),
        (["--feature", " "], None),
        ([], "features = ,\n"),
        ([], "features = x1,,x2\n"),
    ], ids=["empty flag", "blank flag", "empty config name", "blank config name"])
    def test_blank_feature_name_exit_one(self, linear_csv, tmp_path, capsys, flags, config):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
            flags = ["--config", str(tmp_path / "run.cfg")]
        code = main([
            "explain", "--data", linear_csv, "--target", "y", *flags,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "blank" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_features_sharing_an_output_file_exit_one(self, tmp_path, capsys):
        data = tmp_path / "clash.csv"
        data.write_text("x 1,x_1,y\n" + "".join(f"{i},{i % 7},{i % 5}\n" for i in range(60)),
                        encoding="utf-8")
        code = main(["explain", "--data", str(data), "--target", "y",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert ("features 'x 1' and 'x_1' both write profile_x_1.csv and profile_x_1.svg"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--feature", "x1", "--feature", "x2", "--feature", "x1"], None),
        ([], "features = x1,x1\n"),
    ], ids=["flags", "config"])
    def test_feature_named_twice_exit_one(self, linear_csv, tmp_path, capsys, flags, config):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
            flags = ["--config", str(tmp_path / "run.cfg")]
        code = main([
            "explain", "--data", linear_csv, "--target", "y", *flags,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "dataset 'linear': feature 'x1' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_suite_datasets_sharing_a_directory_exit_one(self, tmp_path, capsys):
        listing = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            save_csv(make_linear(n_rows=40, noise=0.3, seed=1, name="data"),
                     tmp_path / name / "data.csv")
            (tmp_path / name / "run.cfg").write_text("data = data.csv\ntarget = y\n",
                                                     encoding="utf-8")
            listing.append(f"{name}/run.cfg")
        (tmp_path / "suite.txt").write_text("\n".join(listing) + "\n", encoding="utf-8")
        code = main(["suite", "--configs", str(tmp_path / "suite.txt"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "data.csv") in err
        assert f"{tmp_path / 'b' / 'data.csv'}' both write to {tmp_path / 's' / 'data'}" in err
        assert not (tmp_path / "s").exists()

    def test_suite_dataset_writing_into_suite_out_exit_one(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name, out in (("d0", ""), ("d1", "out = ../s\n")):
            save_csv(make_linear(n_rows=40, noise=0.3, seed=1, name=name),
                     configs / f"{name}.csv")
            (configs / f"{name}.cfg").write_text(f"data = {name}.csv\ntarget = y\n{out}",
                                                 encoding="utf-8")
        (configs / "suite.txt").write_text("d0.cfg\nd1.cfg\n", encoding="utf-8")
        code = main(["suite", "--configs", str(configs / "suite.txt"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert (f"suite dataset '{configs / 'd1.csv'}' writes to {configs / '..' / 's'}, "
                "the suite's own output directory" in capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nan_epsilon_exit_one_before_training(self, linear_csv, tmp_path, capsys,
                                                  monkeypatch, value):
        def no_training(*args, **kwargs):
            raise AssertionError("train_pool was called")

        monkeypatch.setattr("rashpdp.report.train_pool", no_training)
        code = main(["explain", "--data", linear_csv, "--target", "y", "--epsilon", value,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"epsilon must be finite and > 0, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_feature_without_grid_span_exit_two_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train_pool was called")

        path = tmp_path / "flat_c.csv"
        rng = np.random.default_rng(3)
        path.write_text("a,b,c,y\n" + "".join(
            f"{a:.17g},{b:.17g},1.0,{a + b:.17g}\n" for a, b in rng.uniform(size=(80, 2))),
            encoding="utf-8")
        monkeypatch.setattr("rashpdp.report.train_pool", no_training)
        code = main(["explain", "--data", str(path), "--target", "y", "--max-models", "3",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dataset 'flat_c': feature 'c' is constant" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make, flags, message", [
        (lambda path: path.write_text("kept\n", encoding="utf-8"), ["--out", "taken"],
         "output directory taken is a file"),
        (lambda path: path.mkdir(), ["--save-pool", "taken", "--out", "o"],
         "pool archive taken is a directory"),
        (lambda path: path.write_text("kept\n", encoding="utf-8"), ["--out", "taken/sub"],
         "output directory taken/sub is under the file "),
        (lambda path: path.write_text("kept\n", encoding="utf-8"),
         ["--save-pool", "taken/pool.json", "--out", "o"],
         "the directory of pool archive taken/pool.json is a file"),
    ], ids=["--out a file", "--save-pool a directory", "--out under a file",
            "--save-pool under a file"])
    def test_path_that_cannot_be_written_exit_one_before_training(
            self, linear_csv, tmp_path, capsys, monkeypatch, make, flags, message):
        def no_training(*args, **kwargs):
            raise AssertionError("train_pool was called")

        monkeypatch.setattr("rashpdp.report.train_pool", no_training)
        monkeypatch.chdir(tmp_path)
        make(tmp_path / "taken")
        code = main(["explain", "--data", linear_csv, "--target", "y", *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no --out made
        assert (tmp_path / "taken").is_dir() or (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["correlate", "suite"])
    @pytest.mark.parametrize("out, message", [
        ("taken", "output directory taken is a file"),
        ("taken/sub", "output directory taken/sub is under the file "),
    ], ids=["--out a file", "--out under a file"])
    def test_correlate_and_suite_out_that_cannot_be_written_exit_one(
            self, linear_csv, tmp_path, capsys, monkeypatch, command, out, message):
        def no_training(*args, **kwargs):
            raise AssertionError("train_pool was called")

        monkeypatch.setattr("rashpdp.report.train_pool", no_training)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
        # the suite's entry runs into its own `out`, so only the suite's --out is checked
        (tmp_path / "run.cfg").write_text(f"data = {linear_csv}\ntarget = y\nout = o\n",
                                          encoding="utf-8")
        (tmp_path / "suite.txt").write_text("run.cfg\n", encoding="utf-8")
        flags = ["--summary", FIXTURE] if command == "correlate" else ["--configs", "suite.txt"]
        assert main([command, *flags, "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "suite.txt", "taken"]
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_feature_flag_with_comma_exit_one(self, linear_csv, tmp_path, capsys):
        code = main(["explain", "--data", linear_csv, "--target", "y", "--feature", "x1,x2",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert ("features must be non-blank names without ',', got ('x1,x2',)"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("second_config, code, message", [
        ("data = d1.csv\ntarget = y\nepsilon = 0\n", 1, "epsilon must be finite and > 0, got 0.0"),
        ("data = d1.csv\n", 1, "target must be set, got ''"),
        ("data = absent.csv\ntarget = y\n", 2, "no such file: {configs}/absent.csv"),
        ("data = d1.csv\ntarget = y\nout = d0.cfg\n", 1,
         "output directory {configs}/d0.cfg is a file"),
        ("data = d1.csv\ntarget = y\nout = d0.cfg/sub\n", 1,
         "output directory {configs}/d0.cfg/sub is under the file {configs}/d0.cfg"),
        ("data = d1.csv\ntarget = zz\n", 2, "target column 'zz' not found in {configs}/d1.csv"),
        ("data = d1.csv\ntarget = y\nfeatures = nope\n", 1,
         "dataset 'd1': unknown feature 'nope'"),
        ("data = d1.csv\ntarget = y\nfeatures = x1,x1\n", 1,
         "dataset 'd1': feature 'x1' is named more than once"),
        ("data = clash.csv\ntarget = y\n", 1,
         "dataset 'clash': features 'x 1' and 'x_1' both write profile_x_1.csv"),
        ("data = flat.csv\ntarget = y\n", 2, "dataset 'flat': feature 'c' is constant"),
        ("data = text.csv\ntarget = y\n", 2,
         "non-numeric feature column 'a': value 'abc' at data row 3"),
    ], ids=["zero epsilon", "no target", "missing data file", "output directory a file",
            "output directory under a file", "missing target column", "unknown feature",
            "feature named twice", "features sharing a file", "constant feature",
            "non-numeric cell"])
    def test_suite_checks_every_entry_before_running(self, tmp_path, capsys, second_config,
                                                     code, message):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name in ("d0", "d1"):
            save_csv(make_linear(n_rows=40, noise=0.3, seed=1, name=name),
                     configs / f"{name}.csv")
        rows = [f"{i},{i % 7},{i % 5}\n" for i in range(40)]
        for name, header, body in (("clash", "x 1,x_1,y", rows),
                                   ("flat", "a,c,y", [f"{i},1.0,{i % 5}\n" for i in range(40)]),
                                   ("text", "a,b,y", rows[:2] + ["abc,1,1\n"] + rows[3:])):
            (configs / f"{name}.csv").write_text(header + "\n" + "".join(body), encoding="utf-8")
        (configs / "d0.cfg").write_text("data = d0.csv\ntarget = y\n", encoding="utf-8")
        (configs / "d1.cfg").write_text(second_config, encoding="utf-8")
        (configs / "suite.txt").write_text("d0.cfg\nd1.cfg\n", encoding="utf-8")
        assert main(["suite", "--configs", str(configs / "suite.txt"),
                     "--out", str(tmp_path / "s")]) == code
        err = capsys.readouterr().err
        assert "suite entry 2" in err
        assert message.format(configs=configs) in err
        assert not (tmp_path / "s").exists()

    def test_explain_config_value_that_does_not_parse_names_the_file(self, linear_csv,
                                                                     tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"data = {linear_csv}\ntarget = y\nepsilon = abc\n",
                            encoding="utf-8")
        code = main(["explain", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert (f"error: {cfg_file}: invalid config value for 'epsilon': "
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_suite_config_value_that_does_not_parse_names_the_file(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        save_csv(make_linear(n_rows=40, noise=0.3, seed=1, name="d0"), configs / "d0.csv")
        (configs / "d0.cfg").write_text("data = d0.csv\ntarget = y\n", encoding="utf-8")
        (configs / "d1.cfg").write_text("data = d0.csv\ntarget = y\ngrid = 2.5\n",
                                        encoding="utf-8")
        (configs / "suite.txt").write_text("d0.cfg\nd1.cfg\n", encoding="utf-8")
        code = main(["suite", "--configs", str(configs / "suite.txt"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert (f"error: {configs / 'd1.cfg'}: invalid config value for 'grid': "
                in capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

    def test_explain_rejects_workers_below_one(self, linear_csv, tmp_path, capsys):
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--workers", "-3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "--workers must be >= 1, got -3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_suite_rejects_workers_below_one(self, tmp_path, capsys):
        suite_file = tmp_path / "suite.txt"
        suite_file.write_text("d0.cfg\n", encoding="utf-8")
        code = main(["suite", "--configs", str(suite_file), "--workers", "0",
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "--workers must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_worker_death_exit_three_and_no_worker_left(self, linear_csv, tmp_path,
                                                        monkeypatch, capsys):
        # the fork carries the patched fit into the workers, which die in it
        monkeypatch.setattr(RidgeRegression, "fit", lambda self, X, y: os._exit(1))
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--max-models", "3",
            "--workers", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert ("runtime failure: model 0 (LinearRidge): worker process died"
                in capsys.readouterr().err)
        assert multiprocessing.active_children() == []

    def test_member_pass_worker_death_exit_three_and_no_worker_left(self, linear_csv, tmp_path,
                                                                   monkeypatch, capsys):
        # the fork carries the patched pass into the workers, which die in it
        monkeypatch.setattr(pdp, "member_profiles", lambda *args, **kwargs: os._exit(1))
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--max-models", "3",
            "--epsilon", "10", "--workers", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert ("runtime failure: member 0 (LinearRidge): worker process died"
                in capsys.readouterr().err)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_member_pass_error_exit_three_under_any_workers(self, linear_csv, tmp_path,
                                                            monkeypatch, capsys, workers):
        # every tree member's pass gives NaN; ridge (model 0) profiles first
        monkeypatch.setattr(TreeEnsemble, "predict_grid",
                            lambda self, base, grids: [np.full(len(base) * g.size, np.nan)
                                                       for g in grids.values()])
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--max-models", "3",
            "--epsilon", "10", "--workers", workers, "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "runtime failure: model 1 (DecisionTree) produced non-finite predictions\n")
        assert multiprocessing.active_children() == []

    def test_explain_end_to_end(self, linear_csv, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = main([
            "explain", "--data", linear_csv, "--target", "y", "--feature", "x1",
            "--max-models", "5", "--bootstrap", "100", "--grid", "6",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "profile_x1.csv").is_file()
        assert (out / "profile_x1.svg").is_file()
        assert "linear:" in capsys.readouterr().out

    def test_suite_command(self, tmp_path, capsys):
        data = tmp_path / "suite_data"
        data.mkdir()
        listing = []
        for i in range(2):
            csv_path = data / f"d{i}.csv"
            save_csv(make_linear(n_rows=60, noise=0.3, seed=i, name=f"d{i}"), csv_path)
            cfg_path = data / f"d{i}.cfg"
            cfg_path.write_text(
                f"data = d{i}.csv\ntarget = y\nfeatures = x1\n"
                "max_models = 4\nbootstrap = 80\ngrid = 6\nseed = 2\n",
                encoding="utf-8",
            )
            listing.append(f"d{i}.cfg")
        suite_file = data / "suite.txt"
        suite_file.write_text("\n".join(listing) + "\n", encoding="utf-8")
        code = main(["suite", "--configs", str(suite_file), "--out", str(tmp_path / "s")])
        assert code == 0
        assert (tmp_path / "s" / "summary.csv").is_file()
