"""Acceptance gate: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import importlib.resources
import itertools
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rashpdp.data import feature_grid, save_csv, split
from rashpdp.learners import LINEAR_RIDGE, RidgeRegression, TrainedModel, rmse
from rashpdp.metrics import coverage_rate, mwci
from rashpdp.pdp import pdp_single, rashomon_profile, _percentile_band
from rashpdp.rashomon import form_set
from rashpdp.report import RunConfig, correlate_summary, read_summary_csv, run_dataset
from rashpdp.seeding import ROLE_SPLIT, derive_seed
from rashpdp.synthetic import make_linear

from test_pdp import oracle_band

RESOURCES = importlib.resources.files("rashpdp.resources")
FIXTURE = str(RESOURCES / "benchmark_summary.csv")
BENCHMARK = str(RESOURCES / "friedman_benchmark.csv")


def report(criterion: int, detail: str) -> None:
    print(f"acceptance criterion {criterion}: PASS — {detail}")


def test_criterion_1_correlation_reproduction(tmp_path):
    started = time.monotonic()
    result = correlate_summary(FIXTURE, str(tmp_path / "out"))
    elapsed = time.monotonic() - started
    assert result.n_pairs == 29
    assert result.rho == pytest.approx(-0.53, abs=0.02)
    assert result.ci_lo == pytest.approx(-0.75, abs=0.05)
    assert result.ci_hi == pytest.approx(-0.19, abs=0.05)
    assert result.p_value < 0.01
    assert elapsed < 1.0
    report(1, f"rho={result.rho:.4f} ci=[{result.ci_lo:.4f},{result.ci_hi:.4f}] "
              f"p={result.p_value:.4f} in {elapsed:.3f}s")


def test_criterion_2_rashomon_ratio_arithmetic():
    started = time.monotonic()
    rows = read_summary_csv(FIXTURE)
    checked = 0
    for row in rows:
        if row.rr is None:
            continue
        assert abs(row.rss / row.mss - row.rr) <= 1e-4, row.dataset
        checked += 1
    assert checked == 29
    spot = {r.dataset: r for r in rows}
    assert round(spot["abalone"].rss / spot["abalone"].mss, 4) == 0.6842
    assert round(spot["cars"].rss / spot["cars"].mss, 4) == 0.0909
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(2, f"{checked} published ratios match rss/mss to 4 d.p. in {elapsed:.3f}s")


def test_criterion_3_out_of_scope_note():
    # Published BMP/RSS/MWCI/CR depend on an external AutoML pool trained
    # under a 360 s budget and are out of scope at desk scale; criteria 4-9
    # substitute for them.
    report(3, "published BMP/RSS/MWCI/CR not reproduced (substituted by 4-9)")


def test_criterion_4_analytic_linear_oracle():
    started = time.monotonic()
    ds = make_linear(n_rows=500, slope=2.0, intercept=3.0, n_noise_features=2,
                     noise=0.0, seed=17)
    sp = split(ds, 0.25, derive_seed(17, ROLE_SPLIT))
    train = np.asarray(sp.train_indices)
    test = np.asarray(sp.test_indices)

    alphas = [1e-9, 3e-9, 1e-8, 3e-8, 1e-7]
    pool = []
    for i, alpha in enumerate(alphas):
        ridge = RidgeRegression(alpha=alpha).fit(ds.features[train], ds.target[train])
        score = rmse(ridge.predict_many(ds.features[test]), ds.target[test])
        pool.append(TrainedModel(id=i, family=LINEAR_RIDGE,
                                 hyperparameters={"alpha": alpha},
                                 predictor=ridge, score=score))

    grid = np.linspace(-4.0, 4.0, 20)
    curve = pdp_single(pool[0], ds, train, 0, grid)
    slope, intercept = np.polyfit(grid, curve, 1)
    assert abs(slope - 2.0) <= 1e-4
    residual = curve - (slope * grid + intercept)
    assert np.max(np.abs(residual)) <= 1e-6  # affine, not just sloped

    scores = [m.score for m in pool]
    epsilon = (max(scores) / max(min(scores), 1e-300) - 1.0) * 1.1 + 0.01
    rset = form_set(pool, epsilon)
    assert rset.rss == len(pool)
    grids = {0: feature_grid(ds, 0, 20, rows=sp.train_indices)}
    result = rashomon_profile(rset, ds, sp, grids, n_boot=500, alpha=0.05, seed=17)[0]
    width = mwci(result)
    assert width < 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, f"slope={slope:.6f}, mwci={width:.2e} over {rset.rss} near-exact fits "
              f"in {elapsed:.2f}s")


def test_criterion_5_bootstrap_enumeration_equivalence():
    started = time.monotonic()
    cases = 0
    for values in [(0.0, 1.0), (0.0, 1.0, 2.0)]:
        n_curves = len(values)
        replicate_support = sorted({
            sum(draw) / n_curves
            for draw in itertools.product(values, repeat=n_curves)
        })
        for n_boot in range(1, 9):
            for means in itertools.combinations_with_replacement(replicate_support, n_boot):
                arr = np.asarray(means)[:, None]
                for alpha in (0.05, 0.5):
                    lo, hi = _percentile_band(arr, alpha)
                    olo, ohi = oracle_band(list(means), alpha)
                    assert lo[0] == pytest.approx(olo, abs=1e-15)
                    assert hi[0] == pytest.approx(ohi, abs=1e-15)
                    cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(5, f"{cases} enumerated replicate outcomes match type-7 oracle exactly "
              f"in {elapsed:.2f}s")


def test_criterion_6_singleton_degeneracy(tmp_path):
    # a noise-free linear dataset makes the ridge model untouchable, so the
    # 5% Rashomon set is a singleton
    data_path = tmp_path / "exact.csv"
    save_csv(make_linear(n_rows=150, noise=0.0, seed=23, name="exact"), data_path)
    cfg = RunConfig(data_path=str(data_path), target_column="y", features=("x1",),
                    max_models=5, n_boot=200, grid_size=10, seed=23,
                    out_dir=str(tmp_path / "out"))
    row, results = run_dataset(cfg)
    assert row.rss == 1
    result = results["x1"]
    np.testing.assert_array_equal(result.ci_lo, result.ci_hi)
    assert mwci(result) == 0.0
    assert coverage_rate(result) == 1.0
    assert row.rr is None and row.mwci is None and row.cr is None
    summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1].endswith(",-,-,-")
    report(6, "singleton set: zero-width bands, mwci=0, cr=1, '-' in summary")


def test_criterion_7_invariant_suite():
    import test_properties as props

    started = time.monotonic()
    props.test_membership_grows_with_epsilon()
    props.test_wider_alpha_gives_nested_band()
    props.test_affine_transform_maps_mean_and_bands()
    props.test_coverage_rate_is_a_fraction()
    props.test_mean_within_pointwise_envelope()
    props.test_boundary_points_count_as_covered()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(7, f"6 invariant properties x 100 random cases in {elapsed:.1f}s")


def test_criterion_8_byte_identical_outputs(tmp_path):
    # noisy enough that several models tie, so the profiles average several
    # member curves; the pool trained by 1, 2 or 4 worker processes and every
    # output must be the same bytes
    data_path = tmp_path / "d.csv"
    save_csv(make_linear(n_rows=120, noise=3.0, seed=2, name="d"), data_path)
    from rashpdp.cli import main

    outputs = []
    for workers in ("1", "2", "4"):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        code = main([
            "explain", "--data", str(data_path), "--target", "y",
            "--feature", "x1", "--max-models", "5", "--bootstrap", "300",
            "--grid", "10", "--seed", "6", "--workers", workers,
            "--save-pool", str(out / "pool.json"), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out)
    row = read_summary_csv(outputs[0] / "summary.csv")[0]
    assert row.rss >= 2
    for name in ("pool.json", "profile_x1.csv", "profile_x1.svg", "summary.csv"):
        blobs = [(o / name).read_bytes() for o in outputs]
        assert blobs[0] == blobs[1] == blobs[2], name
    report(8, f"pool and explain outputs byte-identical across 1, 2 and 4 workers "
              f"(rss={row.rss})")


def test_criterion_9_end_to_end_benchmark(tmp_path):
    started = time.monotonic()
    cfg = RunConfig(data_path=BENCHMARK, target_column="y", features=("x4",),
                    epsilon=0.05, max_models=20, seed=42,
                    out_dir=str(tmp_path / "out"))
    row, results = run_dataset(cfg)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    assert row.rss >= 2
    assert row.mwci is not None and math.isfinite(row.mwci)
    assert row.cr is not None and math.isfinite(row.cr)
    svg_text = (tmp_path / "out" / "profile_x4.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polygon")) == 1
    assert len(root.findall(f".//{ns}polyline")) >= 2
    report(9, f"1000-row benchmark: rss={row.rss}, mwci={row.mwci:.4f}, "
              f"cr={row.cr:.2f} in {elapsed:.1f}s")
