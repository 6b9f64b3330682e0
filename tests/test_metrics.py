"""Agreement metrics and the rank-correlation analysis."""

from __future__ import annotations

import importlib.resources
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rashpdp
from rashpdp.metrics import _mid_ranks, compute_metrics, coverage_rate, mwci, spearman
from rashpdp.pdp import RashomonPdpResult, bootstrap_bands
from rashpdp.report import read_summary_csv


def make_result(best_values, ci_lo, ci_hi, grid=None):
    best_values = np.asarray(best_values, dtype=np.float64)
    if grid is None:
        grid = np.arange(best_values.size, dtype=np.float64)
    return RashomonPdpResult(
        feature_index=0, grid=np.asarray(grid, dtype=np.float64),
        curves=best_values[None, :], model_ids=(0,), best=0,
        mean=best_values, ci_lo=np.asarray(ci_lo, dtype=np.float64),
        ci_hi=np.asarray(ci_hi, dtype=np.float64), n_boot=10, alpha=0.05, seed=0,
    )


class TestMwci:
    def test_zero_width_bands(self):
        r = make_result([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
        assert mwci(r) == 0.0

    def test_mean_of_widths(self):
        r = make_result([0.0, 0.0], [0.0, 0.0], [1.0, 3.0])
        assert mwci(r) == 2.0

    def test_matches_band_construction(self):
        cs = np.array([[0.0, 0.0], [1.0, 1.0]])
        lo, hi = bootstrap_bands(cs, n_boot=200, alpha=0.05, seed=5)
        r = RashomonPdpResult(
            feature_index=0, grid=np.array([0.0, 1.0]), curves=cs, model_ids=(0, 1),
            best=0, mean=cs.mean(axis=0), ci_lo=lo, ci_hi=hi, n_boot=200,
            alpha=0.05, seed=5,
        )
        assert mwci(r) == pytest.approx(float(np.mean(hi - lo)))


class TestCoverageRate:
    def test_degenerate_band_covers_best(self):
        v = [1.0, 2.0, 3.0]
        r = make_result(v, v, v)
        assert coverage_rate(r) == 1.0

    def test_best_entirely_above_band(self):
        r = make_result([10.0, 10.0], [0.0, 0.0], [1.0, 1.0])
        assert coverage_rate(r) == 0.0

    def test_eighteen_of_twenty(self):
        best = np.zeros(20)
        lo = np.full(20, -1.0)
        hi = np.full(20, 1.0)
        lo[3], hi[3] = 5.0, 6.0
        lo[11], hi[11] = 5.0, 6.0
        r = make_result(best, lo, hi)
        assert coverage_rate(r) == pytest.approx(0.9)

    def test_boundary_counts_as_covered(self):
        r = make_result([1.0, 2.0], [1.0, 0.0], [5.0, 2.0])
        assert coverage_rate(r) == 1.0


class TestComputeMetrics:
    def test_defined_iff_multiple_members(self):
        r = make_result([1.0], [1.0], [1.0], grid=np.array([0.0]))
        two = replace(r, curves=np.array([[1.0], [2.0]]), model_ids=(0, 1))
        assert compute_metrics(r).defined is False
        assert compute_metrics(two).defined is True

    def test_singleton_values_are_degenerate(self):
        v = [1.0, 2.0]
        m = compute_metrics(make_result(v, v, v))
        assert m.mwci == 0.0
        assert m.cr == 1.0


class TestSpearman:
    def test_perfect_concordance(self):
        xs = np.array([1.0, 2.0, 5.0, 9.0, 20.0])
        r = spearman(xs, xs)
        assert r.rho == 1.0
        assert r.p_value == 0.0
        assert r.ci_lo == r.ci_hi == 1.0

    def test_perfect_discordance(self):
        xs = np.array([1.0, 2.0, 5.0, 9.0])
        r = spearman(xs, xs[::-1].copy())
        assert r.rho == -1.0

    def test_matches_scipy_on_tied_data(self):
        from scipy import stats

        rng = np.random.default_rng(0)
        xs = np.round(rng.normal(size=40), 1)
        ys = np.round(rng.normal(size=40) + 0.5 * xs, 1)
        ours = spearman(xs, ys)
        theirs = stats.spearmanr(xs, ys)
        assert ours.rho == pytest.approx(float(theirs.statistic), abs=1e-12)
        assert ours.p_value == pytest.approx(float(theirs.pvalue), abs=1e-10)

    def test_ranks_and_tails_equal_scipy_stats_exactly(self):
        # spearman avoids importing scipy.stats; its stand-ins must agree bit for bit.
        from scipy import special, stats

        rng = np.random.default_rng(1)
        for values in (np.round(rng.normal(size=57), 1), rng.integers(0, 4, 30) * 1.0,
                       rng.normal(size=9)):
            np.testing.assert_array_equal(_mid_ranks(values),
                                          stats.rankdata(values, method="average"))
        assert special.ndtri(0.975) == stats.norm.ppf(0.975)
        for t, df in ((0.3, 5), (2.7, 27), (11.0, 2)):
            assert special.stdtr(df, -t) == stats.t.sf(t, df=df)

    def test_benchmark_fixture_reproduces_reference_analysis(self):
        path = importlib.resources.files("rashpdp.resources") / "benchmark_summary.csv"
        rows = read_summary_csv(str(path))
        defined = [(r.rr, r.cr) for r in rows if r.rr is not None]
        assert len(defined) == 29
        result = spearman([d[0] for d in defined], [d[1] for d in defined])
        assert result.rho == pytest.approx(-0.53, abs=0.02)
        assert result.ci_lo == pytest.approx(-0.75, abs=0.05)
        assert result.ci_hi == pytest.approx(-0.19, abs=0.05)
        assert result.p_value == pytest.approx(0.003, abs=0.002)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            spearman(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman(np.ones(5), np.arange(5.0))

    def test_nan_rejected(self):
        xs = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(ValueError, match="finite"):
            spearman(xs, np.arange(4.0))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=25)
        ys = rng.normal(size=25)
        base = spearman(xs, ys).rho
        assert spearman(np.exp(xs), ys).rho == pytest.approx(base, abs=1e-12)
        assert spearman(xs, ys**3).rho == pytest.approx(base, abs=1e-12)


# scipy.stats would be most of the start-up cost of every run, and
# urllib.request (which xml.sax.saxutils imports) about a sixth of it.
@pytest.mark.parametrize("module", ["scipy.stats", "urllib.request"])
def test_importing_the_cli_leaves_module_unloaded(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rashpdp.__file__)))
    probe = f"import sys, rashpdp.cli; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.strip() == "False"
