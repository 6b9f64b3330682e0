"""Pipeline orchestration: single-dataset runs, suites, and summary analysis."""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict, dataclass, replace
from pathlib import PurePath
from typing import Any, Callable, NamedTuple

from .data import DEFAULT_GRID_SIZE, DEFAULT_TEST_FRACTION, feature_grid, load_csv, split
from .errors import ConfigError, DataError
from .learners.archive import check_scores, load_pool, save_pool
from .learners.pool import DEFAULT_MAX_MODELS, DEFAULT_MAX_RUNTIME_SECS, SearchBudget, train_pool
from .metrics import CorrelationResult, compute_metrics, spearman
from .pdp import DEFAULT_ALPHA, DEFAULT_BOOTSTRAP_COUNT, rashomon_profile, write_profile_csv
from .rashomon import DEFAULT_EPSILON, form_set
from .seeding import ROLE_POOL, ROLE_SPLIT, derive_seed
from .svgplot import emit_svg

SUMMARY_HEADER = ("dataset", "bmp", "mss", "rss", "rr", "mwci", "cr")
NA = "-"


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one dataset run; echoed into every output
    directory for provenance."""

    data_path: str = ""
    target_column: str = ""
    features: tuple[str, ...] = ()
    epsilon: float = DEFAULT_EPSILON
    max_models: int = DEFAULT_MAX_MODELS
    max_runtime_secs: float = DEFAULT_MAX_RUNTIME_SECS
    test_fraction: float = DEFAULT_TEST_FRACTION
    grid_size: int = DEFAULT_GRID_SIZE
    n_boot: int = DEFAULT_BOOTSTRAP_COUNT
    alpha: float = DEFAULT_ALPHA
    seed: int = 42
    out_dir: str = ""

    def validate(self) -> None:
        """Check every field against its CONFIG_FIELDS rule, in table order."""
        for f in CONFIG_FIELDS:
            value = getattr(self, f.attr)
            if not f.holds(value):
                raise ConfigError(f"{f.key} must be {f.rule}, got {value!r}")


@dataclass(frozen=True)
class SuiteSummaryRow:
    """One dataset's line in the suite summary table.

    rr/mwci/cr are None exactly when the Rashomon set is a singleton; they
    render as "-" in the CSV.
    """

    dataset: str
    bmp: float
    mss: int
    rss: int
    rr: float | None
    mwci: float | None
    cr: float | None

    def __post_init__(self) -> None:
        undefined = (self.rr is None, self.mwci is None, self.cr is None)
        if any(undefined) != all(undefined):
            raise ValueError("rr, mwci and cr must be defined or undefined together")


# ---------------------------------------------------------------------------
# config files and echo

def _path(text: str) -> str:
    """Parser of path values; config_from_mapping resolves relative ones."""
    return text


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",")) if text.strip() else ()


class ConfigField(NamedTuple):
    """One run-config key: its name in config files, `config.echo` and
    metrics.json, the RunConfig field it sets, the parser of its text, and
    the rule its value must meet (`rule` completes "<key> must be"; `holds`
    tests it, stated positively so that NaN fails). `explain` takes it as
    `--<key>` with '-' for '_' (features: `--feature`, one name per flag,
    repeatable)."""

    key: str
    attr: str
    parse: Callable[[str], Any]
    rule: str
    holds: Callable[[Any], bool]
    help: str | None = None


CONFIG_FIELDS = (
    ConfigField("data", "data_path", _path, "set", bool, "input CSV path"),
    ConfigField("target", "target_column", str, "set", bool, "target column name"),
    ConfigField("features", "features", _names, "non-blank names without ','",
                lambda names: all(name.strip() and "," not in name for name in names),
                "feature to profile, one name per flag (repeatable; default: all)"),
    ConfigField("epsilon", "epsilon", float, "finite and > 0",
                lambda v: math.isfinite(v) and v > 0),
    ConfigField("max_models", "max_models", int, ">= 1", lambda v: v >= 1),
    ConfigField("max_runtime_secs", "max_runtime_secs", float, "finite and > 0",
                lambda v: math.isfinite(v) and v > 0),
    ConfigField("test_fraction", "test_fraction", float, "in (0, 1)", lambda v: 0 < v < 1),
    ConfigField("grid", "grid_size", int, ">= 2", lambda v: v >= 2),
    ConfigField("bootstrap", "n_boot", int, ">= 1", lambda v: v >= 1),
    ConfigField("alpha", "alpha", float, "in (0, 1)", lambda v: 0 < v < 1),
    ConfigField("seed", "seed", int, ">= 0", lambda v: v >= 0),
    ConfigField("out", "out_dir", _path, "set", bool, "output directory"),
)


def _content_lines(path: str, kind: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of a config or suite file
    that is not blank or a '#' comment; a leading byte-order mark is skipped."""
    if not os.path.isfile(path):
        raise ConfigError(f"no such {kind} file: {path}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)]
    return [(lineno, text) for lineno, text in lines if text and not text.startswith("#")]


def parse_config_file(path: str | os.PathLike[str]) -> dict[str, str]:
    """Read a flat `key = value` config file; '#' starts a comment line. A key
    may be set once."""
    path = os.fspath(path)
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, text in _content_lines(path, "config"):
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{text}'")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in {f.key for f in CONFIG_FIELDS}:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key '{key}' repeats line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


def config_from_mapping(values: dict[str, str], base_dir: str = "",
                        defaults: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from flat string values, resolving paths against
    `base_dir`. Unset keys fall back to `defaults`."""
    cfg = defaults if defaults is not None else RunConfig()

    updates: dict[str, object] = {}
    for f in CONFIG_FIELDS:
        if f.key not in values:
            continue
        try:
            value = f.parse(values[f.key])
        except ValueError as exc:
            raise ConfigError(f"invalid config value for '{f.key}': {exc}") from None
        if f.parse is _path and base_dir and not os.path.isabs(value):
            value = os.path.join(base_dir, value)
        updates[f.attr] = value
    return replace(cfg, **updates)


def read_config_file(path: str) -> RunConfig:
    """The RunConfig of a config file, its relative paths resolved against the
    file's directory; a value that does not parse is reported with the file."""
    values = parse_config_file(path)
    try:
        return config_from_mapping(values, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_values(cfg: RunConfig) -> dict[str, Any]:
    """The config as metrics.json records it, keyed and ordered as CONFIG_FIELDS."""
    return {f.key: getattr(cfg, f.attr) for f in CONFIG_FIELDS}


def write_config_echo(cfg: RunConfig, path: str | os.PathLike[str]) -> None:
    lines = [
        f"{key} = {','.join(value) if isinstance(value, (tuple, list)) else value}"
        for key, value in _config_values(cfg).items()
    ]
    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# summary CSV

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_summary_csv(rows: list[SuiteSummaryRow], path: str | os.PathLike[str]) -> None:
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r in rows:
            writer.writerow([
                r.dataset,
                _fmt(r.bmp),
                str(r.mss),
                str(r.rss),
                NA if r.rr is None else _fmt(r.rr),
                NA if r.mwci is None else _fmt(r.mwci),
                NA if r.cr is None else _fmt(r.cr),
            ])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def read_summary_csv(path: str | os.PathLike[str]) -> list[SuiteSummaryRow]:
    """Parse a suite summary table (ours or the bundled benchmark fixture)."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise DataError(f"empty summary file: {path}") from None
        if header != SUMMARY_HEADER:
            raise DataError(
                f"unexpected summary header {header!r}; expected {SUMMARY_HEADER!r}"
            )
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(SUMMARY_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(SUMMARY_HEADER)} fields")
            dataset, bmp, mss, rss, rr, mwci_s, cr = (s.strip() for s in record)
            try:
                rows.append(SuiteSummaryRow(
                    dataset=dataset,
                    bmp=_finite(bmp),
                    mss=int(mss),
                    rss=int(rss),
                    rr=None if rr == NA else _finite(rr),
                    mwci=None if mwci_s == NA else _finite(mwci_s),
                    cr=None if cr == NA else _finite(cr),
                ))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def correlate_rows(rows: list[SuiteSummaryRow]) -> CorrelationResult:
    """Spearman correlation between Rashomon ratio and coverage rate over the
    rows with defined metrics; ConfigError if it is undefined there."""
    defined = [(r.rr, r.cr) for r in rows if r.rr is not None and r.cr is not None]
    if len(defined) < 4:
        raise ConfigError(
            f"need at least 4 rows with defined metrics for correlation, got {len(defined)}"
        )
    rr = [d[0] for d in defined]
    cr = [d[1] for d in defined]
    for name, column in (("rr", rr), ("cr", cr)):
        if len(set(column)) == 1:
            raise ConfigError(f"correlation is undefined: all {len(column)} rows with "
                              f"defined metrics have {name} {column[0]}")
    return spearman(rr, cr)


# ---------------------------------------------------------------------------
# runs

def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _write_json(payload: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _check_outputs(reads: list[tuple[str, str | None]], writes: list[tuple[str, str]]) -> None:
    """The one rule over planned (what, path) pairs, a None read skipped: raise
    ConfigError naming the paths unless each write's directory can be made, no
    write is a directory or a dangling link, and by real path no write is a read,
    another write or under either. The pool archive may rewrite the pool archive
    read: it holds the same pool. Creates nothing."""
    files = {os.path.realpath(path): (what, path) for what, path in reads if path is not None}
    for what, path in writes:
        # joined, not abspath: the system applies a '..' after the symlink before it
        directory, target = os.path.dirname(path), os.path.join(os.getcwd(), path)
        probe = target
        while not os.path.lexists(probe):  # a dangling link counts as existing
            probe = os.path.dirname(probe)
        kind = ("directory" if os.path.isdir(probe) else "file" if os.path.exists(probe)
                else "dangling link")
        if kind != ("file" if probe == target else "directory"):
            raise ConfigError(f"{what} {path} is a {kind}" if probe == target
                              else f"output directory {directory} is a {kind}"
                              if probe == os.path.dirname(target)
                              else f"output directory {directory} is under the {kind} {probe}")
        real = os.path.realpath(path)
        if real in files and (what, files[real][0]) != ("the pool archive", "the pool archive"):
            raise ConfigError(f"{what} {path} would overwrite {files[real][1]}")
        files[real] = (what, f"{what} {path}")
    for real, (_, named) in files.items():
        for parent in map(str, PurePath(real).parents):
            if parent in files:
                raise ConfigError(f"{named} would be under {files[parent][1]}")


class RunPlan(NamedTuple):
    """Every file one run writes, as `_prepare` decides them before training."""

    profiles: dict[str, tuple[str, str]]  # profiled feature -> its CSV and SVG
    metrics: str
    echo: str
    summary: str
    save_pool: str | None

    @property
    def writes(self) -> list[tuple[str, str]]:
        files = [self.metrics, self.echo, self.summary, *sum(self.profiles.values(), ())]
        pool = [] if self.save_pool is None else [("the pool archive", self.save_pool)]
        return [("the output", path) for path in files] + pool


def _prepare(cfg: RunConfig, load_pool_path: str | None = None,
             save_pool_path: str | None = None):
    """A run's checks before training, in `explain`'s order, each error naming
    the dataset; returns (dataset, split, grids, plan)."""
    cfg.validate()
    dataset = os.path.basename(cfg.data_path)  # its name until it is loaded
    try:
        ds = load_csv(cfg.data_path, cfg.target_column)
        dataset = ds.name
        stems: dict[str, str] = {}
        profiles: dict[str, tuple[str, str]] = {}
        for name in cfg.features or ds.feature_names:
            if name not in ds.feature_names:
                raise ConfigError(f"unknown feature '{name}'")
            if cfg.features.count(name) > 1:
                raise ConfigError(f"feature '{name}' is named more than once")
            stem = _safe_filename(name)
            if stems.setdefault(stem, name) != name:
                raise ConfigError(f"features '{stems[stem]}' and '{name}' "
                                  f"both write profile_{stem}.csv and profile_{stem}.svg")
            profiles[name] = tuple(os.path.join(cfg.out_dir, f"profile_{stem}.{ext}")
                                   for ext in ("csv", "svg"))
        outputs = [os.path.join(cfg.out_dir, name)
                   for name in ("metrics.json", "config.echo", "summary.csv")]
        plan = RunPlan(profiles, *outputs, save_pool_path)
        _check_outputs([("the pool archive", load_pool_path), ("the data", cfg.data_path)],
                       plan.writes)
        sp = split(ds, cfg.test_fraction, derive_seed(cfg.seed, ROLE_SPLIT))
        # The grids need only the training rows: a feature without a grid span
        # fails here, before any model is trained or output written.
        grids = {}
        for j in map(ds.feature_index, profiles):
            grids[j] = feature_grid(ds, j, cfg.grid_size, rows=sp.train_indices)
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"dataset '{dataset}': {exc}") from None
    return ds, sp, grids, plan


def run_dataset(cfg: RunConfig, load_pool_path: str | None = None,
                save_pool_path: str | None = None, workers: int = 1):
    """Execute the full pipeline for one dataset.

    Writes profile CSV + SVG per feature, metrics.json, config.echo, and a
    one-row summary.csv into cfg.out_dir, each to the path `_prepare` plans;
    returns (summary row, results by feature name). Output bytes are a pure
    function of cfg: `workers`, the number of processes that train the pool
    and profile the Rashomon-set members, changes none of them.
    """
    ds, sp, grids, plan = _prepare(cfg, load_pool_path, save_pool_path)
    if load_pool_path is not None:
        pool = load_pool(load_pool_path)
        check_scores(pool, ds, sp, load_pool_path)
    else:
        budget = SearchBudget(
            max_models=cfg.max_models,
            max_runtime_secs=cfg.max_runtime_secs,
            seed=derive_seed(cfg.seed, ROLE_POOL),
        )
        pool = train_pool(ds, sp, budget, workers=workers)
    if plan.save_pool is not None:
        os.makedirs(os.path.dirname(plan.save_pool) or ".", exist_ok=True)
        save_pool(pool, plan.save_pool)

    rset = form_set(pool, cfg.epsilon)

    profiles = rashomon_profile(rset, ds, sp, grids, n_boot=cfg.n_boot, alpha=cfg.alpha,
                                seed=cfg.seed, workers=workers)
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = dict(zip(plan.profiles, profiles))
    feature_metrics = {}
    for name, result in results.items():
        feature_metrics[name] = compute_metrics(result)
        csv_path, svg_path = plan.profiles[name]
        write_profile_csv(result, csv_path)
        emit_svg(
            result,
            svg_path,
            dataset_name=ds.name,
            target_name=ds.target_name,
            epsilon=cfg.epsilon,
        )

    rr = mean_mwci = mean_cr = None
    if rset.rss > 1:
        rr = rset.rr
        mean_mwci = sum(m.mwci for m in feature_metrics.values()) / len(feature_metrics)
        mean_cr = sum(m.cr for m in feature_metrics.values()) / len(feature_metrics)
    row = SuiteSummaryRow(ds.name, rset.members[0].score, len(pool), rset.rss, rr, mean_mwci, mean_cr)

    report = {
        "dataset": ds.name,
        "config": _config_values(cfg),
        "pool": [
            {"id": m.id, "family": m.family, "hyperparameters": m.hyperparameters,
             "score": m.score}
            for m in pool
        ],
        "rashomon": {
            "epsilon": rset.epsilon,
            "best_id": rset.best_id,
            "threshold": rset.threshold,
            "member_ids": list(rset.member_ids),
            "rss": rset.rss,
            "rr": rset.rr,
        },
        "features": {
            name: {
                "feature_index": fm.feature_index,
                "mwci": fm.mwci if fm.defined else NA,
                "cr": fm.cr if fm.defined else NA,
                "defined": fm.defined,
                "grid_points": int(results[name].grid.size),
            }
            for name, fm in feature_metrics.items()
        },
    }
    _write_json(report, plan.metrics)
    write_config_echo(cfg, plan.echo)
    write_summary_csv([row], plan.summary)
    return row, results


def run_suite(configs: list[RunConfig], out_dir: str, workers: int = 1):
    """Run several datasets and correlate Rashomon ratio against coverage.

    Before any dataset runs or `out_dir` is created, every entry passes each check
    `explain` makes before training; an error names the entry's number and data path.
    Then `_check_outputs` checks the suite's outputs and all entries' at once.
    Emits the suite summary CSV plus suite_report.json; the correlation is
    skipped (with a recorded warning) when fewer than four rows have defined
    metrics. Returns (rows, correlation or None, warnings).
    """
    if not configs:
        raise ConfigError("suite needs at least one dataset configuration")
    if not out_dir:
        raise ConfigError(f"out must be set, got {out_dir!r}")
    entries = [replace(cfg, out_dir=cfg.out_dir or os.path.join(
        out_dir, _safe_filename(os.path.splitext(os.path.basename(cfg.data_path))[0])))
        for cfg in configs]
    summary_path, report_path = (os.path.join(out_dir, name)
                                 for name in ("summary.csv", "suite_report.json"))
    writes = [("the suite output", summary_path), ("the suite output", report_path)]
    for position, run in enumerate(entries, start=1):
        entry = f"suite entry {position} ('{run.data_path}')"
        try:  # the dataset is read again when it runs: no plan is kept
            ds, _, _, plan = _prepare(run)
        except (ConfigError, DataError) as exc:
            raise type(exc)(f"{entry}: {exc}") from None
        writes += [(f"{entry}: dataset '{ds.name}': {what}", path) for what, path in plan.writes]
    _check_outputs([("the data", run.data_path) for run in entries], writes)
    os.makedirs(out_dir, exist_ok=True)
    rows = [run_dataset(run, workers=workers)[0] for run in entries]

    warnings: list[str] = []
    correlation = None
    try:
        correlation = correlate_rows(rows)
    except ConfigError as exc:
        warnings.append(str(exc))

    write_summary_csv(rows, summary_path)
    report = {
        "datasets": [r.dataset for r in rows],
        "correlation": None if correlation is None else asdict(correlation),
        "warnings": warnings,
    }
    _write_json(report, report_path)
    return rows, correlation, warnings


def correlate_summary(summary_path: str, out_dir: str) -> CorrelationResult:
    """Analysis-only mode: correlate an existing summary table (for example
    the bundled benchmark fixture) without training anything."""
    if not out_dir:
        raise ConfigError(f"out must be set, got {out_dir!r}")
    out_path = os.path.join(out_dir, "correlation.json")
    _check_outputs([("the summary", summary_path)], [("the output", out_path)])
    rows = read_summary_csv(summary_path)
    correlation = correlate_rows(rows)
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "summary": os.path.basename(os.fspath(summary_path)),
        "n_rows": len(rows),
        "n_defined": correlation.n_pairs,
        "correlation": asdict(correlation),
    }
    _write_json(payload, out_path)
    return correlation
