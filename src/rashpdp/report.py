"""Pipeline orchestration: single-dataset runs, suites, and summary analysis."""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict, dataclass, replace
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
    """Read a flat `key = value` config file; '#' starts a comment line."""
    path = os.fspath(path)
    values: dict[str, str] = {}
    for lineno, text in _content_lines(path, "config"):
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{text}'")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in {f.key for f in CONFIG_FIELDS}:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
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
                    bmp=float(bmp),
                    mss=int(mss),
                    rss=int(rss),
                    rr=None if rr == NA else float(rr),
                    mwci=None if mwci_s == NA else float(mwci_s),
                    cr=None if cr == NA else float(cr),
                ))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def correlate_rows(rows: list[SuiteSummaryRow]) -> CorrelationResult:
    """Spearman correlation between Rashomon ratio and coverage rate over the
    rows with defined metrics."""
    defined = [(r.rr, r.cr) for r in rows if r.rr is not None and r.cr is not None]
    if len(defined) < 4:
        raise ConfigError(
            f"need at least 4 rows with defined metrics for correlation, got {len(defined)}"
        )
    rr = [d[0] for d in defined]
    cr = [d[1] for d in defined]
    return spearman(rr, cr)


# ---------------------------------------------------------------------------
# runs

def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _require_directory(path: str, what: str) -> None:
    """Raise ConfigError naming `what` unless the nearest existing one of `path`
    and its ancestors is a directory, so makedirs can make `path`. Creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"{what} is a file" if probe == os.path.abspath(path)
                          else f"{what} is under the file {probe}")


def _write_json(payload: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _prepare(cfg: RunConfig, load_pool_path: str | None = None,
             save_pool_path: str | None = None):
    """A run's checks before training, in `explain`'s order; returns (dataset, split, grids)."""
    cfg.validate()
    _require_directory(cfg.out_dir, f"output directory {cfg.out_dir}")
    if save_pool_path is not None:
        if os.path.isdir(save_pool_path):
            raise ConfigError(f"pool archive {save_pool_path} is a directory")
        _require_directory(os.path.dirname(os.path.abspath(save_pool_path)),
                           f"the directory of pool archive {save_pool_path}")
    try:
        ds = load_csv(cfg.data_path, cfg.target_column)
    except DataError as exc:
        raise DataError(f"dataset '{os.path.basename(cfg.data_path)}': {exc}") from None

    for name in cfg.features:
        if name not in ds.feature_names:
            raise ConfigError(f"dataset '{ds.name}': unknown feature '{name}'")
        if cfg.features.count(name) > 1:
            raise ConfigError(f"dataset '{ds.name}': feature '{name}' is named more than once")
    feature_names = list(cfg.features) if cfg.features else list(ds.feature_names)
    stems: dict[str, str] = {}
    for name in feature_names:
        stem = _safe_filename(name)
        if stems.setdefault(stem, name) != name:
            raise ConfigError(f"dataset '{ds.name}': features '{stems[stem]}' and '{name}' "
                              f"both write profile_{stem}.csv and profile_{stem}.svg")
    # No file the run writes may be a file it reads or another file it writes,
    # except that the pool archive may be rewritten: it holds the same pool.
    outputs = ["metrics.json", "config.echo", "summary.csv"]
    outputs += [f"profile_{stem}.{ext}" for stem in stems for ext in ("csv", "svg")]
    written = [("the output", os.path.join(cfg.out_dir, name)) for name in outputs]
    if save_pool_path is not None:
        written.append(("the pool archive", save_pool_path))
    files = {os.path.realpath(path): (what, path) for what, path in
             [("the pool archive", load_pool_path), ("the data", cfg.data_path)]
             if path is not None}  # real path -> (what the run keeps there, its path)
    for what, path in written:
        real = os.path.realpath(path)
        if real in files and (what, files[real][0]) != ("the pool archive", "the pool archive"):
            raise ConfigError(f"dataset '{ds.name}': {what} {path} "
                              f"would overwrite {files[real][1]}")
        files[real] = (what, path)

    sp = split(ds, cfg.test_fraction, derive_seed(cfg.seed, ROLE_SPLIT))
    # The grids need only the training rows: a feature without a grid span
    # fails here, before any model is trained or output written.
    grids = {}
    for name in feature_names:
        j = ds.feature_index(name)
        try:
            grids[j] = feature_grid(ds, j, cfg.grid_size, rows=sp.train_indices)
        except DataError as exc:
            raise DataError(f"dataset '{ds.name}': {exc}") from None
    return ds, sp, grids


def run_dataset(cfg: RunConfig, load_pool_path: str | None = None,
                save_pool_path: str | None = None, workers: int = 1):
    """Execute the full pipeline for one dataset.

    Writes profile CSV + SVG per feature, metrics.json, config.echo, and a
    one-row summary.csv into cfg.out_dir; returns (summary row, results by
    feature name). Output bytes are a pure function of cfg: `workers`, the
    number of processes that train the pool and profile the Rashomon-set
    members, changes none of them.
    """
    ds, sp, grids = _prepare(cfg, load_pool_path, save_pool_path)
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
    if save_pool_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(save_pool_path)), exist_ok=True)
        save_pool(pool, save_pool_path)

    rset = form_set(pool, cfg.epsilon)

    profiles = rashomon_profile(rset, ds, sp, grids, n_boot=cfg.n_boot, alpha=cfg.alpha,
                                seed=cfg.seed, workers=workers)
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = dict(zip((ds.feature_names[j] for j in grids), profiles))
    feature_metrics = {}
    for name, result in results.items():
        feature_metrics[name] = compute_metrics(result)
        stem = _safe_filename(name)
        write_profile_csv(result, os.path.join(cfg.out_dir, f"profile_{stem}.csv"))
        emit_svg(
            result,
            os.path.join(cfg.out_dir, f"profile_{stem}.svg"),
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
    _write_json(report, os.path.join(cfg.out_dir, "metrics.json"))
    write_config_echo(cfg, os.path.join(cfg.out_dir, "config.echo"))
    write_summary_csv([row], os.path.join(cfg.out_dir, "summary.csv"))
    return row, results


def run_suite(configs: list[RunConfig], out_dir: str, workers: int = 1):
    """Run several datasets and correlate Rashomon ratio against coverage.

    Before any dataset runs or `out_dir` is created, every entry passes each check
    `explain` makes before training; an error names the entry's number and data path.
    Emits the suite summary CSV plus suite_report.json; the correlation is
    skipped (with a recorded warning) when fewer than four rows have defined
    metrics. Returns (rows, correlation or None, warnings).
    """
    if not configs:
        raise ConfigError("suite needs at least one dataset configuration")
    _require_directory(out_dir, f"output directory {out_dir}")
    runs: dict[str, RunConfig] = {}  # absolute output directory -> its run
    for position, cfg in enumerate(configs, start=1):
        run = replace(cfg, out_dir=cfg.out_dir or os.path.join(
            out_dir, _safe_filename(os.path.splitext(os.path.basename(cfg.data_path))[0])))
        try:  # the dataset is read again when it runs: one is in memory at a time
            _prepare(run)
        except (ConfigError, DataError) as exc:
            raise type(exc)(f"suite entry {position} ('{cfg.data_path}'): {exc}") from None
        key = os.path.abspath(run.out_dir)
        if key == os.path.abspath(out_dir):
            raise ConfigError(f"suite dataset '{cfg.data_path}' writes to {run.out_dir}, "
                              f"the suite's own output directory")
        if key in runs:
            raise ConfigError(f"suite datasets '{runs[key].data_path}' and '{cfg.data_path}' "
                              f"both write to {run.out_dir}")
        runs[key] = run
    os.makedirs(out_dir, exist_ok=True)
    rows = [run_dataset(run, workers=workers)[0] for run in runs.values()]

    warnings: list[str] = []
    correlation = None
    try:
        correlation = correlate_rows(rows)
    except ConfigError as exc:
        warnings.append(str(exc))

    write_summary_csv(rows, os.path.join(out_dir, "summary.csv"))
    report = {
        "datasets": [r.dataset for r in rows],
        "correlation": None if correlation is None else asdict(correlation),
        "warnings": warnings,
    }
    _write_json(report, os.path.join(out_dir, "suite_report.json"))
    return rows, correlation, warnings


def correlate_summary(summary_path: str, out_dir: str) -> CorrelationResult:
    """Analysis-only mode: correlate an existing summary table (for example
    the bundled benchmark fixture) without training anything."""
    _require_directory(out_dir, f"output directory {out_dir}")
    rows = read_summary_csv(summary_path)
    correlation = correlate_rows(rows)
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "summary": os.path.basename(os.fspath(summary_path)),
        "n_rows": len(rows),
        "n_defined": correlation.n_pairs,
        "correlation": asdict(correlation),
    }
    _write_json(payload, os.path.join(out_dir, "correlation.json"))
    return correlation
