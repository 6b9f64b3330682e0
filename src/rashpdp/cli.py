"""Command-line interface: explain one dataset, run a suite, or correlate a
summary table.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigError, DataError
from .metrics import CorrelationResult
from .report import (
    CONFIG_FIELDS,
    NA,
    RunConfig,
    _content_lines,
    config_from_mapping,
    correlate_summary,
    read_config_file,
    run_dataset,
    run_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

WORKERS_HELP = ("processes that train the model pool and profile the Rashomon-set "
                "members (at least 1); outputs are the same bytes for any value")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rashpdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain", help="profile one dataset's features over its Rashomon set"
    )
    for f in CONFIG_FIELDS:
        if f.key == "features":
            explain.add_argument("--feature", dest=f.key, metavar="FEATURE",
                                 action="append", help=f.help)
        else:
            explain.add_argument("--" + f.key.replace("_", "-"), dest=f.key, help=f.help)
    explain.add_argument("--config", help="flat key-value config file")
    explain.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    explain.add_argument("--save-pool", help="write the trained pool archive here")
    explain.add_argument("--load-pool", help="reuse a saved pool archive instead of training")

    suite = sub.add_parser("suite", help="run several datasets and correlate the results")
    suite.add_argument("--configs", required=True,
                       help="text file listing one run-config path per line")
    suite.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    suite.add_argument("--out", required=True, help="output directory")

    correlate = sub.add_parser(
        "correlate", help="rank-correlate RR against CR in an existing summary CSV"
    )
    correlate.add_argument("--summary", required=True, help="summary CSV path")
    correlate.add_argument("--out", required=True, help="output directory")
    return parser


def _explain_config(args: argparse.Namespace) -> RunConfig:
    cfg = read_config_file(args.config) if args.config else RunConfig()
    overrides = {f.key: getattr(args, f.key) for f in CONFIG_FIELDS
                 if f.key != "features" and getattr(args, f.key) is not None}
    cfg = config_from_mapping(overrides, defaults=cfg)
    if args.features is not None:
        cfg = replace(cfg, features=tuple(name.strip() for name in args.features))
    return cfg


def _read_suite_configs(path: str) -> list[RunConfig]:
    base = os.path.dirname(os.path.abspath(path))
    configs = [read_config_file(os.path.join(base, text))
               for _, text in _content_lines(path, "suite")]
    if not configs:
        raise ConfigError(f"suite file {path} lists no configurations")
    return configs


def _print_correlation(c: CorrelationResult) -> None:
    print(f"spearman rho={c.rho:.4f} ci=[{c.ci_lo:.4f}, {c.ci_hi:.4f}] "
          f"p={c.p_value:.4g} n={c.n_pairs}")


def _run(args: argparse.Namespace) -> int:
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    for flag in ("config", "save_pool", "load_pool", "configs", "summary"):
        if getattr(args, flag, None) == "":
            raise ConfigError(f"--{flag.replace('_', '-')} must be set, got ''")
    if args.command == "explain":
        cfg = _explain_config(args)
        row, _ = run_dataset(cfg, load_pool_path=args.load_pool,
                             save_pool_path=args.save_pool, workers=args.workers)
        rr = NA if row.rr is None else f"{row.rr:.4f}"
        cr = NA if row.cr is None else f"{row.cr:.4f}"
        print(f"{row.dataset}: bmp={row.bmp:.6g} mss={row.mss} rss={row.rss} "
              f"rr={rr} cr={cr} -> {cfg.out_dir}")
        return EXIT_OK
    if args.command == "suite":
        configs = _read_suite_configs(args.configs)
        rows, correlation, warnings = run_suite(configs, args.out, workers=args.workers)
        print(f"suite: {len(rows)} datasets -> {args.out}")
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if correlation is not None:
            _print_correlation(correlation)
        return EXIT_OK
    if args.command == "correlate":
        _print_correlation(correlate_summary(args.summary, args.out))
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
