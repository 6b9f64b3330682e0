"""Output check of one `explain` run: parse every file, test the invariants
that tie them together, and digest them."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

SUMMARY_HEADER = ["dataset", "bmp", "mss", "rss", "rr", "mwci", "cr"]
PROFILE_FIXED = ["grid", "best", "mean", "ci_lo", "ci_hi"]
NA = "-"
# summary.csv means are recomputed here in another summation order.
MEAN_RTOL = 1e-12


class CheckFailed(Exception):
    """An output is missing, does not parse, or breaks an invariant."""


def digest(run_dir: str, names: list[str]) -> str:
    """sha256 over the named files and every file under the named
    directories, each framed by its path relative to `run_dir` ('/'
    separators) and its length, in sorted path order. The digest therefore
    depends on the bytes and names only, not on where the run directory is
    or in which order the files were written."""
    files = []
    for name in names:
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            for base, _, entries in os.walk(path):
                files += [os.path.join(base, e) for e in entries]
        else:
            files.append(path)
    h = hashlib.sha256()
    for rel in sorted(os.path.relpath(f, run_dir).replace(os.sep, "/") for f in files):
        with open(os.path.join(run_dir, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _read_csv(path: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    return rows


def _float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: '{text}' is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {value} is not finite")
    return value


def _optional(text: str, where: str) -> float | None:
    return None if text == NA else _float(text, where)


def check_profile_csv(path: str, member_ids: list[int]) -> None:
    """Header lists one column per member in ascending id order; every band
    has ci_lo <= ci_hi; grid strictly increasing."""
    rows = _read_csv(path)
    name = os.path.basename(path)
    expected = PROFILE_FIXED + [f"model_{i}" for i in sorted(member_ids)]
    if rows[0] != expected:
        raise CheckFailed(f"{name}: header {rows[0]} is not {expected}")
    previous = -math.inf
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected):
            raise CheckFailed(f"{name}:{lineno}: {len(row)} fields, expected {len(expected)}")
        values = [_float(v, f"{name}:{lineno}") for v in row]
        grid, _, _, lo, hi = values[:5]
        if not lo <= hi:
            raise CheckFailed(f"{name}:{lineno}: ci_lo {lo} > ci_hi {hi}")
        if not grid > previous:
            raise CheckFailed(f"{name}:{lineno}: grid not increasing")
        previous = grid
    if len(rows) < 3:
        raise CheckFailed(f"{name}: fewer than 2 grid points")


def check_summary(rows: list[list[str]], report: dict) -> None:
    """summary.csv agrees with metrics.json, field by field."""
    if rows[0] != SUMMARY_HEADER or len(rows) != 2 or len(rows[1]) != len(SUMMARY_HEADER):
        raise CheckFailed(f"summary.csv: expected header {SUMMARY_HEADER} and one row")
    dataset, bmp, mss, rss, rr, mwci, cr = rows[1]
    pool = report["pool"]
    rashomon = report["rashomon"]
    scores = {m["id"]: m["score"] for m in pool}
    if dataset != report["dataset"]:
        raise CheckFailed("summary.csv: dataset differs from metrics.json")
    if _float(bmp, "summary bmp") != scores[rashomon["best_id"]]:
        raise CheckFailed("summary.csv: bmp is not the best model's score")
    if mss != str(len(pool)) or rss != str(rashomon["rss"]):
        raise CheckFailed("summary.csv: mss/rss differ from metrics.json")
    features = report["features"].values()
    if rashomon["rss"] == 1:
        if (rr, mwci, cr) != (NA, NA, NA):
            raise CheckFailed("summary.csv: singleton set must report '-'")
        return
    if _optional(rr, "summary rr") != rashomon["rr"]:
        raise CheckFailed("summary.csv: rr differs from metrics.json")
    for text, key in ((mwci, "mwci"), (cr, "cr")):
        mean = sum(f[key] for f in features) / len(features)
        value = _optional(text, f"summary {key}")
        if value is None or not math.isclose(value, mean, rel_tol=MEAN_RTOL, abs_tol=0.0):
            raise CheckFailed(f"summary.csv: {key} {value} is not the feature mean {mean}")


def check_report(report: dict) -> None:
    """Invariants inside metrics.json."""
    pool = report["pool"]
    rashomon = report["rashomon"]
    ids = [m["id"] for m in pool]
    members = rashomon["member_ids"]
    if rashomon["rss"] != len(members) or not set(members) <= set(ids):
        raise CheckFailed("metrics.json: rss is not the member count")
    if rashomon["best_id"] not in members:
        raise CheckFailed("metrics.json: best model is not a member")
    if rashomon["rr"] != rashomon["rss"] / len(pool):
        raise CheckFailed("metrics.json: rr is not rss / mss")
    for name, feature in report["features"].items():
        if feature["defined"] != (rashomon["rss"] > 1):
            raise CheckFailed(f"metrics.json: {name} defined flag disagrees with rss")
        if feature["defined"] and not 0.0 <= feature["cr"] <= 1.0:
            raise CheckFailed(f"metrics.json: {name} coverage rate {feature['cr']} outside [0, 1]")


def _read_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        report["pool"], report["rashomon"], report["features"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"metrics.json: {exc!r}") from None
    return report


def check_outputs(run_dir: str, out_dir: str, features: list[str],
                  pool_file: str | None = None) -> dict:
    """Check one run's outputs; return the facts the benchmark reports.

    Raises CheckFailed on the first missing, unparsable or inconsistent file.
    """
    out = os.path.join(run_dir, out_dir)
    expected = {"metrics.json", "config.echo", "summary.csv"}
    for name in features:
        expected |= {f"profile_{name}.csv", f"profile_{name}.svg"}
    present = set(os.listdir(out)) if os.path.isdir(out) else set()
    if present != expected:
        raise CheckFailed(f"output files: missing {sorted(expected - present)}, "
                          f"unexpected {sorted(present - expected)}")

    report = _read_report(os.path.join(out, "metrics.json"))
    try:
        check_report(report)
        check_summary(_read_csv(os.path.join(out, "summary.csv")), report)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise CheckFailed(f"metrics.json: {exc!r}") from None
    if sorted(report["features"]) != sorted(features):
        raise CheckFailed("metrics.json: feature list differs from the request")
    for name in features:
        check_profile_csv(os.path.join(out, f"profile_{name}.csv"),
                          report["rashomon"]["member_ids"])
        try:
            ET.parse(os.path.join(out, f"profile_{name}.svg"))
        except (OSError, ET.ParseError) as exc:
            raise CheckFailed(f"profile_{name}.svg: {exc}") from None
    with open(os.path.join(out, "config.echo"), "r", encoding="utf-8") as fh:
        if not all(" = " in line for line in fh.read().splitlines()):
            raise CheckFailed("config.echo: expected 'key = value' lines")
    if pool_file is not None:
        try:
            with open(os.path.join(run_dir, pool_file), "r", encoding="utf-8") as fh:
                archive = json.load(fh)
            archived = [m["id"] for m in archive["models"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{pool_file}: {exc!r}") from None
        if archived != [m["id"] for m in report["pool"]]:
            raise CheckFailed(f"{pool_file}: models differ from metrics.json pool")

    by_id = {m["id"]: m for m in report["pool"]}
    best = by_id[report["rashomon"]["best_id"]]
    members = report["rashomon"]["member_ids"]
    return {
        "rss": report["rashomon"]["rss"],
        "rr": report["rashomon"]["rr"],
        "mss": len(report["pool"]),
        "families": sorted(by_id[i]["family"] for i in members),
        "bmp": best["score"],
    }
