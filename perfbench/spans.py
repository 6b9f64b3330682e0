"""Span recording around the layers of `rashpdp`, and the fold of the spans
into per-layer metrics.

The wrappers are installed from outside the package, so the program itself is
unchanged. Spans are kept in memory and written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Model classes, keyed by the family name the pool reports for them.
FAMILY_CLASSES = {
    "LinearRidge": ("rashpdp.learners.linear", "RidgeRegression"),
    "DecisionTree": ("rashpdp.learners.tree", "RegressionTree"),
    "RandomForest": ("rashpdp.learners.forest", "RandomForestRegression"),
    "GradientBoosting": ("rashpdp.learners.boosting", "GradientBoostingRegression"),
    "KNearestNeighbors": ("rashpdp.learners.knn", "KNearestNeighborsRegression"),
}
CLASSES = tuple(cls for _, cls in FAMILY_CLASSES.values())
FAMILIES = tuple(FAMILY_CLASSES)


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    A span's parent is the innermost open span on its own thread; a span
    opened on a thread with no open span (a pool worker) takes the innermost
    open span of the thread that installed the tracer.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span; `before`/`after` return
        attributes from the arguments or the result."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1:] or [None])[0]
        with self._lock:
            span_id = next(self._ids)
        attrs = _attributes(before, args, kwargs)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        attrs.update(_attributes(after, (result, *args), kwargs))
        with self._lock:
            self.spans.append({
                "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "thread": threading.get_ident(),
                "attrs": attrs,
            })
        return result

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _attributes(extract, args, kwargs) -> dict:
    """Span attributes from `extract`; a call it cannot read (the traced
    function's signature changed) is noted on the span instead of failing."""
    if extract is None:
        return {}
    try:
        return extract(*args, **kwargs)
    except (TypeError, AttributeError, IndexError, OSError) as exc:
        return {"attr_error": repr(exc)}


def _wrap_function(tracer: Tracer, module_name: str, attr: str, name: str,
                   before=None, after=None) -> bool:
    """Replace function `module.attr` in every loaded rashpdp module that
    refers to it, so calls through `from x import f` names are traced too."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return False

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, before, after)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rashpdp" or mod_name.startswith("rashpdp."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    return True


def _wrap_method(tracer: Tracer, module_name: str, cls_name: str, method: str,
                 name: str, after=None) -> bool:
    cls = getattr(sys.modules.get(module_name), cls_name, None)
    original = getattr(cls, method, None) if cls is not None else None
    if original is None:
        return False

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, None, after)

    setattr(cls, method, traced)
    return True


def _tree_nodes(result, tree, *args, **kwargs) -> dict:
    feature = getattr(tree, "feature", None)
    return {"nodes": 0 if feature is None else len(feature)}


def _pdp_rows(model, ds, rows, feature_index, grid, *args, **kwargs) -> dict:
    return {"family": model.family, "rows": len(rows) * len(grid)}


def _profile_workers(*args, **kwargs) -> dict:
    return {"workers": kwargs.get("workers", 1)}


def _set_size(result, *args, **kwargs) -> dict:
    return {"rss": result.rss, "rr": result.rr}


def _saved_bytes(result, pool, path, *args, **kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(path, *args, **kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


# (module, function, span name, before, after)
FUNCTIONS = (
    ("rashpdp.report", "run_dataset", "report.run_dataset", None, None),
    ("rashpdp.data", "load_csv", "data.load_csv", None, None),
    ("rashpdp.data", "feature_grid", "data.feature_grid", None, None),
    ("rashpdp.learners.pool", "train_pool", "learners.train_pool", None, None),
    ("rashpdp.learners.archive", "save_pool", "archive.save_pool", None, _saved_bytes),
    ("rashpdp.learners.archive", "load_pool", "archive.load_pool", _loaded_bytes, None),
    ("rashpdp.rashomon", "form_set", "rashomon.form_set", None, _set_size),
    ("rashpdp.pdp", "rashomon_profile", "pdp.rashomon_profile", _profile_workers, None),
    ("rashpdp.pdp", "pdp_single", "pdp.pdp_single", _pdp_rows, None),
    ("rashpdp.pdp", "bootstrap_bands", "pdp.bootstrap_bands", None, None),
    ("rashpdp.pdp", "write_profile_csv", "pdp.write_profile_csv", None, None),
    ("rashpdp.metrics", "compute_metrics", "metrics.compute_metrics", None, None),
    ("rashpdp.svgplot", "emit_svg", "svgplot.emit_svg", None, None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function and model method; return the targets that
    no longer exist in the package (their metrics then read 0)."""
    import rashpdp.cli  # noqa: F401 - loads every module that gets wrapped

    missing = []
    for module, attr, name, before, after in FUNCTIONS:
        if not _wrap_function(tracer, module, attr, name, before, after):
            missing.append(f"{module}.{attr}")
    for module, cls in FAMILY_CLASSES.values():
        fit_after = _tree_nodes if cls == "RegressionTree" else None
        for method, name, after in (("fit", f"fit.{cls}", fit_after),
                                    ("predict_many", f"predict.{cls}", None)):
            if not _wrap_method(tracer, module, cls, method, name, after):
                missing.append(f"{module}.{cls}.{method}")
    return missing


# ---------------------------------------------------------------------------
# fold

def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover (ns).

    Children on several threads may overlap; the union is subtracted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered_ns(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def _has_ancestor(span: dict, name: str, by_id: dict[int, dict]) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def fold(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run. Layers that did not run read 0."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def secs(spans_: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in spans_) / 1e9

    def parent_name(s: dict) -> str | None:
        parent = by_id.get(s["parent"])
        return None if parent is None else parent["name"]

    m: dict[str, float] = {}
    m["learners.train_pool_s"] = secs(named["learners.train_pool"])
    for family, (_, cls) in FAMILY_CLASSES.items():
        fits = [s for s in named[f"fit.{cls}"] if parent_name(s) == "learners.train_pool"]
        m[f"learners.fit_s.{family}"] = secs(fits)
        m[f"learners.fit_count.{family}"] = len(fits)
    tree_fits = named["fit.RegressionTree"]
    m["learners.tree_fit_calls"] = len(tree_fits)
    m["learners.tree_fit_s"] = sum(own[s["id"]] for s in tree_fits) / 1e9
    m["learners.tree_nodes"] = sum(s["attrs"].get("nodes", 0) for s in tree_fits)
    m["learners.boost_fit_predict_s"] = secs(
        [s for s in named["predict.RegressionTree"]
         if parent_name(s) == "fit.GradientBoostingRegression"])
    m["learners.score_s"] = secs(
        [s for cls in CLASSES for s in named[f"predict.{cls}"]
         if parent_name(s) == "learners.train_pool"])

    profiles = named["pdp.rashomon_profile"]
    curves = named["pdp.pdp_single"]
    busy = secs(curves)
    m["pdp.rashomon_profile_s"] = secs(profiles)
    m["pdp.rows_predicted"] = sum(s["attrs"].get("rows", 0) for s in curves)
    for family in FAMILIES:
        mine = [s for s in curves if s["attrs"].get("family") == family]
        m[f"pdp.pdp_single_s.{family}"] = secs(mine)
        m[f"pdp.rows_predicted.{family}"] = sum(s["attrs"].get("rows", 0) for s in mine)
    m["pdp.rows_per_s"] = m["pdp.rows_predicted"] / busy if busy > 0 else 0.0
    m["pdp.tree_predict_calls"] = sum(
        1 for s in named["predict.RegressionTree"] if _has_ancestor(s, "pdp.pdp_single", by_id))
    m["pdp.bootstrap_s"] = secs(named["pdp.bootstrap_bands"])
    m["pdp.write_profile_csv_s"] = secs(named["pdp.write_profile_csv"])
    capacity = 0.0
    for p in profiles:
        mine = [s for s in curves if s["parent"] == p["id"]]
        if mine:
            wall = max(s["end"] for s in mine) - min(s["start"] for s in mine)
            capacity += p["attrs"].get("workers", 1) * wall / 1e9
    m["pdp.parallel_efficiency"] = busy / capacity if capacity > 0 else 0.0

    m["archive.save_pool_s"] = secs(named["archive.save_pool"])
    m["archive.load_pool_s"] = secs(named["archive.load_pool"])
    m["archive.bytes"] = sum(s["attrs"].get("bytes", 0)
                             for s in named["archive.save_pool"] + named["archive.load_pool"])
    m["metrics.compute_metrics_s"] = secs(named["metrics.compute_metrics"])
    sets = named["rashomon.form_set"]
    m["rashomon.form_set_s"] = secs(sets)
    m["rashomon.rss"] = sets[-1]["attrs"].get("rss", 0) if sets else 0
    m["rashomon.rr"] = sets[-1]["attrs"].get("rr", 0.0) if sets else 0.0
    m["data.load_csv_s"] = secs(named["data.load_csv"])
    m["data.feature_grid_s"] = secs(named["data.feature_grid"])
    m["svgplot.emit_svg_s"] = secs(named["svgplot.emit_svg"])
    runs = named["report.run_dataset"]
    m["report.run_dataset_s"] = secs(runs)
    m["report.self_s"] = sum(own[s["id"]] for s in runs) / 1e9
    total = m["report.run_dataset_s"]
    m["learners.share_of_run"] = m["learners.train_pool_s"] / total if total > 0 else 0.0
    m["pdp.share_of_run"] = m["pdp.rashomon_profile_s"] / total if total > 0 else 0.0
    return m
