#!/usr/bin/env python3
"""Benchmark of `rashpdp explain` on one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from a checkout that holds `src/rashpdp`. Every `explain` call is a fresh
process (`python -m rashpdp.cli explain ... --workers 2`) in a fresh working
directory under `.bench_work/`, started one after another (a closed loop with
one caller). Inputs are generated from `--seed`; each run's outputs are
checked and digested, and a run counts as failed if it exits non-zero, an
output is missing, does not parse or breaks an invariant.

`--trace 0` measures the end-to-end metrics. `--trace 1` alternates untraced
runs with runs under `traced_explain.py` and reports per-layer metrics from
the spans. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import outputs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
TRACED_EXPLAIN = os.path.join(HERE, "traced_explain.py")

EXPLAIN_TIMEOUT_S = 40.0
MIN_ROUNDS = 3
# The calibrator: a fresh interpreter importing the libraries rashpdp is built
# on, but not rashpdp. A change to the program leaves its time alone, while a
# shared host that runs slower for minutes at a time slows it with `explain`.
# Times are reported in seconds of a machine on which it takes
# CALIBRATOR_REFERENCE_S: a run's medians are scaled by that over its median.
CALIBRATOR_MODULES = "numpy, scipy.stats"
CALIBRATOR_REFERENCE_S = 1.0

END_TO_END_UNITS = {
    "explain_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "share",
    "outputs_exact": "bool",
    "best_rmse": "y",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "archive.bytes":
        return "bytes"
    if name in ("pdp.parallel_efficiency", "rashomon.rr") or name.endswith("share_of_run"):
        return "share"
    return "count"


@dataclass
class Sample:
    """One `explain` process: its cost, and what the output check found."""

    run_dir: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None = None
    digest: str | None = None
    facts: dict = field(default_factory=dict)
    layers: dict | None = None


def run_process(cmd: list[str], cwd: str, env: dict[str, str],
                timeout_s: float = EXPLAIN_TIMEOUT_S) -> tuple[float, float, float, int]:
    """Run `cmd` to completion; return wall seconds, user+sys CPU seconds,
    peak resident memory in MB and the exit code (negative: killed by that
    signal; the process is killed once `timeout_s` passes)."""
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _last_line(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


class Bench:
    """State of one benchmark run: where it works and what it attempted."""

    def __init__(self, workload: workloads.Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._dirs = 0

    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work_dir, f"{self._dirs:03d}-{tag}")
        os.makedirs(path)
        return path

    def inputs(self, seed: int) -> dict:
        """Input files of the workload at `seed` (file name -> bytes) and the
        data's feature names. An archive is made here, untimed, by the same
        code."""
        path = os.path.join(self.fresh_dir("inputs"), workloads.DATA_FILE)
        names = self.workload.write_data(seed, path)
        with open(path, "rb") as fh:
            files = {workloads.DATA_FILE: fh.read()}
        if self.workload.archive_from is not None:
            maker = workloads.WORKLOADS[self.workload.archive_from]
            sample = self.explain(maker, {"files": files, "names": names}, tag="archive")
            if sample.error is not None:
                raise RuntimeError(f"set-up archive failed: {sample.error}")
            with open(os.path.join(sample.run_dir, workloads.POOL_FILE), "rb") as fh:
                files[workloads.POOL_FILE] = fh.read()
        return {"files": files, "names": names}

    def explain(self, workload: workloads.Workload, inputs: dict, tag: str,
                traced: bool = False) -> Sample:
        """One `explain` process on `inputs`, checked and digested."""
        run_dir = self.fresh_dir(tag)
        for name, data in inputs["files"].items():
            with open(os.path.join(run_dir, name), "wb") as fh:
                fh.write(data)
        features = list(workload.features or inputs["names"])
        if traced:
            cmd = [sys.executable, TRACED_EXPLAIN, "trace.jsonl", os.path.basename(run_dir),
                   "--", *workload.argv()]
        else:
            cmd = [sys.executable, "-m", "rashpdp.cli", *workload.argv()]
        wall, cpu, rss, code = run_process(cmd, run_dir, self.env)
        sample = Sample(run_dir=run_dir, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss)
        self.attempted += 1
        if code != 0:
            sample.error = f"exit {code}: {_last_line(os.path.join(run_dir, 'stderr.txt'))}"
        else:
            pool = workloads.POOL_FILE if workload.saves_pool else None
            try:
                sample.facts = outputs.check_outputs(run_dir, workloads.OUT_DIR, features, pool)
                sample.digest = outputs.digest(
                    run_dir, [workloads.OUT_DIR] + ([pool] if pool else []))
                if traced:
                    sample.layers = spans.fold(spans.read_jsonl(os.path.join(run_dir, "trace.jsonl")))
            except (outputs.CheckFailed, OSError, ValueError, KeyError) as exc:
                sample.error = f"output check: {exc}"
        if sample.error is not None:
            self.failed += 1
            self.errors.append(f"{os.path.basename(run_dir)}: {sample.error}")
        elif tag != "archive":
            shutil.rmtree(run_dir)
        return sample

    def import_seconds(self, modules: str = "rashpdp.cli", importtime: bool = False) -> float:
        """Wall time of a fresh interpreter importing `modules`, or with
        `importtime` the cumulative import time of `rashpdp.metrics`."""
        run_dir = self.fresh_dir("import")
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-c", f"import {modules}"]
        wall, _, _, code = run_process(cmd, run_dir, self.env)
        if code != 0:
            raise RuntimeError(f"import {modules} failed: "
                               f"{_last_line(os.path.join(run_dir, 'stderr.txt'))}")
        if not importtime:
            return wall
        with open(os.path.join(run_dir, "stderr.txt"), "r", encoding="utf-8") as fh:
            for line in fh:
                match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*rashpdp\.metrics\s*$", line)
                if match:
                    return int(match.group(1)) / 1e6
        return 0.0

    def timed_loop(self, inputs: dict, seconds: float, traced_too: bool
                   ) -> tuple[list[Sample], list[Sample], list[float], list[float]]:
        """Repeat a round while another round of the last one's length still
        ends within `seconds`, at least MIN_ROUNDS times, or until a run
        failed. A round is one `explain`, one fresh-interpreter import of
        `rashpdp.cli` and one of the calibrator; with `traced_too`, one
        untraced and one traced `explain` and one `-X importtime` import.
        Every kind of sample so spreads over the same window. Returns the
        samples, import times and calibrator times (none with `traced_too`)."""
        plain: list[Sample] = []
        traced: list[Sample] = []
        imports: list[float] = []
        calibrations: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            plain.append(self.explain(self.workload, inputs, tag="timed"))
            if traced_too:
                traced.append(self.explain(self.workload, inputs, tag="traced", traced=True))
            imports.append(self.import_seconds(importtime=traced_too))
            if not traced_too:
                calibrations.append(self.import_seconds(CALIBRATOR_MODULES))
            if any(s.error for s in plain[-1:] + traced[-1:]):
                return plain, traced, imports, calibrations
            now = time.perf_counter()
            if len(plain) >= MIN_ROUNDS and now + (now - start) > deadline:
                return plain, traced, imports, calibrations


def _reference(workload: str) -> dict | None:
    try:
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            return json.load(fh)["workloads"][workload]
    except (OSError, ValueError, KeyError):
        return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _consistent(samples: list[Sample]) -> bool:
    return all(s.error is None for s in samples) and len({s.digest for s in samples}) == 1


def measure(bench: Bench, seed: int, seconds: int) -> tuple[bool, dict[str, float]]:
    """End-to-end metrics: one checked run at the default seed, whose digest
    must match reference.json (it also writes the bytecode caches before any
    import is timed), then timed rounds at `seed`."""
    ref_inputs = bench.inputs(workloads.DEFAULT_SEED)
    ref = bench.explain(bench.workload, ref_inputs, tag="reference")
    recorded = _reference(bench.workload.name)
    if recorded is None:
        print(f"warning: no reference digest in {REFERENCE}", file=sys.stderr)
    exact = ref.error is None and recorded is not None and ref.digest == recorded["digest"]
    inputs = ref_inputs if seed == workloads.DEFAULT_SEED else bench.inputs(seed)
    samples, _, setup, calibrations = bench.timed_loop(inputs, seconds, traced_too=False)
    ok = [s for s in samples if s.error is None]
    unscaled = {"explain_s": _median([s.wall_s for s in ok]),
                "cpu_s": _median([s.cpu_s for s in ok]),
                "setup_s": _median(setup)}
    scale = CALIBRATOR_REFERENCE_S / _median(calibrations)
    metrics = {
        "explain_s": unscaled["explain_s"] * scale,
        "cpu_s": unscaled["cpu_s"] * scale,
        "peak_rss_mb": _median([s.peak_rss_mb for s in ok]),
        "setup_s": unscaled["setup_s"] * scale,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
        "outputs_exact": 1 if exact else 0,
        "best_rmse": ref.facts.get("bmp", 0.0),
    }
    print(f"{bench.workload.name} seed={seed}: {len(ok)} timed runs, "
          f"facts {samples[-1].facts}; reference facts {ref.facts}")
    print(f"  unscaled: {', '.join(f'{k} {v:.6g}' for k, v in unscaled.items())}; "
          f"calibrator {_median(calibrations):.6g} s (median of {len(calibrations)})")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {END_TO_END_UNITS[name]}")
    return _consistent(samples), metrics


def measure_traced(bench: Bench, seed: int, seconds: int) -> tuple[bool, dict[str, float]]:
    """Per-layer metrics: medians over traced runs, with the tracing
    overhead as traced minus untraced wall time."""
    inputs = bench.inputs(seed)
    plain, traced, import_s, _ = bench.timed_loop(inputs, seconds, traced_too=True)
    layers = [s.layers for s in traced if s.layers is not None]
    names = sorted({name for layer in layers for name in layer})
    metrics = {name: _median([layer[name] for layer in layers]) for name in names}
    metrics["metrics.import_s"] = _median(import_s)
    metrics["trace.overhead_s"] = (_median([s.wall_s for s in traced if s.error is None])
                                   - _median([s.wall_s for s in plain if s.error is None]))
    print(f"{bench.workload.name} seed={seed}: {len(layers)} traced and "
          f"{len(plain)} untraced runs")
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:>14.6g} {per_layer_unit(name)}")
    return _consistent(plain + traced), metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "rashpdp", "cli.py")):
        print(f"error: no rashpdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the workloads make their inputs with rashpdp's generators
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    bench = Bench(workloads.WORKLOADS[args.workload], work_dir)
    keep = False
    try:
        run = measure_traced if args.trace else measure
        consistent, metrics = run(bench, args.seed, args.seconds)
    except RuntimeError as exc:
        keep = True
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for error in bench.errors:
            print(f"failed: {error}", file=sys.stderr)
        if keep or bench.errors:
            print(f"kept {work_dir} for inspection", file=sys.stderr)
        else:
            shutil.rmtree(work_dir, ignore_errors=True)
    units = END_TO_END_UNITS if not args.trace else {n: per_layer_unit(n) for n in metrics}
    print(json.dumps({
        "correct": consistent and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
