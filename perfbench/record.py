#!/usr/bin/env python3
"""Record the benchmark's reference outputs and its baseline.

    python3 perfbench/record.py reference
        One run of each workload at the default seed; writes the output
        digest, rss, rr, member families and best RMSE to reference.json.

    python3 perfbench/record.py baseline
        Runs run.py --trace 0 with seeds 1..10 and --trace 1 with seed 1 for
        each workload, at BENCHMARK.json's run_seconds; prints every metric
        with its median, quartiles and spread (quartile distance / median),
        and writes them with the machine's description to baseline.json.

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import run
import workloads

REFERENCE = os.path.join(run.HERE, "reference.json")
BASELINE = os.path.join(run.HERE, "baseline.json")
BASELINE_SEEDS = range(1, 11)


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "load_average_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_reference() -> int:
    work_dir = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work_dir)
    result = {"default_seed": workloads.DEFAULT_SEED, "workloads": {}}
    try:
        for name, workload in workloads.WORKLOADS.items():
            bench = run.Bench(workload, os.path.join(work_dir, name))
            sample = bench.explain(workload, bench.inputs(workloads.DEFAULT_SEED), tag=name)
            if sample.error is not None:
                print(f"{name}: {sample.error}", file=sys.stderr)
                return 1
            result["workloads"][name] = {"digest": sample.digest, **sample.facts}
            print(f"{name}: {result['workloads'][name]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    write_json(REFERENCE, result)
    return 0


def bench_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{name} seed {seed}: incorrect run\n{proc.stderr}")
    result["run_wall_s"] = elapsed
    return result


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def record_baseline() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    payload = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [bench_once(name, seed, seconds, 0) for seed in BASELINE_SEEDS]
        walls = [r["run_wall_s"] for r in runs]
        entry = {"seeds": list(BASELINE_SEEDS), "run_wall_s": walls, "end_to_end": {}}
        print(f"{name}: {len(runs)} runs, {statistics.median(walls):.1f} s each (median), "
              f"{max(walls):.1f} s at most")
        for metric, unit in run.END_TO_END_UNITS.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": unit, **stats(values), "values": values}
            s = entry["end_to_end"][metric]
            print(f"  {metric:<14} median {s['median']:>10.5g} {unit:<6} "
                  f"q1 {s['q1']:>10.5g} q3 {s['q3']:>10.5g} spread {s['spread']:.3f}")
        traced = bench_once(name, BASELINE_SEEDS[0], seconds, 1)
        entry["per_layer"] = {metric: {"unit": m["unit"], "value": m["value"]}
                              for metric, m in sorted(traced["metrics"].items())}
        for metric, s in entry["per_layer"].items():
            print(f"  {metric:<36} {s['value']:>12.5g} {s['unit']}")
        payload["workloads"][name] = entry
    write_json(BASELINE, payload)
    print(f"wrote {BASELINE}")
    return 0


def main(argv: list[str]) -> int:
    commands = {"reference": record_reference, "baseline": record_baseline}
    if len(argv) != 1 or argv[0] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    return commands[argv[0]]()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
