"""Measure the run-to-run spread of the end-to-end metrics and record it.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py

Runs ``run.py`` once per seed on each workload with tracing off, for the
``run_seconds`` of BENCHMARK.json, and writes ``perfbench/steadiness.json``:
per set, workload and metric the values, their median, and their spread, the
distance between the first and third quartile as a share of the median,
and the same for the raw times that ``run.py`` prints before scaling them.
There are two sets of ten runs, on seeds 201-210 and 301-310.  The file also
records how far the second set's median moved from the first's, as a share
of the first.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "steadiness.json")
RUNS = 10
FIRST_SEEDS = (201, 301)  # one set of RUNS seeds from each


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def measure(workload: str, seeds: list[int], seconds: int, bounds: dict) -> dict:
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}  # the times before scaling to the reference speed
    walls = []
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        walls.append(time.perf_counter() - start)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: outputs not correct\n{proc.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in proc.stdout.splitlines():
            if line.startswith("raw "):
                _, name, value, _ = line.split()
                raw.setdefault(name, []).append(float(value))
    entry = {"wall_s": walls, "metrics": {}, "raw": {}}
    for name, vals in raw.items():
        entry["raw"][name] = {"median": statistics.median(vals), "spread": spread(vals), "values": vals}
    for name, vals in values.items():
        entry["metrics"][name] = {
            "median": statistics.median(vals),
            "spread": spread(vals),
            "bound": bounds[name],
            "values": vals,
        }
        print(f"{workload:20s} {name:16s} median {statistics.median(vals):.6g}  spread {spread(vals):.4f}"
              f"  bound {bounds[name]}", flush=True)
    return entry


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "sets": [],
    }
    for first_seed in FIRST_SEEDS:
        seeds = list(range(first_seed, first_seed + RUNS))
        entry = {"seeds": seeds, "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            entry["workloads"][workload] = measure(workload, seeds, spec["run_seconds"], bounds)
        report["sets"].append(entry)
    first, second = (s["workloads"] for s in report["sets"])
    report["median_change"] = {
        w: {m: second[w]["metrics"][m]["median"] / v["median"] - 1 for m, v in first[w]["metrics"].items()}
        for w in first
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
