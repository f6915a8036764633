"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py

Runs `run.py` once per (seed, workload, set), each in its own process,
for seeds 1-10, every workload of BENCHMARK.json, its `run_seconds` and
two sets.  Sets are interleaved: for every seed and workload the sets
run back to back, the first set going first on odd seeds and last on
even ones.
For each workload, metric and set it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, then how far each later
set's median lies from the first set's, as a share of the first.  The
share of failed operations must be equal across sets.  Every result
line is kept in bench/results/spread.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import run as bench_run

RESULTS = os.path.join(bench_run.RESULTS_DIR, "spread.json")
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.perf_counter() - start
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    spec = bench_run.load_spec()
    workloads = bench_run.workload_names(spec)

    results: list[dict] = []
    for seed in SEEDS:
        for workload in workloads:
            order = range(SETS) if seed % 2 else reversed(range(SETS))
            for which in order:
                result, wall = run(workload, seed, spec["run_seconds"])
                results.append({"set": which, "seed": seed, "workload": workload,
                                 "wall_s": wall, **result})
                metrics = " ".join(f"{k}={v['value']:.4f}"
                                   for k, v in result["metrics"].items())
                print(f"set {which} seed {seed:3d} {workload:7s} wall={wall:6.1f}s "
                      f"correct={result['correct']} {metrics}", flush=True)
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w") as fh:
        json.dump(results, fh, indent=1)

    ok = all(r["correct"] for r in results)
    print(f"\n{'workload':8s} {'metric':12s} set {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'drift':>7s}")
    for workload in workloads:
        mine = [r for r in results if r["workload"] == workload]
        shares = {r["failed"] / r["attempted"] for r in mine}
        if len(shares) > 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for metric in mine[0]["metrics"]:
            first = None
            for which in range(SETS):
                values = [r["metrics"][metric]["value"] for r in mine if r["set"] == which]
                q1, med, q3 = statistics.quantiles(values, n=4)
                first = med if first is None else first
                print(f"{workload:8s} {metric:12s} {which:3d} {med:10.4f} {q1:10.4f} "
                      f"{q3:10.4f} {(q3 - q1) / med:7.1%} {(med - first) / first:+7.1%}")
        walls = [r["wall_s"] for r in mine]
        print(f"{workload:8s} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
