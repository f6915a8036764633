"""Benchmark of the vanetkit simulator: three workloads, end to end and
layer by layer.

    python3 bench/run.py --workload city --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload jam --seed 1 --seconds 1 --trace 1 --smoke

A timed run (`--trace 0`) writes the workload's bundle for the seed,
repeats the set-up (`scenario.load_bundle` + `Simulation`) until it has
at least MIN_SETUPS samples that together took `--seconds`, then
repeats `Simulation.run()` on freshly built Simulations until
`--seconds` have passed.  It reports the median `setup_s` and `run_s`
and the process's `peak_rss_mb`.

A traced run (`--trace 1`) makes one round with every layer wrapped
(see tracer.py), then one untraced round, and reports the per-layer
metrics of layers.py, including the tracing overhead: traced minus
untraced `run_s`.  At sampled ticks it also checks the radio neighbour
lists.

Every round's outputs are checked apart from the program (checks.py)
outside the timed region.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `attempted` counts
set-ups and runs; one fails when the program raises.  The exit code is 0 when
the outputs are correct, 1 when a check failed and 2 when the program
cannot be found next to the benchmark.

Outputs go under bench/results/ (metrics CSV, trace and a JSON record of
each run); bundles are written to bench/_work/ and removed afterwards.
"""

from __future__ import annotations

import os

# One thread per process: the simulator is single-threaded and numpy must
# not spread its element-wise work over a thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "_work")

MIN_SETUPS = 2            # set-up samples per timed run, at the least
NEIGHBOR_SAMPLES = 3      # ticks whose neighbour lists the traced run re-derives


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def workload_names(spec: dict) -> tuple[str, ...]:
    return tuple(w["name"] for w in spec["workloads"])


def units(spec: dict, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports: per-layer when traced."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import vanetkit from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "vanetkit", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no vanetkit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import vanetkit
    if os.path.realpath(vanetkit.__file__) != os.path.realpath(init):
        print(f"error: imported vanetkit from {vanetkit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return vanetkit


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _rss_mb() -> float:
    """Current resident set size (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Round:
    run_s: float
    digests: tuple[str, str]          # sha256 of the metrics CSV and of the trace
    problems: list[str]
    facts: dict[str, int]


class Bench:
    """One workload at one seed: its bundle, rounds and checks."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        from vanetkit import scenario
        import checks
        import workloads

        self.scenario, self.checks, self.workload = scenario, checks, workload
        self.bundle_dir = os.path.join(WORK_DIR, f"{workload}-s{seed}-{os.getpid()}")
        workloads.write_bundle(workload, seed, self.bundle_dir, smoke)
        with open(os.path.join(self.bundle_dir, "roster.txt")) as fh:
            self.roster_keys = checks.roster_public_keys(fh.read())
        self.out_base = os.path.join(RESULTS_DIR, f"{workload}_{seed}"
                                     + ("_smoke" if smoke else ""))

    def close(self) -> None:
        shutil.rmtree(self.bundle_dir, ignore_errors=True)

    def setup(self):
        """Timed set-up: parse and validate the bundle, build the Simulation."""
        gc.collect()
        start = time.perf_counter()
        bundle, problems = self.scenario.load_bundle(self.bundle_dir)
        if problems:
            raise ValueError("bundle does not validate: " + "; ".join(problems))
        sim = bundle.build()
        return bundle, sim, time.perf_counter() - start

    def run(self, sim) -> Round:
        """Timed run of a built Simulation, then the checks on its outputs."""
        gc.collect()
        start = time.perf_counter()
        stats = sim.run()
        return self._check(sim, stats, time.perf_counter() - start)

    def _check(self, sim, stats, run_s: float) -> Round:
        """Write the outputs as `vanetkit run` does and check them."""
        checks = self.checks
        csv_text = stats.csv()
        trace_text = "\n".join(sim.trace) + ("\n" if sim.trace else "")
        os.makedirs(RESULTS_DIR, exist_ok=True)
        for suffix, text in ((".metrics.csv", csv_text), (".trace", trace_text)):
            with open(self.out_base + suffix, "w") as fh:
                fh.write(text)
        # Every aggregate a node accepted or assembled, once per distinct value.
        aggregates = {event for node in sim.nodes.values()
                      for event, _ in node.store.congestion.values()}
        facts = checks.work_facts(csv_text, trace_text, sim.connections, len(aggregates))
        problems = (checks.check_conservation(csv_text, len(sim.in_flight))
                    + checks.check_aggregates(sorted(aggregates, key=repr), self.roster_keys)
                    + checks.check_floors(self.workload, facts))
        digests = (checks.sha256_hex(csv_text), checks.sha256_hex(trace_text))
        return Round(run_s, digests, problems, facts)

    # -- the two kinds of run ------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """Set up until MIN_SETUPS samples took `seconds`, then run until
        `seconds` have passed.  The first run uses the last set-up's
        Simulation; later ones build a fresh Simulation from the same
        loaded bundle, as `vanetkit sweep` does."""
        setups: list[float] = []
        rounds: list[Round] = []
        attempted = failed = 0
        bundle = sim = None
        while len(setups) < MIN_SETUPS or sum(setups) < seconds:
            attempted += 1
            sim = None
            try:
                bundle, sim, setup_s = self.setup()
                setups.append(setup_s)
            except Exception:          # the program raised: count it, keep measuring
                traceback.print_exc()
                failed += 1
                break
        start = time.perf_counter()
        while bundle is not None:
            attempted += 1
            try:
                rounds.append(self.run(sim if sim is not None else bundle.build()))
            except Exception:
                traceback.print_exc()
                failed += 1
            sim = None
            if time.perf_counter() - start >= seconds:
                break
        problems = [p for r in rounds for p in r.problems]
        problems += self.checks.check_digests(self.workload, [r.digests for r in rounds])
        record = {"rounds": [vars(r) for r in rounds], "setup_samples": setups,
                  "problems": problems, "attempted": attempted, "failed": failed}
        if rounds:
            runs = [r.run_s for r in rounds]
            record["quartiles"] = {"setup_s": _quartiles(setups), "run_s": _quartiles(runs)}
            record["metrics"] = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(runs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return record

    def traced(self) -> dict:
        import layers
        import tracer
        import vanetkit
        from vanetkit import (aggregation, auth, crypto, events, geomodel, relay,
                              scenario, simnet, trust, wire)

        tr = tracer.Tracer()
        counters = {"deliveries": 0, "beacon_deliveries": 0, "build_rss_mb": 0.0}
        neighbor_problems: list[str] = []
        state = {"adjacency_calls": 0, "rss_before": 0.0, "sampled": 0}

        def before_build(*_):
            state["rss_before"] = _rss_mb()

        def after_build(*_):
            counters["build_rss_mb"] += _rss_mb() - state["rss_before"]

        def before_delivery(sim, t, *_):
            due = [d.frame for d in sim.in_flight if d.sent_at < t]
            counters["deliveries"] += len(due)
            counters["beacon_deliveries"] += sum(1 for f in due if f[4] == wire.BEACON)

        def after_adjacency(result, sim):
            state["adjacency_calls"] += 1
            calls = int(round(sim.config.duration / sim.config.tick)) + 1   # ticks + drain
            sampled = {round((k + 0.5) * calls / NEIGHBOR_SAMPLES)
                       for k in range(NEIGHBOR_SAMPLES)}
            if state["adjacency_calls"] not in sampled:
                return
            positions, neighbors = result
            active = {nid for nid, node in sim.nodes.items() if node.active}
            neighbor_problems.extend(self.checks.check_neighbors(
                {nid: (p.x, p.y) for nid, p in positions.items()}, active, neighbors,
                sim.config.radio_range))
            state["sampled"] += 1

        modules = [crypto, wire, trust, geomodel, events, aggregation, auth, relay,
                   scenario, simnet, vanetkit]
        unprobed = tr.install(modules, {
            "simnet.Simulation.__init__": (before_build, after_build),
            "simnet.Simulation._delivery_step": (before_delivery, None),
            "simnet.Simulation._adjacency": (None, after_adjacency),
        })
        # The traced round goes first, in a fresh heap, so that the build's
        # RSS growth is not hidden by memory an earlier round freed.
        try:
            _, sim, traced_setup_s = self.setup()
            traced_round = self.run(sim)
        finally:
            tr.uninstall()
        del sim
        _, sim, setup_s = self.setup()
        baseline = self.run(sim)
        del sim

        problems = baseline.problems + traced_round.problems + neighbor_problems
        problems += self.checks.check_digests(self.workload + " timed vs traced",
                                              [baseline.digests, traced_round.digests])
        if state["sampled"] == 0:
            problems.append("no neighbour lists were sampled")
        phases = {phase: sum(table[tracer.SIM + phase][1] for table in tr.children.values()
                             if tracer.SIM + phase in table)
                  for phase in tracer.PHASES}
        counters["sessions"] = traced_round.facts["sessions"]
        counters["overhead_s"] = traced_round.run_s - tr.probe_s - baseline.run_s
        metrics = layers.per_layer(tr, counters)
        problems += [f"the program has no {name}, which a per-layer metric reads"
                     for name in sorted(tr.unmatched)]
        problems += [f"the program has no {name} to probe" for name in unprobed]
        return {
            "rounds": [vars(traced_round), vars(baseline)],
            "setup_samples": [traced_setup_s, setup_s],
            "problems": problems,
            "attempted": 2,
            "failed": 0,
            "neighbor_samples": state["sampled"],
            "phase_s": phases,
            "spans": tr.summary(),
            "metrics": metrics,
        }


def run_one(args, spec: dict) -> int:
    if args.smoke:      # smoke fleets sit below the calibrated vehicle range
        warnings.filterwarnings("ignore", message="vehicle count")
    bench = Bench(args.workload, args.seed, args.smoke)
    try:
        record = bench.traced() if args.trace else bench.timed(args.seconds)
    finally:
        bench.close()
    wanted = units(spec, args.trace)
    if "metrics" in record:
        record["metrics"] = {name: record["metrics"][name] for name in wanted}

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke)
    mode = "traced" if args.trace else "timed"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(f"{bench.out_base}_{mode}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    rounds = record["rounds"]
    print(f"# {args.workload} seed={args.seed} {mode}: {record['attempted']} attempted, "
          f"{record['failed']} failed")
    if rounds:
        csv_digest, trace_digest = rounds[0]["digests"]
        print(f"# digests csv={csv_digest} trace={trace_digest}")
    if args.trace:
        traced_run_s = rounds[0]["run_s"] - record["spans"]["probe_s"]
        for phase, seconds in record["phase_s"].items():
            print(f"# phase {phase:15s} {seconds:9.3f} s  "
                  f"{seconds / traced_run_s:6.1%} of traced run_s")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    metrics = record.get("metrics", {})
    quartiles = record.get("quartiles", {})
    for name, value in metrics.items():
        spread = ""
        if name in quartiles:
            q1, _, q3 = quartiles[name]
            spread = f"  (quartiles {q1:.4f} .. {q3:.4f})"
        print(f"{name:38s} {value:14.6f} {wanted[name]}{spread}")
    correct = bool(metrics) and not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": wanted[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args, names: tuple[str, ...]) -> int:
    """Each workload in its own fresh process; one table at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout, end="")
            print(f"error: {workload} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
            table.append((workload, name, metric["value"], metric["unit"],
                          result["attempted"], result["failed"]))
        for line in lines[:-1]:
            if "CHECK FAILED" in line or "digests" in line:
                print(f"{workload}: {line}")
    print(f"{'workload':8s} {'metric':38s} {'value':>14s} unit   attempted failed")
    for workload, name, value, unit, attempted, failed in table:
        print(f"{workload:8s} {name:38s} {value:14.6f} {unit:6s} {attempted:9d} {failed:6d}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = workload_names(spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long a timed run repeats rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs that finish in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    import_program()
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
