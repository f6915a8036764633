"""Self-tests of the benchmark: every workload's smoke mode passes every
check, and every check can fail.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import os
import pstats
import shutil
import subprocess
import sys
import types

import pytest

import run

run.import_program()

import checks      # noqa: E402  (needs the program on sys.path)
import layers      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402
from vanetkit import (aggregation, auth, crypto, events, geomodel,  # noqa: E402
                      relay, scenario, simnet, trust, wire)
import vanetkit    # noqa: E402

RUN = os.path.join(run.BENCH_DIR, "run.py")
# Smoke fleets sit below the simulator's calibrated 600-15000 vehicle range.
pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")
SPEC = run.load_spec()
NAMES = run.workload_names(SPEC)


def _bench(*args: str, cwd: str | None = None) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, RUN, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300, cwd=cwd)
    return proc.returncode, proc.stdout.strip().splitlines()


def _smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    code, lines = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace), "--smoke")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    return result, lines


# -- smoke runs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", NAMES)
def test_smoke_timed_run_reports_every_end_to_end_metric(workload):
    result, _ = _smoke(workload, 0)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.units(SPEC, 0)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_traced_run_reports_every_layer_and_samples_neighbors(workload):
    result, _ = _smoke(workload, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.units(SPEC, 1)
    with open(os.path.join(run.RESULTS_DIR, f"{workload}_3_smoke_traced.json")) as fh:
        record = json.load(fh)
    assert record["neighbor_samples"] >= 1 and record["problems"] == []
    traced, untraced = record["rounds"]
    assert traced["digests"] == untraced["digests"]


def test_digests_repeat_across_processes():
    digests = [[line for line in _smoke("city", 0, seed=5)[1] if "digests" in line]
               for _ in range(2)]
    assert digests[0] == digests[1] and digests[0]


def test_jam_smoke_does_the_paper_pipeline():
    _smoke("jam", 0)
    with open(os.path.join(run.RESULTS_DIR, "jam_3_smoke_timed.json")) as fh:
        facts = json.load(fh)["rounds"][0]["facts"]
    assert all(facts[fact] >= 1 for fact, _ in checks.FLOORS["jam"]), facts


# -- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", NAMES)
def test_inputs_depend_on_the_seed_alone(workload, tmp_path):
    def files(seed, name):
        workloads.write_bundle(workload, seed, str(tmp_path / name), smoke=True)
        return {f.name: f.read_text() for f in sorted((tmp_path / name).iterdir())}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


# -- each check can fail -----------------------------------------------------------

def _csv(rows: list[list[int]]) -> str:
    lines = [checks.CSV_HEADER]
    lines += [f"n{i}," + ",".join(map(str, row)) for i, row in enumerate(rows)]
    totals = [sum(col) for col in zip(*rows)]
    lines.append("TOTAL," + ",".join(map(str, totals)))
    return "\n".join(lines) + "\n"


def test_conservation_check_catches_a_row_off_by_one():
    good = _csv([[10, 2, 3, 6, 1, 2, 1], [5, 1, 1, 7, 1, 0, 0]])
    assert checks.check_conservation(good, 0) == []
    lines = good.splitlines()
    lines[1] = "n0,10,2,3,7,1,2,1"           # one extra reception on one node
    problems = checks.check_conservation("\n".join(lines) + "\n", 0)
    assert any("TOTAL received" in p for p in problems)
    assert checks.check_conservation(_csv([[10, 2, 3, 6, 3, 0, 0]]), 0) != []
    assert any("in flight" in p for p in checks.check_conservation(good, 1))


def test_conservation_check_passes_real_output_and_fails_it_tampered(tmp_path):
    directory = workloads.write_bundle("city", 2, str(tmp_path / "city"), smoke=True)
    bundle, problems = scenario.load_bundle(directory)
    sim = bundle.build()
    csv_text = sim.run().csv()
    assert checks.check_conservation(csv_text, len(sim.in_flight)) == []
    lines = csv_text.splitlines()
    name, *fields = lines[1].split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[1] = ",".join([name, *fields])
    assert checks.check_conservation("\n".join(lines) + "\n", 0) != []


def _square() -> tuple[dict, set, dict]:
    positions = {"a": (0.0, 0.0), "b": (75.0, 0.0), "c": (75.0, 75.0), "d": (500.0, 0.0)}
    neighbors = {"a": ["b"], "b": ["a", "c"], "c": ["b"], "d": []}
    return positions, {"a", "b", "c", "d"}, neighbors


def test_neighbor_check_catches_planted_wrong_neighbors():
    positions, active, neighbors = _square()
    assert checks.check_neighbors(positions, active, neighbors, 75.0) == []
    planted = dict(neighbors, a=["b", "c"], c=["b", "a"])    # a-c is 106 m apart
    assert checks.check_neighbors(positions, active, planted, 75.0) != []
    one_sided = dict(neighbors, d=["a"])
    assert any("not the reverse" in p
               for p in checks.check_neighbors(positions, active, one_sided, 75.0))
    selfish = dict(neighbors, d=["d"])
    assert any("itself" in p for p in checks.check_neighbors(positions, active, selfish, 75.0))
    missing = dict(neighbors, a=[], b=["c"])
    assert checks.check_neighbors(positions, active, missing, 75.0) != []
    inactive = checks.check_neighbors(positions, active - {"a"}, neighbors, 75.0)
    assert inactive != []


def test_neighbor_check_passes_the_simulator_and_fails_a_planted_neighbor(tmp_path):
    directory = workloads.write_bundle("city", 2, str(tmp_path / "city"), smoke=True)
    bundle, _ = scenario.load_bundle(directory)
    sim = bundle.build()
    sim.config.duration = 5
    sim.run()
    positions, neighbors = sim._adjacency()
    plain = {n: (p.x, p.y) for n, p in positions.items()}
    active = {n for n, node in sim.nodes.items() if node.active}
    assert checks.check_neighbors(plain, active, neighbors, sim.config.radio_range) == []
    lonely = next(n for n in sorted(active) if not neighbors[n])
    far = max(sorted(active), key=lambda n: (plain[n][0] - plain[lonely][0]) ** 2
              + (plain[n][1] - plain[lonely][1]) ** 2)
    neighbors[lonely].append(far)
    neighbors[far].append(lonely)
    assert checks.check_neighbors(plain, active, neighbors, sim.config.radio_range) != []


def _aggregate(signers: int, rate: float | None):
    roster_text = "".join(f"user w{i} {i}\n" for i in range(signers + 1))
    roster = trust.load_roster(roster_text)
    obs = events.CongestionObservation("main", "fwd", geomodel.GeoCoordinate(250.0, 10.0),
                                       130.0, b"p" * 16)
    users = [roster.users[f"w{i}"] for i in range(signers)]
    signed = [aggregation.sign_observation(obs, u.keys.private_key, u.self_certificate,
                                           bytes([i]) * 16)
              for i, u in enumerate(users)]
    event = aggregation.assemble_aggregate(obs, signed, None, b"q" * 16, 131.0)
    return dataclasses.replace(event, rate=rate, threshold=checks.paper_threshold(rate)), \
        checks.roster_public_keys(roster_text), roster


def test_schnorr_check_agrees_with_the_program_and_catches_tampering():
    event, keys, roster = _aggregate(5, 6.0)
    assert checks.check_aggregate(event, keys) == []
    first = event.signatures[0]
    for i in (0, 31, 32, 63):
        sig = bytearray(first.signature)
        sig[i] ^= 1
        bad = dataclasses.replace(first, signature=bytes(sig))
        assert not checks.schnorr_ok(first.signer_certificate.subject_public_key,
                                     checks.canonical_observation(first.observation),
                                     bad.signature)
        tampered = dataclasses.replace(event, signatures=(bad,) + event.signatures[1:])
        assert any("does not verify" in p for p in checks.check_aggregate(tampered, keys))
    message = checks.canonical_observation(first.observation)
    assert message == aggregation.canonical_observation(first.observation)
    pub = first.signer_certificate.subject_public_key
    assert crypto.verify(pub, message, first.signature) and \
        checks.schnorr_ok(pub, message, first.signature)
    assert keys == {uid: u.keys.public_key for uid, u in roster.users.items()}


def test_threshold_check_follows_the_paper_table():
    assert [checks.paper_threshold(r) for r in (None, 0.0, 0.99, 1.0, 4.0, 4.01, 30.0)] == \
        [2, 2, 2, 4, 4, 5, 5]
    for rate in (None, 0.5, 2.0, 10.0):
        assert checks.paper_threshold(rate) == aggregation.required_signatures(rate)
    event, keys, _ = _aggregate(4, 6.0)          # four signers where five are needed
    assert any("needs 5" in p for p in checks.check_aggregate(event, keys))
    event, keys, _ = _aggregate(2, None)
    assert checks.check_aggregate(event, keys) == []
    wrong_claim = dataclasses.replace(event, threshold=1)
    assert any("carries threshold" in p for p in checks.check_aggregate(wrong_claim, keys))
    stranger = dict(keys, w0=b"\x02" * 32)
    assert any("roster key" in p for p in checks.check_aggregate(event, stranger))


def test_floor_and_digest_checks_fail_without_work_or_with_drift():
    idle = dict.fromkeys(checks.work_facts(_csv([[0] * 7]), "", 0, 0), 0)
    for workload, floors in checks.FLOORS.items():
        assert len(checks.check_floors(workload, idle)) == len(floors)
    assert checks.check_digests("x", [("a", "b"), ("a", "b")]) == []
    assert checks.check_digests("x", [("a", "b"), ("a", "c")]) != []


# -- tracing ----------------------------------------------------------------------

def test_tracer_sees_every_call_the_profiler_sees(tmp_path):
    directory = workloads.write_bundle("jam", 4, str(tmp_path / "jam"), smoke=True)
    tr = tracer.Tracer()
    modules = [crypto, wire, trust, geomodel, events, aggregation, auth, relay,
               scenario, simnet, vanetkit]
    tr.install(modules)
    profile = cProfile.Profile()
    try:
        profile.enable()
        bundle, _ = scenario.load_bundle(directory)
        bundle.build().run()
        profile.disable()
    finally:
        tr.uninstall()
    seen = {}
    for (filename, line, funcname), (_, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        if filename.startswith(os.path.join(run.SRC, "vanetkit")):
            seen[(filename, line, funcname)] = ncalls
    checked = 0
    for name in tr.targets:
        calls = tr.calls(name)
        fn = _original(name)
        code = getattr(fn, "__code__", None)
        if code is None:
            continue
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert seen.get(key, 0) == calls, f"{name}: profiler {seen.get(key, 0)}, tracer {calls}"
        checked += calls > 0
    assert checked > 50
    assert tr.calls("crypto.verify") > 0 and tr.calls("aggregation.assemble_aggregate") > 0
    assert "crypto.sha256" not in tr.targets       # left unwrapped on purpose


def _original(name: str):
    module, *path = name.split(".")
    obj = vars(vanetkit)[module]
    for part in path:
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return getattr(obj, "__func__", obj)


def test_tracer_uninstall_restores_the_program():
    before = {m.__name__: dict(vars(m)) for m in (crypto, simnet, aggregation)}
    init = simnet.Simulation.__init__
    tr = tracer.Tracer()
    tr.install([crypto, simnet, aggregation])
    assert simnet.Simulation.__init__ is not init and simnet.sign_observation is not \
        before["vanetkit.simnet"]["sign_observation"]
    tr.uninstall()
    assert simnet.Simulation.__init__ is init
    for m in (crypto, simnet, aggregation):
        assert dict(vars(m)) == before[m.__name__]


def test_a_metric_whose_target_is_gone_is_reported():
    tr = tracer.Tracer()
    tr.install([crypto, wire, trust, geomodel, aggregation, auth, scenario, simnet])
    tr.uninstall()
    counters = dict.fromkeys(("deliveries", "beacon_deliveries", "build_rss_mb",
                              "sessions", "overhead_s"), 0)
    layers.per_layer(tr, counters)
    # Without relay and events, exact and prefix lookups both come up empty.
    assert {"relay.recompute_route", "events.evaluate_window*",
            "events.CongestionDetector.*"} <= tr.unmatched
    assert all(name.startswith(("relay.", "events.")) for name in tr.unmatched)


def test_self_time_excludes_enclosed_spans():
    box = types.ModuleType("vanetkit.box")

    def inner():
        return sum(range(20000))

    def outer():
        return box.inner() + box.inner()

    inner.__module__ = outer.__module__ = box.__name__
    box.inner, box.outer = inner, outer
    tr = tracer.Tracer()
    tr.install([box])
    box.outer()
    tr.uninstall()
    assert tr.calls("box.inner") == 2 and tr.calls("box.outer") == 1
    assert tr.callers("box.inner") == {"box.outer": 2}
    edges = tr.summary()["call_edges"]
    outer_incl = next(e["incl_s"] for e in edges if e["callee"] == "box.outer")
    assert abs(tr.self_s("box.outer") + tr.self_s("box.inner") - outer_incl) < 1e-9


# -- the contract ------------------------------------------------------------------

def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "city", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=60, env={k: v for k, v in os.environ.items()
                                           if k != "PYTHONPATH"})
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
    assert "no vanetkit sources" in proc.stderr

