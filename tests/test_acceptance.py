"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import dataclasses
import os
import random
import re
import struct
import time

import pytest

from vanetkit import aggregation, auth, crypto, kits, scenario, wire
from vanetkit.aggregation import (AggregatedEvent, required_signatures,
                                  sign_observation, verify_aggregate)
from vanetkit.events import CongestionObservation
from vanetkit.geomodel import FORWARD, GeoCoordinate, load_network
from vanetkit.relay import plan_cost, plan_route, recompute_route
from vanetkit.radio import neighbors_in_range
from vanetkit.simnet import AuditLog, Simulation
from vanetkit.trust import Certificate, RevocationStore, Roster, register_user
from scenario_builders import freerider_setup, privacy_setup

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL  {title}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS  {title}")


# -- 1 ---------------------------------------------------------------------

def test_01_threshold_table_exactness():
    with criterion(1, "adaptive signature threshold matches the case-analysis "
                      "oracle on 10000 random rates in under a second"):
        def oracle(rate):
            if rate is None or rate < 1.0:
                return 2
            if rate <= 4.0:
                return 4
            return 5
        rng = random.Random(101)
        started = time.perf_counter()
        mismatches = 0
        for _ in range(10000):
            if rng.random() < 0.05:
                rate = rng.choice([None, 0.0, 1.0, 4.0, 1.0 - 1e-12, 4.0 + 1e-12])
            else:
                rate = rng.uniform(0.0, 10.0)
            if required_signatures(rate) != oracle(rate):
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- 2 ---------------------------------------------------------------------

def test_02_single_attacker_immunity():
    with criterion(2, "one key pair with up to 10 pseudonyms never yields an "
                      "accepted aggregate in 1000 adversarial attempts"):
        rng = random.Random(202)
        roster = Roster()
        attacker = register_user(roster, "attacker", 999)
        store = RevocationStore()
        obs = CongestionObservation("jam", FORWARD, GeoCoordinate(120.0, 30.0),
                                    600.0, b"a" * 16)
        accepted = 0
        for _ in range(1000):
            pseudonyms = [rng.randbytes(16) for _ in range(rng.randrange(1, 11))]
            sigs = [sign_observation(obs, attacker.keys.private_key,
                                     attacker.self_certificate, p)
                    for p in pseudonyms]
            strategy = rng.randrange(3)
            if strategy == 1:
                # Fake a second identity by renaming the certificate.
                cert = attacker.self_certificate
                fake = Certificate("sockpuppet", cert.subject_public_key,
                                   "sockpuppet", cert.signature)
                sigs.append(type(sigs[0])(obs, rng.randbytes(16), fake,
                                          sigs[0].signature))
            elif strategy == 2:
                # Claim a rock-bottom threshold in the packet itself.
                pass
            event = AggregatedEvent(obs, tuple(sigs), pseudonyms[0], 600.0,
                                    rate=rng.choice([None, 0.0, 0.2]),
                                    threshold=rng.choice([0, 1, 2]))
            ok, _ = verify_aggregate(event, store)
            accepted += ok
        assert accepted == 0


# -- 3 ---------------------------------------------------------------------

def test_03_authentication_completeness_and_soundness():
    with criterion(3, "over 500 random rosters authentication accepts exactly "
                      "when a common friend exists and neither side is revoked, "
                      "in under 30 s"):
        rng = random.Random(303)
        started = time.perf_counter()
        for trial in range(500):
            n = rng.randrange(10, 51)
            roster = Roster()
            names = [f"u{trial}_{i}" for i in range(n)]
            for i, name in enumerate(names):
                register_user(roster, name, trial * 1000 + i)
            adjacency = {name: {name} for name in names}
            for _ in range(rng.randrange(0, 2 * n)):
                x, y = rng.sample(names, 2)
                roster.befriend(x, y)
                adjacency[x].add(y)
                adjacency[y].add(x)
            a_name, b_name = rng.sample(names, 2)
            store_a = RevocationStore(set(names))
            store_b = RevocationStore(set(names))
            a_revokes_b = b_revokes_a = False
            if rng.random() < 0.20:
                a_revokes_b = True
                for _ in range(3):
                    store_a.report(b_name)
            if rng.random() < 0.20:
                b_revokes_a = True
                for _ in range(3):
                    store_b.report(a_name)
            party_a = auth.Party(roster.user(a_name), store_a, rng.randbytes(16))
            party_b = auth.Party(roster.user(b_name), store_b, rng.randbytes(16))
            expected = (bool(adjacency[a_name] & adjacency[b_name])
                        and not a_revokes_b and not b_revokes_a)
            transcript, keys = auth.zk_mutual_authenticate(party_a, party_b, rng, 0.0)
            got = transcript.outcome == auth.OUTCOME_ACCEPTED
            assert got == expected, (trial, a_name, b_name)
            if got:
                assert keys[0].key == keys[1].key
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- 4 ---------------------------------------------------------------------

def test_04_replay_resistance():
    with criterion(4, "recorded transcripts never satisfy a fresh 128-bit "
                      "challenge in 10000 trials"):
        rng = random.Random(404)
        roster = Roster()
        register_user(roster, "alice", 1)
        register_user(roster, "bob", 2)
        roster.befriend("alice", "bob")
        party_a = auth.Party(roster.user("alice"), RevocationStore(), rng.randbytes(16))
        party_b = auth.Party(roster.user("bob"), RevocationStore(), rng.randbytes(16))
        transcript, _ = auth.zk_mutual_authenticate(party_a, party_b, rng, 0.0)
        assert transcript.outcome == auth.OUTCOME_ACCEPTED
        verifier_keys = roster.user("bob").repository.candidate_keys()
        assert auth.match_keys(verifier_keys, b"".join(transcript.commitments_initiator),
                               transcript.nonce_initiator,
                               transcript.challenge_to_initiator,
                               b"".join(transcript.responses_initiator))
        accepted = 0
        for _ in range(10000):
            fresh = rng.randbytes(16)
            if fresh == transcript.challenge_to_initiator:
                continue
            if auth.match_keys(verifier_keys, b"".join(transcript.commitments_initiator),
                               transcript.nonce_initiator, fresh,
                               b"".join(transcript.responses_initiator)):
                accepted += 1
        assert accepted == 0


# -- 5 ---------------------------------------------------------------------

def _position_speed_patterns(config, network, roster):
    """Every per-tick coordinate and speed, as big- and little-endian f64.

    Computed by an independent mobility-only replay: mobility never
    depends on protocol traffic, so the replay shadows the real run.
    """
    shadow = Simulation(config, network, roster)
    patterns = set()
    for t in range(config.duration):
        shadow.now = float(t)
        shadow._script_step(t)
        shadow._mobility_step(t)
        for node in shadow.nodes.values():
            pos = node.state.position(network)
            for value in (pos.x, pos.y, node.state.speed):
                patterns.add(struct.pack(">d", value))
                patterns.add(struct.pack("<d", value))
    return patterns


def test_05_privacy_surface_of_beacons():
    with criterion(5, "1000-tick beacon stream leaks no key, id, position or "
                      "speed bytes; rotation linkage decrypts only per peer"):
        config, network, roster = privacy_setup(duration=1000)
        patterns = _position_speed_patterns(config, network, roster)
        for ident in roster.users.values():
            patterns.add(ident.keys.public_key)
            patterns.add(ident.user_id.encode())

        sim = Simulation(config, network, roster)
        sim.audit = AuditLog()
        sim.run()
        assert len(sim.audit.beacons) >= 3000
        blob = b"\xff".join(sim.audit.beacons)
        for pattern in patterns:
            if pattern in blob:
                # Rule out a false positive spanning two beacons.
                assert not any(pattern in beacon for beacon in sim.audit.beacons), \
                    f"beacon leaks {pattern.hex()}"

        # Rotations happened, and their change notices are opaque to anyone
        # without the matching session key.
        assert sim.audit.rotations
        assert sim.audit.notices
        outsider_keys = [crypto.sha256(bytes([i]) * 4) for i in range(8)]
        for sender, peer, frame in sim.audit.notices:
            tag, blob = wire.decode_frame(frame)
            assert tag == wire.CHANGE_NOTICE
            for key in outsider_keys:
                with pytest.raises((crypto.WrongKeyError, crypto.IntegrityError)):
                    crypto.open_sealed(key, blob)
        # The long-lived stationary pair can still read each other's notices.
        session = sim.nodes["va"].sessions.get("vb")
        assert session is not None
        readable = 0
        for sender, peer, frame in sim.audit.notices:
            if {sender, peer} == {"va", "vb"}:
                _, blob = wire.decode_frame(frame)
                old, new = wire.decode_pseudonym_change(
                    crypto.open_sealed(session.key.key, blob))
                assert len(old) == len(new) == 16
                readable += 1
        assert readable > 0


# -- 6 ---------------------------------------------------------------------

def test_06_congestion_chain_kit(tmp_path):
    with criterion(6, "congestion-chain kit: exactly one accepted 2-signature "
                      "aggregate at the receiver; none without the corroborator; "
                      "deterministic; under 5 s"):
        started = time.perf_counter()
        directory = tmp_path / "chain"
        kits.generate_kit("congestion-chain", str(directory))
        bundle, problems = scenario.load_bundle(str(directory))
        assert problems == []
        sim = bundle.build()
        sim.run()
        receives = [l for l in sim.trace if " R receive congestion" in l]
        assert len(receives) == 1 and "sigs=2" in receives[0]

        sim_again = scenario.load_bundle(str(directory))[0].build()
        sim_again.run()
        assert sim_again.trace == sim.trace

        solo = scenario.load_bundle(str(directory))[0]
        solo.config.vehicles = [v for v in solo.config.vehicles if v.vehicle_id != "C"]
        solo_sim = solo.build()
        solo_stats = solo_sim.run()
        assert solo_stats.events_accepted == 0
        assert not [l for l in solo_sim.trace if "aggregate" in l]
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


# -- 7 ---------------------------------------------------------------------

def _enumerate_walk(net, start, goal):
    best = None
    def extend(here, seen, cost):
        nonlocal best
        if here == goal:
            best = cost if best is None else min(best, cost)
            return
        for seg_id in net.segments_at(here):
            seg = net.segments[seg_id]
            nxt = seg.junction_b if seg.junction_a == here else seg.junction_a
            if nxt not in seen:
                extend(nxt, seen | {nxt}, cost + seg.length)
    extend(start, {start}, 0.0)
    return best


def test_07_parking_lifecycle_and_walking_route(tmp_path):
    with criterion(7, "parking space visible before its ttl and hidden at "
                      "ttl+1; find-car walking route equals the brute-force "
                      "shortest path exactly"):
        directory = tmp_path / "parking"
        kits.generate_kit("parking", str(directory))
        sim = scenario.load_bundle(str(directory))[0].build()
        sim.run()
        receive_t = int([l for l in sim.trace if " S receive parking" in l][0].split()[0])
        assert receive_t <= 30 + 60
        searcher = sim.nodes["S"]
        assert not searcher.store.visible_parking(float(30 + 60 + 1))
        expire_t = int([l for l in sim.trace if " S expire parking" in l][0].split()[0])
        assert expire_t == 30 + 60 + 1

        directory = tmp_path / "findcar"
        kits.generate_kit("find-car", str(directory))
        bundle = scenario.load_bundle(str(directory))[0]
        net = bundle.network
        assert len(net.junctions) == 12
        sim = bundle.build()
        sim.run()
        parked = sim.nodes["P"].parking.parked
        assert (parked.location.x, parked.location.y) == (150.0, 0.0)   # junction j0_1
        shows = [l for l in sim.trace if "find-route" in l]
        length = float(re.search(r"length=([0-9.]+)", shows[0]).group(1))
        assert length == _enumerate_walk(net, "j2_3", "j0_1")


# -- 8 ---------------------------------------------------------------------

def test_08_radio_range_boundaries():
    with criterion(8, "reachability at exactly 75 m inclusive and 75.001 m "
                      "exclusive over 1000 random placements"):
        rng = random.Random(808)
        exact = [(21, 72), (72, 21), (45, 60), (60, 45), (75, 0), (0, 75)]
        for _ in range(1000):
            bx = float(rng.randrange(-10**6, 10**6))
            by = float(rng.randrange(-10**6, 10**6))
            dx, dy = rng.choice(exact)
            sx = rng.choice([-1, 1])
            sy = rng.choice([-1, 1])
            positions = {
                "origin": (bx, by),
                "on_boundary": (bx + sx * dx, by + sy * dy),
                "just_outside": (bx + sx * 75.001, by),
                "far": (bx + 400.0, by - 300.0),
            }
            got = neighbors_in_range(positions, "origin", 75.0)
            assert got == {"on_boundary"}


# -- 9 ---------------------------------------------------------------------

def test_09_conservation_and_determinism(tmp_path):
    with criterion(9, "600-vehicle demo conserves packets, reproduces "
                      "bit-identically, and finishes in under 60 s"):
        directory = str(tmp_path / "demo")
        kits.demo_bundle(directory, vehicle_count=600, duration=300, seed=42)
        outputs = []
        for _ in range(2):
            bundle, problems = scenario.load_bundle(directory)
            assert problems == []
            sim = bundle.build()
            started = time.perf_counter()
            stats = sim.run()
            elapsed = time.perf_counter() - started
            assert elapsed < 60.0, f"took {elapsed:.1f}s"
            totals = stats.totals()
            assert totals.generated == totals.received + totals.lost + stats.in_flight
            outputs.append((stats.csv(), "\n".join(sim.trace)))
        assert outputs[0] == outputs[1]


# -- 10 ---------------------------------------------------------------------

def test_10_obu_fraction_trend(tmp_path):
    with criterion(10, "accepted connections nondecreasing over the OBU "
                       "fraction sweep {0.1, 0.25, 0.5, 1.0}"):
        directory = str(tmp_path / "sweepdemo")
        kits.demo_bundle(directory, vehicle_count=120, duration=120, seed=42, grid=5)
        bundle, problems = scenario.load_bundle(directory)
        assert problems == []
        connections = []
        for fraction in (0.1, 0.25, 0.5, 1.0):
            config = dataclasses.replace(bundle.config, obu_fraction=fraction)
            sim = scenario.ScenarioBundle(bundle.directory, config, bundle.road_path,
                                          bundle.roster_path, bundle.advert_paths,
                                          bundle.network, bundle.roster).build()
            connections.append(sim.run().connections)
        assert all(a <= b for a, b in zip(connections, connections[1:])), connections
        assert connections[-1] > connections[0] > 0


# -- 11 ---------------------------------------------------------------------

def test_11_cooperation_incentive():
    with criterion(11, "a free-rider is cut off after four observed refusals "
                       "and decrypts zero later payloads while honest nodes "
                       "keep receiving"):
        config, net, roster = freerider_setup()
        sim = Simulation(config, net, roster)
        sim.audit = AuditLog()
        sim.run()
        record = sim.nodes["G"].coop["F"]
        assert record.opportunities >= 4
        assert record.forwards == 0
        parking = {node: [(t, e) for t, receiver, tag, e in sim.audit.payloads
                          if receiver == node and tag == wire.PARKING_EVENT]
                   for node in ("F", "D")}
        cutoff = max(t for t, _ in parking["F"])
        rider_after = [e for t, e in parking["F"] if t > cutoff]
        rider_all = [e for _, e in parking["F"]]
        honest_all = [e for _, e in parking["D"]]
        assert len(rider_all) == 4            # gate closed after the fourth duty
        assert rider_after == []
        assert len(honest_all) == 5           # including the post-cutoff event
        assert len(set(honest_all) - set(rider_all)) == 1


# -- 12 ---------------------------------------------------------------------

def _enumerate_drive(net, start, goal, congested, penalty=5.0):
    best = None
    def weight(seg, direction):
        base = seg.travel_time_base
        return base * penalty if (seg.segment_id, direction) in congested else base
    def extend(here, seen, cost):
        nonlocal best
        if here == goal:
            if best is None or cost < best:
                best = cost
            return
        for seg_id in net.segments_at(here):
            seg = net.segments[seg_id]
            direction = "fwd" if seg.junction_a == here else "rev"
            nxt = seg.junction_b if direction == "fwd" else seg.junction_a
            if nxt not in seen:
                extend(nxt, seen | {nxt}, cost + weight(seg, direction))
    extend(start, {start}, 0.0)
    return best


def test_12_rerouting_matches_enumeration():
    with criterion(12, "rerouting equals exhaustive enumeration under the 5x "
                       "congestion penalty on 200 random placements, never "
                       "costlier than the old plan"):
        from vanetkit.geomodel import grid_document
        net = load_network(grid_document(4, 4, spacing=300.0))
        rng = random.Random(1212)
        names = sorted(net.junctions)
        for _ in range(200):
            start, goal = rng.sample(names, 2)
            congested = {(rng.choice(sorted(net.segments)), rng.choice(["fwd", "rev"]))
                         for _ in range(rng.randrange(0, 6))}
            plan = plan_route(net, start, goal)
            old_cost = plan_cost(plan, net, congested, from_index=0)
            new_plan, _, _ = recompute_route(plan, net, congested)
            new_cost = plan_cost(new_plan, net, congested, from_index=0)
            assert new_cost == _enumerate_drive(net, start, goal, congested)
            assert new_cost <= old_cost
