import random
import warnings

import pytest

from vanetkit import aggregation, auth, crypto, kits, scenario, wire
from vanetkit.aggregation import (PendingObservation, SignedObservation, event_id_for,
                                  sign_observation)
from vanetkit.events import CongestionObservation
from vanetkit.geomodel import FORWARD, GeoCoordinate, load_network
from vanetkit.simnet import (CongestionZone, ConservationError, ParkDirective,
                             SimConfig, Simulation, VehicleSpec, assign_obus,
                             collect_metrics, neighbors_in_range, run_simulation,
                             should_launch)
from vanetkit.trust import Roster, UnknownUserError

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")

STRAIGHT_ROAD = """
junction a 0 0
junction b 1000 0
segment main a b 50 twoway
"""


def two_node_setup(gap=50.0, shared_friend=True, duration=100):
    net = load_network(STRAIGHT_ROAD)
    roster = Roster()
    roster.register("ua", 1)
    roster.register("ub", 2)
    roster.register("F", 3)
    if shared_friend:
        roster.befriend("ua", "F")
        roster.befriend("ub", "F")
    config = SimConfig(
        seed=7, duration=duration, name="twonode",
        vehicles=[
            VehicleSpec("n1", "ua", "main", 100.0, FORWARD, speed=0.0),
            VehicleSpec("n2", "ub", "main", 100.0 + gap, FORWARD, speed=0.0),
        ])
    return config, net, roster


def test_battery_gate_ordering():
    assert should_launch("medium", "low")
    assert not should_launch("low", "low")       # "reaches" is inclusive
    assert not should_launch("very_high", "very_high")
    assert should_launch("very_high", "high")
    assert not should_launch("very_low", "low")


def test_assign_obus_counts_and_determinism():
    ids = [f"v{i}" for i in range(600)]
    assert len(assign_obus(ids, 0.01, seed=1)) == 6
    assert assign_obus(ids, 1.0, seed=1) == set(ids)
    assert assign_obus(ids, 0.37, seed=5) == assign_obus(ids, 0.37, seed=5)
    assert assign_obus(ids, 0.0, seed=5) == set()


def test_assign_obus_nested_across_fractions():
    ids = [f"v{i}" for i in range(100)]
    small = assign_obus(ids, 0.2, seed=9)
    large = assign_obus(ids, 0.7, seed=9)
    assert small <= large


def test_neighbors_in_range_boundaries():
    positions = {"a": (0.0, 0.0), "b": (75.0, 0.0), "c": (75.001, 0.0),
                 "d": (50.0, 0.0)}
    got = neighbors_in_range(positions, "a", 75.0)
    assert got == {"b", "d"}


def test_two_stationary_nodes_authenticate_and_beacon():
    config, net, roster = two_node_setup()
    sim = Simulation(config, net, roster)
    stats = sim.run()
    # Hand-simulated schedule: commit t0, challenge t1, response t2,
    # counter-response t3, result t4 -- well within the first 20 s period.
    assert stats.connections == 1
    assert stats.per_node["n1"].auth_accepted == 1
    assert stats.per_node["n2"].auth_accepted == 1
    for node_id, peer in (("n1", "n2"), ("n2", "n1")):
        session = sim.nodes[node_id].sessions[peer]
        assert session.key.established_at <= config.auth_period
    assert stats.per_node["n1"].broadcasted >= 99
    assert stats.per_node["n2"].broadcasted >= 99
    totals = stats.totals()
    assert totals.generated == totals.received + totals.lost + stats.in_flight
    assert stats.in_flight == 0


def test_subsecond_tick_keeps_protocol_clocks_in_seconds():
    config, net, roster = two_node_setup(duration=30)
    config.tick = 0.5
    config.vehicles[1].searcher = True
    config.parks = [ParkDirective("n1", 5.0, 12.0)]
    sim = Simulation(config, net, roster)
    stats = sim.run()
    assert stats.connections == 1
    # 30 s at two beacons per second (minus the parked gap for n1).
    assert stats.per_node["n2"].broadcasted == 60
    session = sim.nodes["n1"].sessions["n2"]
    assert session.key.established_at == 2.0   # four hops at half-second ticks
    # Trace timestamps are scenario seconds: delivery lands on a half tick.
    assert any(l.startswith("12 n1 announce parking") for l in sim.trace)
    assert any(l.startswith("12.5 n2 receive parking") for l in sim.trace)


def test_no_common_friend_means_no_connection():
    config, net, roster = two_node_setup(shared_friend=False)
    stats, _ = run_simulation(config, net, roster)
    assert stats.connections == 0
    assert stats.per_node["n1"].auth_attempts >= 1


def test_out_of_range_nodes_never_connect():
    config, net, roster = two_node_setup(gap=80.0)
    stats, _ = run_simulation(config, net, roster)
    assert stats.connections == 0
    assert stats.totals().received == 0


def test_obu_fraction_zero_means_zero_packets():
    config, net, roster = two_node_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config.obu_fraction = 0.0
        stats, _ = run_simulation(config, net, roster)
    totals = stats.totals()
    assert totals.generated == totals.sent == totals.broadcasted == 0
    assert totals.received == totals.lost == 0


def test_battery_gated_node_is_silent():
    config, net, roster = two_node_setup()
    config.vehicles[1].battery = "low"    # at the default threshold: gated
    stats, _ = run_simulation(config, net, roster)
    assert stats.per_node["n2"].generated == 0
    assert stats.per_node["n2"].received == 0
    assert stats.connections == 0


def test_determinism_bit_exact():
    config, net, roster = two_node_setup()
    stats_a, trace_a = run_simulation(config, net, roster)
    config2, net2, roster2 = two_node_setup()
    stats_b, trace_b = run_simulation(config2, net2, roster2)
    assert trace_a == trace_b
    assert stats_a.csv() == stats_b.csv()


def test_different_seed_changes_nothing_structural():
    config, net, roster = two_node_setup()
    config.seed = 8
    stats, _ = run_simulation(config, net, roster)
    assert stats.connections == 1


def test_lost_packets_on_range_departure():
    net = load_network(STRAIGHT_ROAD)
    roster = Roster()
    roster.register("ua", 1)
    roster.register("ub", 2)
    roster.befriend("ua", "ub")
    # n2 drives away at 50 km/h (13.9 m/s): the pair starts in range and
    # separates, so some frames launched in range must die in flight.
    config = SimConfig(
        seed=3, duration=40, name="departure",
        vehicles=[
            VehicleSpec("n1", "ua", "main", 0.0, FORWARD, speed=0.0),
            VehicleSpec("n2", "ub", "main", 60.0, FORWARD, speed=50.0),
        ])
    stats, _ = run_simulation(config, net, roster)
    totals = stats.totals()
    assert totals.lost > 0
    assert totals.generated == totals.received + totals.lost + stats.in_flight


def test_config_range_warnings():
    config, _, _ = two_node_setup()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert config.validate() == []
    assert any("600-15000" in str(w.message) for w in caught)
    big = SimConfig(duration=10, vehicle_count=600)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        big.validate()
    assert caught == []


def test_corroboration_request_retries_until_peer_authenticates():
    """A detector with nobody to ask keeps the observation pending and
    asks the corroborator that shows up later."""
    net = load_network(STRAIGHT_ROAD)
    roster = Roster()
    roster.register("ua", 1)
    roster.register("ub", 2)
    roster.befriend("ua", "ub")
    config = SimConfig(
        seed=5, duration=150, name="late-helper",
        vehicles=[
            VehicleSpec("n1", "ua", "main", 100.0, FORWARD, speed=50.0),
            # The helper's journey begins only after n1 already detected.
            VehicleSpec("n2", "ub", "main", 120.0, FORWARD, speed=50.0, start=70.0),
        ],
        zones=[CongestionZone("main", FORWARD, 0.0, 150.0, 2.0)])
    sim = Simulation(config, net, roster)
    stats = sim.run()
    detect_t = int([l for l in sim.trace if " n1 detect" in l][0].split()[0])
    announce_t = int([l for l in sim.trace if " n1 announce" in l][0].split()[0])
    aggregate = [l for l in sim.trace if " n1 aggregate" in l]
    assert detect_t == 60
    assert announce_t > detect_t + 10   # had to wait for the late helper
    assert len(aggregate) == 1 and "sigs=2" in aggregate[0]


def test_radio_symmetry_every_tick():
    config, net, roster = two_node_setup(gap=74.0)
    sim = Simulation(config, net, roster)
    for t in range(5):
        sim.now = float(t)
        sim._script_step(t)
        sim._mobility_step(t)
        positions, neighbors = sim._adjacency()
        for a in neighbors:
            for b in neighbors[a]:
                assert a in neighbors[b]


def test_assembly_rejects_planted_tampered_signature_at_threshold():
    """A pool that reaches the threshold only through a bad signature builds
    nothing; the same pool with the genuine signature builds the aggregate."""
    config, net, roster = two_node_setup()
    sim = Simulation(config, net, roster)
    node = sim.nodes["n1"]
    node.pseudonyms = auth.PseudonymState(0.0, random.Random(1))
    pseudonym = node.pseudonyms.current.value
    obs = CongestionObservation("main", FORWARD, GeoCoordinate(100.0, 0.0), 0.0, pseudonym)
    own = sign_observation(obs, node.user.keys.private_key, node.user.self_certificate,
                           pseudonym)
    helper = roster.user("ub")
    genuine = sign_observation(obs, helper.keys.private_key, helper.self_certificate,
                               b"h" * 16)
    tampered = SignedObservation(
        obs, genuine.signer_pseudonym, genuine.signer_certificate,
        genuine.signature[:-1] + bytes([genuine.signature[-1] ^ 1]))
    event_id = event_id_for(obs)
    pending = PendingObservation(obs, own, 0.0, 100.0)
    pending.signatures.append(tampered)      # planted past add_signature's check
    node.pending[event_id] = pending
    assert aggregation.required_signatures(
        aggregation.avg_users_per_minute(node.journey, 1.0)) == len(pending.signatures)
    sim.now = 1.0
    sim._assembly(node, 1, [])
    assert node.pending[event_id] is pending
    assert not any(" aggregate " in line for line in sim.trace)
    pending.signatures[1] = genuine
    sim._assembly(node, 1, [])
    assert event_id not in node.pending
    assert [l for l in sim.trace if " aggregate " in l] == [
        f"1 n1 aggregate event={event_id.hex()[:8]} sigs=2 threshold=2"]


def test_congestion_chain_verifies_no_pool_below_threshold(tmp_path, monkeypatch):
    """The promoter checks signatures only on ticks where its pool could
    meet the threshold."""
    directory = str(tmp_path / "chain")
    kits.generate_kit("congestion-chain", directory)
    bundle, problems = scenario.load_bundle(directory)
    assert problems == []
    sim = bundle.build()
    verifies = []
    real_verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *a: verifies.append(a) or real_verify(*a))
    calls = []     # (pool size, threshold, verify calls made, aggregate built)
    real_assemble = aggregation.assemble_aggregate

    def counted_assemble(observation, signatures, rate, *args, **kwargs):
        before = len(verifies)
        event = real_assemble(observation, signatures, rate, *args, **kwargs)
        calls.append((len(signatures), aggregation.required_signatures(rate),
                      len(verifies) - before, event is not None))
        return event

    monkeypatch.setattr(aggregation, "assemble_aggregate", counted_assemble)
    sim.run()
    below = [c for c in calls if c[0] < c[1]]
    at_threshold = [c for c in calls if c[0] >= c[1]]
    assert below and all(made == 0 and not built for _, _, made, built in below)
    assert at_threshold and all(made > 0 for _, _, made, _ in at_threshold)
    assert any(built for *_, built in at_threshold)


def test_nodes_share_one_known_user_set():
    config, net, roster = two_node_setup()
    sim = Simulation(config, net, roster)
    first, second = (sim.nodes[n].revocations for n in ("n1", "n2"))
    assert first.known_users is second.known_users
    assert first.known_users == set(roster.users)
    with pytest.raises(UnknownUserError):
        first.report("stranger")
    first.report("ub")
    assert first.records["ub"].misbehavior_count == 1 and "ub" not in second.records


def test_broken_counter_violates_conservation():
    config, net, roster = two_node_setup(duration=20)
    sim = Simulation(config, net, roster)
    stats = sim.run()
    totals = stats.totals()
    assert totals.generated == totals.received + totals.lost + stats.in_flight > 0
    sim.nodes["n1"].stats.received += 1
    with pytest.raises(ConservationError, match="packet conservation violated"):
        collect_metrics(sim)


def _chain_sim(directory):
    kits.generate_kit("congestion-chain", str(directory))
    bundle, problems = scenario.load_bundle(str(directory))
    assert problems == []
    return bundle.build()


def test_malformed_and_mismatched_frames_are_dropped_and_counted(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    d = sim.nodes["D"]
    responders, rng_state = dict(d.responders), sim.rng.getstate()
    sim._handle_frame(d, "C", b"\x00\x00", 999, neighbors, True)
    sim._handle_frame(d, "C", wire.encode_frame(wire.AUTH_COMMIT, b"\x00" * 5), 999,
                      neighbors, True)
    assert sim.malformed_frames == 2
    assert d.responders == responders and sim.rng.getstate() == rng_state

    # A challenge and a counter-response naming another session than D's
    # open handshake with C leave the handshake as it was.
    party = auth.Party(d.user, d.revocations, d.pseudonyms.current.value)
    engine = auth.AuthInitiator(party, random.Random(1), sim.now)
    d.initiators["C"] = engine
    other = bytes(16) if engine.session_id != bytes(16) else b"\x01" * 16
    challenge = wire.encode_auth_challenge(other, b"p" * 16, b"c" * 16, [])
    response = wire.encode_auth_response(other, False, b"n" * 16, [], b"c" * 16)
    for frame in (challenge, response):
        sim._handle_frame(d, "C", frame, 999, neighbors, True)
    assert sim.malformed_frames == 4
    assert d.initiators["C"] is engine and engine.peer_commitments == []
    assert engine.outcome is None and sim.in_flight == []
    # The engines check the role flag too, not only the session id.
    _, wrong_role = wire.decode_frame(wire.encode_auth_response(
        engine.session_id, True, b"n" * 16, [], b"c" * 16))
    with pytest.raises(auth.SessionMismatchError):
        engine.on_peer_response(wrong_role, sim.now)
    del d.initiators["C"]
    collect_metrics(sim)


def test_garbage_frames_during_a_run_change_no_outcome(tmp_path):
    """C sends D undecodable frames every tick it can; D drops and counts
    them, conservation holds and the trace equals a clean run's."""
    clean = _chain_sim(tmp_path / "clean")
    clean.run()
    sim = _chain_sim(tmp_path / "noisy")
    garbage = (b"\x00\x00", wire.encode_frame(wire.AUTH_COMMIT, b"\x00" * 5),
               wire.encode_frame(wire.AUTH_RESULT, b"\x01"))
    node_step = sim._node_step

    def noisy_node_step(t, positions, neighbors):
        node_step(t, positions, neighbors)
        if "D" in neighbors["C"]:
            for frame in garbage:
                sim._unicast(sim.nodes["C"], "D", frame, t)

    sim._node_step = noisy_node_step
    stats = sim.run()
    assert sim.malformed_frames > 0 and clean.malformed_frames == 0
    assert sim.trace == clean.trace and sim.trace
    assert stats.connections == clean.connections
    assert stats.events_accepted == clean.events_accepted


def test_corroboration_request_from_outside_the_roster_is_dropped(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    outsiders = Roster()
    mallory = outsiders.register("mallory", 99)
    obs = CongestionObservation("main1", FORWARD, GeoCoordinate(280.0, 0.0), 100.0, b"m" * 16)
    signed = sign_observation(obs, mallory.keys.private_key, mallory.self_certificate, b"m" * 16)
    bad = SignedObservation(obs, signed.signer_pseudonym, signed.signer_certificate,
                            signed.signature[:-1] + bytes([signed.signature[-1] ^ 1]))
    c = sim.nodes["C"]
    inbox = dict(c.corroboration_inbox)
    sim._handle_corroboration_request(c, "D", wire.encode_signed_observation(bad), 120, True)
    assert "mallory" not in c.revocations.records
    assert c.corroboration_inbox == inbox
