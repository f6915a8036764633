import dataclasses
import gc
import importlib
import pkgutil
import random
import re
import struct
import tracemalloc
import types
import warnings

import pytest

import vanetkit
from vanetkit import aggregation, auth, crypto, kits, scenario, wire
from vanetkit.aggregation import (PendingObservation, SignedObservation, event_id_for,
                                  sign_observation)
from vanetkit.events import AdvertEvent, CongestionObservation, ParkingEvent
from vanetkit.geomodel import FORWARD, REVERSE, GeoCoordinate, load_network
from vanetkit.radio import ConservationError, neighbors_in_range
from vanetkit.simnet import (DROP_INTEGRITY, DROP_NO_SESSION, DROP_WRONG_KEY, AuditLog,
                             CongestionZone, ParkDirective, SimConfig, Simulation,
                             VehicleSpec, assign_obus, collect_metrics, run_simulation,
                             should_launch)
from vanetkit.trust import Roster, UnknownUserError, register_user

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")

STRAIGHT_ROAD = """
junction a 0 0
junction b 1000 0
segment main a b 50 twoway
"""


def two_node_setup(gap=50.0, shared_friend=True, duration=100):
    net = load_network(STRAIGHT_ROAD)
    roster = Roster()
    register_user(roster, "ua", 1)
    register_user(roster, "ub", 2)
    register_user(roster, "F", 3)
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


def test_a_node_has_slots_and_refuses_an_unknown_attribute():
    """Per-node state is declared: a new attribute is a new slot, never a
    per-node dict that silently grows every node."""
    config, net, roster = two_node_setup()
    node = Simulation(config, net, roster).nodes["n1"]
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.undeclared = 1
    # The event store is the one record of held events; the opened payloads
    # are kept only by an attached `AuditLog`.
    assert set(type(node).__slots__) == {
        "spec", "id", "user", "state", "turns", "equipped", "launched", "pseudonyms",
        "revocations", "sessions", "handshakes", "journey", "detector", "parking", "store",
        "pending", "pending_announced", "corroboration_inbox", "parking_queue", "coop",
        "plan", "stats", "shown", "last_advert_sent"}


# What the simulator makes per vehicle, per tick or per session, taken from a
# finished two-node run whose nodes hold a session.
_SLOTTED = {
    "VehicleState": lambda sim, node: node.state,
    "GeoCoordinate": lambda sim, node: node.state.position(sim.network),
    "VehicleSpec": lambda sim, node: node.spec,
    "NodeStats": lambda sim, node: node.stats,
    "_Session": lambda sim, node: node.sessions["n2"],
    "JourneyContactLog": lambda sim, node: node.journey,
    "CongestionDetector": lambda sim, node: node.detector,
    "ParkingMonitor": lambda sim, node: node.parking,
    "EventStore": lambda sim, node: node.store,
    "RevocationStore": lambda sim, node: node.revocations,
    "CooperationRecord": lambda sim, node: node.coop_record("n2"),
    "PseudonymState": lambda sim, node: node.pseudonyms,
    "Pseudonym": lambda sim, node: node.pseudonyms.current,
    "SessionKey": lambda sim, node: node.sessions["n2"].key,
    "UserIdentity": lambda sim, node: node.user,
    "KeyPair": lambda sim, node: node.user.keys,
    "CertificateRepository": lambda sim, node: node.user.repository,
    "Certificate": lambda sim, node: node.user.self_certificate,
    # the friendship entry that `befriend("ua", "F")` put in the repository
    "_Friendship": lambda sim, node: next(
        ref for ref in gc.get_referents(node.user.repository) if type(ref) is list)[1],
    "AuthInitiator": lambda sim, node: auth.AuthInitiator(
        auth.Party(node.user, node.revocations, b"p" * 16), random.Random(1), sim.now),
    "AuthResponder": lambda sim, node: auth.AuthResponder(
        auth.Party(node.user, node.revocations, b"p" * 16), random.Random(1), sim.now),
}


@pytest.fixture(scope="module")
def finished_two_node_run():
    config, net, roster = two_node_setup(duration=30)
    sim = Simulation(config, net, roster)
    sim.run()
    return sim


@pytest.mark.parametrize("name", sorted(_SLOTTED))
def test_per_vehicle_and_per_session_state_has_slots(name, finished_two_node_run):
    """Thousands of these live at once in a large run, so none carries a
    per-instance dict, and an undeclared attribute is refused."""
    sim = finished_two_node_run
    obj = _SLOTTED[name](sim, sim.nodes["n1"])
    assert type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")
    # A frozen slotted dataclass refuses with TypeError on CPython 3.11: its
    # `__setattr__` calls `super()` on the class that `slots=True` replaced.
    with pytest.raises((AttributeError, TypeError)):
        obj.undeclared = 1


# Peak Python heap per vehicle while `run()` plays a 300-vehicle demo city
# (6x6 grid, 3 s), by tracemalloc on CPython 3.11: 9 422 bytes with
# dict-backed per-vehicle objects and handshake engines that keep every
# block to the end, 7 787 with both slotted and each block dropped after
# its last reader.  With no process-wide HMAC-state memo it reads 6 150 in
# a fresh process (6 299 with the memo filling during the run).
_RUN_HEAP_PER_VEHICLE = 8600

# The same over `build()` and `run()`, which also sees the containers each
# vehicle is built with: 10 587 bytes with 13 empty containers of its own
# per vehicle and engines that hold their own block until it is answered,
# 7 828 with every empty container shared until its first write and a
# running transcript hash in place of the own block.  With no HMAC-state
# memo it reads 7 668 in a fresh process, as with it.
_BUILD_AND_RUN_HEAP_PER_VEHICLE = 9200


def _demo_peak_heap_per_vehicle(tmp_path, build_traced):
    vehicles = 300
    bundle, problems = scenario.load_bundle(
        kits.demo_bundle(str(tmp_path), vehicle_count=vehicles, duration=3, grid=6))
    assert not problems
    sim = None if build_traced else bundle.build()
    gc.collect()
    tracemalloc.start()
    try:
        (sim or bundle.build()).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / vehicles


def test_a_run_keeps_its_peak_heap_per_vehicle_within_budget(tmp_path):
    assert _demo_peak_heap_per_vehicle(tmp_path, False) <= _RUN_HEAP_PER_VEHICLE


def test_build_and_run_keep_their_peak_heap_per_vehicle_within_budget(tmp_path):
    assert (_demo_peak_heap_per_vehicle(tmp_path, True)
            <= _BUILD_AND_RUN_HEAP_PER_VEHICLE)


# The one module-level container a run may fill: the public-key memo, which
# spares every set-up after a process's first from deriving each key again
# (about 38 us a key).  `crypto._verify_memo` is an `lru_cache` of bounded
# size, not a container.
_PROCESS_MEMOS = {("crypto", "_PUBLIC_KEYS")}


def _module_container_sizes():
    sizes = {}
    for info in pkgutil.iter_modules(vanetkit.__path__):
        if info.name == "__main__":          # runs the command line when imported
            continue
        module = importlib.import_module(f"vanetkit.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, (dict, set, list)) and not name.startswith("__")
                    and (info.name, name) not in _PROCESS_MEMOS):
                sizes[info.name, name] = len(value)
    return sizes


def _fresh_key_bundle(directory, tag):
    """A 40-vehicle demo bundle whose users have seeds no other test uses,
    so no process-wide memo can hold their keys already."""
    kits.demo_bundle(str(directory), vehicle_count=40, duration=30, grid=3)
    roster = directory / "roster.txt"
    roster.write_text(re.sub(r"^user (\S+) (\d+)$", rf"user \1 {tag}-\2",
                             roster.read_text(), flags=re.M))
    bundle, problems = scenario.load_bundle(str(directory))
    assert not problems
    return bundle


def test_a_run_grows_no_module_level_container(tmp_path):
    before = _module_container_sizes()
    stats = _fresh_key_bundle(tmp_path, "module-scan").build().run()
    assert stats.connections > 0
    assert _module_container_sizes() == before


_IMMUTABLE = (str, bytes, int, float, bool, type(None), tuple, frozenset,
              types.MappingProxyType)
_CODE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _state_reachable(roots):
    """Objects reachable from `roots` that can change, by id.  Classes,
    modules and functions are not walked; immutable values are walked but
    not returned, and a read-only mapping is neither."""
    seen, todo = {}, list(roots)
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(ref, _CODE):
                seen[id(ref)] = ref
                if not isinstance(ref, types.MappingProxyType):
                    todo.append(ref)
    return {key: obj for key, obj in seen.items() if not isinstance(obj, _IMMUTABLE)}


def test_two_simulations_in_one_process_share_no_handshake_state(tmp_path):
    sims = [_fresh_key_bundle(tmp_path / name, "shared-state").build() for name in "ab"]
    for sim in sims:
        sim.run()
    routers = [[node.handshakes for node in sim.nodes.values()] for sim in sims]
    assert all(any(r.initiators or r.responders or r.last_attempt for r in rs)
               for rs in routers)
    first, second = (_state_reachable(rs) for rs in routers)
    assert [type(first[key]).__name__ for key in first.keys() & second.keys()] == []


def _containers(node):
    """The containers a vehicle's state starts with empty, by name."""
    return {"sessions": node.sessions, "pending": node.pending,
            "pending_announced": node.pending_announced,
            "corroboration_inbox": node.corroboration_inbox,
            "parking_queue": node.parking_queue, "coop": node.coop, "shown": node.shown,
            "revocations": node.revocations.records, "journey": node.journey.peers,
            "last_emitted": node.detector.last_emitted, "parking": node.store.parking,
            "congestion": node.store.congestion, "adverts": node.store.adverts}


def test_idle_nodes_share_their_empty_containers_until_a_first_write():
    """Two idle nodes hold the same read-only empty values; each owner's
    write method gives the node that writes a container of its own."""
    config, net, roster = two_node_setup()
    sim = Simulation(config, net, roster)
    a, b = sim.nodes["n1"], sim.nodes["n2"]
    shared = _containers(b)
    for name, empty in _containers(a).items():
        assert empty is shared[name] and len(empty) == 0, name
        assert not any(hasattr(empty, w) for w in ("__setitem__", "add", "append")), name

    pseudonym = b"p" * 16
    obs = CongestionObservation("main", FORWARD, GeoCoordinate(100.0, 0.0), 0.0, pseudonym)
    own = sign_observation(obs, a.user.keys.private_key, a.user.self_certificate, pseudonym)
    parking = ParkingEvent(GeoCoordinate(100.0, 0.0), 0.0)
    a.open_session("n2", None)
    a.add_pending(b"e", PendingObservation(obs, own, 0.0, 100.0))
    a.mark_announced(b"e")
    a.hold_request(b"e", ("n2", own, 100.0))
    a.queue_parking(b"e", parking)
    a.coop_record("n2")
    a.mark_shown(b"e")
    a.revocations.merge_record("ub", 1, False)
    a.journey.record("ub", 0.0)
    stuck = dataclasses.replace(a.state, ignition=True, speed=0.0)
    for t in (0.0, 60.0):
        a.detector.push(t, stuck, net)
    assert a.detector.detect(60.0, net, pseudonym) is not None
    a.store.add_parking(b"e", parking)
    a.store.add_congestion(b"e", obs, 0.0)
    a.store.add_advert(b"e", None)
    for name, own_container in _containers(a).items():
        assert own_container is not shared[name] and len(own_container) == 1, name
    assert _containers(b) == shared and all(
        mine is shared[name] for name, mine in _containers(b).items())


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


def test_a_rejecting_responder_leaves_its_node(monkeypatch):
    """No more can arrive for a session the responder rejected, so the
    node drops it at once instead of at the handshake timeout."""
    config, net, roster = two_node_setup(shared_friend=False, duration=4)
    sim = Simulation(config, net, roster)
    rejected = []
    on_response = auth.AuthResponder.on_response

    def recorded(engine, *args):
        frame = on_response(engine, *args)
        rejected.append(engine)
        return frame

    monkeypatch.setattr(auth.AuthResponder, "on_response", recorded)
    # commit at t0, challenge t1, response t2: n2 rejects it at t3
    sim.run()
    assert [e.outcome for e in rejected] == [auth.OUTCOME_REJECTED]
    assert sim.nodes["n2"].handshakes.responders == {} and sim.now < auth.HANDSHAKE_TIMEOUT
    assert sim.nodes["n1"].handshakes.initiators == {}   # the verdict reached n1 in the drain


def test_replayed_handshake_messages_change_no_draw():
    """Every handshake frame arrives twice.  The replays of the commit,
    the challenge and the initiator's response are refused and counted;
    the later ones find no engine.  The run draws exactly what a clean
    run draws."""
    config, net, roster = two_node_setup(duration=30)
    clean = Simulation(config, net, roster)
    clean.run()
    sim = Simulation(config, net, roster)
    unicast = sim.radio.unicast

    def twice(node, peer, frame, tick):
        unicast(node, peer, frame, tick)
        if wire.decode_frame(frame)[0] in (wire.AUTH_COMMIT, wire.AUTH_CHALLENGE,
                                           wire.AUTH_RESPONSE, wire.AUTH_RESULT):
            unicast(node, peer, frame, tick)

    sim.radio.unicast = twice
    stats = sim.run()
    assert sim.malformed_frames == 3 and clean.malformed_frames == 0
    assert sim.rng.getstate() == clean.rng.getstate()
    assert stats.connections == 1 and sim.trace == clean.trace
    for node_id, peer in (("n1", "n2"), ("n2", "n1")):
        assert (sim.nodes[node_id].sessions[peer].key
                == clean.nodes[node_id].sessions[peer].key)


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
    register_user(roster, "ua", 1)
    register_user(roster, "ub", 2)
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


def test_validate_names_a_vehicle_with_an_unknown_battery_level():
    config, net, roster = two_node_setup(duration=5)
    config.vehicles[0].battery = "full"
    assert config.validate() == ["vehicle 'n1' has unknown battery level 'full'"]
    with pytest.raises(ValueError, match="vehicle 'n1' has unknown battery level"):
        Simulation(config, net, roster)


def test_validate_names_a_vehicle_and_a_zone_with_an_unknown_direction():
    config, net, roster = two_node_setup(duration=5)
    config.vehicles[0].direction = "sideways"
    config.zones = [CongestionZone("main", "sideways", 0, 5, 1)]
    assert config.validate() == [
        "vehicle 'n1' direction 'sideways' is not 'fwd' or 'rev'",
        "congestion zone on 'main' direction 'sideways' is not 'fwd' or 'rev'"]
    with pytest.raises(ValueError, match="congestion zone on 'main'"):
        Simulation(config, net, roster)


def test_corroboration_request_retries_until_peer_authenticates():
    """A detector with nobody to ask keeps the observation pending and
    asks the corroborator that shows up later."""
    net = load_network(STRAIGHT_ROAD)
    roster = Roster()
    register_user(roster, "ua", 1)
    register_user(roster, "ub", 2)
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


def test_overlapping_zones_first_in_config_order_applies():
    config, net, roster = two_node_setup()
    config.zones = [CongestionZone("main", REVERSE, 0.0, 100.0, 1.0),
                    CongestionZone("main", FORWARD, 10.0, 50.0, 5.0),
                    CongestionZone("main", FORWARD, 0.0, 80.0, 20.0),
                    CongestionZone("main", FORWARD, 30.0, 40.0, 9.0),
                    CongestionZone("other", FORWARD, 0.0, 100.0, 3.0)]
    sim = Simulation(config, net, roster)
    node = sim.nodes["n1"]
    for now, speed in [(0.0, 20.0), (10.0, 5.0), (35.0, 5.0), (49.5, 5.0),
                       (50.0, 20.0), (79.0, 20.0), (80.0, None)]:
        sim.now = now
        assert sim._zone_speed(node) == speed
    node.state = dataclasses.replace(node.state, direction=REVERSE)
    sim.now = 35.0
    assert sim._zone_speed(node) == 1.0


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
    node.add_pending(event_id, pending)
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


def test_opened_payloads_are_recorded_only_for_an_attached_audit(tmp_path):
    plain = _chain_sim(tmp_path / "plain")
    stats = plain.run()
    audited = _chain_sim(tmp_path / "audited")
    audited.audit = AuditLog()
    assert audited.run().csv() == stats.csv() and audited.trace == plain.trace
    assert plain.audit is None
    payloads = audited.audit.payloads
    assert {tag for _, _, tag, _ in payloads} == {
        wire.CORROBORATION_REQUEST, wire.SIGNED_OBSERVATION, wire.AGGREGATED_EVENT}
    for t, node, tag, event_id in payloads:
        assert node in audited.nodes and 0 <= t <= audited.config.duration
        if tag == wire.AGGREGATED_EVENT:
            assert any(f"event={event_id.hex()[:8]}" in line for line in audited.trace)
        else:
            assert event_id == b""


def test_malformed_and_mismatched_frames_are_dropped_and_counted(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    d = sim.nodes["D"]
    responders, rng_state = dict(d.handshakes.responders), sim.rng.getstate()
    sim._handle_frame(d, "C", b"\x00\x00", 999, neighbors)
    sim._handle_frame(d, "C", wire.encode_frame(wire.AUTH_COMMIT, b"\x00" * 5), 999,
                      neighbors)
    assert sim.malformed_frames == 2
    assert d.handshakes.responders == responders and sim.rng.getstate() == rng_state

    # A challenge and a counter-response naming another session than D's
    # open handshake with C leave the handshake as it was.
    party = auth.Party(d.user, d.revocations, d.pseudonyms.current.value)
    engine = auth.AuthInitiator(party, random.Random(1), sim.now)
    d.handshakes.initiators["C"] = engine
    other = bytes(16) if engine.session_id != bytes(16) else b"\x01" * 16
    challenge = wire.encode_auth_challenge(other, b"p" * 16, b"c" * 16, b"")
    response = wire.encode_auth_response(other, False, b"n" * 16, b"", b"c" * 16)
    for frame in (challenge, response):
        sim._handle_frame(d, "C", frame, 999, neighbors)
    assert sim.malformed_frames == 4
    assert d.handshakes.initiators["C"] is engine and engine.peer_commitments == b""
    assert engine.outcome is None and sim.in_flight == []
    # The engines check the role flag too, not only the session id.
    with pytest.raises(auth.SessionMismatchError):
        engine.on_peer_response(engine.session_id, True, b"n" * 16, b"", sim.now)
    del d.handshakes.initiators["C"]
    collect_metrics(sim)


def test_a_result_ends_a_responders_handshake_only_from_its_peer_in_turn(tmp_path):
    """C commits to D.  A result for that session from R, a third node that
    saw the session id in the clear, is dropped; one from C before D has
    answered C's proof is refused and counted.  Neither ends D's open
    handshake or draws from the RNG."""
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c, d = sim.nodes["C"], sim.nodes["D"]
    commit = c.handshakes.open("D", d.spec.user_id, c.pseudonyms.current.value, sim.now)
    sim._handle_frame(d, "C", commit, 999, neighbors)
    session_id = c.handshakes.initiators["D"].session_id
    assert d.handshakes.responders[session_id].peer == "C"
    responders, rng_state = dict(d.handshakes.responders), sim.rng.getstate()
    malformed = sim.malformed_frames
    result = wire.encode_auth_result(session_id, True)
    sim._handle_frame(d, "R", result, 999, neighbors)
    assert sim.malformed_frames == malformed
    sim._handle_frame(d, "C", result, 999, neighbors)
    assert sim.malformed_frames == malformed + 1
    assert d.handshakes.responders == responders and sim.rng.getstate() == rng_state


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
                sim.radio.unicast(sim.nodes["C"], "D", frame, t)

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
    mallory = register_user(outsiders, "mallory", 99)
    obs = CongestionObservation("main1", FORWARD, GeoCoordinate(280.0, 0.0), 100.0, b"m" * 16)
    signed = sign_observation(obs, mallory.keys.private_key, mallory.self_certificate, b"m" * 16)
    bad = SignedObservation(obs, signed.signer_pseudonym, signed.signer_certificate,
                            signed.signature[:-1] + bytes([signed.signature[-1] ^ 1]))
    c = sim.nodes["C"]
    inbox = dict(c.corroboration_inbox)
    sim._handle_corroboration_request(c, "D", wire.encode_signed_observation(bad), 120)
    assert "mallory" not in c.revocations.records
    assert c.corroboration_inbox == inbox


@pytest.mark.parametrize("tag", [wire.SIGNED_OBSERVATION, wire.AGGREGATED_EVENT])
@pytest.mark.parametrize("field", ["x", "y", "detected_at"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e300])
def test_sealed_observation_with_unencodable_number_is_dropped(tmp_path, tag, field, value):
    """A sealed observation or aggregate from an authenticated peer whose
    coordinate or time is not finite, or whose 200 m cell or minute does not
    fit a signed 64-bit integer, is dropped and counted, leaving no state."""
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c, d = sim.nodes["C"], sim.nodes["D"]
    assert "D" in c.sessions
    obs = CongestionObservation("main1", FORWARD, GeoCoordinate(280.0, 0.0), 100.0, b"d" * 16)
    signed = sign_observation(obs, d.user.keys.private_key, d.user.self_certificate, b"d" * 16)
    if tag == wire.SIGNED_OBSERVATION:
        payload = wire.encode_signed_observation(signed)
    else:
        payload = wire.encode_aggregate(
            aggregation.AggregatedEvent(obs, (signed,), b"d" * 16, 100.0, None, 2))
    # The observation leads both payloads: road text, direction, x, y, time.
    offset = 2 + len(obs.road_id) + 1 + {"x": 0, "y": 8, "detected_at": 16}[field]
    payload = payload[:offset] + struct.pack(">d", value) + payload[offset + 8:]
    blob = crypto.seal(c.sessions["D"].key.key, payload, bytes(16))
    frame = wire.encode_frame(tag, blob)
    sim.audit = AuditLog()
    pending, trace = dict(c.pending), list(sim.trace)
    sim._handle_frame(c, "D", frame, 121, neighbors)
    assert sim.malformed_frames == 1
    assert sim.audit.payloads == [] and c.pending == pending and sim.trace == trace
    with pytest.raises(wire.WireError):
        (wire.decode_signed_observation if tag == wire.SIGNED_OBSERVATION
         else wire.decode_aggregate)(payload)


def _flip_last_byte(signed):
    return SignedObservation(signed.observation, signed.signer_pseudonym,
                             signed.signer_certificate,
                             signed.signature[:-1] + bytes([signed.signature[-1] ^ 1]))


def test_a_rejected_aggregate_blames_its_sender_not_its_first_signer(tmp_path):
    """D sends C three aggregates led by R's valid signature and followed by
    its own tampered one; only D's user is reported."""
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c, d, r = sim.nodes["C"], sim.nodes["D"], sim.nodes["R"]
    assert "D" in c.sessions
    rejected = sim.events_rejected
    for minute in (10, 11, 12):
        obs = CongestionObservation("main1", FORWARD, GeoCoordinate(280.0, 0.0),
                                    60.0 * minute, b"d" * 16)
        honest = sign_observation(obs, r.user.keys.private_key, r.user.self_certificate,
                                  b"r" * 16)
        forged = _flip_last_byte(sign_observation(obs, d.user.keys.private_key,
                                                  d.user.self_certificate, b"d" * 16))
        event = aggregation.AggregatedEvent(obs, (honest, forged), b"d" * 16, obs.detected_at,
                                            None, 2)
        assert aggregation.verify_aggregate(event, c.revocations) == (False, "bad-signature")
        blob = crypto.seal(c.sessions["D"].key.key, wire.encode_aggregate(event), bytes(16))
        sim._handle_frame(c, "D", wire.encode_frame(wire.AGGREGATED_EVENT, blob), 121,
                          neighbors)
    assert sim.events_rejected == rejected + 3
    assert "ur" not in c.revocations.records
    assert c.revocations.records["ud"].misbehavior_count == 3


def test_a_bad_corroboration_request_blames_its_sender_not_the_named_signer(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    c, r = sim.nodes["C"], sim.nodes["R"]
    obs = CongestionObservation("main1", FORWARD, GeoCoordinate(280.0, 0.0), 600.0, b"r" * 16)
    bad = _flip_last_byte(sign_observation(obs, r.user.keys.private_key,
                                           r.user.self_certificate, b"r" * 16))
    sim._handle_corroboration_request(c, "D", wire.encode_signed_observation(bad), 121)
    assert "ur" not in c.revocations.records
    assert c.revocations.records["ud"].misbehavior_count == 1


def test_an_advert_with_a_bad_certificate_blames_its_sender_not_the_named_subject(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c, r = sim.nodes["C"], sim.nodes["R"]
    cert = r.user.self_certificate
    cert = dataclasses.replace(cert, signature=cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]))
    advert = AdvertEvent("ur-shop", "sale", GeoCoordinate(280.0, 0.0), 500.0, 1e6, "logo", cert)
    blob = crypto.seal(c.sessions["D"].key.key, wire.encode_advert(advert), bytes(16))
    sim._handle_frame(c, "D", wire.encode_frame(wire.ADVERT, blob), 121, neighbors)
    assert "ur" not in c.revocations.records
    assert c.revocations.records["ud"].misbehavior_count == 1


def test_a_rotation_reaches_the_peer_session(tmp_path):
    """A node that rotates its pseudonym tells each session peer; at the end
    of a run the peer's session carries the node's current pseudonym."""
    config, net, roster = two_node_setup(duration=700)
    sim = Simulation(config, net, roster)
    sim.audit = AuditLog()
    sim.run()
    n1, n2 = sim.nodes["n1"], sim.nodes["n2"]
    for node, peer in ((n1, n2), (n2, n1)):
        assert any(r[1] == node.id for r in sim.audit.rotations)
        assert peer.sessions[node.id].key.peer_pseudonym == node.pseudonyms.current.value


def test_change_notices_need_a_session_and_an_intact_seal(tmp_path):
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c = sim.nodes["C"]
    before, malformed = c.sessions["D"].key, sim.malformed_frames
    change = wire.encode_pseudonym_change(b"o" * 16, b"n" * 16)
    sealed = crypto.seal(before.key, change, bytes(16))

    def notice(blob):
        sim._handle_frame(c, "D", wire.encode_frame(wire.CHANGE_NOTICE, blob), 121,
                          neighbors)

    notice(crypto.seal(crypto.sha256(b"another session"), change, bytes(16)))
    notice(sealed[:-1] + bytes([sealed[-1] ^ 1]))
    session = c.sessions.pop("D")
    notice(sealed)
    assert "D" not in c.sessions
    c.sessions["D"] = session
    assert session.key == before and sim.malformed_frames == malformed
    notice(crypto.seal(before.key, change[:-1], bytes(16)))
    assert session.key == before and sim.malformed_frames == malformed + 1
    notice(sealed)
    assert session.key == dataclasses.replace(before, peer_pseudonym=b"n" * 16)
    assert sim.malformed_frames == malformed + 1


def test_sealed_frames_dropped_unopened_are_counted_by_reason(tmp_path):
    """A sealed frame from a peer without a session, one sealed under a
    stale session key and one whose ciphertext was altered are each dropped
    with their own count, outside `malformed_frames`, and change nothing."""
    sim = _chain_sim(tmp_path / "chain")
    sim.run()
    _, neighbors = sim._adjacency()
    c = sim.nodes["C"]
    assert "D" in c.sessions and sim.sealed_drops == {
        DROP_NO_SESSION: 0, DROP_WRONG_KEY: 0, DROP_INTEGRITY: 0}
    payload = wire.encode_revocations([("ud", 1, False)])
    key = c.sessions["D"].key.key
    stale = crypto.seal(crypto.sha256(b"an earlier session", key), payload, bytes(16))
    fresh = crypto.seal(key, payload, bytes(16))
    tampered = fresh[:30] + bytes([fresh[30] ^ 1]) + fresh[31:]
    # C forgets its session with another peer, which then still sends to it.
    gone = next(p for p in sorted(c.sessions) if p != "D")
    orphan = crypto.seal(c.sessions.pop(gone).key.key, payload, bytes(16))
    records, trace = dict(c.revocations.records), list(sim.trace)
    for sender, blob in (("D", stale), ("D", tampered), ("D", stale), (gone, orphan)):
        sim._handle_frame(c, sender, wire.encode_frame(wire.REVOCATION_SYNC, blob), 121,
                          neighbors)
    assert sim.sealed_drops == {DROP_NO_SESSION: 1, DROP_WRONG_KEY: 2, DROP_INTEGRITY: 1}
    assert sim.malformed_frames == 0
    assert c.revocations.records == records and sim.trace == trace
    assert "D" in c.sessions and c.sessions["D"].key.key == key
