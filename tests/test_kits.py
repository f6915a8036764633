"""End-to-end behaviour of the generated scenario kits."""

import re

import pytest

from vanetkit import kits, scenario, wire
from scenario_builders import freerider_setup
from vanetkit.config import VehicleSpec
from vanetkit.simnet import AuditLog, Simulation

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")


def run_kit(name, tmp_path, mutate=None):
    directory = tmp_path / name
    kits.generate_kit(name, str(directory))
    bundle, problems = scenario.load_bundle(str(directory))
    assert problems == []
    if mutate:
        mutate(bundle.config)
    sim = bundle.build()
    stats = sim.run()
    return sim, stats


def test_congestion_chain_receiver_gets_exactly_one_aggregate(tmp_path):
    sim, stats = run_kit("congestion-chain", tmp_path)
    receives = [l for l in sim.trace if " R receive congestion" in l]
    assert len(receives) == 1
    assert "sigs=2" in receives[0]
    aggregates = [l for l in sim.trace if "aggregate event=" in l and " D " in l]
    assert len(aggregates) == 1 and "threshold=2" in aggregates[0]


def test_congestion_chain_without_corroborator_yields_nothing(tmp_path):
    def drop_corroborator(config):
        config.vehicles = [v for v in config.vehicles if v.vehicle_id != "C"]
    sim, stats = run_kit("congestion-chain", tmp_path, mutate=drop_corroborator)
    assert stats.events_accepted == 0
    assert not [l for l in sim.trace if "aggregate" in l]
    assert [l for l in sim.trace if " D detect congestion" in l]   # detection still fires


def test_congestion_chain_deterministic(tmp_path):
    sim_a, stats_a = run_kit("congestion-chain", tmp_path / "a")
    sim_b, stats_b = run_kit("congestion-chain", tmp_path / "b")
    assert sim_a.trace == sim_b.trace
    assert stats_a.csv() == stats_b.csv()


def test_parking_kit_visibility_window(tmp_path):
    sim, _ = run_kit("parking", tmp_path)
    receive = [l for l in sim.trace if " S receive parking" in l]
    assert len(receive) == 1
    receive_t = int(receive[0].split()[0])
    expire = [l for l in sim.trace if " S expire parking" in l]
    assert len(expire) == 1
    expire_t = int(expire[0].split()[0])
    announce_t = int([l for l in sim.trace if " P announce parking" in l][0].split()[0])
    assert receive_t < announce_t + 60          # visible well before the ttl
    assert expire_t == 30 + 60 + 1              # hidden at ttl + 1 s
    searcher = sim.nodes["S"]
    assert not searcher.store.visible_parking(float(expire_t))


def test_find_car_route_length_matches_grid_walk(tmp_path):
    sim, _ = run_kit("find-car", tmp_path)
    shows = [l for l in sim.trace if "find-route" in l]
    assert len(shows) == 1
    length = float(re.search(r"length=([0-9.]+)", shows[0]).group(1))
    # (450,300) -> parked at j0_1 (150,0): grid walk of 300 + 300 m.
    assert length == 600.0


def test_find_car_without_gps_reports_unavailable(tmp_path):
    def kill_gps(config):
        config.vehicles[0].has_gps = False
    sim, _ = run_kit("find-car", tmp_path, mutate=kill_gps)
    shows = [l for l in sim.trace if "find-route" in l]
    assert shows and "unavailable" in shows[0]


def test_advert_kit_shows_inside_area(tmp_path):
    sim, _ = run_kit("advert", tmp_path)
    shows = [l for l in sim.trace if "show advert" in l]
    assert len(shows) == 1
    assert " CAR " in shows[0] and "company=ushop" in shows[0]


def test_advert_kit_expired_is_suppressed(tmp_path):
    def expire_early(config):
        fixed = []
        for vehicle_id, advert in config.adverts:
            fixed.append((vehicle_id, type(advert)(
                advert.company_name, advert.message, advert.location,
                advert.area_radius, 10.0, advert.logo_ref, advert.certificate)))
        config.adverts = fixed
    sim, _ = run_kit("advert", tmp_path, mutate=expire_early)
    assert not [l for l in sim.trace if "show advert" in l]


def test_aggregate_propagates_hop_by_hop_without_amplification():
    """A relay line: each hop forwards a verified event exactly once."""
    from vanetkit.geomodel import FORWARD, load_network
    from vanetkit.config import CongestionZone, SimConfig
    from vanetkit.trust import Roster, register_user

    road = """
junction a 0 0
junction m 60 0
junction z 600 0
segment jam a m 50 twoway
segment tail m z 20 twoway
"""
    net = load_network(road)
    roster = Roster()
    names = ["uD", "uC"] + [f"uR{i}" for i in range(1, 6)]
    for i, name in enumerate(names):
        register_user(roster, name, 40 + i)
    for left, right in zip(names, names[1:]):
        roster.befriend(left, right)

    vehicles = [
        VehicleSpec("D", "uD", "jam", 0.0, FORWARD, speed=0.0),
        VehicleSpec("C", "uC", "jam", 30.0, FORWARD, speed=0.0),
    ]
    # Relays every 70 m down the low-limit tail: only adjacent pairs in range.
    for i in range(1, 6):
        vehicles.append(VehicleSpec(f"R{i}", f"uR{i}", "tail",
                                    40.0 + 70.0 * (i - 1), FORWARD, speed=0.0))
    config = SimConfig(seed=2, duration=100, name="relayline", vehicles=vehicles,
                       zones=[CongestionZone("jam", FORWARD, 0.0, 100.0, 0.0)])
    sim = Simulation(config, net, roster)
    stats = sim.run()

    assert stats.events_accepted == 6      # C plus the five relays
    for i in range(1, 6):
        receives = [l for l in sim.trace if f" R{i} receive congestion" in l]
        assert len(receives) == 1, (i, receives)
    # Hop-by-hop latency: each relay hears the event one tick after its
    # upstream neighbor, and nobody ever re-forwards (the event id is
    # transmitted at most once per node).
    times = [int(float([l for l in sim.trace if f" R{i} receive" in l][0].split()[0]))
             for i in range(1, 6)]
    assert times == sorted(times)
    assert all(b - a == 1 for a, b in zip(times, times[1:]))


def test_freerider_loses_service_honest_node_keeps_it():
    config, net, roster = freerider_setup()
    sim = Simulation(config, net, roster)
    sim.audit = AuditLog()
    sim.run()
    hub = sim.nodes["G"]
    rider_events = [e for _, node, tag, e in sim.audit.payloads
                    if node == "F" and tag == wire.PARKING_EVENT]
    honest_events = [e for _, node, tag, e in sim.audit.payloads
                     if node == "D" and tag == wire.PARKING_EVENT]
    record = hub.coop["F"]
    assert record.opportunities >= 4 and record.forwards == 0
    assert len(rider_events) == 4       # gate closed after four observed refusals
    assert len(honest_events) == 5      # honest node keeps receiving
    assert hub.coop["D"].forwards >= 4
