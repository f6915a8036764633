import random

import pytest
from hypothesis import given, settings, strategies as st

from vanetkit import events, trust
from vanetkit.events import (CongestionDetector, DetectionConfig, EventStore,
                             ParkingEvent, ParkingMonitor, deliver_advert,
                             walking_route)
from vanetkit.geomodel import (FORWARD, GeoCoordinate, VehicleState,
                               grid_document, load_network)

STRAIGHT = "junction a 0 0\njunction b 2000 0\nsegment road a b 100 twoway\n"


def run_detector(speeds, limit_doc=STRAIGHT, config=None, ignition=None):
    net = load_network(limit_doc)
    config = config or DetectionConfig()
    det = CongestionDetector(config)
    seg = sorted(net.segments)[0]
    out = []
    for t, speed in enumerate(speeds):
        on = ignition[t] if ignition else True
        state = VehicleState("v", seg, FORWARD, offset=float(t), speed=speed, ignition=on)
        det.push(float(t), state, net)
        obs = det.detect(float(t), net, b"p" * 16)
        if obs:
            out.append((t, obs))
    return out


def test_a_detection_config_built_directly_refuses_every_bad_value_at_once():
    with pytest.raises(ValueError) as refused:
        DetectionConfig(speed_fraction=2.0, sustain_window=float("nan"))
    assert str(refused.value) == ("speed_fraction must be in (0, 1); "
                                  "sustain_window must be positive")


def test_sustained_low_speed_fires():
    hits = run_detector([30.0] * 70)
    assert len(hits) == 1
    t, obs = hits[0]
    assert t == 60   # earliest tick whose window spans the full minute
    assert obs.road_id == "road" and obs.direction == FORWARD


def test_moderate_speed_does_not_fire():
    assert run_detector([70.0] * 120) == []


def test_alternating_speed_does_not_fire():
    speeds = [30.0 if i % 2 == 0 else 80.0 for i in range(120)]
    assert run_detector(speeds) == []


def test_low_limit_roads_never_fire():
    doc = "junction a 0 0\njunction b 2000 0\nsegment lane a b 20 twoway\n"
    assert run_detector([2.0] * 120, limit_doc=doc) == []


def test_ignition_gap_blocks_detection():
    ignition = [True] * 120
    ignition[30] = False
    hits = run_detector([30.0] * 120, ignition=ignition)
    assert all(t >= 91 for t, _ in hits)   # window must re-span after the gap


def test_cooldown_limits_one_observation_per_window():
    hits = run_detector([30.0] * 400)
    assert len(hits) == 2
    assert hits[1][0] - hits[0][0] >= 300


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 35.0), min_size=61, max_size=200))
def test_no_false_negative_on_sustained_slow_traces(speeds):
    """Any all-slow trace yields exactly one observation per cooldown."""
    hits = run_detector(speeds)
    span = len(speeds) - 1
    expected = 1 + max(0, (span - 60)) // 300
    assert len(hits) == expected


def test_parking_monitor_lifecycle():
    monitor = ParkingMonitor(ttl=60.0)
    assert monitor.ignition_on(10.0) is None   # nothing stored yet
    monitor.ignition_off(300.0, GeoCoordinate(10.0, 20.0))
    assert monitor.parked.location == GeoCoordinate(10.0, 20.0)
    monitor.ignition_off(400.0, GeoCoordinate(50.0, 50.0))   # overwrite
    event = monitor.ignition_on(500.0)
    assert event == ParkingEvent(GeoCoordinate(50.0, 50.0), 500.0, 60.0)


def test_parking_ttl_override():
    monitor = ParkingMonitor(ttl=120.0)
    monitor.ignition_off(0.0, GeoCoordinate(1.0, 1.0))
    assert monitor.ignition_on(5.0).ttl == 120.0


def test_no_gps_means_no_record_and_no_event():
    monitor = ParkingMonitor(has_gps=False)
    monitor.ignition_off(0.0, GeoCoordinate(1.0, 1.0))
    assert monitor.parked is None
    assert monitor.ignition_on(5.0) is None


def test_event_expiry_boundaries():
    store = EventStore()
    event = ParkingEvent(GeoCoordinate(0, 0), announced_at=0.0, ttl=60.0)
    store.add_parking(b"e" * 16, event)
    assert store.expire(60.0) == []                # inclusive boundary: retained
    assert event.visible(60.0)
    assert store.expire(61.0) == [("parking", b"e" * 16)]
    assert not event.visible(61.0)
    assert store.expire(61.0) == []                # empty store stays empty


def test_the_store_holds_congestion_and_parking_ids_until_they_expire():
    store = EventStore()
    store.add_parking(b"p" * 16, ParkingEvent(GeoCoordinate(0, 0), announced_at=0.0))
    store.add_congestion(b"c" * 16, object(), now=0.0)
    assert store.holds(b"p" * 16) and store.holds(b"c" * 16)
    assert not store.holds(b"x" * 16)
    store.expire(61.0)
    assert not store.holds(b"p" * 16) and store.holds(b"c" * 16)
    store.expire(901.0)
    assert not store.holds(b"c" * 16)


def test_congestion_events_pruned_after_ttl():
    store = EventStore()
    store.add_congestion(b"c" * 16, object(), now=0.0)
    assert store.expire(900.0) == []
    assert store.expire(901.0) == [("congestion", b"c" * 16)]


def brute_force_shortest(net, start, goal):
    """Exhaustive simple-path enumeration over junctions, length cost."""
    best = None
    def extend(here, seen, cost):
        nonlocal best
        if here == goal:
            best = cost if best is None else min(best, cost)
            return
        for seg_id in net.adjacency[here]:
            seg = net.segments[seg_id]
            nxt = seg.junction_b if seg.junction_a == here else seg.junction_a
            if nxt in seen:
                continue
            extend(nxt, seen | {nxt}, cost + seg.length)
    extend(start, {start}, 0.0)
    return best


def test_walking_route_identity_and_single_edge():
    net = load_network(STRAIGHT)
    parked = events.ParkedLocation(GeoCoordinate(0.0, 0.0), 0.0)
    path, cost = walking_route(GeoCoordinate(0.0, 0.0), parked, net)
    assert path == [GeoCoordinate(0.0, 0.0)] and cost == 0.0
    parked = events.ParkedLocation(GeoCoordinate(100.0, 0.0), 0.0)
    path, cost = walking_route(GeoCoordinate(0.0, 0.0), parked, net)
    assert cost == pytest.approx(100.0)


def test_walking_route_none_without_parked_record():
    net = load_network(STRAIGHT)
    assert walking_route(GeoCoordinate(0.0, 0.0), None, net) is None


def test_walking_route_matches_brute_force_on_grid():
    net = load_network(grid_document(4, 4, spacing=250.0))
    parked = events.ParkedLocation(net.junctions["j3_3"], 0.0)
    path, cost = walking_route(net.junctions["j0_0"], parked, net)
    assert cost == brute_force_shortest(net, "j0_0", "j3_3")
    assert path[0] == net.junctions["j0_0"] and path[-1] == net.junctions["j3_3"]


def test_walking_route_random_points_match_brute_force_junctions():
    rng = random.Random(21)
    net = load_network(grid_document(3, 4, spacing=150.0))
    names = sorted(net.junctions)
    for _ in range(25):
        a, b = rng.sample(names, 2)
        parked = events.ParkedLocation(net.junctions[b], 0.0)
        _, cost = walking_route(net.junctions[a], parked, net)
        assert cost == brute_force_shortest(net, a, b)


def make_advert(company="cafe", message="espresso half price", x=100.0, y=0.0,
                radius=100.0, expiration=1000.0):
    roster = trust.Roster()
    ident = trust.register_user(roster, company, 9)
    cert = ident.self_certificate
    return events.AdvertEvent(company, message, GeoCoordinate(x, y), radius,
                              expiration, "", cert)


def test_advert_delivery_inside_area():
    advert = make_advert()
    assert deliver_advert(advert, GeoCoordinate(50.0, 0.0), now=10.0)
    assert not deliver_advert(advert, GeoCoordinate(250.0, 0.0), now=10.0)
    assert not deliver_advert(advert, GeoCoordinate(50.0, 0.0), now=1000.0)


def test_advert_filters():
    advert = make_advert()
    assert deliver_advert(advert, GeoCoordinate(50.0, 0.0), 0.0, filters={"cafe"})
    assert not deliver_advert(advert, GeoCoordinate(50.0, 0.0), 0.0, filters={"fuel"})


def test_advert_invalid_certificate_raises():
    advert = make_advert()
    bad_cert = trust.Certificate(advert.certificate.subject,
                                 advert.certificate.subject_public_key,
                                 advert.certificate.signer, bytes(64))
    forged = events.AdvertEvent(advert.company_name, advert.message, advert.location,
                                advert.area_radius, advert.expiration, "", bad_cert)
    with pytest.raises(ValueError):
        deliver_advert(forged, GeoCoordinate(50.0, 0.0), 0.0)


def test_advert_message_capped():
    with pytest.raises(ValueError):
        make_advert(message="x" * 141)
