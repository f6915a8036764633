import random

import pytest

from vanetkit.aggregation import AggregatedEvent
from vanetkit.events import CongestionObservation
from vanetkit.geomodel import FORWARD, GeoCoordinate, grid_document, load_network
from vanetkit.relay import (ACTION_CORROBORATE, ACTION_FORWARD,
                            ACTION_REROUTE_FORWARD, CooperationRecord,
                            cooperation_gate, decide_relay, plan_cost, plan_route,
                            recompute_route, route_affected)


def make_event(road="h0_1", direction=FORWARD):
    obs = CongestionObservation(road, direction, GeoCoordinate(450.0, 0.0),
                                100.0, b"p" * 16)
    return AggregatedEvent(obs, (), b"p" * 16, 100.0, 0.5, 2)


def grid():
    return load_network(grid_document(4, 4, spacing=300.0))


def test_plan_route_straight_line():
    net = grid()
    plan = plan_route(net, "j0_0", "j0_3")
    assert plan.segment_sequence == ("h0_0", "h0_1", "h0_2")
    assert plan.cost == pytest.approx(3 * 300.0 / (50.0 / 3.6))


def test_route_affected_only_strictly_ahead_matching_direction():
    net = grid()
    plan = plan_route(net, "j0_0", "j0_3")
    plan.position_index = 0   # currently on h0_0
    assert route_affected(plan, "h0_1", plan.directions[1])
    assert not route_affected(plan, "h0_0", plan.directions[0])   # behind/current
    assert not route_affected(plan, "v0_0", FORWARD)              # not on route
    opposite = "rev" if plan.directions[1] == "fwd" else "fwd"
    assert not route_affected(plan, "h0_1", opposite)


def test_decide_relay_cases():
    event = make_event()
    net = grid()
    plan = plan_route(net, "j0_0", "j0_3")
    plan.position_index = 0
    assert decide_relay(event, True, plan) == ACTION_CORROBORATE
    assert decide_relay(event, False, plan) == ACTION_REROUTE_FORWARD
    off_route = make_event(road="h3_0")
    assert decide_relay(off_route, False, plan) == ACTION_FORWARD
    assert decide_relay(off_route, False, None) == ACTION_FORWARD


def enumerate_paths_cost(net, start, goal, congested, penalty=5.0):
    """Exhaustive simple-path enumeration; prefix-summed like the router."""
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
        for seg_id in net.adjacency[here]:
            seg = net.segments[seg_id]
            direction = "fwd" if seg.junction_a == here else "rev"
            nxt = seg.junction_b if direction == "fwd" else seg.junction_a
            if nxt in seen:
                continue
            extend(nxt, seen | {nxt}, cost + weight(seg, direction))
    extend(start, {start}, 0.0)
    return best


def test_recompute_route_takes_free_detour():
    net = grid()
    plan = plan_route(net, "j0_0", "j0_3")
    congested = {("h0_1", plan.directions[1])}
    new_plan, changed, advisory = recompute_route(plan, net, congested)
    assert changed and not advisory
    assert "h0_1" not in new_plan.segment_sequence
    assert new_plan.cost == enumerate_paths_cost(net, "j0_0", "j0_3", congested)


def test_recompute_route_keeps_plan_without_alternative():
    doc = "junction a 0 0\njunction b 400 0\nsegment only a b 50 twoway\n"
    net = load_network(doc)
    plan = plan_route(net, "a", "b")
    congested = {("only", "fwd")}
    new_plan, changed, advisory = recompute_route(plan, net, congested)
    assert not changed and not advisory
    assert new_plan is plan


def test_recompute_route_unreachable_destination_is_advisory():
    doc = ("junction a 0 0\njunction b 400 0\njunction c 800 0\n"
           "segment ab a b 50 twoway\nsegment bc c b 50 oneway\n")
    net = load_network(doc)
    plan = plan_route(net, "a", "b")
    plan.segment_sequence = ("ab", "bc")
    plan.directions = ("fwd", "rev")
    plan.junctions = ("a", "b", "c")
    _, changed, advisory = recompute_route(plan, net, {("ab", "fwd")})
    assert not changed and advisory


def test_recompute_matches_enumeration_on_random_congestion():
    rng = random.Random(12)
    net = grid()
    names = sorted(net.junctions)
    for _ in range(200):
        start, goal = rng.sample(names, 2)
        congested = set()
        for _ in range(rng.randrange(0, 6)):
            seg = rng.choice(sorted(net.segments))
            congested.add((seg, rng.choice(["fwd", "rev"])))
        base_plan = plan_route(net, start, goal)
        old_cost = plan_cost(base_plan, net, congested, from_index=0)
        new_plan, changed, _ = recompute_route(base_plan, net, congested)
        expected = enumerate_paths_cost(net, start, goal, congested)
        got = plan_cost(new_plan, net, congested, from_index=0)
        assert got == expected
        assert got <= old_cost


def test_empty_congestion_set_recomputes_to_shortest_base_path():
    net = grid()
    plan = plan_route(net, "j0_0", "j3_3")
    assert plan.cost == enumerate_paths_cost(net, "j0_0", "j3_3", set())


def test_cooperation_gate():
    record = CooperationRecord()
    assert cooperation_gate(record) == "serve"      # benefit of the doubt
    for i in range(4):
        record.hand_over(bytes([i]) * 16, deadline=10.0)
    record.close_expired(11.0)
    assert record.opportunities == 4 and record.forwards == 0
    assert cooperation_gate(record) == "refuse"


def test_cooperation_gate_three_of_four():
    record = CooperationRecord()
    for i in range(4):
        eid = bytes([i]) * 16
        record.hand_over(eid, deadline=10.0)
        if i < 3:
            record.observed_forward(eid)
    record.close_expired(11.0)
    assert record.opportunities == 4 and record.forwards == 3
    assert cooperation_gate(record) == "serve"      # 0.75 >= 0.5
