import heapq
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from vanetkit import geomodel, kits
from vanetkit.config import SimConfig
from vanetkit.geomodel import (FORWARD, REVERSE, DocumentError, GeoCoordinate,
                               MobilityDirective, VehicleState, advance_vehicle,
                               distance, grid_document, load_network)
from vanetkit.simnet import Simulation
from vanetkit.trust import Roster

from reference import MobilityTrace, validate_trace

TWO_SEGMENTS = """
junction a 0 0
junction b 100 0
junction c 100 50
segment s1 a b 50 twoway
segment s2 b c 50 twoway
"""


def test_distance_basics():
    assert distance(GeoCoordinate(0, 0), GeoCoordinate(0, 0)) == 0
    assert distance(GeoCoordinate(0, 0), GeoCoordinate(3, 4)) == 5
    assert distance(GeoCoordinate(10, 10), GeoCoordinate(85, 10)) == 75


@settings(max_examples=1000, deadline=None)
@given(st.tuples(*[st.floats(-1e4, 1e4) for _ in range(6)]))
def test_distance_metric_axioms(coords):
    a = GeoCoordinate(coords[0], coords[1])
    b = GeoCoordinate(coords[2], coords[3])
    c = GeoCoordinate(coords[4], coords[5])
    assert distance(a, b) >= 0
    assert distance(a, b) == distance(b, a)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_load_network_shared_endpoint():
    net = load_network(TWO_SEGMENTS)
    assert len(net.junctions) == 3
    assert len(net.segments) == 2
    assert net.adjacency["b"] == ["s1", "s2"]


def test_load_network_rejects_zero_speed_limit():
    doc = "junction a 0 0\njunction b 10 0\nsegment s a b 0 twoway\n"
    with pytest.raises(DocumentError, match="speed_limit"):
        load_network(doc)


def test_load_network_rejects_duplicate_segment_ids():
    doc = TWO_SEGMENTS + "segment s1 a c 50 twoway\n"
    with pytest.raises(DocumentError, match="duplicate segment"):
        load_network(doc)


def test_grid_4x4_has_24_segments_and_sane_degrees():
    # Oracle: enumerate the expected edge set of a 4x4 grid graph directly.
    expected_edges = set()
    for r in range(4):
        for c in range(4):
            if c + 1 < 4:
                expected_edges.add((f"j{r}_{c}", f"j{r}_{c + 1}"))
            if r + 1 < 4:
                expected_edges.add((f"j{r}_{c}", f"j{r + 1}_{c}"))
    net = load_network(grid_document(4, 4))
    assert len(net.segments) == len(expected_edges) == 24
    got = {(s.junction_a, s.junction_b) for s in net.segments.values()}
    assert got == expected_edges
    assert {len(net.adjacency[j]) for j in net.junctions} == {2, 3, 4}


def test_advance_straight_segment():
    net = load_network("junction a 0 0\njunction b 500 0\nsegment s a b 60 twoway\n")
    state = VehicleState("v", "s", FORWARD, 0.0)
    moved = advance_vehicle(state, net, 10.0, MobilityDirective(36.0))
    assert moved.offset == pytest.approx(100.0)   # 36 km/h == 10 m/s
    assert moved.position(net).x == pytest.approx(100.0)


def test_advance_zero_speed_is_identity():
    net = load_network(TWO_SEGMENTS)
    state = VehicleState("v", "s1", FORWARD, 42.0)
    moved = advance_vehicle(state, net, 5.0, MobilityDirective(0.0))
    assert moved.offset == 42.0
    assert moved.segment_id == "s1"


def test_advance_through_junction_with_turn():
    # Hand-computed: 5 m short of the junction at 36 km/h for 1 s lands
    # 5 m onto the next segment.
    net = load_network(TWO_SEGMENTS)
    state = VehicleState("v", "s1", FORWARD, 95.0)
    directive = MobilityDirective(36.0, ["s2"])
    moved = advance_vehicle(state, net, 1.0, directive)
    assert moved.segment_id == "s2"
    assert moved.direction == FORWARD
    assert moved.offset == pytest.approx(5.0)
    assert directive.turns == []


def test_advance_clamps_without_turn():
    net = load_network(TWO_SEGMENTS)
    state = VehicleState("v", "s1", FORWARD, 95.0)
    moved = advance_vehicle(state, net, 10.0, MobilityDirective(36.0))
    assert moved.segment_id == "s1"
    assert moved.offset == 100.0


def test_advance_rejects_non_adjacent_turn():
    net = load_network(TWO_SEGMENTS + "junction d 0 50\nsegment s3 c d 50 twoway\n")
    state = VehicleState("v", "s1", FORWARD, 95.0)
    with pytest.raises(geomodel.DirectiveError):
        advance_vehicle(state, net, 1.0, MobilityDirective(36.0, ["s3"]))


def test_advance_respects_oneway():
    doc = "junction a 0 0\njunction b 100 0\njunction c 200 0\n" \
          "segment s1 a b 50 twoway\nsegment s2 c b 50 oneway\n"
    net = load_network(doc)
    state = VehicleState("v", "s1", FORWARD, 95.0)
    with pytest.raises(geomodel.DirectiveError):
        advance_vehicle(state, net, 1.0, MobilityDirective(36.0, ["s2"]))


def test_advance_is_deterministic():
    net = load_network(TWO_SEGMENTS)
    state = VehicleState("v", "s1", FORWARD, 12.25, speed=30.0)
    a = advance_vehicle(state, net, 1.0, MobilityDirective(33.3, ["s2"]))
    b = advance_vehicle(state, net, 1.0, MobilityDirective(33.3, ["s2"]))
    assert a == b


def test_position_continuity_along_trace():
    rng = random.Random(11)
    net = load_network(grid_document(3, 3, spacing=200.0))
    state = VehicleState("v", "h0_0", FORWARD, 0.0)
    turns = []
    prev_pos = state.position(net)
    for step in range(120):
        if not turns:
            junction = net.segments[state.segment_id].exit_junction(state.direction)
            options = [s for s in net.adjacency[junction] if s != state.segment_id]
            turns = [rng.choice(options)] if options else []
        speed = rng.uniform(0.0, 50.0)
        directive = MobilityDirective(speed, turns)
        state = advance_vehicle(state, net, 1.0, directive)
        turns = directive.turns
        pos = state.position(net)
        assert distance(prev_pos, pos) <= speed / 3.6 * 1.0 + 1e-6
        prev_pos = pos


def test_snap_and_path_between_points():
    net = load_network(TWO_SEGMENTS)
    snap = geomodel.snap_to_network(net, GeoCoordinate(50.0, 10.0))
    assert snap.segment_id == "s1"
    assert snap.point == GeoCoordinate(50.0, 0.0)
    points, cost = geomodel.path_between_points(
        net, GeoCoordinate(0.0, 0.0), GeoCoordinate(100.0, 0.0))
    assert cost == pytest.approx(100.0)
    assert points[0] == GeoCoordinate(0.0, 0.0)
    assert points[-1] == GeoCoordinate(100.0, 0.0)


def test_trace_validation_flags_teleports():
    net = load_network(TWO_SEGMENTS)
    good = MobilityTrace("v", [
        (0.0, VehicleState("v", "s1", FORWARD, 0.0, speed=36.0)),
        (1.0, VehicleState("v", "s1", FORWARD, 10.0, speed=36.0)),
        (2.0, VehicleState("v", "s1", FORWARD, 20.0, speed=36.0)),
    ])
    assert validate_trace(good, net) == []
    teleport = MobilityTrace("v", [
        (0.0, VehicleState("v", "s1", FORWARD, 0.0, speed=36.0)),
        (1.0, VehicleState("v", "s1", FORWARD, 90.0, speed=36.0)),
    ])
    assert any("exceeds speed budget" in p for p in validate_trace(teleport, net))
    unordered = MobilityTrace("v", [
        (5.0, VehicleState("v", "s1", FORWARD, 0.0)),
        (5.0, VehicleState("v", "s1", FORWARD, 0.0)),
    ])
    assert any("strictly increasing" in p for p in validate_trace(unordered, net))


def test_connected_component_check():
    doc = TWO_SEGMENTS + "junction x 900 900\njunction y 950 900\nsegment iso x y 50 twoway\n"
    net = load_network(doc)
    assert net.connected({"a", "b", "c"})
    assert not net.connected({"a", "x"})


def reference_path_between_points(network, origin, target):
    """`path_between_points` as it was, with its own Dijkstra loop over
    junctions augmented with the two snap points, for its one use: every
    segment two-way at length cost.  The new one must match it bit for bit."""
    def weight(seg, direction):
        return seg.length

    snap_o = geomodel.snap_to_network(network, origin)
    snap_t = geomodel.snap_to_network(network, target)
    dist_graph = {}

    def add_edge(a, b, w, b_coord):
        dist_graph.setdefault(a, []).append((b, w, b_coord))

    def partial_weight(seg, meters, direction):
        if seg.length == 0:
            return 0.0
        return weight(seg, direction) * (meters / seg.length)

    for j, seg_ids in network.adjacency.items():
        for seg_id in seg_ids:
            seg = network.segments[seg_id]
            direction = FORWARD if seg.junction_a == j else geomodel.REVERSE
            other = seg.exit_junction(direction)
            add_edge(j, other, weight(seg, direction), network.junctions[other])

    for label, snap in (("@origin", snap_o), ("@target", snap_t)):
        seg = network.segments[snap.segment_id]
        add_edge(label, seg.junction_a, partial_weight(seg, snap.offset_from_a, geomodel.REVERSE),
                 network.junctions[seg.junction_a])
        add_edge(seg.junction_a, label, partial_weight(seg, snap.offset_from_a, FORWARD), snap.point)
        rest = seg.length - snap.offset_from_a
        add_edge(label, seg.junction_b, partial_weight(seg, rest, FORWARD),
                 network.junctions[seg.junction_b])
        add_edge(seg.junction_b, label, partial_weight(seg, rest, geomodel.REVERSE), snap.point)

    if snap_o.segment_id == snap_t.segment_id:
        seg = network.segments[snap_o.segment_id]
        along = abs(snap_t.offset_from_a - snap_o.offset_from_a)
        add_edge("@origin", "@target", partial_weight(seg, along, FORWARD), snap_t.point)
        add_edge("@target", "@origin", partial_weight(seg, along, FORWARD), snap_o.point)

    coords = {"@origin": snap_o.point, "@target": snap_t.point}
    coords.update(network.junctions)

    dist = {"@origin": 0.0}
    prev = {}
    heap = [(0.0, "@origin")]
    done = set()
    while heap:
        d, here = heapq.heappop(heap)
        if here in done:
            continue
        done.add(here)
        if here == "@target":
            break
        for nxt, w, _ in sorted(dist_graph.get(here, []), key=lambda e: e[0]):
            nd = d + w
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                prev[nxt] = here
                heapq.heappush(heap, (nd, nxt))

    if "@target" not in dist:
        raise ValueError("no path between points")

    names = ["@target"]
    while names[-1] != "@origin":
        names.append(prev[names[-1]])
    names.reverse()
    points = [coords[n] for n in names]
    deduped = [points[0]]
    for pt in points[1:]:
        if distance(pt, deduped[-1]) > 0:
            deduped.append(pt)
    return deduped, dist["@target"]


def _kit_road(name):
    with tempfile.TemporaryDirectory() as directory:
        kits.generate_kit(name, directory)
        with open(os.path.join(directory, "road.txt")) as fh:
            return fh.read()


_KIT_ROADS = [_kit_road(name) for name in kits.KIT_NAMES]


@st.composite
def _walking_network(draw):
    """A kit road, or a grid with some streets one-way or missing."""
    if draw(st.booleans()):
        return load_network(draw(st.sampled_from(_KIT_ROADS)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    spacing = draw(st.sampled_from([0.1, 1.0, 37.5, 150.0, 300.0, 333.3]))
    lines = []
    for line in grid_document(rows, cols, spacing=spacing).splitlines():
        if line.startswith("segment"):
            kind = draw(st.sampled_from(["twoway", "twoway", "oneway", "gone"]))
            if kind == "gone":
                continue
            line = line.replace("twoway", kind)
        lines.append(line)
    if not any(line.startswith("segment") for line in lines):
        lines.append("segment s j0_0 j0_1 50 twoway")
    return load_network("\n".join(lines) + "\n")


@st.composite
def _walking_point(draw, network):
    """A junction exactly, a point on (or beside) a segment, or anywhere."""
    kind = draw(st.sampled_from(["junction", "segment", "free"]))
    if kind == "junction":
        return network.junctions[draw(st.sampled_from(sorted(network.junctions)))]
    xs = [c.x for c in network.junctions.values()]
    ys = [c.y for c in network.junctions.values()]
    if kind == "free":
        return GeoCoordinate(draw(st.floats(min(xs) - 50, max(xs) + 50)),
                             draw(st.floats(min(ys) - 50, max(ys) + 50)))
    seg = network.segments[draw(st.sampled_from(sorted(network.segments)))]
    p = seg.point_at(draw(st.floats(0.0, 1.0)) * seg.length)
    return GeoCoordinate(p.x, p.y + draw(st.sampled_from([0.0, 0.0, 3.0, -7.25])))


def _walk(network, origin, target, route):
    try:
        points, cost = route(network, origin, target)
    except ValueError as exc:
        return str(exc)
    return [(p.x.hex(), p.y.hex()) for p in points], cost.hex()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_path_between_points_matches_its_own_dijkstra_bit_for_bit(data):
    network = data.draw(_walking_network())
    origin = data.draw(_walking_point(network))
    if data.draw(st.booleans()):
        # both points on one segment
        seg = network.segments[geomodel.snap_to_network(network, origin).segment_id]
        target = seg.point_at(data.draw(st.floats(0.0, 1.0)) * seg.length)
    else:
        target = data.draw(_walking_point(network))
    assert (_walk(network, origin, target, geomodel.path_between_points)
            == _walk(network, origin, target, reference_path_between_points))


def _old_entry(network, junction, seg_id):
    """The entry rule as driving, route planning, the random walk and the
    bundle validator each wrote it out: (direction, exit junction), or None
    where the segment cannot be entered at `junction`."""
    seg = network.segments[seg_id]
    if seg.junction_a == junction:
        return FORWARD, seg.junction_b
    if seg.junction_b == junction and not seg.oneway:
        return REVERSE, seg.junction_a
    return None


def _old_random_walk(network, rng, seg, direction, hops):
    """The background fleet's random walk as a loop over each junction's
    segments, before the exit table."""
    route = []
    here = seg.exit_junction(direction)
    prev = seg.segment_id
    for _ in range(hops):
        options = []
        for cand_id in network.adjacency[here]:
            cand = network.segments[cand_id]
            if cand.oneway and cand.junction_a != here:
                continue
            options.append(cand_id)
        if not options:
            break
        forwardish = [o for o in options if o != prev]
        pick = forwardish or options
        nxt = pick[rng.randrange(len(pick))]
        route.append(nxt)
        cand = network.segments[nxt]
        here = cand.junction_b if cand.junction_a == here else cand.junction_a
        prev = nxt
    return route


@pytest.mark.filterwarnings("ignore:vehicle count")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_exit_table_is_the_entry_rule(data):
    network = data.draw(_walking_network())
    for junction in network.junctions:
        for seg_id in network.segments:
            assert network.exits[junction].get(seg_id) == _old_entry(network, junction, seg_id)
    sim = Simulation(SimConfig(duration=data.draw(st.integers(1, 20))), network, Roster())
    min_len = min(s.length for s in network.segments.values())
    for _ in range(3):
        seg = network.segments[data.draw(st.sampled_from(sorted(network.segments)))]
        direction = FORWARD if seg.oneway else data.draw(st.sampled_from([FORWARD, REVERSE]))
        hops = int(sim.config.duration * (seg.speed_limit / 3.6) / min_len) + 2
        seed = data.draw(st.integers(0, 2**32))
        sim.rng, old_rng = random.Random(seed), random.Random(seed)
        assert sim._random_walk(seg, direction) == _old_random_walk(network, old_rng, seg,
                                                                    direction, hops)
        assert sim.rng.getstate() == old_rng.getstate()
