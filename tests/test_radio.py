"""The radio layer: the range predicate, cell-list adjacency and counted
beacon broadcasts."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetkit.geomodel import FORWARD, GeoCoordinate, load_network
from vanetkit.simnet import (ParkDirective, SimConfig, Simulation, VehicleSpec,
                             collect_metrics, in_radio_range, neighbors_in_range)
from vanetkit.trust import Roster

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")

RANGE = 75.0
MAX_NODES = 40
# Integer offsets exactly RANGE long: 21² + 72² = 45² + 60² = 75².
EXACT_OFFSETS = [(21, 72), (72, 21), (45, 60), (60, 45), (75, 0), (0, 75)]

STRAIGHT_ROAD = """
junction a 0 0
junction b 1000 0
segment main a b 50 twoway
"""
NETWORK = load_network(STRAIGHT_ROAD)
ROSTER = Roster()
for _i in range(MAX_NODES):
    ROSTER.register(f"u{_i:02d}", _i + 1)


def _placed(points, inactive=()):
    """A Simulation whose node n<i> is active at points[i] unless i is in
    `inactive`, in which case its ignition is off."""
    config = SimConfig(seed=1, duration=1, name="placed", vehicles=[
        VehicleSpec(f"n{i:02d}", f"u{i:02d}", "main", 0.0) for i in range(len(points))])
    sim = Simulation(config, NETWORK, ROSTER)
    for i, (x, y) in enumerate(points):
        node = sim.nodes[f"n{i:02d}"]
        node.launched = True
        node.state.ignition = i not in inactive
        node.position = lambda network, here=GeoCoordinate(x, y): here
    return sim


def _dense(sim, positions):
    """The reference: every active node against every other one."""
    plain = {nid: (p.x, p.y) for nid, p in positions.items()}
    active = {nid for nid, node in sim.nodes.items() if node.active}
    return {nid: sorted(neighbors_in_range(plain, nid, RANGE, active)) if nid in active else []
            for nid in plain}


def test_predicate_is_inclusive_and_squared():
    assert in_radio_range(75.0, 0.0, RANGE)
    assert in_radio_range(-45.0, 60.0, RANGE)
    assert not in_radio_range(math.nextafter(75.0, math.inf), 0.0, RANGE)
    for dx, dy in EXACT_OFFSETS:
        assert in_radio_range(dx, dy, RANGE) and in_radio_range(-dx, -dy, RANGE)


def _coordinate():
    """Anywhere in a small city; on a multiple of the range or one ulp
    either side of it; or so close to 0 that adding the range rounds the
    offset away: there cell bucketing rounds."""
    grid = st.builds(lambda k, step: math.nextafter(k * RANGE, step * math.inf)
                     if step else k * RANGE,
                     st.integers(-3, 3), st.sampled_from([-1, 0, 1]))
    return st.one_of(st.floats(-250.0, 250.0), grid, st.floats(-7e-15, 7e-15))


@st.composite
def _layouts(draw):
    points = draw(st.lists(st.tuples(_coordinate(), _coordinate()), max_size=24))
    for _ in range(draw(st.integers(0, 4))):
        ax, ay = draw(st.integers(-250, 250)), draw(st.integers(-250, 250))
        dx, dy = draw(st.sampled_from(EXACT_OFFSETS))
        sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        points += [(float(ax), float(ay)), (float(ax + sx * dx), float(ay + sy * dy))]
    inactive = draw(st.sets(st.integers(0, max(len(points) - 1, 0)), max_size=5))
    return points, inactive


@settings(max_examples=150, deadline=None)
@given(_layouts())
# RANGE apart once rounded, but in cells -1 and 1 if the side were RANGE.
@example(([(-1e-15, 0.0), (RANGE, 0.0)], set()))
@example(([(0.0, -1e-15), (0.0, RANGE)], set()))
# Diagonal cell neighbours.
@example(([(70.0, 70.0), (80.0, 80.0), (80.0, 70.0), (70.0, 80.0)], set()))
@example(([(70.0, 80.0), (80.0, 70.0)], set()))
def test_cell_list_equals_the_dense_pairwise_reference(layout):
    points, inactive = layout
    sim = _placed(points, inactive)
    positions, neighbors = sim._adjacency()
    assert set(positions) == set(sim.nodes)
    assert neighbors == _dense(sim, positions)
    for nid, near in neighbors.items():
        assert near == sorted(set(near)) and nid not in near
        assert all(nid in neighbors[peer] for peer in near)


def test_beacon_to_a_departed_or_parked_receiver_is_lost():
    """n1 beacons to three neighbours at tick 0; by tick 1 n2 has driven out
    of range and n3 has switched its ignition off, so only n4 receives."""
    roster = Roster()
    for i in range(4):
        roster.register(f"u{i}", i + 1)
    config = SimConfig(seed=3, duration=10, name="departure", vehicles=[
        VehicleSpec("n1", "u0", "main", 100.0, FORWARD, speed=0.0),
        VehicleSpec("n2", "u1", "main", 160.0, FORWARD, speed=50.0),
        VehicleSpec("n3", "u2", "main", 140.0, FORWARD, speed=0.0),
        VehicleSpec("n4", "u3", "main", 120.0, FORWARD, speed=0.0),
    ], parks=[ParkDirective("n3", 1.0, 5.0)])
    sim = Simulation(config, NETWORK, roster)
    sim._script_step(0)
    sim._mobility_step(0)
    _, neighbors = sim._adjacency()
    assert neighbors["n1"] == ["n2", "n3", "n4"]
    n1 = sim.nodes["n1"]
    sim._beacon(n1, 0, neighbors["n1"])
    assert len(sim.in_flight) == 1 and sim.in_flight[0].receivers == ("n2", "n3", "n4")
    assert (n1.stats.generated, n1.stats.broadcasted) == (3, 1)
    assert collect_metrics(sim).in_flight == 3

    sim.now = 1.0
    sim._script_step(1)
    sim._mobility_step(1)
    positions, neighbors = sim._adjacency()
    assert not sim.nodes["n3"].active
    assert not in_radio_range(positions["n2"].x - positions["n1"].x,
                              positions["n2"].y - positions["n1"].y, RANGE)
    sim._delivery_step(1, positions, neighbors, allow_sends=True)
    assert n1.stats.lost == 2
    assert [sim.nodes[n].stats.received for n in ("n2", "n3", "n4")] == [0, 0, 1]
    stats = collect_metrics(sim)
    assert stats.in_flight == 0 and sim.in_flight == []


def test_conservation_counts_queued_beacon_receivers_not_records():
    """Stopped after a node step, beacons to several receivers are still
    queued; conservation holds with in-flight counted per receiver."""
    roster = Roster()
    for i in range(4):
        roster.register(f"u{i}", i + 1)
    config = SimConfig(seed=5, duration=10, name="cluster", vehicles=[
        VehicleSpec(f"n{i}", f"u{i}", "main", 100.0 + 10 * i, FORWARD, speed=0.0)
        for i in range(4)])
    sim = Simulation(config, NETWORK, roster)
    for t in range(3):
        sim.now = float(t)
        sim._script_step(t)
        sim._mobility_step(t)
        positions, neighbors = sim._adjacency()
        sim._delivery_step(t, positions, neighbors, allow_sends=True)
        sim._node_step(t, positions, neighbors)
    beacons = [d for d in sim.in_flight if len(d.receivers) == 3]
    assert len(beacons) == 4
    stats = collect_metrics(sim)      # raises ConservationError if it fails
    assert stats.in_flight == sum(len(d.receivers) for d in sim.in_flight) > len(sim.in_flight)
    totals = stats.totals()
    assert totals.generated == totals.received + totals.lost + stats.in_flight


def test_importing_the_package_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c",
                    "import vanetkit, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True, timeout=60)


def test_radio_range_must_be_positive():
    assert "radio_range must be positive" in SimConfig(radio_range=0.0).validate()
    assert "radio_range must be positive" not in SimConfig().validate()
