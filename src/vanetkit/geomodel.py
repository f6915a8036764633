"""Road network geometry and vehicle kinematics.

Coordinates are planar meters relative to a scenario origin; distances
are Euclidean, which keeps the radio-range arithmetic exact.  Lanes are
collapsed to a per-segment one-way/two-way flag, and `RoadNetwork.exits`
is the one rule for entering a segment.  All operations here are pure
value transformations driven single-threaded by the simulator.
`shortest_path` is the one Dijkstra search: route planning calls it on
the road network, and walking routes on a two-way copy whose snapped
segments are split at the walker's endpoints.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator

FORWARD = "fwd"   # travel from junction_a towards junction_b
REVERSE = "rev"

BATTERY_LEVELS = ("very_low", "low", "medium", "high", "very_high")


class DocumentError(Exception):
    """A scenario input document failed to parse or validate.

    Carries every problem found, not just the first, so callers can
    report them all at once.
    """

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def document_statements(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each statement of a line-oriented input
    document; `#` starts a comment.  A generator expression, not a generator
    function, so that a profiler counts one call per document."""
    return ((lineno, fields) for lineno, line in enumerate(text.splitlines(), start=1)
            if (fields := line.split("#", 1)[0].split()))


class DirectiveError(Exception):
    """A turn or route step names a segment that cannot be entered here."""


@dataclass(frozen=True, slots=True)
class GeoCoordinate:
    x: float  # meters east of scenario origin
    y: float  # meters north of scenario origin


def distance(a: GeoCoordinate, b: GeoCoordinate) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


@dataclass(frozen=True)
class RoadSegment:
    segment_id: str
    junction_a: str
    junction_b: str
    start: GeoCoordinate
    end: GeoCoordinate
    speed_limit: float        # km/h
    oneway: bool = False

    @cached_property
    def length(self) -> float:
        return distance(self.start, self.end)

    @property
    def travel_time_base(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / (self.speed_limit / 3.6)

    def point_at(self, offset: float, direction: str = FORWARD) -> GeoCoordinate:
        """Coordinate at `offset` meters from the entry end for `direction`."""
        t = min(max(offset / self.length, 0.0), 1.0)
        if direction == REVERSE:
            t = 1.0 - t
        return GeoCoordinate(
            self.start.x + (self.end.x - self.start.x) * t,
            self.start.y + (self.end.y - self.start.y) * t,
        )

    def entry_junction(self, direction: str) -> str:
        return self.junction_a if direction == FORWARD else self.junction_b

    def exit_junction(self, direction: str) -> str:
        return self.junction_b if direction == FORWARD else self.junction_a


class RoadNetwork:
    """Segments plus junction adjacency derived from shared endpoints.

    `exits[junction]` is the one entry rule: segment id -> (direction, exit
    junction) for each segment a vehicle may enter at the junction, in id
    order.  A one-way street is entered only at its start."""

    def __init__(self, junctions: dict[str, GeoCoordinate], segments: dict[str, RoadSegment]):
        self.junctions = junctions
        self.segments = segments
        self.adjacency: dict[str, list[str]] = {j: [] for j in junctions}
        self.exits: dict[str, dict[str, tuple[str, str]]] = {j: {} for j in junctions}
        for seg_id in sorted(segments):
            seg = segments[seg_id]
            self.adjacency[seg.junction_a].append(seg_id)
            self.adjacency[seg.junction_b].append(seg_id)
            self.exits[seg.junction_a][seg_id] = (FORWARD, seg.junction_b)
            if not seg.oneway:
                self.exits[seg.junction_b][seg_id] = (REVERSE, seg.junction_a)

    def enter(self, junction_id: str, segment_id: str) -> tuple[str, str]:
        """(direction, exit junction) for entering `segment_id` at
        `junction_id`; DirectiveError where `exits` does not allow it."""
        step = self.exits[junction_id].get(segment_id)
        if step is not None:
            return step
        if segment_id in self.adjacency[junction_id]:
            raise DirectiveError(f"segment {segment_id!r} is one-way, cannot enter at {junction_id!r}")
        raise DirectiveError(f"segment {segment_id!r} is not adjacent to junction {junction_id!r}")

    def degree(self, junction_id: str) -> int:
        return len(self.adjacency[junction_id])

    def segments_at(self, junction_id: str) -> list[str]:
        return self.adjacency[junction_id]

    def connected(self, junction_ids: Iterable[str]) -> bool:
        """True when the given junctions all sit in one component."""
        wanted = set(junction_ids)
        if not wanted:
            return True
        start = next(iter(wanted))
        seen = {start}
        stack = [start]
        while stack:
            here = stack.pop()
            for seg_id in self.adjacency[here]:
                seg = self.segments[seg_id]
                for nxt in (seg.junction_a, seg.junction_b):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return wanted <= seen


def load_network(text: str) -> RoadNetwork:
    """Parse a road description document.

    Grammar (one statement per line, `#` starts a comment):
        junction <id> <x> <y>
        segment <id> <junctionA> <junctionB> <speed_limit_kmh> <oneway|twoway>
    Units are meters and km/h.
    """
    problems: list[str] = []
    junctions: dict[str, GeoCoordinate] = {}
    raw_segments: list[tuple[int, list[str]]] = []

    for lineno, fields in document_statements(text):
        kind = fields[0]
        if kind == "junction":
            if len(fields) != 4:
                problems.append(f"line {lineno}: junction needs <id> <x> <y>")
                continue
            name = fields[1]
            if name in junctions:
                problems.append(f"line {lineno}: duplicate junction id {name!r}")
                continue
            try:
                junctions[name] = GeoCoordinate(float(fields[2]), float(fields[3]))
            except ValueError:
                problems.append(f"line {lineno}: junction coordinates must be numeric")
        elif kind == "segment":
            if len(fields) != 6:
                problems.append(f"line {lineno}: segment needs <id> <a> <b> <limit> <oneway|twoway>")
                continue
            raw_segments.append((lineno, fields))
        else:
            problems.append(f"line {lineno}: unknown statement {kind!r}")

    segments: dict[str, RoadSegment] = {}
    declared: set[str] = set()
    for lineno, fields in raw_segments:
        _, seg_id, a, b, limit_s, way = fields
        if seg_id in declared:
            problems.append(f"line {lineno}: duplicate segment id {seg_id!r}")
            continue
        declared.add(seg_id)
        if a not in junctions or b not in junctions:
            problems.append(f"line {lineno}: segment {seg_id!r} references unknown junction")
            continue
        try:
            limit = float(limit_s)
        except ValueError:
            problems.append(f"line {lineno}: speed limit must be numeric")
            continue
        if limit <= 0:
            problems.append(f"line {lineno}: segment {seg_id!r} violates speed_limit > 0")
            continue
        if way not in ("oneway", "twoway"):
            problems.append(f"line {lineno}: direction must be oneway or twoway")
            continue
        seg = RoadSegment(seg_id, a, b, junctions[a], junctions[b], limit, way == "oneway")
        if seg.length <= 0:
            problems.append(f"line {lineno}: segment {seg_id!r} violates length > 0")
            continue
        segments[seg_id] = seg

    if problems:
        raise DocumentError(problems)
    return RoadNetwork(junctions, segments)


def grid_document(rows: int, cols: int, spacing: float = 300.0, speed_limit: float = 50.0) -> str:
    """Road document text for a rows x cols junction grid, two-way streets."""
    lines = [f"# {rows}x{cols} grid, {spacing} m blocks"]
    for r in range(rows):
        for c in range(cols):
            lines.append(f"junction j{r}_{c} {c * spacing} {r * spacing}")
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lines.append(f"segment h{r}_{c} j{r}_{c} j{r}_{c + 1} {speed_limit} twoway")
            if r + 1 < rows:
                lines.append(f"segment v{r}_{c} j{r}_{c} j{r + 1}_{c} {speed_limit} twoway")
    return "\n".join(lines) + "\n"


# Weak-referenceable so a test can see the detector free an old state.
@dataclass(slots=True, weakref_slot=True)
class VehicleState:
    node_id: str
    segment_id: str
    direction: str            # FORWARD or REVERSE on segment_id
    offset: float             # meters travelled from the entry end
    speed: float = 0.0        # km/h
    ignition: bool = True
    battery: str = "very_high"

    def position(self, network: RoadNetwork) -> GeoCoordinate:
        return network.segments[self.segment_id].point_at(self.offset, self.direction)


@dataclass
class MobilityDirective:
    """Per-tick control input: target speed and queued turns at junctions."""
    speed: float                       # km/h
    turns: list[str] = field(default_factory=list)


def advance_vehicle(state: VehicleState, network: RoadNetwork, dt: float,
                    directive: MobilityDirective) -> VehicleState:
    """Advance along the heading segment by speed*dt, turning per directive.

    Turns are consumed from directive.turns as junctions are crossed; with
    no turn queued the vehicle clamps at the segment end.  Deterministic:
    identical inputs give bit-identical outputs.  The new state comes from
    the constructor: this runs per vehicle per tick, and
    `dataclasses.replace` costs several times as much.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not state.ignition or directive.speed <= 0:
        return VehicleState(state.node_id, state.segment_id, state.direction, state.offset,
                            0.0 if not state.ignition else directive.speed, state.ignition,
                            state.battery)

    remaining = directive.speed / 3.6 * dt
    seg = network.segments[state.segment_id]
    segment_id, direction, offset = state.segment_id, state.direction, state.offset
    turns = list(directive.turns)

    while True:
        to_end = seg.length - offset
        if remaining < to_end or (remaining == to_end and not turns):
            offset += remaining
            break
        remaining -= to_end
        junction = seg.exit_junction(direction)
        if not turns:
            offset = seg.length  # clamp at segment end
            break
        segment_id = turns.pop(0)
        direction = network.enter(junction, segment_id)[0]
        seg = network.segments[segment_id]
        offset = 0.0

    directive.turns[:] = turns
    return VehicleState(state.node_id, segment_id, direction, offset, directive.speed,
                        state.ignition, state.battery)


def shortest_path(network: RoadNetwork, start: str, goal: str,
                  weight: Callable[[RoadSegment, str], float]) -> tuple[list[str], float] | None:
    """Dijkstra over junctions; returns (segment id path, cost) or None.

    `weight(segment, direction)` prices one traversal.  Ties break on
    junction id so results are deterministic.
    """
    dist: dict[str, float] = {start: 0.0}
    prev: dict[str, tuple[str, str]] = {}
    heap: list[tuple[float, str]] = [(0.0, start)]
    done: set[str] = set()
    while heap:
        d, here = heapq.heappop(heap)
        if here in done:
            continue
        done.add(here)
        if here == goal:
            break
        for seg_id, (direction, nxt) in network.exits[here].items():
            nd = d + weight(network.segments[seg_id], direction)
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                prev[nxt] = (here, seg_id)
                heapq.heappush(heap, (nd, nxt))
    if goal not in dist:
        return None
    path: list[str] = []
    here = goal
    while here != start:
        came_from, seg_id = prev[here]
        path.append(seg_id)
        here = came_from
    path.reverse()
    return path, dist[goal]


@dataclass(frozen=True)
class SnapPoint:
    segment_id: str
    offset_from_a: float      # meters from junction_a along the segment axis
    point: GeoCoordinate
    gap: float                # distance from the query point to the road


def snap_to_network(network: RoadNetwork, coord: GeoCoordinate) -> SnapPoint:
    """Nearest point on any segment; ties break on segment id."""
    best: SnapPoint | None = None
    for seg_id in sorted(network.segments):
        seg = network.segments[seg_id]
        ax, ay = seg.start.x, seg.start.y
        dx, dy = seg.end.x - ax, seg.end.y - ay
        denom = dx * dx + dy * dy
        t = 0.0 if denom == 0 else max(0.0, min(1.0, ((coord.x - ax) * dx + (coord.y - ay) * dy) / denom))
        pt = GeoCoordinate(ax + dx * t, ay + dy * t)
        gap = distance(coord, pt)
        if best is None or gap < best.gap:
            best = SnapPoint(seg_id, t * seg.length, pt, gap)
    if best is None:
        raise ValueError("network has no segments")
    return best


def path_between_points(network: RoadNetwork, origin: GeoCoordinate,
                        target: GeoCoordinate) -> tuple[list[GeoCoordinate], float]:
    """Shortest walking polyline over the network between two off-network points.

    Endpoints are snapped to their nearest segment point.  Each snapped
    segment is split at its snap point(s), which become the junctions
    `@origin` and `@target`, and `shortest_path` searches the result with
    every segment two-way at its length.  A piece of a split segment costs
    its share of the segment's length.
    """
    snaps = {"@origin": snap_to_network(network, origin),
             "@target": snap_to_network(network, target)}
    junctions = dict(network.junctions)
    junctions.update((label, snap.point) for label, snap in snaps.items())
    segments = {seg_id: replace(seg, oneway=False) if seg.oneway else seg
                for seg_id, seg in network.segments.items()}
    cost: dict[str, float] = {}   # piece id -> walking cost
    for seg_id in sorted({snap.segment_id for snap in snaps.values()}):
        seg = segments.pop(seg_id)
        cuts = sorted((snap.offset_from_a, label) for label, snap in snaps.items()
                      if snap.segment_id == seg_id)
        ends = [(0.0, seg.junction_a), *cuts, (seg.length, seg.junction_b)]
        for (m0, a), (m1, b) in zip(ends, ends[1:]):
            piece = f"{a}-{b}"
            segments[piece] = RoadSegment(piece, a, b, junctions[a], junctions[b],
                                          seg.speed_limit)
            cost[piece] = 0.0 if seg.length == 0 else seg.length * ((m1 - m0) / seg.length)
    walk = RoadNetwork(junctions, segments)
    found = shortest_path(walk, "@origin", "@target",
                          lambda seg, direction: cost.get(seg.segment_id, seg.length))
    if found is None:
        raise ValueError("no path between points")
    seg_ids, total = found
    here = "@origin"
    points = [junctions[here]]
    for seg_id in seg_ids:
        here = walk.enter(here, seg_id)[1]
        # Drop zero-length duplicates from snapping exactly onto a junction.
        if distance(junctions[here], points[-1]) > 0:
            points.append(junctions[here])
    return points, total
