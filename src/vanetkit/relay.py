"""Forwarding decisions, congestion-aware rerouting and the cooperation gate.

A verified event triggers exactly one action per node: corroborate when
the node is stuck in the same jam, reroute-and-forward when the jammed
road lies ahead on the node's own route, plain forward otherwise, drop
on duplicates.  Rerouting prices congested segments at a multiple of
their free-flow travel time and keeps the old plan unless the detour is
strictly cheaper.

Event payloads only ever travel sealed under a session key; peers whose
observed forwarding ratio collapses are refused further payloads, which
is the whole cooperation incentive.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .aggregation import AggregatedEvent
from .geomodel import GeoCoordinate, RoadNetwork, RoadSegment, shortest_path

CONGESTION_PENALTY = 5.0
COOPERATION_MIN_OBSERVATIONS = 4
COOPERATION_THRESHOLD = 0.5

ACTION_FORWARD = "forward"
ACTION_CORROBORATE = "corroborate"
ACTION_REROUTE_FORWARD = "reroute-and-forward"
ACTION_DROP = "drop"


class RouteCostError(ArithmeticError):
    """Route costs that do not compare, such as NaN from a NaN penalty."""


@dataclass(frozen=True)
class RelayDecision:
    action: str
    reason: str = ""


@dataclass
class RoutePlan:
    """A vehicle's intended path: junction-to-junction segment sequence.

    `position_index` is the index of the segment currently being
    travelled (-1 before departure); segments strictly after it count
    as "ahead".
    """
    origin: GeoCoordinate
    destination: GeoCoordinate
    segment_sequence: tuple[str, ...]
    directions: tuple[str, ...]
    junctions: tuple[str, ...]       # len(segments) + 1
    cost: float
    position_index: int = -1


def plan_route(network: RoadNetwork, start_junction: str, goal_junction: str,
               congested: set[tuple[str, str]] | None = None,
               penalty: float = CONGESTION_PENALTY) -> RoutePlan | None:
    """Cheapest route by effective travel time under the congestion set."""
    congested = congested or set()

    def weight(seg: RoadSegment, direction: str) -> float:
        base = seg.travel_time_base
        return base * penalty if (seg.segment_id, direction) in congested else base

    found = shortest_path(network, start_junction, goal_junction, weight)
    if found is None:
        return None
    seg_ids, cost = found
    directions, junctions, _ = follow_route(network, start_junction, seg_ids)
    return RoutePlan(network.junctions[start_junction], network.junctions[goal_junction],
                     tuple(seg_ids), tuple(directions), tuple(junctions), cost)


def follow_route(network: RoadNetwork, junction: str, seg_ids: Iterable[str],
                 cost: float = 0.0) -> tuple[list[str], list[str], float]:
    """Drive `seg_ids` from `junction`, entering each segment by the
    network's one entry rule: the direction taken on each segment, the
    junctions passed (`junction` first), and `cost` plus each segment's
    free-flow travel time, added in route order."""
    directions: list[str] = []
    junctions = [junction]
    for seg_id in seg_ids:
        direction, here = network.enter(junctions[-1], seg_id)
        directions.append(direction)
        junctions.append(here)
        cost += network.segments[seg_id].travel_time_base
    return directions, junctions, cost


def plan_cost(plan: RoutePlan, network: RoadNetwork,
              congested: set[tuple[str, str]], penalty: float = CONGESTION_PENALTY,
              from_index: int = 0) -> float:
    """Effective travel time of the plan's remaining segments."""
    total = 0.0
    for seg_id, direction in zip(plan.segment_sequence[from_index:],
                                 plan.directions[from_index:]):
        base = network.segments[seg_id].travel_time_base
        total += base * penalty if (seg_id, direction) in congested else base
    return total


def route_affected(plan: RoutePlan, road_id: str, direction: str) -> bool:
    """True iff the congested road lies strictly ahead with matching direction."""
    for i in range(plan.position_index + 1, len(plan.segment_sequence)):
        if plan.segment_sequence[i] == road_id and plan.directions[i] == direction:
            return True
    return False


def recompute_route(plan: RoutePlan, network: RoadNetwork,
                    congested: set[tuple[str, str]],
                    penalty: float = CONGESTION_PENALTY) -> tuple[RoutePlan, bool, bool]:
    """Replan from the next junction boundary under congestion weights.

    Returns (plan, changed, advisory).  The new plan replaces the old one
    only when strictly cheaper under congested weights; an unreachable
    destination keeps the plan and raises the advisory flag.
    """
    from_index = plan.position_index + 1
    if from_index >= len(plan.segment_sequence):
        return plan, False, False
    start_junction = plan.junctions[from_index]
    goal_junction = plan.junctions[-1]
    old_cost = plan_cost(plan, network, congested, penalty, from_index)
    fresh = plan_route(network, start_junction, goal_junction, congested, penalty)
    if fresh is None:
        return plan, False, True
    changed = fresh.cost < old_cost
    result_cost = fresh.cost if changed else old_cost
    # Exchange argument: the returned plan never costs more than the old
    # one under congested weights.
    if not result_cost <= old_cost:
        raise RouteCostError(f"route costs do not compare: {result_cost} vs {old_cost}")
    if not changed:
        return plan, False, False
    travelled = plan_cost(plan, network, congested, penalty, 0) - old_cost
    merged = RoutePlan(
        origin=plan.origin,
        destination=plan.destination,
        segment_sequence=plan.segment_sequence[:from_index] + fresh.segment_sequence,
        directions=plan.directions[:from_index] + fresh.directions,
        junctions=plan.junctions[:from_index] + fresh.junctions,
        cost=travelled + fresh.cost,
        position_index=plan.position_index,
    )
    return merged, True, False


def decide_relay(event: AggregatedEvent, verified: bool, seen: bool,
                 own_firing: bool, plan: RoutePlan | None) -> RelayDecision:
    """Total and deterministic: every (state, event) yields one action."""
    if not verified:
        return RelayDecision(ACTION_DROP, "unverified")
    if seen:
        return RelayDecision(ACTION_DROP, "duplicate")
    if own_firing:
        return RelayDecision(ACTION_CORROBORATE)
    if plan is not None and route_affected(plan, event.observation.road_id,
                                           event.observation.direction):
        return RelayDecision(ACTION_REROUTE_FORWARD)
    return RelayDecision(ACTION_FORWARD)


@dataclass(slots=True)
class CooperationRecord:
    """Watchdog view of one peer's relaying behaviour over the session."""
    opportunities: int = 0      # events handed to the peer, observation window closed
    forwards: int = 0           # of those, events the peer was seen retransmitting
    pending: dict[bytes, float] = field(default_factory=dict)   # event id -> deadline

    def hand_over(self, event_id: bytes, deadline: float) -> None:
        if event_id not in self.pending:
            self.pending[event_id] = deadline

    def observed_forward(self, event_id: bytes) -> None:
        if event_id in self.pending:
            del self.pending[event_id]
            self.opportunities += 1
            self.forwards += 1

    def close_expired(self, now: float) -> None:
        for event_id in [e for e, d in self.pending.items() if now > d]:
            del self.pending[event_id]
            self.opportunities += 1


def cooperation_gate(record: CooperationRecord,
                     min_observations: int = COOPERATION_MIN_OBSERVATIONS,
                     threshold: float = COOPERATION_THRESHOLD) -> str:
    """\"serve\" or \"refuse\" based on the observed forward ratio.

    Fresh peers get the benefit of the doubt until enough relay duties
    have been observed.
    """
    if record.opportunities < min_observations:
        return "serve"
    ratio = record.forwards / record.opportunities
    return "refuse" if ratio < threshold else "serve"
