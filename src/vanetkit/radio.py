"""Unit-disk radio transport: who hears whom, the frames in flight, and
packet conservation.  A frame sent at tick t arrives at the next delivery
if its receiver is still active and in range, and is lost otherwise.  The
radio sees a node only through its `id`, `active` and `stats`.  Once
closed, for the final drain, it still delivers but queues nothing new."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Cell-list buckets are this much wider than the radio range.  A pair that
# passes `in_radio_range` is at most r(1 + 3 * 2**-53) apart per axis, and
# rounding x / side moves the quotient by less than 1e-9 while |x| < 1e6 r,
# so with this margin such a pair always lands in the same or an adjacent
# cell.  With side == r it need not: x = -1e-15 falls in cell -1 and x = r
# in cell 1, yet r - (-1e-15) rounds to r, which is in range.
_CELL_MARGIN = 1e-6


class ConservationError(RuntimeError):
    """Packets generated differ from packets received, lost and in flight."""


def in_radio_range(dx: float, dy: float, radio_range: float) -> bool:
    """The one unit-disk predicate: inclusive, in exact squared metres."""
    return dx * dx + dy * dy <= radio_range * radio_range


@dataclass(slots=True)
class Transmission:
    """One frame in flight.  A unicast frame's one receiver handles it on
    arrival.  A beacon goes to every radio neighbour of its sender, and
    receivers ignore beacons, so its arrivals are only counted."""
    sender: str
    receivers: tuple[str, ...]
    frame: bytes
    sent_at: int
    unicast: bool


class Radio:
    """The frames in flight, and the node counters they move."""

    def __init__(self, radio_range: float):
        self.radio_range = radio_range
        self.in_flight: list[Transmission] = []
        self.closed = False

    def neighbors(self, nodes, positions) -> dict[str, list[str]]:
        """Each active node's active neighbours in id order, for every node
        id in `positions`.  A cell list: active nodes are bucketed into
        square cells a hair wider than the radio range (see _CELL_MARGIN),
        so every pair in range shares a cell or sits in adjacent ones.  Each
        cell is tested against itself and the four cells ahead of it."""
        radio_range = self.radio_range
        side = radio_range * (1.0 + _CELL_MARGIN)
        neighbors: dict[str, list[str]] = {}
        cells: dict[tuple[int, int], list[tuple[str, float, float]]] = {}
        for nid, p in positions.items():
            neighbors[nid] = []
            if nodes[nid].active:
                key = (math.floor(p.x / side), math.floor(p.y / side))
                cells.setdefault(key, []).append((nid, p.x, p.y))
        for (cx, cy), members in cells.items():
            for i, (a, xa, ya) in enumerate(members):
                near = neighbors[a]
                for b, xb, yb in members[i + 1:]:
                    if in_radio_range(xb - xa, yb - ya, radio_range):
                        near.append(b)
                        neighbors[b].append(a)
            for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
                others = cells.get(key)
                if others is None:
                    continue
                for a, xa, ya in members:
                    near = neighbors[a]
                    for b, xb, yb in others:
                        if in_radio_range(xb - xa, yb - ya, radio_range):
                            near.append(b)
                            neighbors[b].append(a)
        for near in neighbors.values():
            near.sort()
        return neighbors

    def unicast(self, node, peer: str, frame: bytes, tick: int) -> None:
        if self.closed:
            return
        node.stats.sent += 1
        node.stats.generated += 1
        self.in_flight.append(Transmission(node.id, (peer,), frame, tick, True))

    def broadcast(self, node, frame: bytes, targets: list[str], tick: int) -> None:
        if self.closed:
            return
        node.stats.broadcasted += 1
        node.stats.generated += len(targets)
        if targets:
            self.in_flight.append(Transmission(node.id, tuple(targets), frame, tick, False))

    def deliver(self, t: int, nodes, positions, handle) -> None:
        """Deliver every frame sent before tick `t`; `handle(receiver, sender
        id, frame)` takes each unicast frame that arrives.  A frame is
        released once handled, not held while later handlers send."""
        due = [d for d in self.in_flight if d.sent_at < t]
        self.in_flight = [d for d in self.in_flight if d.sent_at >= t]
        radio_range = self.radio_range
        for i, delivery in enumerate(due):
            due[i] = None
            sender = nodes[delivery.sender]
            origin = positions[delivery.sender]
            for peer in delivery.receivers:
                receiver = nodes[peer]
                here = positions[peer]
                if not (receiver.active and in_radio_range(here.x - origin.x,
                                                           here.y - origin.y, radio_range)):
                    sender.stats.lost += 1
                    continue
                receiver.stats.received += 1
                if delivery.unicast:
                    handle(receiver, delivery.sender, delivery.frame)

    def close(self) -> None:
        """Start the final drain: from now on nothing is queued or counted."""
        self.closed = True

    def check_conservation(self, totals) -> int:
        """Packets in flight, per receiver; raises ConservationError unless
        generated == received + lost + in flight over the node `totals`."""
        in_flight = sum(len(d.receivers) for d in self.in_flight)
        if totals.generated != totals.received + totals.lost + in_flight:
            raise ConservationError(
                f"packet conservation violated: generated={totals.generated} "
                f"received={totals.received} lost={totals.lost} in_flight={in_flight}")
        return in_flight
