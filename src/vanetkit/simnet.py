"""Deterministic discrete-event simulation of the protocol stack.

Each tick advances three layers in a fixed order: vehicle mobility,
node energy (which vehicles carry an on-board unit and pass the battery
gate), and peer-to-peer communication over a unit-disk radio.  Messages
sent at tick t are delivered at t+1 if the receiver is still active and
within radio range, otherwise they count as lost; a final drain pass
resolves the last tick's traffic so packet conservation holds exactly:

    sum(generated) == sum(received) + sum(lost) + in_flight_at_end

A single seeded random stream drives the whole run in a fixed module
order (placement and routes first, then per-tick protocol draws in
sorted node order), which makes runs bit-reproducible per (config, seed).
"""

from __future__ import annotations

import math
import random
import struct
import warnings
from dataclasses import dataclass, field

from . import aggregation, auth, crypto, wire
from .aggregation import (JourneyContactLog, PendingObservation,
                          avg_users_per_minute, event_id_for, sign_observation)
from .events import (AdvertEvent, CongestionDetector, DetectionConfig,
                     EventStore, ParkingEvent, ParkingMonitor, deliver_advert,
                     location_cell, walking_route)
from .geomodel import (FORWARD, REVERSE, BATTERY_LEVELS, GeoCoordinate,
                       MobilityDirective, RoadNetwork, VehicleState,
                       advance_vehicle)
from .relay import (ACTION_CORROBORATE, ACTION_DROP, ACTION_REROUTE_FORWARD,
                    CooperationRecord, RoutePlan, cooperation_gate,
                    decide_relay, recompute_route)
from .trust import RevocationStore, Roster, report_misbehavior

_BATTERY_ORDER = {level: i for i, level in enumerate(BATTERY_LEVELS)}

# Cell-list buckets are this much wider than the radio range.  A pair that
# passes `in_radio_range` is at most r(1 + 3 * 2**-53) apart per axis, and
# rounding x / side moves the quotient by less than 1e-9 while |x| < 1e6 r,
# so with this margin such a pair always lands in the same or an adjacent
# cell.  With side == r it need not: x = -1e-15 falls in cell -1 and x = r
# in cell 1, yet r - (-1e-15) rounds to r, which is in range.
_CELL_MARGIN = 1e-6


def in_radio_range(dx: float, dy: float, radio_range: float) -> bool:
    """The one unit-disk predicate: inclusive, in exact squared metres."""
    return dx * dx + dy * dy <= radio_range * radio_range


def should_launch(battery: str, threshold: str) -> bool:
    """Battery gate: the stack does not launch at or below the threshold."""
    return _BATTERY_ORDER[battery] > _BATTERY_ORDER[threshold]


def assign_obus(vehicle_ids, obu_fraction: float, seed: int) -> set[str]:
    """Equip round(fraction * count) vehicles, chosen by a seeded shuffle.

    The shuffle depends only on the seed, so the equipped sets for
    growing fractions are nested.
    """
    if not 0.0 <= obu_fraction <= 1.0:
        raise ValueError("obu_fraction must be within [0, 1]")
    ids = sorted(vehicle_ids)
    rng = random.Random(f"obu-{seed}")
    rng.shuffle(ids)
    n = math.floor(obu_fraction * len(ids) + 0.5)
    return set(ids[:n])


def neighbors_in_range(positions: dict[str, tuple[float, float]], node_id: str,
                       radio_range: float, active: set[str] | None = None) -> set[str]:
    """Active nodes within the radio range (inclusive), excluding self."""
    x0, y0 = positions[node_id]
    out = set()
    for nid, (x, y) in positions.items():
        if nid == node_id:
            continue
        if active is not None and nid not in active:
            continue
        if in_radio_range(x - x0, y - y0, radio_range):
            out.add(nid)
    return out


@dataclass
class VehicleSpec:
    vehicle_id: str
    user_id: str
    segment: str
    offset: float
    direction: str = FORWARD
    speed: float = 50.0               # cruise speed, km/h
    route: list[str] = field(default_factory=list)
    battery: str = "very_high"
    start: float = 0.0                # journey start time
    freeride: bool = False            # never forwards received events
    searcher: bool = False            # looking for empty parking spaces
    has_gps: bool = True


@dataclass
class CongestionZone:
    segment: str
    direction: str
    t_start: float
    t_end: float
    speed: float                      # forced crawl speed inside the zone, km/h


@dataclass
class ParkDirective:
    vehicle_id: str
    t_off: float
    t_on: float


@dataclass
class FindDirective:
    vehicle_id: str
    t: float
    x: float
    y: float


@dataclass
class SimConfig:
    seed: int = 42
    duration: int = 100               # seconds
    tick: float = 1.0
    vehicle_count: int = 0            # background fleet; 0 = scripted only
    obu_fraction: float = 1.0
    radio_range: float = 75.0
    auth_period: float = 20.0
    battery_threshold: str = "low"
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    min_pseudonym_lifetime: float = 120.0
    max_pseudonym_lifetime: float = 600.0
    session_timeout: float = 60.0     # drop a session after this long out of contact
    handshake_timeout: float = 10.0
    forward_window: float = 5.0       # watchdog deadline for observed relaying
    advert_period: float = 10.0
    name: str = "scenario"
    vehicles: list[VehicleSpec] = field(default_factory=list)
    zones: list[CongestionZone] = field(default_factory=list)
    parks: list[ParkDirective] = field(default_factory=list)
    finds: list[FindDirective] = field(default_factory=list)
    adverts: list[tuple[str, AdvertEvent]] = field(default_factory=list)

    def validate(self) -> list[str]:
        """Hard errors; ranges outside the calibrated envelope only warn."""
        problems = []
        if self.duration <= 0:
            problems.append("duration must be positive")
        if self.tick <= 0:
            problems.append("tick must be positive")
        if not self.radio_range > 0:
            problems.append("radio_range must be positive")
        if not 0.0 <= self.obu_fraction <= 1.0:
            problems.append("obu_fraction must be within [0, 1]")
        if self.battery_threshold not in BATTERY_LEVELS:
            problems.append(f"unknown battery threshold {self.battery_threshold!r}")
        total = self.total_vehicles()
        if not 600 <= total <= 15000:
            warnings.warn(f"vehicle count {total} outside the calibrated 600-15000 range",
                          stacklevel=2)
        if not 0.01 <= self.obu_fraction <= 1.0:
            warnings.warn(f"obu_fraction {self.obu_fraction} outside the calibrated 1%-100% range",
                          stacklevel=2)
        return problems

    def total_vehicles(self) -> int:
        return len(self.vehicles) + self.vehicle_count


class ConservationError(RuntimeError):
    """Packets generated differ from packets received, lost and in flight."""


@dataclass
class NodeStats:
    generated: int = 0
    sent: int = 0
    broadcasted: int = 0
    received: int = 0
    lost: int = 0
    auth_attempts: int = 0
    auth_accepted: int = 0

    def as_row(self) -> list[int]:
        return [self.generated, self.sent, self.broadcasted, self.received,
                self.lost, self.auth_attempts, self.auth_accepted]


@dataclass
class NetworkStats:
    per_node: dict[str, NodeStats]
    connections: int = 0
    events_accepted: int = 0
    events_rejected: int = 0
    in_flight: int = 0

    def totals(self) -> NodeStats:
        total = NodeStats()
        for stats in self.per_node.values():
            total.generated += stats.generated
            total.sent += stats.sent
            total.broadcasted += stats.broadcasted
            total.received += stats.received
            total.lost += stats.lost
            total.auth_attempts += stats.auth_attempts
            total.auth_accepted += stats.auth_accepted
        return total

    def csv(self) -> str:
        lines = ["node,generated,sent,broadcasted,received,lost,auth_attempts,auth_accepted"]
        for node_id in sorted(self.per_node):
            row = self.per_node[node_id].as_row()
            lines.append(node_id + "," + ",".join(str(v) for v in row))
        lines.append("TOTAL," + ",".join(str(v) for v in self.totals().as_row()))
        return "\n".join(lines) + "\n"


class _Session:
    def __init__(self, key: auth.SessionKey, peer_user: str, now: float):
        self.key = key
        self.peer_user = peer_user
        self.established_at = now
        self.last_seen = now


class _Node:
    """Runtime state of one vehicle's protocol stack inside the simulator."""

    def __init__(self, spec: VehicleSpec, sim: "Simulation"):
        self.spec = spec
        self.id = spec.vehicle_id
        self.user = sim.roster.user(spec.user_id)
        net = sim.network
        seg = net.segments[spec.segment]
        self.state = VehicleState(self.id, spec.segment, spec.direction,
                                  min(spec.offset, seg.length), 0.0,
                                  ignition=False, battery=spec.battery)
        self.turns: list[str] = list(spec.route)
        self.equipped = False
        self.launched = False          # battery gate outcome for the current journey
        self.pseudonyms: auth.PseudonymState | None = None
        self.revocations = RevocationStore(sim.known_users)
        self.sessions: dict[str, _Session] = {}
        self.initiators: dict[str, auth.AuthInitiator] = {}      # peer id -> engine
        self.responders: dict[bytes, tuple[str, auth.AuthResponder]] = {}
        self.scheduler = auth.AuthScheduler(sim.config.auth_period)
        self.journey = JourneyContactLog()
        self.detector = CongestionDetector(sim.config.detection, spec.has_gps)
        self.parking = ParkingMonitor(sim.config.detection.parking_ttl, spec.has_gps)
        self.store = EventStore(sim.config.detection)
        self.pending: dict[bytes, PendingObservation] = {}
        self.pending_announced: set[bytes] = set()
        # Corroboration requests we could not answer yet: our own detector
        # may start firing while the jam request is still fresh.
        self.corroboration_inbox: dict[bytes, tuple[str, object, float]] = {}
        self.parking_queue: list[tuple[bytes, ParkingEvent]] = []
        self.seen_events: dict[bytes, float] = {}                # id -> expiry
        self.transmitted: set[bytes] = set()
        self.coop: dict[str, CooperationRecord] = {}
        self.plan: RoutePlan | None = None
        self.stats = NodeStats()
        self.shown: set[bytes] = set()
        self.decrypted_events: list[tuple[int, int, bytes]] = []  # (tick, tag, event id)
        self.last_advert_sent = -1e9

    @property
    def active(self) -> bool:
        return self.equipped and self.launched and self.state.ignition

    def position(self, network: RoadNetwork) -> GeoCoordinate:
        return self.state.position(network)

    def session_peers(self) -> list[str]:
        return sorted(self.sessions)

    def coop_record(self, peer: str) -> CooperationRecord:
        return self.coop.setdefault(peer, CooperationRecord())


@dataclass(slots=True)
class _Delivery:
    """One unicast frame in flight; its receiver handles it on arrival."""
    sender: str
    receiver: str
    frame: bytes
    sent_at: int

    @property
    def receivers(self) -> tuple[str]:
        return (self.receiver,)


@dataclass(slots=True)
class _Broadcast:
    """One beacon frame in flight to every radio neighbour of its sender.

    Receivers ignore beacons, so arrival is only counted: received for
    each receiver still reachable, lost for each other one.
    """
    sender: str
    receivers: tuple[str, ...]
    frame: bytes
    sent_at: int


class Simulation:
    """One scenario run; owns all node state, the clock and the RNG."""

    def __init__(self, config: SimConfig, network: RoadNetwork, roster: Roster):
        problems = config.validate()
        if problems:
            raise ValueError("; ".join(problems))
        self.config = config
        self.network = network
        self.roster = roster
        self.known_users = frozenset(roster.users)   # shared by every node's RevocationStore
        self.rng = random.Random(config.seed)
        self.trace: list[str] = []
        self.beacon_log: list[bytes] = []      # every beacon frame, for audits
        self.notice_log: list[tuple[str, str, bytes]] = []
        self.rotation_log: list[tuple[int, str, bytes, bytes]] = []
        self.connections = 0
        self.events_accepted = 0
        self.events_rejected = 0
        # Received frames that failed to decode or did not continue the
        # handshake they named; dropped, and not part of the metrics CSV.
        self.malformed_frames = 0
        self.in_flight: list[_Delivery | _Broadcast] = []
        self.now = 0.0
        self._min_seg_len = min(s.length for s in network.segments.values())

        specs = list(config.vehicles)
        specs += self._background_specs(config.vehicle_count, len(specs))
        self.nodes: dict[str, _Node] = {}
        for spec in specs:
            if spec.vehicle_id in self.nodes:
                raise ValueError(f"duplicate vehicle id {spec.vehicle_id!r}")
            self.nodes[spec.vehicle_id] = _Node(spec, self)

        equipped = assign_obus(self.nodes.keys(), config.obu_fraction, config.seed)
        for node_id in equipped:
            self.nodes[node_id].equipped = True

        self._advert_carriers: dict[str, list[AdvertEvent]] = {}
        for vehicle_id, advert in config.adverts:
            self._advert_carriers.setdefault(vehicle_id, []).append(advert)

        def tick_of(seconds: float) -> int:
            return int(round(seconds / config.tick))

        self._tick_of = tick_of
        self._park_index: dict[tuple[int, str], ParkDirective] = {}
        for park in config.parks:
            self._park_index[(tick_of(park.t_off), park.vehicle_id)] = park
        self._unpark_index = {(tick_of(p.t_on), p.vehicle_id): p for p in config.parks}

    # -- scenario construction -------------------------------------------

    def _background_specs(self, count: int, offset: int) -> list[VehicleSpec]:
        """Seeded placement and random-walk routes for the background fleet.

        All randomness is consumed here, before any protocol draw, so
        mobility is identical across OBU fractions at the same seed.
        """
        if count == 0:
            return []
        users = sorted(self.roster.users)
        if len(users) < count + offset:
            raise ValueError("roster must provide one user per vehicle")
        seg_ids = sorted(self.network.segments)
        specs = []
        for i in range(count):
            seg = self.network.segments[seg_ids[self.rng.randrange(len(seg_ids))]]
            direction = FORWARD if seg.oneway or self.rng.random() < 0.5 else REVERSE
            offset_m = self.rng.uniform(0.0, seg.length)
            speed = self.rng.uniform(0.5, 1.0) * seg.speed_limit
            route = self._random_walk(seg, direction)
            specs.append(VehicleSpec(
                vehicle_id=f"bg{i:05d}", user_id=users[offset + i],
                segment=seg.segment_id, offset=offset_m, direction=direction,
                speed=speed, route=route))
        return specs

    def _random_walk(self, seg, direction: str) -> list[str]:
        """Enough random turns to keep the vehicle moving all run long."""
        max_speed = seg.speed_limit / 3.6
        hops = int(self.config.duration * max_speed / self._min_seg_len) + 2
        route: list[str] = []
        here = seg.exit_junction(direction)
        prev = seg.segment_id
        for _ in range(hops):
            options = []
            for cand_id in self.network.segments_at(here):
                cand = self.network.segments[cand_id]
                if cand.oneway and cand.junction_a != here:
                    continue
                options.append(cand_id)
            if not options:
                break
            forwardish = [o for o in options if o != prev]
            pick = forwardish or options
            nxt = pick[self.rng.randrange(len(pick))]
            route.append(nxt)
            cand = self.network.segments[nxt]
            here = cand.junction_b if cand.junction_a == here else cand.junction_a
            prev = nxt
        return route

    # -- transport ---------------------------------------------------------

    def _unicast(self, node: _Node, peer: str, frame: bytes, tick: int) -> None:
        node.stats.sent += 1
        node.stats.generated += 1
        self.in_flight.append(_Delivery(node.id, peer, frame, tick))

    def _broadcast(self, node: _Node, frame: bytes, targets: list[str], tick: int) -> None:
        node.stats.broadcasted += 1
        node.stats.generated += len(targets)
        if targets:
            self.in_flight.append(_Broadcast(node.id, tuple(targets), frame, tick))

    def _seal_and_send(self, node: _Node, peer: str, tag: int, payload: bytes,
                       tick: int) -> None:
        session = node.sessions[peer]
        blob = crypto.seal(session.key.key, payload, self.rng.randbytes(16))
        self._unicast(node, peer, wire.encode_sealed(tag, blob), tick)

    # -- the main loop -----------------------------------------------------

    def run(self) -> NetworkStats:
        steps = int(round(self.config.duration / self.config.tick))
        for t in range(steps):
            self.now = t * self.config.tick
            self._script_step(t)
            self._mobility_step(t)
            positions, neighbors = self._adjacency()
            self._delivery_step(t, positions, neighbors, allow_sends=True)
            self._node_step(t, positions, neighbors)
        # Final drain: resolve traffic sent on the last tick; no new sends.
        self.now = steps * self.config.tick
        positions, neighbors = self._adjacency()
        self._delivery_step(steps, positions, neighbors, allow_sends=False)
        return collect_metrics(self)

    # -- phase 1: scripted ignition and journeys ---------------------------

    def _script_step(self, t: int) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            park = self._park_index.get((t, node_id))
            if park is not None and node.state.ignition:
                self._ignition_off(node, t)
            unpark = self._unpark_index.get((t, node_id))
            if unpark is not None and not node.state.ignition:
                self._ignition_on(node, t, announce=True)
            if (not node.state.ignition and unpark is None
                    and self._tick_of(node.spec.start) == t):
                self._ignition_on(node, t, announce=False)
        for find in self.config.finds:
            if self._tick_of(find.t) == t:
                self._handle_find(find, t)

    def _ignition_off(self, node: _Node, t: int) -> None:
        node.state.ignition = False
        node.state.speed = 0.0
        node.parking.ignition_off(self.now, node.position(self.network))

    def _ignition_on(self, node: _Node, t: int, announce: bool) -> None:
        node.state.ignition = True
        node.launched = should_launch(node.state.battery, self.config.battery_threshold)
        node.journey.reset()
        if not (node.equipped and node.launched):
            return
        if node.pseudonyms is None:
            node.pseudonyms = auth.PseudonymState(
                self.now, self.rng, self.config.min_pseudonym_lifetime,
                self.config.max_pseudonym_lifetime)
        if node.plan is None and node.spec.route:
            node.plan = self._build_plan(node)
        if announce:
            event = node.parking.ignition_on(self.now)
            if event is not None:
                event_id = _parking_event_id(event)
                node.parking_queue.append((event_id, event))
                node.store.add_parking(event_id, event)
                self._trace(t, node.id, "detect",
                            f"parking x={event.location.x:.3f} y={event.location.y:.3f}")

    def _build_plan(self, node: _Node) -> RoutePlan | None:
        """Route plan for a scripted vehicle, derived from its turn queue."""
        state = node.state
        seg = self.network.segments[state.segment_id]
        segments = [state.segment_id]
        directions = [state.direction]
        junctions = [seg.entry_junction(state.direction), seg.exit_junction(state.direction)]
        cost = seg.travel_time_base
        here = junctions[-1]
        for seg_id in node.spec.route:
            nxt = self.network.segments[seg_id]
            direction = FORWARD if nxt.junction_a == here else REVERSE
            segments.append(seg_id)
            directions.append(direction)
            here = nxt.exit_junction(direction)
            junctions.append(here)
            cost += nxt.travel_time_base
        return RoutePlan(self.network.junctions[junctions[0]],
                         self.network.junctions[junctions[-1]],
                         tuple(segments), tuple(directions), tuple(junctions),
                         cost, position_index=0)

    def _handle_find(self, find: FindDirective, t: int) -> None:
        node = self.nodes[find.vehicle_id]
        result = walking_route(GeoCoordinate(find.x, find.y), node.parking.parked,
                               self.network)
        if result is None:
            self._trace(t, node.id, "show", "find-route unavailable")
        else:
            _, length = result
            self._trace(t, node.id, "show", f"find-route length={length:.3f}")

    # -- phase 2: mobility ---------------------------------------------------

    def _zone_speed(self, node: _Node, t: int) -> float | None:
        for zone in self.config.zones:
            if (zone.segment == node.state.segment_id
                    and zone.direction == node.state.direction
                    and zone.t_start <= self.now < zone.t_end):
                return zone.speed
        return None

    def _mobility_step(self, t: int) -> None:
        dt = self.config.tick
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.state.ignition:
                continue
            zone = self._zone_speed(node, t)
            limit = self.network.segments[node.state.segment_id].speed_limit
            speed = zone if zone is not None else min(node.spec.speed, limit)
            directive = MobilityDirective(speed, node.turns)
            node.state = advance_vehicle(node.state, self.network, dt, directive)
            node.turns = directive.turns
            if node.plan is not None:
                self._advance_plan_index(node)

    def _advance_plan_index(self, node: _Node) -> None:
        plan = node.plan
        here = node.state.segment_id
        for i in range(max(plan.position_index, 0), len(plan.segment_sequence)):
            if plan.segment_sequence[i] == here:
                plan.position_index = i
                return

    # -- phase 3: radio adjacency ---------------------------------------------

    def _adjacency(self) -> tuple[dict[str, GeoCoordinate], dict[str, list[str]]]:
        """Every node's position, and each active node's active neighbours
        in id order.

        A cell list: active nodes are bucketed into square cells a hair
        wider than the radio range (see _CELL_MARGIN), so every pair in
        range shares a cell or sits in adjacent ones.  Each cell is tested
        against itself and the four cells ahead of it, which visits every
        adjacent pair of cells once.
        """
        radio_range = self.config.radio_range
        side = radio_range * (1.0 + _CELL_MARGIN)
        positions = {}
        neighbors: dict[str, list[str]] = {}
        cells: dict[tuple[int, int], list[tuple[str, float, float]]] = {}
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            p = positions[nid] = node.position(self.network)
            neighbors[nid] = []
            if node.active:
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
        return positions, neighbors

    # -- phase 4: deliveries ---------------------------------------------------

    def _delivery_step(self, t: int, positions, neighbors, allow_sends: bool) -> None:
        due = [d for d in self.in_flight if d.sent_at < t]
        self.in_flight = [d for d in self.in_flight if d.sent_at >= t]
        radio_range = self.config.radio_range
        for delivery in due:
            sender = self.nodes[delivery.sender]
            origin = positions[delivery.sender]
            handle = type(delivery) is _Delivery
            for peer in delivery.receivers:
                receiver = self.nodes[peer]
                here = positions[peer]
                if not (receiver.active and in_radio_range(here.x - origin.x,
                                                           here.y - origin.y, radio_range)):
                    sender.stats.lost += 1
                    continue
                receiver.stats.received += 1
                if handle:
                    self._handle_frame(receiver, delivery.sender, delivery.frame, t,
                                       neighbors, allow_sends)

    # -- phase 5: per-node protocol actions -------------------------------------

    def _node_step(self, t: int, positions, neighbors) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.active:
                continue
            self._rotate_if_due(node, t)
            self._beacon(node, t, neighbors[node_id])
            self._sweep_engines(node, t)
            self._schedule_auth(node, t, neighbors[node_id])
            self._gc_sessions(node, t, neighbors[node_id])
            self._detect(node, t)
            self._corroboration_inbox_sweep(node, t)
            self._corroboration_requests(node, t, neighbors[node_id])
            self._assembly(node, t, neighbors[node_id])
            self._parking_announcements(node, t, neighbors[node_id])
            self._advert_broadcast(node, t, neighbors[node_id])
            for peer in sorted(node.coop):
                node.coop[peer].close_expired(self.now)
            self._expire_stores(node, t)
            self._searcher_show(node, t)

    def _rotate_if_due(self, node: _Node, t: int) -> None:
        if not node.pseudonyms.due(self.now):
            return
        old = node.pseudonyms.current.value
        sessions = {peer: node.sessions[peer].key for peer in node.session_peers()}
        new, notices = auth.rotate_pseudonym(node.pseudonyms, self.now, self.rng, sessions)
        self.rotation_log.append((t, node.id, old, new.value))
        for peer, frame in notices:
            self.notice_log.append((node.id, peer, frame))
            self._unicast(node, peer, frame, t)

    def _beacon(self, node: _Node, t: int, targets: list[str]) -> None:
        _, frame = auth.emit_beacon(node.pseudonyms, t)
        self.beacon_log.append(frame)
        self._broadcast(node, frame, targets, t)

    def _sweep_engines(self, node: _Node, t: int) -> None:
        timeout = self.config.handshake_timeout
        for peer in [p for p, eng in sorted(node.initiators.items())
                     if self.now - eng.started_at > timeout]:
            del node.initiators[peer]
        for sid in [s for s, (_, eng) in sorted(node.responders.items())
                    if self.now - eng.started_at > timeout]:
            del node.responders[sid]

    def _schedule_auth(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        authenticated = set(node.sessions)
        in_progress = set(node.initiators)
        # Deterministic initiator rule: the smaller node id opens the
        # exchange; the larger one takes over after a full period so a
        # half-open pair cannot stay stuck.
        candidates = []
        for peer in sorted(neighbor_ids):
            node.scheduler.note_neighbor(peer, self.now)
            if node.id < peer or node.scheduler.grace_elapsed(peer, self.now):
                candidates.append(peer)
        for peer in node.scheduler.due_peers(candidates, authenticated, in_progress,
                                             self.now):
            node.scheduler.mark(peer, self.now)
            node.stats.auth_attempts += 1
            party = auth.Party(node.user, node.revocations, node.pseudonyms.current.value)
            engine = auth.AuthInitiator(party, self.rng, self.now,
                                        peer_user_id=self.nodes[peer].spec.user_id)
            node.initiators[peer] = engine
            self._unicast(node, peer, engine.start(), t)

    def _gc_sessions(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        present = set(neighbor_ids)
        for peer in node.session_peers():
            session = node.sessions[peer]
            # Staleness wins over presence so a node waking from a long
            # park drops the session its peer already gave up on.
            if self.now - session.last_seen > self.config.session_timeout:
                del node.sessions[peer]
            elif peer in present:
                session.last_seen = self.now

    def _detect(self, node: _Node, t: int) -> None:
        node.detector.push(self.now, node.state, self.network)
        obs = node.detector.detect(self.now, self.network, node.pseudonyms.current.value)
        if obs is None:
            return
        event_id = event_id_for(obs)
        if event_id in node.pending or event_id in node.seen_events:
            return
        own = sign_observation(obs, node.user.keys.private_key,
                               node.user.self_certificate,
                               node.pseudonyms.current.value)
        node.pending[event_id] = PendingObservation(
            obs, own, self.now, self.now + self.config.detection.cooldown)
        self._trace(t, node.id, "detect",
                    f"congestion road={obs.road_id} dir={obs.direction}")

    def _corroboration_requests(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        reachable = set(neighbor_ids)
        for event_id in sorted(node.pending):
            pending = node.pending[event_id]
            own = pending.signatures[0]
            payload = wire.encode_signed_observation(own)
            for peer in node.session_peers():
                if peer in pending.requested_peers or peer not in reachable:
                    continue
                pending.requested_peers.add(peer)
                self._seal_and_send(node, peer, wire.CORROBORATION_REQUEST, payload, t)
            if pending.requested_peers and event_id not in node.pending_announced:
                node.pending_announced.add(event_id)
                self._trace(t, node.id, "announce", f"congestion event={event_id.hex()[:8]}")

    def _assembly(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        rate = avg_users_per_minute(node.journey, self.now)
        for event_id in sorted(node.pending):
            pending = node.pending[event_id]
            if event_id in node.seen_events:
                # Someone already aggregated this congestion cell.
                del node.pending[event_id]
                continue
            if self.now > pending.expires_at:
                del node.pending[event_id]
                continue
            event = aggregation.assemble_aggregate(
                pending.observation, pending.signatures, rate,
                node.pseudonyms.current.value, self.now)
            if event is None:
                continue
            del node.pending[event_id]
            node.seen_events[event_id] = self.now + self.config.detection.congestion_ttl
            node.store.add_congestion(event_id, event, self.now)
            self._trace(t, node.id, "aggregate",
                        f"event={event_id.hex()[:8]} sigs={len(event.signatures)} "
                        f"threshold={event.threshold}")
            self._forward_event(node, wire.AGGREGATED_EVENT, wire.encode_aggregate(event),
                                event_id, t, neighbor_ids)

    def _parking_announcements(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        if not node.parking_queue:
            return
        reachable = [p for p in node.session_peers() if p in set(neighbor_ids)]
        if not reachable:
            return  # retained locally, retried next tick
        remaining = []
        for event_id, event in node.parking_queue:
            if not event.visible(self.now):
                continue
            payload = wire.encode_parking(event, event_id)
            node.seen_events[event_id] = event.announced_at + event.ttl
            for peer in reachable:
                if cooperation_gate(node.coop_record(peer)) == "serve":
                    node.coop_record(peer).hand_over(event_id, self.now + self.config.forward_window)
                    self._seal_and_send(node, peer, wire.PARKING_EVENT, payload, t)
            node.transmitted.add(event_id)
            self._trace(t, node.id, "announce", f"parking event={event_id.hex()[:8]}")
        node.parking_queue = remaining

    def _advert_broadcast(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        adverts = self._advert_carriers.get(node.id)
        if not adverts:
            return
        if self.now - node.last_advert_sent < self.config.advert_period:
            return
        reachable = [p for p in node.session_peers() if p in set(neighbor_ids)]
        if not reachable:
            return
        node.last_advert_sent = self.now
        for advert in adverts:
            if self.now >= advert.expiration:
                continue
            payload = wire.encode_advert(advert)
            for peer in reachable:
                self._seal_and_send(node, peer, wire.ADVERT, payload, t)

    def _expire_stores(self, node: _Node, t: int) -> None:
        for kind, event_id in node.store.expire(self.now):
            self._trace(t, node.id, "expire", f"{kind} event={event_id.hex()[:8]}")
        for event_id in [e for e, exp in node.seen_events.items() if self.now > exp]:
            del node.seen_events[event_id]
            node.transmitted.discard(event_id)

    def _searcher_show(self, node: _Node, t: int) -> None:
        if not node.spec.searcher:
            return
        for event_id, event in node.store.visible_parking(self.now):
            if event_id not in node.shown:
                node.shown.add(event_id)
                self._trace(t, node.id, "show",
                            f"parking event={event_id.hex()[:8]} "
                            f"x={event.location.x:.3f} y={event.location.y:.3f}")

    # -- frame handling -----------------------------------------------------

    def _handle_frame(self, node: _Node, sender: str, frame: bytes, t: int,
                      neighbors, allow_sends: bool) -> None:
        """Handle one received frame.  Any byte string is accepted: a frame
        that fails to decode, or names another handshake than the one in
        progress, is dropped and counted in `malformed_frames`.  Every
        handler decodes before it changes any state, so a dropped frame
        leaves none behind."""
        try:
            self._dispatch_frame(node, sender, frame, t, neighbors, allow_sends)
        except (wire.WireError, auth.SessionMismatchError):
            self.malformed_frames += 1

    def _dispatch_frame(self, node: _Node, sender: str, frame: bytes, t: int,
                        neighbors, allow_sends: bool) -> None:
        tag, body = wire.decode_frame(frame)
        if tag == wire.BEACON:
            return
        if tag == wire.AUTH_COMMIT:
            if not allow_sends:
                return
            session_id, _, _ = wire.decode_auth_commit(body)
            party = auth.Party(node.user, node.revocations, node.pseudonyms.current.value)
            engine = auth.AuthResponder(party, self.rng, self.now,
                                        peer_user_id=self.nodes[sender].spec.user_id)
            node.responders[session_id] = (sender, engine)
            self._unicast(node, sender, engine.on_commit(body), t)
            return
        if tag == wire.AUTH_CHALLENGE:
            engine = node.initiators.get(sender)
            if engine is None or not allow_sends:
                return
            self._unicast(node, sender, engine.on_challenge(body), t)
            return
        if tag == wire.AUTH_RESPONSE:
            session_id, from_initiator, _, _, _ = wire.decode_auth_response(body)
            if from_initiator:
                entry = node.responders.get(session_id)
                if entry is None or entry[0] != sender or not allow_sends:
                    return
                _, engine = entry
                self._unicast(node, sender, engine.on_response(body), t)
                return
            engine = node.initiators.get(sender)
            if engine is None:
                return
            result = engine.on_peer_response(body, self.now)
            if allow_sends:
                self._unicast(node, sender, result, t)
            del node.initiators[sender]
            if engine.outcome == auth.OUTCOME_ACCEPTED:
                self._establish_session(node, sender, engine.session_key, t, count_connection=True)
                if allow_sends:
                    self._send_revocations(node, sender, t)
            return
        if tag == wire.AUTH_RESULT:
            session_id, _ = wire.decode_auth_result(body)
            entry = node.responders.pop(session_id, None)
            if entry is None or entry[0] != sender:
                # A result can also land at a rejected initiator; just drop
                # the stale engine.
                engine = node.initiators.get(sender)
                if engine is not None and engine.session_id == session_id:
                    del node.initiators[sender]
                return
            _, engine = entry
            engine.on_result(body, self.now)
            if engine.outcome == auth.OUTCOME_ACCEPTED:
                self._establish_session(node, sender, engine.session_key, t, count_connection=False)
                if allow_sends:
                    self._send_revocations(node, sender, t)
            return
        if tag == wire.CHANGE_NOTICE:
            self._handle_change_notice(node, sender, body)
            return
        # Sealed event payloads require an established session with the sender.
        session = node.sessions.get(sender)
        if session is None:
            return
        try:
            payload = crypto.open_sealed(session.key.key, body)
        except (crypto.WrongKeyError, crypto.IntegrityError):
            return
        self._handle_payload(node, sender, tag, payload, t, neighbors, allow_sends)

    def _establish_session(self, node: _Node, peer: str, key: auth.SessionKey,
                           t: int, count_connection: bool) -> None:
        node.sessions[peer] = _Session(key, self.nodes[peer].spec.user_id, self.now)
        node.stats.auth_accepted += 1
        auth.record_journey_contact(node.journey, self.nodes[peer].spec.user_id, self.now)
        if count_connection:
            self.connections += 1

    def _send_revocations(self, node: _Node, peer: str, t: int) -> None:
        records = [(r.subject, r.misbehavior_count, r.revoked)
                   for r in node.revocations.records.values()]
        records.sort()
        self._seal_and_send(node, peer, wire.REVOCATION_SYNC,
                            wire.encode_revocations(records), t)

    def _handle_change_notice(self, node: _Node, sender: str, blob: bytes) -> None:
        session = node.sessions.get(sender)
        if session is None:
            return
        try:
            payload = crypto.open_sealed(session.key.key, blob)
        except (crypto.WrongKeyError, crypto.IntegrityError):
            return
        _, new_pseudonym = wire.decode_pseudonym_change(payload)
        session.key = auth.SessionKey(session.key.key, new_pseudonym,
                                      session.key.established_at)

    def _handle_payload(self, node: _Node, sender: str, tag: int, payload: bytes,
                        t: int, neighbors, allow_sends: bool) -> None:
        if tag == wire.REVOCATION_SYNC:
            for subject, count, revoked in wire.decode_revocations(payload):
                node.revocations.merge_record(subject, count, revoked)
            return
        if tag == wire.CORROBORATION_REQUEST:
            self._handle_corroboration_request(node, sender, payload, t, allow_sends)
            return
        if tag == wire.SIGNED_OBSERVATION:
            signed = wire.decode_signed_observation(payload)
            node.decrypted_events.append((t, tag, b""))
            event_id = event_id_for(signed.observation)
            pending = node.pending.get(event_id)
            if pending is not None:
                pending.add_signature(signed)
            return
        if tag == wire.AGGREGATED_EVENT:
            event = wire.decode_aggregate(payload)
            node.decrypted_events.append((t, tag, event.event_id))
            self._handle_aggregate(node, sender, event, t, neighbors, allow_sends)
            return
        if tag == wire.PARKING_EVENT:
            event_id, event = wire.decode_parking(payload)
            node.decrypted_events.append((t, tag, event_id))
            self._handle_parking(node, sender, event_id, event, t, neighbors, allow_sends)
            return
        if tag == wire.ADVERT:
            advert = wire.decode_advert(payload)
            advert_id = crypto.sha256(b"vk-advert", payload)[:16]
            node.decrypted_events.append((t, tag, advert_id))
            self._handle_advert(node, sender, advert_id, advert, t)
            return

    def _handle_corroboration_request(self, node: _Node, sender: str, payload: bytes,
                                      t: int, allow_sends: bool) -> None:
        signed = wire.decode_signed_observation(payload)
        node.decrypted_events.append((t, wire.CORROBORATION_REQUEST, b""))
        if not signed.verify():
            self._report(node, signed.signer_certificate.subject)
            return
        if node.revocations.is_revoked(signed.signer_certificate.subject):
            return
        if not self._answer_corroboration(node, sender, signed, t, allow_sends):
            # Not stuck (yet): keep the request while the jam could still
            # reach us, bounded by the promoter's pending window.
            node.corroboration_inbox[event_id_for(signed.observation)] = (
                sender, signed, self.now + self.config.detection.cooldown)

    def _answer_corroboration(self, node: _Node, sender: str, signed, t: int,
                              allow_sends: bool) -> bool:
        own_obs = None
        if node.detector.firing():
            own_obs = node.detector.detect_candidate(self.now, self.network,
                                                     node.pseudonyms.current.value)
        answer = aggregation.corroborate(signed.observation, own_obs,
                                         node.user.keys.private_key,
                                         node.user.self_certificate,
                                         node.pseudonyms.current.value)
        if answer is None:
            return False
        if not allow_sends or sender not in node.sessions:
            return True   # would have answered; do not requeue
        self._trace(t, node.id, "corroborate",
                    f"event={event_id_for(signed.observation).hex()[:8]}")
        self._seal_and_send(node, sender, wire.SIGNED_OBSERVATION,
                            wire.encode_signed_observation(answer), t)
        return True

    def _corroboration_inbox_sweep(self, node: _Node, t: int) -> None:
        for event_id in sorted(node.corroboration_inbox):
            sender, signed, expires = node.corroboration_inbox[event_id]
            if self.now > expires:
                del node.corroboration_inbox[event_id]
            elif self._answer_corroboration(node, sender, signed, t, allow_sends=True):
                del node.corroboration_inbox[event_id]

    def _handle_aggregate(self, node: _Node, sender: str, event, t: int,
                          neighbors, allow_sends: bool) -> None:
        event_id = event.event_id
        if event_id in node.seen_events:
            node.coop_record(sender).observed_forward(event_id)
            return
        accepted, reason = aggregation.verify_aggregate(event, node.revocations)
        if not accepted:
            self.events_rejected += 1
            if reason in ("bad-signature", "bad-certificate"):
                self._report(node, event.signatures[0].signer_certificate.subject)
            return
        decision = decide_relay(
            event, True, seen=False,
            own_firing=node.detector.firing() and self._same_cell(node, event),
            plan=node.plan)
        self.events_accepted += 1
        node.seen_events[event_id] = self.now + self.config.detection.congestion_ttl
        node.store.add_congestion(event_id, event, self.now)
        self._trace(t, node.id, "receive",
                    f"congestion event={event_id.hex()[:8]} sigs={len(event.signatures)}")
        detail = f"congestion event={event_id.hex()[:8]}"
        if decision.action == ACTION_CORROBORATE:
            self._trace(t, node.id, "corroborate", f"event={event_id.hex()[:8]} aggregate")
        elif decision.action == ACTION_REROUTE_FORWARD and node.plan is not None:
            congested = {(event.observation.road_id, event.observation.direction)}
            new_plan, changed, _ = recompute_route(node.plan, self.network, congested)
            if changed:
                node.plan = new_plan
                node.turns = self._turns_from_plan(node)
            detail += " on-route rerouted" if changed else " on-route"
        self._trace(t, node.id, "show", detail)
        if allow_sends and decision.action != ACTION_DROP:
            self._forward_event(node, wire.AGGREGATED_EVENT, wire.encode_aggregate(event),
                                event_id, t, neighbors[node.id])

    def _same_cell(self, node: _Node, event) -> bool:
        obs = event.observation
        return (node.state.segment_id == obs.road_id
                and node.state.direction == obs.direction
                and location_cell(node.position(self.network)) == location_cell(obs.location))

    def _turns_from_plan(self, node: _Node) -> list[str]:
        plan = node.plan
        return list(plan.segment_sequence[plan.position_index + 1:])

    def _handle_parking(self, node: _Node, sender: str, event_id: bytes, event, t: int,
                        neighbors, allow_sends: bool) -> None:
        if event_id in node.seen_events:
            node.coop_record(sender).observed_forward(event_id)
            return
        if not event.visible(self.now):
            return
        node.seen_events[event_id] = event.announced_at + event.ttl
        node.store.add_parking(event_id, event)
        self._trace(t, node.id, "receive", f"parking event={event_id.hex()[:8]}")
        if allow_sends:
            self._forward_event(node, wire.PARKING_EVENT,
                                wire.encode_parking(event, event_id), event_id, t,
                                neighbors[node.id])

    def _handle_advert(self, node: _Node, sender: str, advert_id: bytes, advert, t: int) -> None:
        if advert_id in node.shown:
            return
        try:
            shown = deliver_advert(advert, node.position(self.network), self.now,
                                   filters=None,
                                   signer_key=lambda uid: (
                                       self.roster.users[uid].keys.public_key
                                       if uid in self.roster.users else None))
        except ValueError:
            self._report(node, advert.certificate.subject)
            return
        node.store.add_advert(advert_id, advert)
        if shown:
            node.shown.add(advert_id)
            self._trace(t, node.id, "show", f"advert company={advert.company_name}")

    def _forward_event(self, node: _Node, tag: int, payload: bytes, event_id: bytes,
                       t: int, neighbor_ids: list[str]) -> None:
        """Relay once per event id, sealed per serving-eligible session."""
        if node.spec.freeride or event_id in node.transmitted:
            return
        node.transmitted.add(event_id)
        reachable = set(neighbor_ids)
        for peer in node.session_peers():
            if peer not in reachable:
                continue
            if cooperation_gate(node.coop_record(peer)) != "serve":
                continue
            node.coop_record(peer).hand_over(event_id, self.now + self.config.forward_window)
            self._seal_and_send(node, peer, tag, payload, t)

    # -- bookkeeping -----------------------------------------------------------

    def _report(self, node: _Node, subject: str) -> None:
        """Count misbehaviour against a roster user; a certificate naming
        anyone else has no ledger entry to devalue, so it is ignored."""
        if subject in node.revocations.known_users:
            report_misbehavior(node.revocations, subject)

    def _trace(self, t: int, node_id: str, kind: str, detail: str) -> None:
        self.trace.append(f"{self.now:g} {node_id} {kind} {detail}")


def _parking_event_id(event: ParkingEvent) -> bytes:
    return crypto.sha256(b"vk-park", struct.pack(">ddd", event.location.x,
                                                 event.location.y,
                                                 event.announced_at))[:16]


def collect_metrics(sim: Simulation) -> NetworkStats:
    """Final counters; checks the packet conservation law."""
    stats = NetworkStats(per_node={nid: sim.nodes[nid].stats for nid in sorted(sim.nodes)},
                         connections=sim.connections,
                         events_accepted=sim.events_accepted,
                         events_rejected=sim.events_rejected,
                         in_flight=sum(len(d.receivers) for d in sim.in_flight))
    totals = stats.totals()
    if totals.generated != totals.received + totals.lost + stats.in_flight:
        raise ConservationError(
            f"packet conservation violated: generated={totals.generated} "
            f"received={totals.received} lost={totals.lost} in_flight={stats.in_flight}")
    return stats


def run_simulation(config: SimConfig, network: RoadNetwork,
                   roster: Roster) -> tuple[NetworkStats, list[str]]:
    sim = Simulation(config, network, roster)
    stats = sim.run()
    return stats, sim.trace
