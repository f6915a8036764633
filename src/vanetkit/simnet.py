"""Deterministic discrete-event simulation of the protocol stack.

Each tick runs five phases in a fixed order: the script (ignition,
parking and the battery gate that decides which equipped vehicles launch
the stack), vehicle mobility, radio adjacency, delivery of the frames
sent on earlier ticks, and each active node's protocol step.  The
transport is `radio`'s: it decides who hears whom, holds the frames in
flight and counts every packet.  After the last tick the radio is closed
and one more delivery drains it, so packet conservation holds exactly:

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
from dataclasses import dataclass, field, fields, replace

from . import aggregation, auth, crypto, wire
from .aggregation import (JourneyContactLog, PendingObservation,
                          avg_users_per_minute, event_id_for, sign_observation)
from .events import (AdvertEvent, CongestionDetector, DetectionConfig, EventStore,
                     ParkingEvent, ParkingMonitor, deliver_advert, location_cell,
                     walking_route)
from .geomodel import (FORWARD, REVERSE, BATTERY_LEVELS, GeoCoordinate,
                       MobilityDirective, RoadNetwork, VehicleState,
                       advance_vehicle)
from .radio import Radio
from .relay import (ACTION_CORROBORATE, ACTION_DROP, ACTION_REROUTE_FORWARD,
                    CooperationRecord, RoutePlan, cooperation_gate,
                    decide_relay, recompute_route)
from .trust import RevocationStore, Roster, report_misbehavior

_BATTERY_ORDER = {level: i for i, level in enumerate(BATTERY_LEVELS)}

# Why a sealed frame was dropped unopened (`Simulation.sealed_drops`).
DROP_NO_SESSION = "no-session"
DROP_WRONG_KEY = "wrong-key"
DROP_INTEGRITY = "integrity"

SESSION_TIMEOUT = 60.0    # drop a session after this long out of contact
FORWARD_WINDOW = 5.0      # watchdog deadline for observed relaying
ADVERT_PERIOD = 10.0      # seconds between a carrier's advert broadcasts


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


@dataclass(slots=True)
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
    auth_period: float = auth.DEFAULT_AUTH_PERIOD
    battery_threshold: str = "low"
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    min_pseudonym_lifetime: float = auth.DEFAULT_MIN_LIFETIME
    max_pseudonym_lifetime: float = auth.DEFAULT_MAX_LIFETIME
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


@dataclass(slots=True)
class NodeStats:
    generated: int = 0
    sent: int = 0
    broadcasted: int = 0
    received: int = 0
    lost: int = 0
    auth_attempts: int = 0
    auth_accepted: int = 0

    def as_row(self) -> list[int]:
        return [getattr(self, name) for name in NODE_COUNTERS]


NODE_COUNTERS = tuple(f.name for f in fields(NodeStats))   # the metrics CSV's columns


@dataclass
class NetworkStats:
    per_node: dict[str, NodeStats]
    connections: int = 0
    events_accepted: int = 0
    events_rejected: int = 0
    in_flight: int = 0

    def totals(self) -> NodeStats:
        rows = (stats.as_row() for stats in self.per_node.values())
        return NodeStats(*(sum(column) for column in zip(*rows)))

    def csv(self) -> str:
        lines = ["node," + ",".join(NODE_COUNTERS)]
        for node_id in sorted(self.per_node):
            row = self.per_node[node_id].as_row()
            lines.append(node_id + "," + ",".join(str(v) for v in row))
        lines.append("TOTAL," + ",".join(str(v) for v in self.totals().as_row()))
        return "\n".join(lines) + "\n"


@dataclass
class AuditLog:
    """Opt-in record of what went on the air, for privacy audits.  Attach
    one as `Simulation.audit` before `run()`; none is kept otherwise.

    `beacons` holds every beacon frame, `notices` every pseudonym change
    notice as (sender, peer, frame), `rotations` every pseudonym change as
    (tick, node, old pseudonym, new pseudonym), and `payloads` every
    opened event payload as (tick, receiver, tag, event id), the id empty
    for a signed observation or corroboration request.
    """
    beacons: list[bytes] = field(default_factory=list)
    notices: list[tuple[str, str, bytes]] = field(default_factory=list)
    rotations: list[tuple[int, str, bytes, bytes]] = field(default_factory=list)
    payloads: list[tuple[int, str, int, bytes]] = field(default_factory=list)


class _Session:
    __slots__ = ("key", "peer_user", "last_seen")

    def __init__(self, key: auth.SessionKey, peer_user: str, now: float):
        self.key = key
        self.peer_user = peer_user
        self.last_seen = now


class _Node:
    """Runtime state of one vehicle's protocol stack inside the simulator."""

    __slots__ = ("spec", "id", "user", "state", "turns", "equipped", "launched",
                 "pseudonyms", "revocations", "sessions", "handshakes", "journey",
                 "detector", "parking", "store", "pending", "pending_announced",
                 "corroboration_inbox", "parking_queue", "coop", "plan", "stats", "shown",
                 "last_advert_sent")

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
        self.handshakes = auth.Handshakes(self.id, self.user, self.revocations, sim.rng,
                                          sim.config.auth_period)
        self.journey = JourneyContactLog()
        self.detector = CongestionDetector(sim.config.detection, spec.has_gps)
        self.parking = ParkingMonitor(sim.config.detection.parking_ttl, spec.has_gps)
        self.store = EventStore()     # the events this node holds
        self.pending: dict[bytes, PendingObservation] = {}
        self.pending_announced: set[bytes] = set()
        # Corroboration requests we could not answer yet: our own detector
        # may start firing while the jam request is still fresh.
        self.corroboration_inbox: dict[bytes, tuple[str, object, float]] = {}
        self.parking_queue: list[tuple[bytes, ParkingEvent]] = []
        self.coop: dict[str, CooperationRecord] = {}
        self.plan: RoutePlan | None = None
        self.stats = NodeStats()
        self.shown: set[bytes] = set()
        self.last_advert_sent = -1e9

    @property
    def active(self) -> bool:
        return self.equipped and self.launched and self.state.ignition

    def session_neighbors(self, neighbor_ids: list[str]) -> list[str]:
        """Session peers in radio range, in id order."""
        present = set(neighbor_ids)
        return [p for p in sorted(self.sessions) if p in present]

    def coop_record(self, peer: str) -> CooperationRecord:
        return self.coop.setdefault(peer, CooperationRecord())


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
        self.audit: AuditLog | None = None
        self.connections = 0
        self.events_accepted = 0
        self.events_rejected = 0
        # Received frames that failed to decode or did not continue the
        # handshake they named; dropped, and not part of the metrics CSV.
        self.malformed_frames = 0
        # Sealed frames dropped unopened, by reason; not part of the CSV.
        self.sealed_drops = {DROP_NO_SESSION: 0, DROP_WRONG_KEY: 0, DROP_INTEGRITY: 0}
        self.radio = Radio(config.radio_range)
        self.now = 0.0
        self._min_seg_len = min(s.length for s in network.segments.values())
        # (segment, direction) -> its zones in config order; the first active one applies
        self._zones: dict[tuple[str, str], list[CongestionZone]] = {}
        for zone in config.zones:
            self._zones.setdefault((zone.segment, zone.direction), []).append(zone)

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

    @property
    def in_flight(self) -> list:
        """The radio's frames in flight."""
        return self.radio.in_flight

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
        exits = self.network.exits
        route: list[str] = []
        here = seg.exit_junction(direction)
        prev = seg.segment_id
        for _ in range(hops):
            options = exits[here]
            if not options:
                break
            pick = [o for o in options if o != prev] or list(options)
            nxt = pick[self.rng.randrange(len(pick))]
            route.append(nxt)
            here = options[nxt][1]
            prev = nxt
        return route

    # -- the main loop -----------------------------------------------------

    def run(self) -> NetworkStats:
        steps = int(round(self.config.duration / self.config.tick))
        for t in range(steps):
            self.now = t * self.config.tick
            self._script_step(t)
            self._mobility_step(t)
            positions, neighbors = self._adjacency()
            self._delivery_step(t, positions, neighbors)
            self._node_step(t, positions, neighbors)
        # Final drain: resolve traffic sent on the last tick; no new sends.
        self.now = steps * self.config.tick
        self.radio.close()
        positions, neighbors = self._adjacency()
        self._delivery_step(steps, positions, neighbors)
        return collect_metrics(self)

    # -- phase 1: scripted ignition and journeys ---------------------------

    def _script_step(self, t: int) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            park = self._park_index.get((t, node_id))
            if park is not None and node.state.ignition:
                self._ignition_off(node)
            unpark = self._unpark_index.get((t, node_id))
            if unpark is not None and not node.state.ignition:
                self._ignition_on(node, announce=True)
            if (not node.state.ignition and unpark is None
                    and self._tick_of(node.spec.start) == t):
                self._ignition_on(node, announce=False)
        for find in self.config.finds:
            if self._tick_of(find.t) == t:
                self._handle_find(find)

    def _ignition_off(self, node: _Node) -> None:
        node.state.ignition = False
        node.state.speed = 0.0
        node.parking.ignition_off(self.now, node.state.position(self.network))

    def _ignition_on(self, node: _Node, announce: bool) -> None:
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
                self._trace(node.id, "detect",
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
            direction, here = self.network.enter(here, seg_id)
            segments.append(seg_id)
            directions.append(direction)
            junctions.append(here)
            cost += self.network.segments[seg_id].travel_time_base
        return RoutePlan(self.network.junctions[junctions[0]],
                         self.network.junctions[junctions[-1]],
                         tuple(segments), tuple(directions), tuple(junctions),
                         cost, position_index=0)

    def _handle_find(self, find: FindDirective) -> None:
        node = self.nodes[find.vehicle_id]
        result = walking_route(GeoCoordinate(find.x, find.y), node.parking.parked,
                               self.network)
        if result is None:
            self._trace(node.id, "show", "find-route unavailable")
        else:
            _, length = result
            self._trace(node.id, "show", f"find-route length={length:.3f}")

    # -- phase 2: mobility ---------------------------------------------------

    def _zone_speed(self, node: _Node) -> float | None:
        for zone in self._zones.get((node.state.segment_id, node.state.direction), ()):
            if zone.t_start <= self.now < zone.t_end:
                return zone.speed
        return None

    def _mobility_step(self, t: int) -> None:
        dt = self.config.tick
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.state.ignition:
                continue
            zone = self._zone_speed(node)
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

    # -- phases 3 and 4: radio adjacency and deliveries ---------------------

    def _adjacency(self) -> tuple[dict[str, GeoCoordinate], dict[str, list[str]]]:
        """Every node's position, and each active node's active neighbours."""
        positions = {nid: self.nodes[nid].state.position(self.network)
                     for nid in sorted(self.nodes)}
        return positions, self.radio.neighbors(self.nodes, positions)

    def _delivery_step(self, t: int, positions, neighbors) -> None:
        """Deliver every frame sent before tick `t`, handling each unicast."""
        self.radio.deliver(t, self.nodes, positions, lambda node, sender, frame:
                           self._handle_frame(node, sender, frame, t, neighbors))

    # -- phase 5: per-node protocol actions -------------------------------------

    def _node_step(self, t: int, positions, neighbors) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.active:
                continue
            self._rotate_if_due(node, t)
            self._beacon(node, t, neighbors[node_id])
            self._schedule_auth(node, t, neighbors[node_id])
            self._gc_sessions(node, neighbors[node_id])
            self._detect(node)
            self._corroboration_inbox_sweep(node, t)
            self._corroboration_requests(node, t, neighbors[node_id])
            self._assembly(node, t, neighbors[node_id])
            self._parking_announcements(node, t, neighbors[node_id])
            self._advert_broadcast(node, t, neighbors[node_id])
            for record in node.coop.values():
                record.close_expired(self.now)
            self._expire_stores(node)
            self._searcher_show(node)

    def _rotate_if_due(self, node: _Node, t: int) -> None:
        if not node.pseudonyms.due(self.now):
            return
        old = node.pseudonyms.current.value
        sessions = {peer: node.sessions[peer].key for peer in sorted(node.sessions)}
        new, notices = auth.rotate_pseudonym(node.pseudonyms, self.now, self.rng, sessions)
        if self.audit is not None:
            self.audit.rotations.append((t, node.id, old, new.value))
            self.audit.notices.extend((node.id, peer, frame) for peer, frame in notices)
        for peer, frame in notices:
            self.radio.unicast(node, peer, frame, t)

    def _beacon(self, node: _Node, t: int, targets: list[str]) -> None:
        _, frame = auth.emit_beacon(node.pseudonyms, t)
        if self.audit is not None:
            self.audit.beacons.append(frame)
        self.radio.broadcast(node, frame, targets, t)

    def _schedule_auth(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        """`neighbor_ids` is in id order, as `_adjacency` returns it."""
        node.handshakes.expire(self.now)
        for peer in node.handshakes.due(neighbor_ids, node.sessions, self.now):
            node.stats.auth_attempts += 1
            frame = node.handshakes.open(peer, self.nodes[peer].spec.user_id,
                                         node.pseudonyms.current.value, self.now)
            self.radio.unicast(node, peer, frame, t)

    def _gc_sessions(self, node: _Node, neighbor_ids: list[str]) -> None:
        if not node.sessions:
            return
        stale = []
        for peer, session in node.sessions.items():
            # Staleness wins over presence so a node waking from a long
            # park drops the session its peer already gave up on.
            if self.now - session.last_seen > SESSION_TIMEOUT:
                stale.append(peer)
            elif peer in neighbor_ids:
                session.last_seen = self.now
        for peer in stale:
            del node.sessions[peer]

    def _detect(self, node: _Node) -> None:
        node.detector.push(self.now, node.state, self.network)
        obs = node.detector.detect(self.now, self.network, node.pseudonyms.current.value)
        if obs is None:
            return
        event_id = event_id_for(obs)
        if event_id in node.pending or node.store.holds(event_id):
            return
        own = sign_observation(obs, node.user.keys.private_key,
                               node.user.self_certificate,
                               node.pseudonyms.current.value)
        node.pending[event_id] = PendingObservation(
            obs, own, self.now, self.now + self.config.detection.cooldown)
        self._trace(node.id, "detect",
                    f"congestion road={obs.road_id} dir={obs.direction}")

    def _corroboration_requests(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        if not node.pending:
            return
        reachable = node.session_neighbors(neighbor_ids)
        for event_id in sorted(node.pending):
            pending = node.pending[event_id]
            payload = None   # our own signed observation, encoded for the first send
            for peer in reachable:
                if peer in pending.requested_peers:
                    continue
                pending.requested_peers.add(peer)
                if payload is None:
                    payload = wire.encode_signed_observation(pending.signatures[0])
                self._seal_and_send(node, peer, wire.CORROBORATION_REQUEST, payload, t)
            if pending.requested_peers and event_id not in node.pending_announced:
                node.pending_announced.add(event_id)
                self._trace(node.id, "announce", f"congestion event={event_id.hex()[:8]}")

    def _assembly(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        rate = avg_users_per_minute(node.journey, self.now)
        for event_id in sorted(node.pending):
            pending = node.pending[event_id]
            if node.store.holds(event_id):
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
            node.store.add_congestion(event_id, event, self.now)
            self._trace(node.id, "aggregate",
                        f"event={event_id.hex()[:8]} sigs={len(event.signatures)} "
                        f"threshold={event.threshold}")
            self._forward_event(node, wire.AGGREGATED_EVENT, wire.encode_aggregate(event),
                                event_id, t, neighbor_ids)

    def _parking_announcements(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        if not node.parking_queue:
            return
        reachable = node.session_neighbors(neighbor_ids)
        if not reachable:
            return  # retained locally, retried next tick
        for event_id, event in node.parking_queue:
            if not event.visible(self.now):
                continue
            payload = wire.encode_parking(event, event_id)
            for peer in reachable:
                if cooperation_gate(node.coop_record(peer)) == "serve":
                    node.coop_record(peer).hand_over(event_id, self.now + FORWARD_WINDOW)
                    self._seal_and_send(node, peer, wire.PARKING_EVENT, payload, t)
            self._trace(node.id, "announce", f"parking event={event_id.hex()[:8]}")
        node.parking_queue = []

    def _advert_broadcast(self, node: _Node, t: int, neighbor_ids: list[str]) -> None:
        adverts = self._advert_carriers.get(node.id)
        if not adverts:
            return
        if self.now - node.last_advert_sent < ADVERT_PERIOD:
            return
        reachable = node.session_neighbors(neighbor_ids)
        if not reachable:
            return
        node.last_advert_sent = self.now
        for advert in adverts:
            if self.now >= advert.expiration:
                continue
            payload = wire.encode_advert(advert)
            for peer in reachable:
                self._seal_and_send(node, peer, wire.ADVERT, payload, t)

    def _expire_stores(self, node: _Node) -> None:
        for kind, event_id in node.store.expire(self.now):
            self._trace(node.id, "expire", f"{kind} event={event_id.hex()[:8]}")

    def _searcher_show(self, node: _Node) -> None:
        if not node.spec.searcher:
            return
        for event_id, event in node.store.visible_parking(self.now):
            if event_id not in node.shown:
                node.shown.add(event_id)
                self._trace(node.id, "show",
                            f"parking event={event_id.hex()[:8]} "
                            f"x={event.location.x:.3f} y={event.location.y:.3f}")

    # -- frame handling -----------------------------------------------------

    def _handle_frame(self, node: _Node, sender: str, frame: bytes, t: int, neighbors) -> None:
        """Handle one received frame.  Any byte string is accepted: a frame
        that fails to decode, or names another handshake than the one in
        progress, is dropped and counted in `malformed_frames`.  Every
        handler decodes before it changes any state, so a dropped frame
        leaves none behind."""
        try:
            self._dispatch_frame(node, sender, frame, t, neighbors)
        except (wire.WireError, auth.SessionMismatchError):
            self.malformed_frames += 1

    def _dispatch_frame(self, node: _Node, sender: str, frame: bytes, t: int, neighbors) -> None:
        tag, body = wire.decode_frame(frame)
        if tag == wire.BEACON:
            return
        if tag in auth.HANDSHAKE_TAGS:
            reply, finished = node.handshakes.receive(
                tag, body, sender, self.nodes[sender].spec.user_id,
                node.pseudonyms.current.value, self.now)
            if reply is not None:
                self.radio.unicast(node, sender, reply, t)
            self._handshake_done(node, sender, finished, t)
            return
        # Sealed payloads, the pseudonym change notice and every event,
        # require an established session with the sender.
        session = node.sessions.get(sender)
        if session is None:
            self.sealed_drops[DROP_NO_SESSION] += 1
            return
        try:
            payload = crypto.open_sealed(session.key.key, body)
        except crypto.WrongKeyError:
            self.sealed_drops[DROP_WRONG_KEY] += 1
            return
        except crypto.IntegrityError:
            self.sealed_drops[DROP_INTEGRITY] += 1
            return
        self._handle_payload(node, sender, tag, payload, t, neighbors)

    def _handshake_done(self, node: _Node, peer: str, engine, t: int) -> None:
        """Open the session a finished handshake accepted, if one did, and
        send the peer our revocation records; the initiator's side counts
        the connection."""
        if engine is None or engine.outcome != auth.OUTCOME_ACCEPTED:
            return
        peer_user = self.nodes[peer].spec.user_id
        node.sessions[peer] = _Session(engine.session_key, peer_user, self.now)
        node.stats.auth_accepted += 1
        node.journey.record(peer_user, self.now)
        if isinstance(engine, auth.AuthInitiator):
            self.connections += 1
        records = sorted((r.subject, r.misbehavior_count, r.revoked)
                         for r in node.revocations.records.values())
        self._seal_and_send(node, peer, wire.REVOCATION_SYNC,
                            wire.encode_revocations(records), t)

    def _handle_payload(self, node: _Node, sender: str, tag: int, payload: bytes,
                        t: int, neighbors) -> None:
        if tag == wire.CHANGE_NOTICE:
            _, new_pseudonym = wire.decode_pseudonym_change(payload)
            session = node.sessions[sender]
            session.key = replace(session.key, peer_pseudonym=new_pseudonym)
            return
        if tag == wire.REVOCATION_SYNC:
            for subject, count, revoked in wire.decode_revocations(payload):
                node.revocations.merge_record(subject, count, revoked)
            return
        if tag == wire.CORROBORATION_REQUEST:
            self._handle_corroboration_request(node, sender, payload, t)
            return
        if tag == wire.SIGNED_OBSERVATION:
            signed = wire.decode_signed_observation(payload)
            self._audit_payload(t, node, tag, b"")
            event_id = event_id_for(signed.observation)
            pending = node.pending.get(event_id)
            if pending is not None:
                pending.add_signature(signed)
            return
        if tag == wire.AGGREGATED_EVENT:
            event = wire.decode_aggregate(payload)
            self._audit_payload(t, node, tag, event.event_id)
            self._handle_aggregate(node, sender, event, t, neighbors)
            return
        if tag == wire.PARKING_EVENT:
            event_id, event = wire.decode_parking(payload)
            self._audit_payload(t, node, tag, event_id)
            self._handle_parking(node, sender, event_id, event, t, neighbors)
            return
        if tag == wire.ADVERT:
            advert = wire.decode_advert(payload)
            advert_id = crypto.sha256(b"vk-advert", payload)[:16]
            self._audit_payload(t, node, tag, advert_id)
            self._handle_advert(node, sender, advert_id, advert)
            return

    def _handle_corroboration_request(self, node: _Node, sender: str, payload: bytes,
                                      t: int) -> None:
        signed = wire.decode_signed_observation(payload)
        self._audit_payload(t, node, wire.CORROBORATION_REQUEST, b"")
        if not signed.verify():
            self._report_sender(node, sender)
            return
        if node.revocations.is_revoked(signed.signer_certificate.subject):
            return
        if not self._answer_corroboration(node, sender, signed, t):
            # Not stuck (yet): keep the request while the jam could still
            # reach us, bounded by the promoter's pending window.
            node.corroboration_inbox[event_id_for(signed.observation)] = (
                sender, signed, self.now + self.config.detection.cooldown)

    def _answer_corroboration(self, node: _Node, sender: str, signed, t: int) -> bool:
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
        if self.radio.closed or sender not in node.sessions:
            return True   # would have answered; do not requeue
        self._trace(node.id, "corroborate",
                    f"event={event_id_for(signed.observation).hex()[:8]}")
        self._seal_and_send(node, sender, wire.SIGNED_OBSERVATION,
                            wire.encode_signed_observation(answer), t)
        return True

    def _corroboration_inbox_sweep(self, node: _Node, t: int) -> None:
        for event_id in sorted(node.corroboration_inbox):
            sender, signed, expires = node.corroboration_inbox[event_id]
            if self.now > expires:
                del node.corroboration_inbox[event_id]
            elif self._answer_corroboration(node, sender, signed, t):
                del node.corroboration_inbox[event_id]

    def _handle_aggregate(self, node: _Node, sender: str, event, t: int, neighbors) -> None:
        event_id = event.event_id
        if node.store.holds(event_id):
            node.coop_record(sender).observed_forward(event_id)
            return
        accepted, reason = aggregation.verify_aggregate(event, node.revocations)
        if not accepted:
            self.events_rejected += 1
            if reason in ("bad-signature", "bad-certificate"):
                self._report_sender(node, sender)
            return
        decision = decide_relay(
            event, True, seen=False,
            own_firing=node.detector.firing() and self._same_cell(node, event),
            plan=node.plan)
        self.events_accepted += 1
        node.store.add_congestion(event_id, event, self.now)
        self._trace(node.id, "receive",
                    f"congestion event={event_id.hex()[:8]} sigs={len(event.signatures)}")
        detail = f"congestion event={event_id.hex()[:8]}"
        if decision.action == ACTION_CORROBORATE:
            self._trace(node.id, "corroborate", f"event={event_id.hex()[:8]} aggregate")
        elif decision.action == ACTION_REROUTE_FORWARD and node.plan is not None:
            congested = {(event.observation.road_id, event.observation.direction)}
            new_plan, changed, _ = recompute_route(node.plan, self.network, congested)
            if changed:
                node.plan = new_plan
                node.turns = list(new_plan.segment_sequence[new_plan.position_index + 1:])
            detail += " on-route rerouted" if changed else " on-route"
        self._trace(node.id, "show", detail)
        if decision.action != ACTION_DROP:
            self._forward_event(node, wire.AGGREGATED_EVENT, wire.encode_aggregate(event),
                                event_id, t, neighbors[node.id])

    def _same_cell(self, node: _Node, event) -> bool:
        obs = event.observation
        return (node.state.segment_id == obs.road_id
                and node.state.direction == obs.direction
                and location_cell(node.state.position(self.network))
                == location_cell(obs.location))

    def _handle_parking(self, node: _Node, sender: str, event_id: bytes, event, t: int,
                        neighbors) -> None:
        if node.store.holds(event_id):
            node.coop_record(sender).observed_forward(event_id)
            return
        if not event.visible(self.now):
            return
        node.store.add_parking(event_id, event)
        self._trace(node.id, "receive", f"parking event={event_id.hex()[:8]}")
        self._forward_event(node, wire.PARKING_EVENT, wire.encode_parking(event, event_id),
                            event_id, t, neighbors[node.id])

    def _handle_advert(self, node: _Node, sender: str, advert_id: bytes, advert) -> None:
        if advert_id in node.shown:
            return
        try:
            shown = deliver_advert(advert, node.state.position(self.network), self.now,
                                   filters=None,
                                   signer_key=lambda uid: (
                                       self.roster.users[uid].keys.public_key
                                       if uid in self.roster.users else None))
        except ValueError:
            self._report_sender(node, sender)
            return
        node.store.add_advert(advert_id, advert)
        if shown:
            node.shown.add(advert_id)
            self._trace(node.id, "show", f"advert company={advert.company_name}")

    def _forward_event(self, node: _Node, tag: int, payload: bytes, event_id: bytes,
                       t: int, neighbor_ids: list[str]) -> None:
        """Relay an event the node has just come to hold, sealed per
        serving-eligible session."""
        if node.spec.freeride:
            return
        for peer in node.session_neighbors(neighbor_ids):
            if cooperation_gate(node.coop_record(peer)) != "serve":
                continue
            node.coop_record(peer).hand_over(event_id, self.now + FORWARD_WINDOW)
            self._seal_and_send(node, peer, tag, payload, t)

    def _seal_and_send(self, node: _Node, peer: str, tag: int, payload: bytes,
                       tick: int) -> None:
        if self.radio.closed:
            return    # nothing more goes out, so nothing is sealed
        session = node.sessions[peer]
        blob = crypto.seal(session.key.key, payload, self.rng.randbytes(16))
        self.radio.unicast(node, peer, wire.encode_frame(tag, blob), tick)

    # -- bookkeeping -----------------------------------------------------------

    def _report_sender(self, node: _Node, sender: str) -> None:
        """Count misbehaviour against the user of the authenticated session
        a bad payload came over.  Only the session key binds a sender; a
        certificate inside the payload names whoever the sender chose, so
        an aggregate led by an honest user's valid signature cannot frame
        that user."""
        report_misbehavior(node.revocations, node.sessions[sender].peer_user)

    def _audit_payload(self, t: int, node: _Node, tag: int, event_id: bytes) -> None:
        if self.audit is not None:
            self.audit.payloads.append((t, node.id, tag, event_id))

    def _trace(self, node_id: str, kind: str, detail: str) -> None:
        self.trace.append(f"{self.now:g} {node_id} {kind} {detail}")


def _parking_event_id(event: ParkingEvent) -> bytes:
    return crypto.sha256(b"vk-park", struct.pack(">ddd", event.location.x,
                                                 event.location.y,
                                                 event.announced_at))[:16]


def collect_metrics(sim: Simulation) -> NetworkStats:
    """Final counters; the radio checks the packet conservation law."""
    stats = NetworkStats(per_node={nid: sim.nodes[nid].stats for nid in sorted(sim.nodes)},
                         connections=sim.connections,
                         events_accepted=sim.events_accepted,
                         events_rejected=sim.events_rejected)
    stats.in_flight = sim.radio.check_conservation(stats.totals())
    return stats


def run_simulation(config: SimConfig, network: RoadNetwork,
                   roster: Roster) -> tuple[NetworkStats, list[str]]:
    sim = Simulation(config, network, roster)
    stats = sim.run()
    return stats, sim.trace
