"""Deterministic discrete-event simulation of the protocol stack.

`Simulation` is the world: the clock, the script, mobility, radio
adjacency and delivery, the trace and the world's counters.  `_Node` is
one vehicle's protocol; its methods take the simulation as an argument
and keep no reference to it.  `SimConfig` is `vanetkit.config`'s.

`Simulation.step(t)` runs tick `t` as five phases in a fixed order: the
script (ignition, parking and the battery gate that decides which
equipped vehicles launch the stack), vehicle mobility, radio adjacency,
delivery of the frames sent on earlier ticks, and each active node's
protocol step.  It keeps the tick state, `tick`, `now`, `positions` and
`neighbors`, on the simulation, where every node reads it.  The radio
hands each unicast frame that arrives to `Simulation.receive(node,
sender, frame)`, the one receive path, which takes any byte string
without raising.  The transport is `radio`'s: it decides who hears whom,
holds the frames in flight and counts every packet.  `run()` steps every
tick, then closes the radio and drains it with one more delivery, so
packet conservation holds exactly:

    sum(generated) == sum(received) + sum(lost) + in_flight_at_end

A single seeded random stream drives the whole run in a fixed module
order (placement and routes first, then per-tick protocol draws in
sorted node order), which makes runs bit-reproducible per (config, seed).
"""

from __future__ import annotations

import math
import random
import struct
from collections.abc import Mapping, Sequence, Set as AbstractSet
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

from . import aggregation, auth, crypto, wire
from .aggregation import (JourneyContactLog, PendingObservation,
                          avg_users_per_minute, event_id_for, sign_observation)
from .config import CongestionZone, FindDirective, SimConfig, VehicleSpec, fleet_id
from .events import (AdvertEvent, CongestionDetector, EventStore, ParkingEvent,
                     ParkingMonitor, deliver_advert, location_cell, walking_route)
from .geomodel import (FORWARD, REVERSE, BATTERY_LEVELS, GeoCoordinate, MobilityDirective,
                       RoadNetwork, VehicleState, advance_vehicle)
from .radio import Radio
from .relay import (ACTION_CORROBORATE, ACTION_REROUTE_FORWARD, CooperationRecord,
                    RoutePlan, cooperation_gate, decide_relay, follow_route, recompute_route)
from .trust import RevocationStore, Roster, report_misbehavior

_BATTERY_ORDER = {level: i for i, level in enumerate(BATTERY_LEVELS)}

# The read-only empty values every node's unwritten containers share.
_EMPTY_MAP: Mapping = MappingProxyType({})
_EMPTY_SET: AbstractSet = frozenset()

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


@dataclass(slots=True)
class _Session:
    key: auth.SessionKey
    peer_user: str
    last_seen: float


class _Node:
    """One vehicle's protocol stack: its state, its protocol step (`step`)
    and its handling of a frame that arrives (`receive`).

    Most vehicles never fill most of their containers, so each of
    `sessions`, `pending`, `pending_announced`, `corroboration_inbox`,
    `parking_queue`, `coop` and `shown` starts as one read-only empty value
    that every node shares.  The container's one write method below gives
    the node a container of its own on the first write; readers and `del`
    see either kind alike."""

    __slots__ = ("spec", "id", "user", "state", "turns", "equipped", "launched",
                 "pseudonyms", "revocations", "sessions", "handshakes", "journey",
                 "detector", "parking", "store", "pending", "pending_announced",
                 "corroboration_inbox", "parking_queue", "coop", "plan", "stats", "shown",
                 "last_advert_sent")

    def __init__(self, spec: VehicleSpec, sim: Simulation):
        self.spec = spec
        self.id = spec.vehicle_id
        self.user = sim.roster.user(spec.user_id)
        seg = sim.network.segments[spec.segment]
        self.state = VehicleState(self.id, spec.segment, spec.direction,
                                  min(spec.offset, seg.length), 0.0,
                                  ignition=False, battery=spec.battery)
        self.turns: list[str] = list(spec.route)
        self.equipped = False
        self.launched = False          # battery gate outcome for the current journey
        self.pseudonyms: auth.PseudonymState | None = None
        self.revocations = RevocationStore(sim.known_users)
        self.sessions: Mapping[str, _Session] = _EMPTY_MAP
        self.handshakes = auth.Handshakes(self.id, self.user, self.revocations, sim.rng,
                                          sim.config.auth_period)
        self.journey = JourneyContactLog()
        self.detector = CongestionDetector(sim.config.detection, spec.has_gps)
        self.parking = ParkingMonitor(sim.config.detection.parking_ttl, spec.has_gps)
        self.store = EventStore()     # the events this node holds
        self.pending: Mapping[bytes, PendingObservation] = _EMPTY_MAP
        self.pending_announced: AbstractSet[bytes] = _EMPTY_SET
        # Corroboration requests we could not answer yet: our own detector
        # may start firing while the jam request is still fresh.
        self.corroboration_inbox: Mapping[bytes, tuple[str, object, float]] = _EMPTY_MAP
        self.parking_queue: Sequence[tuple[bytes, ParkingEvent]] = ()
        self.coop: Mapping[str, CooperationRecord] = _EMPTY_MAP
        self.plan: RoutePlan | None = None
        self.stats = NodeStats()
        self.shown: AbstractSet[bytes] = _EMPTY_SET
        self.last_advert_sent = -1e9

    @property
    def active(self) -> bool:
        return self.equipped and self.launched and self.state.ignition

    def session_neighbors(self, neighbor_ids: list[str]) -> list[str]:
        """Session peers in radio range, in id order."""
        present = set(neighbor_ids)
        return [p for p in sorted(self.sessions) if p in present]

    def coop_record(self, peer: str) -> CooperationRecord:
        record = self.coop.get(peer)
        if record is None:
            if self.coop is _EMPTY_MAP:
                self.coop = {}
            record = self.coop[peer] = CooperationRecord()
        return record

    def open_session(self, peer: str, session: _Session) -> None:
        if self.sessions is _EMPTY_MAP:
            self.sessions = {}
        self.sessions[peer] = session

    def add_pending(self, event_id: bytes, pending: PendingObservation) -> None:
        if self.pending is _EMPTY_MAP:
            self.pending = {}
        self.pending[event_id] = pending

    def mark_announced(self, event_id: bytes) -> None:
        if self.pending_announced is _EMPTY_SET:
            self.pending_announced = set()
        self.pending_announced.add(event_id)

    def hold_request(self, event_id: bytes, request: tuple[str, object, float]) -> None:
        if self.corroboration_inbox is _EMPTY_MAP:
            self.corroboration_inbox = {}
        self.corroboration_inbox[event_id] = request

    def queue_parking(self, event_id: bytes, event: ParkingEvent) -> None:
        if not self.parking_queue:
            self.parking_queue = []
        self.parking_queue.append((event_id, event))

    def mark_shown(self, item_id: bytes) -> None:
        if self.shown is _EMPTY_SET:
            self.shown = set()
        self.shown.add(item_id)

    # -- the protocol step -------------------------------------------------------

    def step(self, sim: Simulation, near: list[str]) -> None:
        """This active node's protocol actions on the current tick; `near`
        is its active radio neighbours in id order."""
        self._rotate_if_due(sim)
        self._beacon(sim, near)
        self._schedule_auth(sim, near)
        self._gc_sessions(sim, near)
        self._detect(sim)
        self._corroboration_inbox_sweep(sim)
        self._corroboration_requests(sim, near)
        self._assembly(sim)
        self._parking_announcements(sim, near)
        self._advert_broadcast(sim, near)
        for record in self.coop.values():
            record.close_expired(sim.now)
        self._expire_stores(sim)
        self._searcher_show(sim)

    def _rotate_if_due(self, sim: Simulation) -> None:
        if not self.pseudonyms.due(sim.now):
            return
        old = self.pseudonyms.current.value
        sessions = {peer: self.sessions[peer].key for peer in sorted(self.sessions)}
        new, notices = auth.rotate_pseudonym(self.pseudonyms, sim.now, sim.rng, sessions)
        if sim.audit is not None:
            sim.audit.rotations.append((sim.tick, self.id, old, new.value))
            sim.audit.notices.extend((self.id, peer, frame) for peer, frame in notices)
        for peer, frame in notices:
            sim.radio.unicast(self, peer, frame, sim.tick)

    def _beacon(self, sim: Simulation, targets: list[str]) -> None:
        frame = auth.emit_beacon(self.pseudonyms, sim.tick)
        if sim.audit is not None:
            sim.audit.beacons.append(frame)
        sim.radio.broadcast(self, frame, targets, sim.tick)

    def _schedule_auth(self, sim: Simulation, neighbor_ids: list[str]) -> None:
        """`neighbor_ids` is in id order, as `Simulation._adjacency` returns it."""
        self.handshakes.expire(sim.now)
        for peer in self.handshakes.due(neighbor_ids, self.sessions, sim.now):
            self.stats.auth_attempts += 1
            frame = self.handshakes.open(peer, sim.nodes[peer].spec.user_id,
                                         self.pseudonyms.current.value, sim.now)
            sim.radio.unicast(self, peer, frame, sim.tick)

    def _gc_sessions(self, sim: Simulation, neighbor_ids: list[str]) -> None:
        if not self.sessions:
            return
        stale = []
        for peer, session in self.sessions.items():
            # Staleness wins over presence so a node waking from a long
            # park drops the session its peer already gave up on.
            if sim.now - session.last_seen > SESSION_TIMEOUT:
                stale.append(peer)
            elif peer in neighbor_ids:
                session.last_seen = sim.now
        for peer in stale:
            del self.sessions[peer]

    def _detect(self, sim: Simulation) -> None:
        self.detector.push(sim.now, self.state, sim.network)
        obs = self.detector.detect(sim.now, sim.network, self.pseudonyms.current.value)
        if obs is None:
            return
        event_id = event_id_for(obs)
        if event_id in self.pending or self.store.holds(event_id):
            return
        own = sign_observation(obs, self.user.keys.private_key,
                               self.user.self_certificate,
                               self.pseudonyms.current.value)
        self.add_pending(event_id, PendingObservation(
            obs, own, sim.now, sim.now + sim.config.detection.cooldown))
        sim._trace(self.id, "detect", f"congestion road={obs.road_id} dir={obs.direction}")

    def _corroboration_requests(self, sim: Simulation, neighbor_ids: list[str]) -> None:
        if not self.pending:
            return
        reachable = self.session_neighbors(neighbor_ids)
        for event_id in sorted(self.pending):
            pending = self.pending[event_id]
            payload = None   # our own signed observation, encoded for the first send
            for peer in reachable:
                if peer in pending.requested_peers:
                    continue
                pending.requested_peers.add(peer)
                if payload is None:
                    payload = wire.encode_signed_observation(pending.signatures[0])
                self._seal_and_send(sim, peer, wire.CORROBORATION_REQUEST, payload)
            if pending.requested_peers and event_id not in self.pending_announced:
                self.mark_announced(event_id)
                sim._trace(self.id, "announce", f"congestion event={event_id.hex()[:8]}")

    def _assembly(self, sim: Simulation) -> None:
        rate = avg_users_per_minute(self.journey, sim.now)
        for event_id in sorted(self.pending):
            pending = self.pending[event_id]
            if self.store.holds(event_id) or sim.now > pending.expires_at:
                del self.pending[event_id]   # someone aggregated this cell already, or expired
                continue
            event = aggregation.assemble_aggregate(
                pending.observation, pending.signatures, rate,
                self.pseudonyms.current.value, sim.now)
            if event is None:
                continue
            del self.pending[event_id]
            self.store.add_congestion(event_id, event, sim.now)
            sim._trace(self.id, "aggregate",
                       f"event={event_id.hex()[:8]} sigs={len(event.signatures)} "
                       f"threshold={event.threshold}")
            self._forward_event(sim, wire.AGGREGATED_EVENT, wire.encode_aggregate(event),
                                event_id)

    def _parking_announcements(self, sim: Simulation, neighbor_ids: list[str]) -> None:
        if not self.parking_queue:
            return
        reachable = self.session_neighbors(neighbor_ids)
        if not reachable:
            return  # retained locally, retried next tick
        for event_id, event in self.parking_queue:
            if not event.visible(sim.now):
                continue
            self._serve(sim, reachable, wire.PARKING_EVENT,
                        wire.encode_parking(event, event_id), event_id)
            sim._trace(self.id, "announce", f"parking event={event_id.hex()[:8]}")
        self.parking_queue = ()

    def _advert_broadcast(self, sim: Simulation, neighbor_ids: list[str]) -> None:
        adverts = sim._advert_carriers.get(self.id)
        if not adverts or sim.now - self.last_advert_sent < ADVERT_PERIOD:
            return
        reachable = self.session_neighbors(neighbor_ids)
        if not reachable:
            return
        self.last_advert_sent = sim.now
        for advert in adverts:
            if sim.now >= advert.expiration:
                continue
            payload = wire.encode_advert(advert)
            for peer in reachable:
                self._seal_and_send(sim, peer, wire.ADVERT, payload)

    def _expire_stores(self, sim: Simulation) -> None:
        for kind, event_id in self.store.expire(sim.now):
            sim._trace(self.id, "expire", f"{kind} event={event_id.hex()[:8]}")

    def _searcher_show(self, sim: Simulation) -> None:
        if not self.spec.searcher:
            return
        for event_id, event in self.store.visible_parking(sim.now):
            if event_id not in self.shown:
                self.mark_shown(event_id)
                sim._trace(self.id, "show",
                           f"parking event={event_id.hex()[:8]} "
                           f"x={event.location.x:.3f} y={event.location.y:.3f}")

    # -- frame handling --------------------------------------------------------

    def receive(self, sim: Simulation, sender: str, frame: bytes) -> None:
        """Handle `frame` from `sender`; a frame to drop raises WireError or
        SessionMismatchError before any state changes."""
        tag, body = wire.decode_frame(frame)
        if tag == wire.BEACON:
            return
        if tag in auth.HANDSHAKE_TAGS:
            reply, finished = self.handshakes.receive(
                tag, body, sender, sim.nodes[sender].spec.user_id,
                self.pseudonyms.current.value, sim.now)
            if reply is not None:
                sim.radio.unicast(self, sender, reply, sim.tick)
            self._handshake_done(sim, sender, finished)
            return
        # Sealed payloads, the pseudonym change notice and every event,
        # require an established session with the sender.
        session = self.sessions.get(sender)
        if session is None:
            sim.sealed_drops[DROP_NO_SESSION] += 1
            return
        try:
            payload = crypto.open_sealed(session.key.key, body)
        except crypto.WrongKeyError:
            sim.sealed_drops[DROP_WRONG_KEY] += 1
            return
        except crypto.IntegrityError:
            sim.sealed_drops[DROP_INTEGRITY] += 1
            return
        self._handle_payload(sim, sender, tag, payload)

    def _handshake_done(self, sim: Simulation, peer: str, engine) -> None:
        """Open the session a finished handshake accepted, if one did, and
        send the peer our revocation records; the initiator's side counts
        the connection."""
        if engine is None or engine.outcome != auth.OUTCOME_ACCEPTED:
            return
        peer_user = sim.nodes[peer].spec.user_id
        self.open_session(peer, _Session(engine.session_key, peer_user, sim.now))
        self.stats.auth_accepted += 1
        self.journey.record(peer_user, sim.now)
        if isinstance(engine, auth.AuthInitiator):
            sim.connections += 1
        records = sorted((r.subject, r.misbehavior_count, r.revoked)
                         for r in self.revocations.records.values())
        self._seal_and_send(sim, peer, wire.REVOCATION_SYNC, wire.encode_revocations(records))

    def _handle_payload(self, sim: Simulation, sender: str, tag: int, payload: bytes) -> None:
        if tag == wire.CHANGE_NOTICE:
            _, new_pseudonym = wire.decode_pseudonym_change(payload)
            session = self.sessions[sender]
            session.key = replace(session.key, peer_pseudonym=new_pseudonym)
            return
        if tag == wire.REVOCATION_SYNC:
            for subject, count, revoked in wire.decode_revocations(payload):
                self.revocations.merge_record(subject, count, revoked)
            return
        if tag == wire.CORROBORATION_REQUEST:
            self._handle_corroboration_request(sim, sender, payload)
            return
        if tag == wire.SIGNED_OBSERVATION:
            signed = wire.decode_signed_observation(payload)
            self._audit_payload(sim, tag, b"")
            pending = self.pending.get(event_id_for(signed.observation))
            if pending is not None:
                pending.add_signature(signed)
            return
        if tag == wire.AGGREGATED_EVENT:
            event = wire.decode_aggregate(payload)
            self._audit_payload(sim, tag, event.event_id)
            self._handle_aggregate(sim, sender, event)
            return
        if tag == wire.PARKING_EVENT:
            event_id, event = wire.decode_parking(payload)
            self._audit_payload(sim, tag, event_id)
            self._handle_parking(sim, sender, event_id, event)
            return
        if tag == wire.ADVERT:
            advert = wire.decode_advert(payload)
            advert_id = crypto.sha256(b"vk-advert", payload)[:16]
            self._audit_payload(sim, tag, advert_id)
            self._handle_advert(sim, sender, advert_id, advert)
            return
        raise wire.WireError(f"no payload has tag {tag:#04x}")

    def _handle_corroboration_request(self, sim: Simulation, sender: str,
                                      payload: bytes) -> None:
        signed = wire.decode_signed_observation(payload)
        self._audit_payload(sim, wire.CORROBORATION_REQUEST, b"")
        if not signed.verify():
            self._report_sender(sender)
            return
        if self.revocations.is_revoked(signed.signer_certificate.subject):
            return
        if not self._answer_corroboration(sim, sender, signed):
            # Not stuck (yet): keep the request while the jam could still
            # reach us, bounded by the promoter's pending window.
            self.hold_request(event_id_for(signed.observation),
                              (sender, signed, sim.now + sim.config.detection.cooldown))

    def _answer_corroboration(self, sim: Simulation, sender: str, signed) -> bool:
        pseudonym = self.pseudonyms.current.value
        own_obs = self.detector.detect_candidate(sim.now, sim.network, pseudonym)
        answer = aggregation.corroborate(signed.observation, own_obs, self.user, pseudonym)
        if answer is None:
            return False
        if sim.radio.closed or sender not in self.sessions:
            return True   # would have answered; do not requeue
        sim._trace(self.id, "corroborate", f"event={event_id_for(signed.observation).hex()[:8]}")
        self._seal_and_send(sim, sender, wire.SIGNED_OBSERVATION,
                            wire.encode_signed_observation(answer))
        return True

    def _corroboration_inbox_sweep(self, sim: Simulation) -> None:
        for event_id in sorted(self.corroboration_inbox):
            sender, signed, expires = self.corroboration_inbox[event_id]
            if sim.now > expires or self._answer_corroboration(sim, sender, signed):
                del self.corroboration_inbox[event_id]

    def _handle_aggregate(self, sim: Simulation, sender: str, event) -> None:
        event_id = event.event_id
        if self.store.holds(event_id):
            self.coop_record(sender).observed_forward(event_id)
            return
        accepted, reason = aggregation.verify_aggregate(event, self.revocations)
        if not accepted:
            sim.events_rejected += 1
            if reason in ("bad-signature", "bad-certificate"):
                self._report_sender(sender)
            return
        action = decide_relay(
            event, self.detector.firing() and self._same_cell(sim.network, event), self.plan)
        sim.events_accepted += 1
        self.store.add_congestion(event_id, event, sim.now)
        sim._trace(self.id, "receive",
                   f"congestion event={event_id.hex()[:8]} sigs={len(event.signatures)}")
        detail = f"congestion event={event_id.hex()[:8]}"
        if action == ACTION_CORROBORATE:
            sim._trace(self.id, "corroborate", f"event={event_id.hex()[:8]} aggregate")
        elif action == ACTION_REROUTE_FORWARD:
            congested = {(event.observation.road_id, event.observation.direction)}
            new_plan, changed, _ = recompute_route(self.plan, sim.network, congested)
            if changed:
                self.plan = new_plan
                self.turns = list(new_plan.segment_sequence[new_plan.position_index + 1:])
            detail += " on-route rerouted" if changed else " on-route"
        sim._trace(self.id, "show", detail)
        self._forward_event(sim, wire.AGGREGATED_EVENT, wire.encode_aggregate(event), event_id)

    def _same_cell(self, network: RoadNetwork, event) -> bool:
        obs = event.observation
        return (self.state.segment_id == obs.road_id
                and self.state.direction == obs.direction
                and location_cell(self.state.position(network)) == location_cell(obs.location))

    def _handle_parking(self, sim: Simulation, sender: str, event_id: bytes, event) -> None:
        if self.store.holds(event_id):
            self.coop_record(sender).observed_forward(event_id)
            return
        if not event.visible(sim.now):
            return
        self.store.add_parking(event_id, event)
        sim._trace(self.id, "receive", f"parking event={event_id.hex()[:8]}")
        self._forward_event(sim, wire.PARKING_EVENT, wire.encode_parking(event, event_id),
                            event_id)

    def _handle_advert(self, sim: Simulation, sender: str, advert_id: bytes, advert) -> None:
        if advert_id in self.shown:
            return
        users = sim.roster.users
        try:
            shown = deliver_advert(advert, self.state.position(sim.network), sim.now,
                                   filters=None,
                                   signer_key=lambda uid: (
                                       users[uid].keys.public_key if uid in users else None))
        except ValueError:
            self._report_sender(sender)
            return
        self.store.add_advert(advert_id, advert)
        if shown:
            self.mark_shown(advert_id)
            sim._trace(self.id, "show", f"advert company={advert.company_name}")

    def _forward_event(self, sim: Simulation, tag: int, payload: bytes,
                       event_id: bytes) -> None:
        """Relay an event the node has just come to hold, sealed per
        serving-eligible session in radio range."""
        if not self.spec.freeride:
            self._serve(sim, self.session_neighbors(sim.neighbors[self.id]), tag, payload,
                        event_id)

    def _serve(self, sim: Simulation, peers: list[str], tag: int, payload: bytes,
               event_id: bytes) -> None:
        """Seal the event to each of `peers` that the cooperation gate lets
        the node serve, in order, and start the watchdog on its relaying."""
        for peer in peers:
            record = self.coop_record(peer)
            if cooperation_gate(record) == "serve":
                record.hand_over(event_id, sim.now + FORWARD_WINDOW)
                self._seal_and_send(sim, peer, tag, payload)

    def _seal_and_send(self, sim: Simulation, peer: str, tag: int, payload: bytes) -> None:
        if sim.radio.closed:
            return    # nothing more goes out, so nothing is sealed
        frame = auth.seal_frame(self.sessions[peer].key.key, tag, payload, sim.rng)
        sim.radio.unicast(self, peer, frame, sim.tick)

    def _report_sender(self, sender: str) -> None:
        """Count misbehaviour against the user of the authenticated session
        a bad payload came over.  Only the session key binds a sender; a
        certificate inside the payload names whoever the sender chose, so
        an aggregate led by an honest user's valid signature cannot frame
        that user."""
        report_misbehavior(self.revocations, self.sessions[sender].peer_user)

    def _audit_payload(self, sim: Simulation, tag: int, event_id: bytes) -> None:
        if sim.audit is not None:
            sim.audit.payloads.append((sim.tick, self.id, tag, event_id))


class Simulation:
    """One scenario run: the world that each node's protocol runs in."""

    def __init__(self, config: SimConfig, network: RoadNetwork, roster: Roster):
        problems = config.validate(network, roster)
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
        # The tick state: the tick index, its clock, positions and adjacency.
        self.tick = 0
        self.now = 0.0
        self.positions: dict[str, GeoCoordinate] = {}
        self.neighbors: dict[str, list[str]] = {}
        self._min_seg_len = min(s.length for s in network.segments.values())
        # (segment, direction) -> its zones in config order; the first active one applies
        self._zones: dict[tuple[str, str], list[CongestionZone]] = {}
        for zone in config.zones:
            self._zones.setdefault((zone.segment, zone.direction), []).append(zone)

        self.nodes = {spec.vehicle_id: _Node(spec, self)
                      for spec in [*config.vehicles, *self._background_specs()]}
        # Node ids never change, so the per-tick phases walk this one order.
        self._in_id_order = tuple(self.nodes[nid] for nid in sorted(self.nodes))

        equipped = assign_obus(self.nodes.keys(), config.obu_fraction, config.seed)
        for node_id in equipped:
            self.nodes[node_id].equipped = True

        self._advert_carriers: dict[str, list[AdvertEvent]] = {}
        for vehicle_id, advert in config.adverts:
            self._advert_carriers.setdefault(vehicle_id, []).append(advert)

        def tick_of(seconds: float) -> int:
            return int(round(seconds / config.tick))

        self._tick_of = tick_of
        self._park_index = {(tick_of(p.t_off), p.vehicle_id): p for p in config.parks}
        self._unpark_index = {(tick_of(p.t_on), p.vehicle_id): p for p in config.parks}

    @property
    def in_flight(self) -> list:
        """The radio's frames in flight."""
        return self.radio.in_flight

    # -- scenario construction -------------------------------------------

    def _background_specs(self) -> list[VehicleSpec]:
        """Seeded placement and random-walk routes for the background fleet.

        All randomness is consumed here, before any protocol draw, so
        mobility is identical across OBU fractions at the same seed.
        """
        seg_ids = sorted(self.network.segments)
        specs = []
        for i, user in enumerate(self.config.fleet_users(self.roster)):
            seg = self.network.segments[seg_ids[self.rng.randrange(len(seg_ids))]]
            direction = FORWARD if seg.oneway or self.rng.random() < 0.5 else REVERSE
            offset_m = self.rng.uniform(0.0, seg.length)
            speed = self.rng.uniform(0.5, 1.0) * seg.speed_limit
            route = self._random_walk(seg, direction)
            specs.append(VehicleSpec(
                vehicle_id=fleet_id(i), user_id=user, segment=seg.segment_id,
                offset=offset_m, direction=direction, speed=speed, route=route))
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
            self.step(t)
        # Final drain: resolve traffic sent on the last tick; no new sends.
        self.radio.close()
        self.tick, self.now = steps, steps * self.config.tick
        self.positions, self.neighbors = self._adjacency()
        self._delivery_step(steps)
        return collect_metrics(self)

    def step(self, t: int) -> None:
        """Run tick `t`: the script, mobility, this tick's adjacency, the
        delivery of every frame sent before `t`, and each active node's
        protocol step."""
        self.tick, self.now = t, t * self.config.tick
        self._script_step(t)
        self._mobility_step()
        self.positions, self.neighbors = self._adjacency()
        self._delivery_step(t)
        self._node_step()

    # -- phase 1: scripted ignition and journeys ---------------------------

    def _script_step(self, t: int) -> None:
        for node in self._in_id_order:
            park = self._park_index.get((t, node.id))
            if park is not None and node.state.ignition:
                self._ignition_off(node)
            unpark = self._unpark_index.get((t, node.id))
            if unpark is not None and not node.state.ignition:
                self._ignition_on(node, announce=True)
            if (not node.state.ignition and unpark is None
                    and self._tick_of(node.spec.start) == t):
                self._ignition_on(node, announce=False)
        for find in self.config.finds:
            if self._tick_of(find.t) == t:
                self._show_find_route(find)

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
                node.queue_parking(event_id, event)
                node.store.add_parking(event_id, event)
                self._trace(node.id, "detect",
                            f"parking x={event.location.x:.3f} y={event.location.y:.3f}")

    def _build_plan(self, node: _Node) -> RoutePlan:
        """Route plan for a scripted vehicle: its segment, then its turn queue."""
        state = node.state
        seg = self.network.segments[state.segment_id]
        entry = seg.entry_junction(state.direction)
        directions, junctions, cost = follow_route(
            self.network, seg.exit_junction(state.direction), node.spec.route,
            seg.travel_time_base)
        return RoutePlan(self.network.junctions[entry], self.network.junctions[junctions[-1]],
                         (state.segment_id, *node.spec.route), (state.direction, *directions),
                         (entry, *junctions), cost, position_index=0)

    def _show_find_route(self, find: FindDirective) -> None:
        node = self.nodes[find.vehicle_id]
        result = walking_route(GeoCoordinate(find.x, find.y), node.parking.parked,
                               self.network)
        detail = "unavailable" if result is None else f"length={result[1]:.3f}"
        self._trace(node.id, "show", f"find-route {detail}")

    # -- phase 2: mobility ---------------------------------------------------

    def _zone_speed(self, node: _Node) -> float | None:
        for zone in self._zones.get((node.state.segment_id, node.state.direction), ()):
            if zone.t_start <= self.now < zone.t_end:
                return zone.speed
        return None

    def _mobility_step(self) -> None:
        dt = self.config.tick
        for node in self._in_id_order:
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
        positions = {node.id: node.state.position(self.network) for node in self._in_id_order}
        return positions, self.radio.neighbors(self.nodes, positions)

    def _delivery_step(self, t: int) -> None:
        """Deliver every frame sent before tick `t`; `receive` takes each unicast."""
        self.radio.deliver(t, self.nodes, self.positions, self.receive)

    def receive(self, node: _Node, sender: str, frame: bytes) -> None:
        """The one receive path: `node`, a value of `nodes`, handles `frame`
        from the node `sender` on the current tick.  Any byte string is
        accepted: a frame that fails to decode, opens to a tag no payload
        has, or names another handshake than the one in progress, is
        dropped and counted in `malformed_frames`.  Every handler decodes
        before it changes any state, so a dropped frame leaves none behind."""
        try:
            node.receive(self, sender, frame)
        except (wire.WireError, auth.SessionMismatchError):
            self.malformed_frames += 1

    # -- phase 5: each active node's protocol step ----------------------------

    def _node_step(self) -> None:
        for node in self._in_id_order:
            if node.active:
                node.step(self, self.neighbors[node.id])

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
