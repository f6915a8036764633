"""Incident detection and the node-local event store.

Congestion is flagged when a vehicle sustains an abnormally low speed
(below a configurable fraction of the segment limit) for a full window;
parking vacancies are announced when a previously parked vehicle starts
up with a GPS fix.  Stored events expire on short TTLs and the store is
pruned every tick.

Two congestion reports describe the same event when they share a road,
a direction and a location cell; `CELL_SIZE` is the one cell size, and
`location_cell` the one cell function, that signing, deduplication and
the wire range checks use.

`evaluate_window` states the congestion predicate over a whole window;
`CongestionDetector.firing` gives the same answer in O(1) by judging
each sample once, when it stops being the newest.  The newest sample is
always read live, because the simulator changes the ignition and speed
of a vehicle's current state in place when it parks or starts.  Older
samples are not kept: the detector holds their times, and a state is
freed as soon as a newer one is pushed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

from .geomodel import (GeoCoordinate, RoadNetwork, VehicleState, distance,
                       path_between_points)
from .trust import Certificate


CONGESTION_TTL = 900.0   # seconds an accepted congestion event is retained
PARKING_TTL = 60.0       # seconds a vacancy announcement stays visible, by default
_EMPTY: Mapping = MappingProxyType({})   # every map a detector or store has not written yet


@dataclass(frozen=True)
class DetectionConfig:
    speed_fraction: float = 0.4    # abnormal = slower than this fraction of the limit
    sustain_window: float = 60.0   # seconds the abnormal speed must hold
    min_limit: float = 30.0        # km/h; slower roads never trigger detection
    cooldown: float = 300.0        # seconds between observations per road+direction
    parking_ttl: float = PARKING_TTL

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 < self.speed_fraction < 1.0:
            problems.append("speed_fraction must be in (0, 1)")
        if not self.sustain_window > 0:
            problems.append("sustain_window must be positive")
        for name in ("min_limit", "cooldown", "parking_ttl"):
            if not 0 <= getattr(self, name) < math.inf:
                problems.append(f"{name} must be finite and at least 0")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class CongestionObservation:
    road_id: str
    direction: str
    location: GeoCoordinate
    detected_at: float
    observer_pseudonym: bytes


@dataclass(frozen=True)
class ParkingEvent:
    location: GeoCoordinate
    announced_at: float
    ttl: float = PARKING_TTL

    def visible(self, now: float) -> bool:
        # Inclusive boundary: still visible at exactly announced_at + ttl.
        return now <= self.announced_at + self.ttl


@dataclass(frozen=True)
class ParkedLocation:
    location: GeoCoordinate
    parked_at: float


@dataclass(frozen=True)
class AdvertEvent:
    company_name: str
    message: str                  # capped at 140 characters
    location: GeoCoordinate
    area_radius: float
    expiration: float
    logo_ref: str
    certificate: Certificate

    def __post_init__(self) -> None:
        if len(self.message) > 140:
            raise ValueError("advert message exceeds 140 characters")


CELL_SIZE = 200.0   # meters; same road+direction+cell = same event


def location_cell(coord: GeoCoordinate) -> tuple[int, int]:
    return (math.floor(coord.x / CELL_SIZE), math.floor(coord.y / CELL_SIZE))


def evaluate_window(window: list[tuple[float, VehicleState, float]],
                    config: DetectionConfig) -> bool:
    """True when the samples satisfy the sustained-low-speed predicate.

    Each sample is (time, state, segment speed limit).  All samples must
    share the current road and direction, span at least the sustain
    window, keep the ignition on, and every speed must stay below the
    configured fraction of a limit that itself is at least min_limit.
    """
    if len(window) < 2:
        return False
    t0 = window[0][0]
    t1, last, limit = window[-1]
    if t1 - t0 < config.sustain_window:
        return False
    if limit < config.min_limit:
        return False
    road, direction = last.segment_id, last.direction
    for _, state, sample_limit in window:
        if not state.ignition:
            return False
        if state.segment_id != road or state.direction != direction:
            return False
        if state.speed >= config.speed_fraction * sample_limit:
            return False
    return True


class CongestionDetector:
    """Per-node sliding window over recent samples, with emission cooldown.

    `firing()` equals `evaluate_window` over the window of samples pushed
    since the last change of road or direction, cut to the shortest
    suffix still spanning the sustain window, in O(1).  A sample that is
    no longer the newest never changes again (the simulator pushes a
    fresh state every tick and changes no road or direction in place), so
    `push` judges it once, when the next sample arrives, and keeps the
    push number of the newest one that breaks the predicate.  After that
    only its time is needed, so the detector keeps the window's sample
    times and the newest `(state, limit)`.  The newest sample is read
    live: the simulator turns the ignition off and on, and zeroes the
    speed, in place on the state it last pushed.
    """

    __slots__ = ("config", "has_gps", "times", "newest", "last_emitted", "_pushed",
                 "_broken_at")

    def __init__(self, config: DetectionConfig, has_gps: bool = True):
        self.config = config
        self.has_gps = has_gps
        self.times: list[float] = []          # the window's sample times, oldest first
        self.newest: tuple[VehicleState, float] | None = None   # (state, segment limit)
        # made on the first emission; until then the shared read-only empty map
        self.last_emitted: Mapping[tuple[str, str], float] = _EMPTY
        self._pushed = 0         # samples pushed so far
        self._broken_at = -1     # push number of the newest breaking non-newest sample

    def push(self, now: float, state: VehicleState, network: RoadNetwork) -> None:
        if not self.has_gps:
            return
        limit = network.segments[state.segment_id].speed_limit
        times = self.times
        if self.newest is not None:
            prev, prev_limit = self.newest
            if prev.segment_id != state.segment_id or prev.direction != state.direction:
                times.clear()
            elif (not prev.ignition
                  or prev.speed >= self.config.speed_fraction * prev_limit):
                self._broken_at = self._pushed - 1
        times.append(now)
        self.newest = (state, limit)
        self._pushed += 1
        # Keep the shortest suffix still spanning the sustain window.
        while len(times) >= 2 and times[1] <= now - self.config.sustain_window:
            times.pop(0)

    def firing(self) -> bool:
        """Sustained-low-speed predicate holds right now, cooldown aside."""
        times = self.times
        if len(times) < 2:
            return False
        last, limit = self.newest
        config = self.config
        if times[-1] - times[0] < config.sustain_window or limit < config.min_limit:
            return False
        if self._broken_at >= self._pushed - len(times):
            return False   # a breaking sample is still inside the window
        return last.ignition and not last.speed >= config.speed_fraction * limit

    def detect_candidate(self, now: float, network: RoadNetwork,
                         observer_pseudonym: bytes) -> CongestionObservation | None:
        """Current observation candidate, ignoring the emission cooldown."""
        if not self.firing():
            return None
        state, _ = self.newest
        return CongestionObservation(state.segment_id, state.direction,
                                     state.position(network), now, observer_pseudonym)

    def detect(self, now: float, network: RoadNetwork,
               observer_pseudonym: bytes) -> CongestionObservation | None:
        """Emit at most one observation per road+direction per cooldown."""
        candidate = self.detect_candidate(now, network, observer_pseudonym)
        if candidate is None:
            return None
        key = (candidate.road_id, candidate.direction)
        last = self.last_emitted.get(key)
        if last is not None and now - last < self.config.cooldown:
            return None
        if self.last_emitted is _EMPTY:
            self.last_emitted = {}
        self.last_emitted[key] = now
        return candidate


class ParkingMonitor:
    """Tracks the parked location and raises vacancy events on startup."""

    __slots__ = ("ttl", "has_gps", "parked")

    def __init__(self, ttl: float = PARKING_TTL, has_gps: bool = True):
        self.ttl = ttl
        self.has_gps = has_gps
        self.parked: ParkedLocation | None = None

    def ignition_off(self, now: float, position: GeoCoordinate) -> ParkedLocation | None:
        if not self.has_gps:
            return None  # no fix: nothing stored, find-car will report unavailable
        self.parked = ParkedLocation(position, now)
        return self.parked

    def ignition_on(self, now: float) -> ParkingEvent | None:
        if self.parked is None or not self.has_gps:
            return None
        return ParkingEvent(self.parked.location, now, self.ttl)


class EventStore:
    """Node-local store of events, pruned by TTL: the one record of which
    congestion and parking events a node holds.  Each map starts as the
    shared read-only empty one; its `add_*` method, the one writer, makes
    the store its own on the first event of that kind."""

    __slots__ = ("parking", "congestion", "adverts")

    def __init__(self):
        self.parking: Mapping[bytes, ParkingEvent] = _EMPTY
        self.congestion: Mapping[bytes, tuple[object, float]] = _EMPTY   # id -> (event, stored_at)
        self.adverts: Mapping[bytes, AdvertEvent] = _EMPTY

    def holds(self, event_id: bytes) -> bool:
        """True for a congestion or parking event id the store holds."""
        return event_id in self.congestion or event_id in self.parking

    def add_parking(self, event_id: bytes, event: ParkingEvent) -> None:
        if self.parking is _EMPTY:
            self.parking = {}
        self.parking[event_id] = event

    def add_congestion(self, event_id: bytes, event: object, now: float) -> None:
        if self.congestion is _EMPTY:
            self.congestion = {}
        self.congestion[event_id] = (event, now)

    def add_advert(self, advert_id: bytes, advert: AdvertEvent) -> None:
        if self.adverts is _EMPTY:
            self.adverts = {}
        self.adverts[advert_id] = advert

    def visible_parking(self, now: float) -> list[tuple[bytes, ParkingEvent]]:
        return [(eid, ev) for eid, ev in sorted(self.parking.items()) if ev.visible(now)]

    def expire(self, now: float) -> list[tuple[str, bytes]]:
        """Prune expired events; returns (kind, id) for each removal."""
        gone: list[tuple[str, bytes]] = []
        for eid in [e for e, ev in self.parking.items() if now > ev.announced_at + ev.ttl]:
            del self.parking[eid]
            gone.append(("parking", eid))
        for eid in [e for e, (_, t0) in self.congestion.items()
                    if now > t0 + CONGESTION_TTL]:
            del self.congestion[eid]
            gone.append(("congestion", eid))
        for eid in [e for e, ad in self.adverts.items() if now >= ad.expiration]:
            del self.adverts[eid]
            gone.append(("advert", eid))
        return gone


def walking_route(current: GeoCoordinate, parked: ParkedLocation | None,
                  network: RoadNetwork) -> tuple[list[GeoCoordinate], float] | None:
    """Shortest walking path to the parked car; None when nothing is stored.

    All segments are treated as two-way at length cost; both endpoints
    snap to the nearest point of the road network.
    """
    if parked is None:
        return None
    if distance(current, parked.location) == 0:
        return [current], 0.0
    return path_between_points(network, current, parked.location)


def advert_certificate_verifies(cert: Certificate,
                                signer_key: Callable[[str], bytes | None] | None = None) -> bool:
    """Self-certified adverts verify against their embedded key; otherwise
    `signer_key` resolves the signer, and an unknown signer (None) fails."""
    if cert.signer == cert.subject:
        key = cert.subject_public_key
    else:
        key = signer_key(cert.signer) if signer_key else None
    return key is not None and cert.verify(key)


def deliver_advert(advert: AdvertEvent, receiver: GeoCoordinate, now: float,
                   filters: set[str] | None = None,
                   signer_key: Callable[[str], bytes | None] | None = None) -> bool:
    """True when the advert should be shown to this receiver.

    The certificate must verify (self-certified adverts verify against
    their embedded key; otherwise `signer_key` resolves the signer),
    the receiver must sit inside the area of interest, the advert must
    be unexpired and its company must pass the receiver's filters.
    Raises ValueError on an invalid certificate so callers can report
    the source.
    """
    if not advert_certificate_verifies(advert.certificate, signer_key):
        raise ValueError(f"advert certificate from {advert.certificate.subject!r} does not verify")
    if now >= advert.expiration:
        return False
    if distance(receiver, advert.location) > advert.area_radius:
        return False
    if filters is not None and advert.company_name not in filters:
        return False
    return True
