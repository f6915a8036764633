"""What a run is asked to do: the config types and every rule a run needs.

`SimConfig.validate` is the one validator: `scenario.load_bundle` runs it,
and `simnet.Simulation` runs it again when it is built.  This module
imports no simulator module, so a bundle is parsed and validated without
one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from . import auth
from .events import AdvertEvent, DetectionConfig
from .geomodel import BATTERY_LEVELS, FORWARD, REVERSE, DirectiveError, RoadNetwork
from .trust import Roster


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


def fleet_id(index: int) -> str:
    """The vehicle id of background vehicle `index`."""
    return f"bg{index:05d}"


def _is_fleet_id(vehicle_id: str, count: int) -> bool:
    """True when one of `count` background vehicles has this id."""
    digits = vehicle_id[2:]
    return (digits.isdecimal() and len(digits) < 10 and int(digits) < count
            and fleet_id(int(digits)) == vehicle_id)


def _route_problems(spec: VehicleSpec, seg, network: RoadNetwork) -> list[str]:
    """A scripted vehicle's start and route against the road's entry rule."""
    problems = []
    if spec.segment not in network.exits[seg.entry_junction(spec.direction)]:
        problems.append(f"vehicle {spec.vehicle_id!r} starts the wrong way "
                        f"on one-way segment {spec.segment!r}")
    here = seg.exit_junction(spec.direction)
    for seg_id in spec.route:
        if seg_id not in network.segments:
            problems.append(f"vehicle {spec.vehicle_id!r} route names unknown segment {seg_id!r}")
            break
        try:
            _, here = network.enter(here, seg_id)
        except DirectiveError as err:
            problems.append(f"vehicle {spec.vehicle_id!r} route breaks: {err}")
            break
    return problems


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

    def validate(self, network: RoadNetwork | None = None,
                 roster: Roster | None = None) -> list[str]:
        """Every problem that would stop a run of this config or bend how it
        reads a value; ranges outside the calibrated envelope only warn.

        The rules that read the road or the roster apply when that document
        is given.  The work grows with the scripted vehicles, zones and
        directives, never with the background fleet, except for one sort of
        the roster's user ids when there is a fleet.
        """
        problems = []
        if self.duration <= 0:
            problems.append("duration must be positive")
        if not 0 < self.tick < math.inf:
            problems.append("tick must be finite and positive")
        if self.vehicle_count < 0:
            problems.append("vehicle_count must be at least 0")
        if not self.radio_range > 0:
            problems.append("radio_range must be positive")
        elif self.radio_range == math.inf:
            problems.append("radio_range must be finite")
        if not 0 < self.auth_period < math.inf:
            problems.append("auth_period must be finite and positive")
        if not 0 < self.min_pseudonym_lifetime <= self.max_pseudonym_lifetime < math.inf:
            problems.append("pseudonym lifetimes must be finite and positive, "
                            "the minimum at most the maximum")
        if not 0.0 <= self.obu_fraction <= 1.0:
            problems.append("obu_fraction must be within [0, 1]")
        if self.battery_threshold not in BATTERY_LEVELS:
            problems.append(f"unknown battery threshold {self.battery_threshold!r}")
        vehicle_ids, origins, drivers = set(), set(), {}
        for spec in self.vehicles:
            name = spec.vehicle_id
            if name in vehicle_ids or _is_fleet_id(name, self.vehicle_count):
                problems.append(f"duplicate vehicle id {name!r}")
            vehicle_ids.add(name)
            if spec.battery not in BATTERY_LEVELS:
                problems.append(f"vehicle {name!r} has unknown battery level {spec.battery!r}")
            for what, value in (("offset", spec.offset), ("speed", spec.speed),
                                ("start", spec.start)):
                if not 0 <= value < math.inf:
                    problems.append(f"vehicle {name!r} {what} must be finite and at least 0")
            if roster is not None and spec.user_id not in roster.users:
                problems.append(f"vehicle {name!r} references unknown user {spec.user_id!r}")
            if spec.user_id in drivers:
                problems.append(f"vehicle {name!r} would drive user {spec.user_id!r}, "
                                f"which vehicle {drivers[spec.user_id]!r} drives")
            else:
                drivers[spec.user_id] = name
            if spec.direction not in (FORWARD, REVERSE):
                problems.append(f"vehicle {name!r} direction {spec.direction!r} "
                                f"is not {FORWARD!r} or {REVERSE!r}")
            if network is None:
                continue
            seg = network.segments.get(spec.segment)
            if seg is None:
                problems.append(f"vehicle {name!r} starts on unknown segment {spec.segment!r}")
                continue
            origins.update((seg.junction_a, seg.junction_b))
            if spec.direction in (FORWARD, REVERSE):
                problems.extend(_route_problems(spec, seg, network))
        if roster is not None and self.vehicle_count > 0:
            if len(roster.users) < self.total_vehicles():
                problems.append("roster must provide one user per vehicle")
            for i, user in enumerate(self.fleet_users(roster)):
                if user in drivers:
                    problems.append(f"background vehicle {fleet_id(i)!r} would drive user "
                                    f"{user!r}, which vehicle {drivers[user]!r} drives")
        if network is not None and not network.connected(origins):
            problems.append("vehicle origins span disconnected road components")
        for zone in self.zones:
            if zone.direction not in (FORWARD, REVERSE):
                problems.append(f"congestion zone on {zone.segment!r} direction "
                                f"{zone.direction!r} is not {FORWARD!r} or {REVERSE!r}")
            if network is not None and zone.segment not in network.segments:
                problems.append(f"congestion zone names unknown segment {zone.segment!r}")
            if not all(0 <= v < math.inf for v in (zone.t_start, zone.t_end, zone.speed)):
                problems.append(f"congestion zone on {zone.segment!r} needs finite times "
                                f"and speed of at least 0")
            elif zone.t_end <= zone.t_start:
                problems.append(f"congestion zone on {zone.segment!r} must end after it starts")
        directives = ([("park directive", p.vehicle_id, (p.t_off, p.t_on)) for p in self.parks]
                      + [("find directive", f.vehicle_id, (f.t,)) for f in self.finds]
                      + [("advertise", vehicle_id, ()) for vehicle_id, _ in self.adverts])
        for what, vehicle_id, times in directives:
            if vehicle_id not in vehicle_ids:
                problems.append(f"{what} names unknown vehicle {vehicle_id!r}")
            if not all(0 <= t < math.inf for t in times):
                problems.append(f"{what} for {vehicle_id!r} needs finite times of at least 0")
        for find in self.finds:
            if not (math.isfinite(find.x) and math.isfinite(find.y)):
                problems.append(f"find directive for {find.vehicle_id!r} needs a finite point")
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

    def fleet_users(self, roster: Roster) -> list[str]:
        """The users background vehicles 0, 1, ... drive: the roster's user
        ids in sorted order, after as many as there are scripted vehicles."""
        first = len(self.vehicles)
        return sorted(roster.users)[first:first + self.vehicle_count]
