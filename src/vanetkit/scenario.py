"""Scenario bundles: the on-disk description of a complete run.

A bundle is a directory holding `scenario.txt` plus the road document,
the roster and any advert packages it references.  The scenario file is
line oriented (`#` starts a comment):

    name <text>                      seed <int>
    duration <s>                     tick <s>
    vehicle_count <n>                obu_fraction <0..1>
    radio_range <m>                  auth_period <s>
    battery_threshold <level>        parking_ttl <s>
    speed_fraction <0..1>            sustain_window <s>
    min_limit <kmh>                  cooldown <s>
    road <path>                      roster <path>
    vehicle <id> user=<u> segment=<s> offset=<m> dir=<fwd|rev> speed=<kmh>
            [route=<s1,s2,...>] [battery=<level>] [start=<t>]
            [freeride] [searcher] [nogps]
    congestion_zone <segment> <dir> <t0> <t1> <speed_kmh>
    park <vehicle> <t_off> <t_on>
    find <vehicle> <t> <x> <y>
    advertise <vehicle> <advert file>

An advert package file carries the advertisement and its certificate:

    advert <company> <x> <y> <radius> <expiry> <message...>
    logo <ref>                       # optional
    cert <subject> <signer> <hex signature>
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import get_type_hints

from .events import AdvertEvent, DetectionConfig, advert_certificate_verifies
from .geomodel import (DirectiveError, DocumentError, GeoCoordinate, RoadNetwork,
                       document_statements, load_network)
from .simnet import (CongestionZone, FindDirective, ParkDirective, SimConfig,
                     Simulation, VehicleSpec)
from .trust import Certificate, Roster, load_roster


class BundleNotLoadedError(RuntimeError):
    """`ScenarioBundle.build` was called before its network and roster were loaded."""


@dataclass
class ScenarioBundle:
    directory: str
    config: SimConfig
    road_path: str
    roster_path: str
    advert_paths: list[tuple[str, str]] = field(default_factory=list)
    network: RoadNetwork | None = None
    roster: Roster | None = None

    def build(self) -> Simulation:
        if self.network is None or self.roster is None:
            raise BundleNotLoadedError(f"bundle {self.directory} has no network or roster")
        return Simulation(self.config, self.network, self.roster)


# Each int or float field of the config dataclasses is one statement `<field> <value>`.
_CONFIG_INT = {name for name, hint in get_type_hints(SimConfig).items() if hint is int}
_CONFIG_FLOAT = {name for name, hint in get_type_hints(SimConfig).items() if hint is float}
_DETECTION_FLOAT = {name for name, hint in get_type_hints(DetectionConfig).items()
                    if hint is float}


def _parse_vehicle(fields: list[str], lineno: int, problems: list[str]) -> VehicleSpec | None:
    if len(fields) < 2:
        problems.append(f"line {lineno}: vehicle needs an id")
        return None
    spec = {"vehicle_id": fields[1]}
    flags = {"freeride": False, "searcher": False}
    has_gps = True
    for token in fields[2:]:
        if token == "freeride":
            flags["freeride"] = True
        elif token == "searcher":
            flags["searcher"] = True
        elif token == "nogps":
            has_gps = False
        elif "=" in token:
            key, value = token.split("=", 1)
            if key == "user":
                spec["user_id"] = value
            elif key == "segment":
                spec["segment"] = value
            elif key == "offset":
                spec["offset"] = float(value)
            elif key == "dir":
                spec["direction"] = value
            elif key == "speed":
                spec["speed"] = float(value)
            elif key == "route":
                spec["route"] = [s for s in value.split(",") if s]
            elif key == "battery":
                spec["battery"] = value
            elif key == "start":
                spec["start"] = float(value)
            else:
                problems.append(f"line {lineno}: unknown vehicle option {key!r}")
                return None
        else:
            problems.append(f"line {lineno}: unparseable vehicle token {token!r}")
            return None
    missing = {"user_id", "segment", "offset"} - set(spec)
    if missing:
        problems.append(f"line {lineno}: vehicle missing {sorted(missing)}")
        return None
    return VehicleSpec(**spec, **flags, has_gps=has_gps)


def parse_scenario(text: str, problems: list[str]) -> tuple[SimConfig, str, str, list[tuple[str, str]]]:
    config = SimConfig()
    detection = dataclasses.asdict(DetectionConfig())
    road_path = ""
    roster_path = ""
    advert_paths: list[tuple[str, str]] = []
    for lineno, fields in document_statements(text):
        key = fields[0]
        try:
            if key == "name":
                config.name = " ".join(fields[1:])
            elif key in _CONFIG_INT:
                setattr(config, key, int(fields[1]))
            elif key in _CONFIG_FLOAT:
                setattr(config, key, float(fields[1]))
            elif key == "battery_threshold":
                config.battery_threshold = fields[1]
            elif key in _DETECTION_FLOAT:
                detection[key] = float(fields[1])
            elif key == "road":
                road_path = fields[1]
            elif key == "roster":
                roster_path = fields[1]
            elif key == "vehicle":
                spec = _parse_vehicle(fields, lineno, problems)
                if spec is not None:
                    config.vehicles.append(spec)
            elif key == "congestion_zone":
                config.zones.append(CongestionZone(fields[1], fields[2], float(fields[3]),
                                                   float(fields[4]), float(fields[5])))
            elif key == "park":
                config.parks.append(ParkDirective(fields[1], float(fields[2]), float(fields[3])))
            elif key == "find":
                config.finds.append(FindDirective(fields[1], float(fields[2]),
                                                  float(fields[3]), float(fields[4])))
            elif key == "advertise":
                advert_paths.append((fields[1], fields[2]))
            else:
                problems.append(f"line {lineno}: unknown scenario statement {key!r}")
        except (IndexError, ValueError):
            problems.append(f"line {lineno}: malformed {key!r} statement")
    config.detection = DetectionConfig(**detection)
    if not road_path:
        problems.append("scenario names no road document")
    if not roster_path:
        problems.append("scenario names no roster")
    return config, road_path, roster_path, advert_paths


def load_advert(text: str, roster: Roster, problems: list[str]) -> AdvertEvent | None:
    company = message = logo = None
    location = radius = expiry = None
    cert: Certificate | None = None
    for lineno, fields in document_statements(text):
        if fields[0] == "advert":
            if len(fields) < 7:
                problems.append(f"advert line {lineno}: needs company, x, y, radius, expiry, message")
                return None
            company = fields[1]
            location = GeoCoordinate(float(fields[2]), float(fields[3]))
            radius = float(fields[4])
            expiry = float(fields[5])
            message = " ".join(fields[6:])
        elif fields[0] == "logo":
            logo = fields[1]
        elif fields[0] == "cert":
            subject, signer, hexsig = fields[1], fields[2], fields[3]
            if subject not in roster.users:
                problems.append(f"advert certificate subject {subject!r} not in roster")
                return None
            key = roster.users[subject].keys.public_key
            cert = Certificate(subject, key, signer, bytes.fromhex(hexsig))
        else:
            problems.append(f"advert line {lineno}: unknown statement {fields[0]!r}")
            return None
    if company is None or cert is None:
        problems.append("advert package needs both an advert line and a cert line")
        return None
    if cert.subject != company:
        problems.append("advert certificate subject does not match the company")
        return None
    advert = AdvertEvent(company, message, location, radius, expiry, logo or "", cert)
    return advert


def load_bundle(directory: str) -> tuple[ScenarioBundle | None, list[str]]:
    """Parse and cross-validate a bundle; returns (bundle, problems).

    Every problem is collected, not just the first; the bundle is only
    returned when everything parses and validates.
    """
    problems: list[str] = []
    scenario_path = os.path.join(directory, "scenario.txt")
    if not os.path.exists(scenario_path):
        return None, [f"missing scenario file {scenario_path}"]
    with open(scenario_path) as fh:
        config, road_rel, roster_rel, advert_rels = parse_scenario(fh.read(), problems)

    network = roster = None
    road_path = os.path.join(directory, road_rel) if road_rel else ""
    roster_path = os.path.join(directory, roster_rel) if roster_rel else ""
    if road_rel:
        if not os.path.exists(road_path):
            problems.append(f"missing road document {road_path}")
        else:
            try:
                with open(road_path) as fh:
                    network = load_network(fh.read())
            except DocumentError as err:
                problems.extend(f"road: {p}" for p in err.problems)
    if roster_rel:
        if not os.path.exists(roster_path):
            problems.append(f"missing roster {roster_path}")
        else:
            try:
                with open(roster_path) as fh:
                    roster = load_roster(fh.read())
            except DocumentError as err:
                problems.extend(f"roster: {p}" for p in err.problems)

    advert_paths = []
    if roster is not None:
        for vehicle_id, rel in advert_rels:
            path = os.path.join(directory, rel)
            if not os.path.exists(path):
                problems.append(f"missing advert package {path}")
                continue
            with open(path) as fh:
                advert = load_advert(fh.read(), roster, problems)
            if advert is not None:
                signer = advert.certificate.signer
                if signer != advert.certificate.subject and signer not in roster.users:
                    problems.append(f"advert certificate signer {signer!r} in {rel} not in roster")
                elif not advert_certificate_verifies(
                        advert.certificate, lambda uid: roster.users[uid].keys.public_key):
                    problems.append(f"advert certificate in {rel} does not verify")
                else:
                    config.adverts.append((vehicle_id, advert))
                    advert_paths.append((vehicle_id, path))

    problems.extend(_cross_validate(config, network, roster))
    if problems:
        return None, problems
    return ScenarioBundle(directory, config, road_path, roster_path, advert_paths,
                          network, roster), []


def _cross_validate(config: SimConfig, network: RoadNetwork | None,
                    roster: Roster | None) -> list[str]:
    """Reference checks; road and roster checks degrade gracefully when
    the corresponding document itself failed to load."""
    problems = config.validate()
    users = set(roster.users) if roster is not None else None
    vehicle_ids = set()
    for spec in config.vehicles:
        if spec.vehicle_id in vehicle_ids:
            problems.append(f"duplicate vehicle id {spec.vehicle_id!r}")
        vehicle_ids.add(spec.vehicle_id)
        if users is not None and spec.user_id not in users:
            problems.append(f"vehicle {spec.vehicle_id!r} references unknown user {spec.user_id!r}")
        if network is None:
            continue
        if spec.segment not in network.segments:
            problems.append(f"vehicle {spec.vehicle_id!r} starts on unknown segment {spec.segment!r}")
            continue
        seg = network.segments[spec.segment]
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
    if users is not None and config.vehicle_count > 0 \
            and len(users) < config.total_vehicles():
        problems.append("roster must provide one user per vehicle")
    if network is not None:
        origins = set()
        for spec in config.vehicles:
            seg = network.segments.get(spec.segment)
            if seg is not None:
                origins.update((seg.junction_a, seg.junction_b))
        if origins and not network.connected(origins):
            problems.append("vehicle origins span disconnected road components")
    for zone in config.zones:
        if network is not None and zone.segment not in network.segments:
            problems.append(f"congestion zone names unknown segment {zone.segment!r}")
    for park in config.parks:
        if park.vehicle_id not in vehicle_ids:
            problems.append(f"park directive names unknown vehicle {park.vehicle_id!r}")
    for find in config.finds:
        if find.vehicle_id not in vehicle_ids:
            problems.append(f"find directive names unknown vehicle {find.vehicle_id!r}")
    for vehicle_id, _ in config.adverts:
        if vehicle_id not in vehicle_ids:
            problems.append(f"advertise names unknown vehicle {vehicle_id!r}")
    return problems
