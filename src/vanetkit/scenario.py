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

The parser reports only what needs a line number: unknown statements and
options, numbers that do not parse, a statement with more or fewer fields
than it takes (all but `name` and `vehicle`, which take any number), a
detection value out of its range, and the `dir=`, `battery=` and
zone-direction words.  An advert package line is refused the same way,
and so are a location, radius or expiry that is not finite, a negative
radius and a message the advert cannot carry.  Every other rule a
run needs is `config.SimConfig.validate(network, roster)`'s, which
`load_bundle` runs with each document that loaded and `Simulation` runs
again when it is built.  Parsing and validating need no simulator: only
`ScenarioBundle.build` imports `simnet`.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import get_type_hints

from .config import CongestionZone, FindDirective, ParkDirective, SimConfig, VehicleSpec
from .events import AdvertEvent, DetectionConfig, advert_certificate_verifies
from .geomodel import (BATTERY_LEVELS, FORWARD, REVERSE, DocumentError, GeoCoordinate,
                       RoadNetwork, document_statements, load_network)
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

    def build(self) -> simnet.Simulation:
        from . import simnet     # the one use of the simulator; parsing needs none
        if self.network is None or self.roster is None:
            raise BundleNotLoadedError(f"bundle {self.directory} has no network or roster")
        return simnet.Simulation(self.config, self.network, self.roster)


_DIRECTIONS = (FORWARD, REVERSE)

# Each int or float field of the config dataclasses is one statement `<field> <value>`.
_CONFIG_INT = {name for name, hint in get_type_hints(SimConfig).items() if hint is int}
_CONFIG_FLOAT = {name for name, hint in get_type_hints(SimConfig).items() if hint is float}
_DETECTION_FLOAT = {name for name, hint in get_type_hints(DetectionConfig).items()
                    if hint is float}

# How many fields follow the key of each fixed-arity statement; `name`
# (free text) and `vehicle` (options) take any number.
_ARITY = {"battery_threshold": 1, "road": 1, "roster": 1, "congestion_zone": 5, "park": 3,
          "find": 4, "advertise": 2} | dict.fromkeys(_CONFIG_INT | _CONFIG_FLOAT
                                                    | _DETECTION_FLOAT, 1)


# A vehicle flag sets a VehicleSpec field to a fixed value; an option
# `<key>=<value>` sets a field to its value, read as given.
_VEHICLE_FLAGS = {"freeride": ("freeride", True), "searcher": ("searcher", True),
                  "nogps": ("has_gps", False)}
_VEHICLE_OPTIONS = {"user": ("user_id", str), "segment": ("segment", str),
                    "offset": ("offset", float), "dir": ("direction", str),
                    "speed": ("speed", float), "battery": ("battery", str),
                    "start": ("start", float),
                    "route": ("route", lambda value: [s for s in value.split(",") if s])}


def _parse_vehicle(fields: list[str], lineno: int, problems: list[str]) -> VehicleSpec | None:
    if len(fields) < 2:
        problems.append(f"line {lineno}: vehicle needs an id")
        return None
    spec = {"vehicle_id": fields[1]}
    for token in fields[2:]:
        key, eq, value = token.partition("=")
        if token in _VEHICLE_FLAGS:
            name, value = _VEHICLE_FLAGS[token]
        elif not eq:
            problems.append(f"line {lineno}: unparseable vehicle token {token!r}")
            return None
        elif key not in _VEHICLE_OPTIONS:
            problems.append(f"line {lineno}: unknown vehicle option {key!r}")
            return None
        elif key == "dir" and value not in _DIRECTIONS:
            problems.append(f"line {lineno}: vehicle direction {value!r} is not "
                            f"{FORWARD!r} or {REVERSE!r}")
            return None
        elif key == "battery" and value not in BATTERY_LEVELS:
            problems.append(f"line {lineno}: unknown battery level {value!r}")
            return None
        else:
            name, read = _VEHICLE_OPTIONS[key]
            value = read(value)
        spec[name] = value
    missing = {"user_id", "segment", "offset"} - set(spec)
    if missing:
        problems.append(f"line {lineno}: vehicle missing {sorted(missing)}")
        return None
    return VehicleSpec(**spec)


def parse_scenario(text: str, problems: list[str]) -> tuple[SimConfig, str, str, list[tuple[str, str]]]:
    config = SimConfig()
    road_path = ""
    roster_path = ""
    advert_paths: list[tuple[str, str]] = []
    for lineno, fields in document_statements(text):
        key = fields[0]
        try:
            if key in _ARITY and len(fields) != _ARITY[key] + 1:
                raise ValueError(f"{key!r} takes {_ARITY[key]} fields")
            if key == "name":
                config.name = " ".join(fields[1:])
            elif key in _CONFIG_INT:
                setattr(config, key, int(fields[1]))
            elif key in _CONFIG_FLOAT:
                setattr(config, key, float(fields[1]))
            elif key == "battery_threshold":
                config.battery_threshold = fields[1]
            elif key in _DETECTION_FLOAT:
                value = float(fields[1])
                try:
                    config.detection = dataclasses.replace(config.detection, **{key: value})
                except ValueError as err:
                    problems.append(f"line {lineno}: {err}")
            elif key == "road":
                road_path = fields[1]
            elif key == "roster":
                roster_path = fields[1]
            elif key == "vehicle":
                spec = _parse_vehicle(fields, lineno, problems)
                if spec is not None:
                    config.vehicles.append(spec)
            elif key == "congestion_zone":
                zone = CongestionZone(fields[1], fields[2], float(fields[3]),
                                      float(fields[4]), float(fields[5]))
                if zone.direction in _DIRECTIONS:
                    config.zones.append(zone)
                else:
                    problems.append(f"line {lineno}: congestion zone direction "
                                    f"{zone.direction!r} is not {FORWARD!r} or {REVERSE!r}")
            elif key == "park":
                config.parks.append(ParkDirective(fields[1], float(fields[2]), float(fields[3])))
            elif key == "find":
                config.finds.append(FindDirective(fields[1], float(fields[2]),
                                                  float(fields[3]), float(fields[4])))
            elif key == "advertise":
                advert_paths.append((fields[1], fields[2]))
            else:
                problems.append(f"line {lineno}: unknown scenario statement {key!r}")
        except ValueError:
            problems.append(f"line {lineno}: malformed {key!r} statement")
    if not road_path:
        problems.append("scenario names no road document")
    if not roster_path:
        problems.append("scenario names no roster")
    return config, road_path, roster_path, advert_paths


def load_advert(text: str, roster: Roster, problems: list[str]) -> AdvertEvent | None:
    """The advert package in `text`, or None after adding its first problem,
    with its line number, to `problems`."""
    company = message = location = radius = expiry = None
    advert_line = 0
    logo = ""
    cert: Certificate | None = None
    for lineno, fields in document_statements(text):
        key = fields[0]
        try:
            if key == "advert":
                if len(fields) < 7:
                    problems.append(f"advert line {lineno}: needs company, x, y, radius, "
                                    "expiry, message")
                    return None
                x, y, radius, expiry = (float(value) for value in fields[2:6])
                if not all(map(math.isfinite, (x, y, radius, expiry))) or radius < 0:
                    problems.append(f"advert line {lineno}: location, radius and expiry must "
                                    "be finite and the radius at least 0")
                    return None
                company, location, message = fields[1], GeoCoordinate(x, y), " ".join(fields[6:])
                advert_line = lineno
            elif key == "logo":
                (logo,) = fields[1:]         # unpacking refuses more or fewer fields
            elif key == "cert":
                subject, signer, hexsig = fields[1:]
                if subject not in roster.users:
                    problems.append(f"advert certificate subject {subject!r} not in roster")
                    return None
                cert = Certificate(subject, roster.users[subject].keys.public_key, signer,
                                   bytes.fromhex(hexsig))
            else:
                problems.append(f"advert line {lineno}: unknown statement {key!r}")
                return None
        except ValueError:
            problems.append(f"advert line {lineno}: malformed {key!r} statement")
            return None
    if company is None or cert is None:
        problems.append("advert package needs both an advert line and a cert line")
        return None
    if cert.subject != company:
        problems.append("advert certificate subject does not match the company")
        return None
    try:
        return AdvertEvent(company, message, location, radius, expiry, logo, cert)
    except ValueError as err:
        problems.append(f"advert line {advert_line}: {err}")
        return None


def _load_document(path: str, what: str, label: str, load, problems: list[str]):
    """The document at `path` read by `load`, or None when no path is named,
    the file is missing or it has problems, which are added to `problems`."""
    if not path:
        return None
    if not os.path.exists(path):
        problems.append(f"missing {what} {path}")
        return None
    try:
        with open(path) as fh:
            return load(fh.read())
    except DocumentError as err:
        problems.extend(f"{label}: {p}" for p in err.problems)
        return None


def load_bundle(directory: str) -> tuple[ScenarioBundle | None, list[str]]:
    """Parse a bundle and validate its config; returns (bundle, problems).

    The config is checked by `SimConfig.validate` against the road and the
    roster, each when it loaded.  Every problem is collected, not just the
    first; the bundle is only returned when everything parses and
    validates.
    """
    problems: list[str] = []
    scenario_path = os.path.join(directory, "scenario.txt")
    if not os.path.exists(scenario_path):
        return None, [f"missing scenario file {scenario_path}"]
    with open(scenario_path) as fh:
        config, road_rel, roster_rel, advert_rels = parse_scenario(fh.read(), problems)

    road_path = os.path.join(directory, road_rel) if road_rel else ""
    roster_path = os.path.join(directory, roster_rel) if roster_rel else ""
    network = _load_document(road_path, "road document", "road", load_network, problems)
    roster = _load_document(roster_path, "roster", "roster", load_roster, problems)

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

    problems.extend(config.validate(network, roster))
    if problems:
        return None, problems
    return ScenarioBundle(directory, config, road_path, roster_path, advert_paths,
                          network, roster), []

