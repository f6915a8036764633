import contextlib
import dataclasses
import io
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetkit import cli, kits, scenario
from vanetkit.config import SimConfig
from vanetkit.events import DetectionConfig

pytestmark = pytest.mark.filterwarnings("ignore:vehicle count")


def write_bundle(tmp_path, scenario_text, road_text=None, roster_text=None):
    (tmp_path / "scenario.txt").write_text(scenario_text)
    if road_text is not None:
        (tmp_path / "road.txt").write_text(road_text)
    if roster_text is not None:
        (tmp_path / "roster.txt").write_text(roster_text)
    return str(tmp_path)


GOOD_ROAD = "junction a 0 0\njunction b 500 0\nsegment main a b 50 twoway\n"
GOOD_ROSTER = "user u1 1\nuser u2 2\nfriend u1 u2\n"
GOOD_SCENARIO = """name tiny
seed 3
duration 30
vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20
vehicle v2 user=u2 segment=main offset=40 dir=fwd speed=20
road road.txt
roster roster.txt
"""


def test_load_good_bundle(tmp_path):
    bundle, problems = scenario.load_bundle(write_bundle(tmp_path, GOOD_SCENARIO,
                                                         GOOD_ROAD, GOOD_ROSTER))
    assert problems == []
    assert bundle.config.name == "tiny"
    assert bundle.config.seed == 3
    assert len(bundle.config.vehicles) == 2
    sim = bundle.build()
    stats = sim.run()
    assert stats.connections == 1


def test_missing_files_reported(tmp_path):
    _, problems = scenario.load_bundle(write_bundle(tmp_path, GOOD_SCENARIO))
    assert any("road" in p for p in problems)
    assert any("roster" in p for p in problems)


def test_all_violations_collected(tmp_path):
    bad_road = "junction a 0 0\njunction b 10 0\nsegment s a b 0 twoway\n"
    bad_scenario = """name broken
vehicle v1 user=ghost segment=nowhere offset=0 dir=fwd speed=10
congestion_zone missing fwd 0 10 5
park phantom 1 2
road road.txt
roster roster.txt
"""
    _, problems = scenario.load_bundle(write_bundle(tmp_path, bad_scenario,
                                                    bad_road, GOOD_ROSTER))
    text = "\n".join(problems)
    assert "speed_limit" in text
    assert "ghost" in text
    assert "phantom" in text
    assert len(problems) >= 3


def test_vehicle_route_validated(tmp_path):
    scenario_text = GOOD_SCENARIO.replace(
        "vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20",
        "vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20 route=main,main")
    _, problems = scenario.load_bundle(write_bundle(tmp_path, scenario_text,
                                                    GOOD_ROAD, GOOD_ROSTER))
    # main->main is a legal bounce on a two-way road; break it instead.
    scenario_text = GOOD_SCENARIO.replace(
        "vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20",
        "vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20 route=elsewhere")
    _, problems = scenario.load_bundle(write_bundle(tmp_path, scenario_text,
                                                    GOOD_ROAD, GOOD_ROSTER))
    assert any("route" in p for p in problems)


def test_disconnected_origins_rejected(tmp_path):
    road = GOOD_ROAD + "junction x 9000 9000\njunction y 9100 9000\nsegment far x y 50 twoway\n"
    scenario_text = GOOD_SCENARIO.replace(
        "vehicle v2 user=u2 segment=main offset=40 dir=fwd speed=20",
        "vehicle v2 user=u2 segment=far offset=10 dir=fwd speed=20")
    _, problems = scenario.load_bundle(write_bundle(tmp_path, scenario_text,
                                                    road, GOOD_ROSTER))
    assert any("disconnected" in p for p in problems)


def test_duplicate_vehicle_rejected(tmp_path):
    scenario_text = GOOD_SCENARIO.replace(
        "vehicle v2 user=u2 segment=main offset=40 dir=fwd speed=20",
        "vehicle v1 user=u2 segment=main offset=40 dir=fwd speed=20")
    _, problems = scenario.load_bundle(write_bundle(tmp_path, scenario_text,
                                                    GOOD_ROAD, GOOD_ROSTER))
    assert any("duplicate vehicle" in p for p in problems)


def test_detection_overrides(tmp_path):
    text = GOOD_SCENARIO + "parking_ttl 120\nspeed_fraction 0.3\nsustain_window 45\n"
    bundle, problems = scenario.load_bundle(write_bundle(tmp_path, text,
                                                         GOOD_ROAD, GOOD_ROSTER))
    assert problems == []
    assert bundle.config.detection.parking_ttl == 120.0
    assert bundle.config.detection.speed_fraction == 0.3
    assert bundle.config.detection.sustain_window == 45.0


def test_every_kit_loads_and_validates(tmp_path):
    for name in kits.KIT_NAMES:
        directory = tmp_path / name
        kits.generate_kit(name, str(directory))
        bundle, problems = scenario.load_bundle(str(directory))
        assert problems == [], (name, problems)
        assert bundle.config.name == name


def test_unknown_kit_raises():
    with pytest.raises(ValueError, match="available"):
        kits.generate_kit("rocket", "/tmp/nope")


def test_advert_package_certificate_checked(tmp_path):
    kits.generate_kit("advert", str(tmp_path))
    advert_path = tmp_path / "advert.txt"
    lines = advert_path.read_text().splitlines()
    broken = []
    for line in lines:
        if line.startswith("cert"):
            fields = line.split()
            sig = bytearray.fromhex(fields[3])
            sig[0] ^= 0xFF
            fields[3] = sig.hex()
            line = " ".join(fields)
        broken.append(line)
    advert_path.write_text("\n".join(broken) + "\n")
    _, problems = scenario.load_bundle(str(tmp_path))
    assert any("does not verify" in p for p in problems)


def _set_advert_signer(tmp_path, signer):
    advert_path = tmp_path / "advert.txt"
    lines = []
    for line in advert_path.read_text().splitlines():
        if line.startswith("cert"):
            fields = line.split()
            fields[2] = signer
            line = " ".join(fields)
        lines.append(line)
    advert_path.write_text("\n".join(lines) + "\n")


def test_advert_certificate_from_unknown_signer_refused(tmp_path):
    """Delivery can resolve no key for a signer outside the roster, so every
    receiver would reject the advert and report its carrier; validation
    says so instead of checking the signature against the subject's key."""
    kits.generate_kit("advert", str(tmp_path))
    _set_advert_signer(tmp_path, "mallory")
    bundle, problems = scenario.load_bundle(str(tmp_path))
    assert bundle is None
    assert problems == ["advert certificate signer 'mallory' in advert.txt not in roster"]


def test_advert_certificate_checked_against_the_named_signer(tmp_path):
    kits.generate_kit("advert", str(tmp_path))
    _set_advert_signer(tmp_path, "uf")          # in the roster, but it made no such signature
    _, problems = scenario.load_bundle(str(tmp_path))
    assert problems == ["advert certificate in advert.txt does not verify"]


@pytest.mark.parametrize("key", ["cell_size", "session_timeout", "handshake_timeout",
                                 "forward_window", "advert_period", "congestion_ttl"])
def test_a_protocol_constant_is_refused_not_ignored(tmp_path, key):
    """The event cell, the timeouts, the relay watchdog window, the advert
    period and the congestion event lifetime are protocol constants; a
    scenario that tries to set one is told so instead of running with a
    setting that does nothing."""
    text = GOOD_SCENARIO + f"{key} 10\n"
    _, problems = scenario.load_bundle(write_bundle(tmp_path, text, GOOD_ROAD, GOOD_ROSTER))
    assert problems == [f"line 8: unknown scenario statement {key!r}"]


_INT_STATEMENTS = {"seed", "duration", "vehicle_count"}
_FLOAT_STATEMENTS = {"tick", "obu_fraction", "radio_range", "auth_period",
                     "min_pseudonym_lifetime", "max_pseudonym_lifetime", "speed_fraction",
                     "sustain_window", "min_limit", "cooldown", "parking_ttl"}
_OTHER_STATEMENTS = {"name", "battery_threshold", "road", "roster", "vehicle",
                     "congestion_zone", "park", "find", "advertise"}


def test_the_scenario_statements_are_the_config_fields_and_the_directives():
    """The numeric statements come from the types the config dataclasses
    declare: an int field takes an integer, a float field a number, and a
    field of any other type is no statement."""
    detection_fields = {f.name for f in dataclasses.fields(DetectionConfig)}
    candidates = ({f.name for f in dataclasses.fields(SimConfig)} | detection_fields
                  | _OTHER_STATEMENTS)
    accepted = set()
    for key in candidates:
        problems = []
        scenario.parse_scenario(f"{key} 0.5 0.5 0.5 0.5 0.5\n", problems)
        if f"line 1: unknown scenario statement {key!r}" not in problems:
            accepted.add(key)
    assert accepted == _INT_STATEMENTS | _FLOAT_STATEMENTS | _OTHER_STATEMENTS
    for key in _INT_STATEMENTS:
        problems = []
        scenario.parse_scenario(f"{key} 2.5\n", problems)
        assert f"line 1: malformed {key!r} statement" in problems
    for key in _FLOAT_STATEMENTS:
        config = scenario.parse_scenario(f"{key} 0.25\n", [])[0]
        value = getattr(config.detection if key in detection_fields else config, key)
        assert type(value) is float and value == 0.25


# Values that `validate` once passed and the run then stopped on, misread
# or ran with a setting that means nothing.
_REFUSED = ({("tick", "nan"), ("tick", "inf"), ("vehicle_count", "-1"),
             ("speed_fraction", "nan"), ("sustain_window", "-1"), ("radio_range", "inf")}
            | {(key, value) for key in ("auth_period", "min_pseudonym_lifetime",
                                        "max_pseudonym_lifetime")
               for value in ("nan", "inf", "-inf", "-1", "0")}
            | {(key, value) for key in ("min_limit", "cooldown", "parking_ttl")
               for value in ("nan", "inf", "-inf", "-1")})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "many"])
@pytest.mark.parametrize("key", sorted(_INT_STATEMENTS | _FLOAT_STATEMENTS))
def test_a_bundle_that_validates_runs(tmp_path, capsys, key, value):
    """Every numeric statement, set to a value at or past the edge of its
    range, is refused with exit 2 or runs to exit 0: validation never
    raises, and never passes a value the run then stops on."""
    directory = str(tmp_path / "kit")
    kits.generate_kit("congestion-chain", directory)
    with open(os.path.join(directory, "scenario.txt"), "a") as fh:
        fh.write(f"{key} {value}\n")
    status = cli.main(["validate", directory])
    assert status in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    if (key, value) in _REFUSED:
        assert status == cli.EXIT_VALIDATION
    if status == cli.EXIT_OK:
        assert cli.main(["run", directory, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    else:
        assert "error: " in capsys.readouterr().err


_SMALL_ROAD = GOOD_ROAD + "junction c 500 300\nsegment side b c 30 twoway\n"
_SMALL_ROSTER = GOOD_ROSTER + "user u3 3\nuser u4 4\nfriend u2 u3\n"
_SMALL_HEAD = ["name small", "seed 3", "duration 20", "vehicle_count 1"]
_SMALL_BODY = ["vehicle v1 user=u1 segment=main offset=10 dir=fwd speed=20 route=side",
               "vehicle v2 user=u2 segment=main offset=40 dir=fwd speed=20 searcher",
               "congestion_zone main fwd 0 10 5", "park v1 5 12", "find v1 15 100 0"]
# Unknown and known words, options, ids that clash, and huge numbers.
_TOKENS = ["ghost", "v1", "v2", "bg00000", "u1", "u3", "main", "side", "nowhere", "fwd",
           "rev", "sideways", "freeride", "searcher", "nogps", "user=u2", "user=ghost",
           "segment=nowhere", "route=side,main", "route=nowhere", "battery=low",
           "battery=zap", "start=3", "wat=1", "=", "1e308", "-1e308", "1e400", "9" * 30,
           "1e-320"]
_MUTATION = st.tuples(st.sampled_from(["replace", "replace-value", "drop", "duplicate",
                                       "re-id"]),
                      st.integers(0, 99), st.integers(1, 99), st.sampled_from(_TOKENS))


def _mutated_body(mutations) -> list[str]:
    """The small bundle's vehicle, zone and directive statements, each
    mutation applied to one field after the statement's keyword."""
    body = [line.split() for line in _SMALL_BODY]
    for op, line, position, token in mutations:
        fields = body[line % len(body)]
        j = 1 + position % (len(fields) - 1) if len(fields) > 1 else 1
        if op == "duplicate":
            body.append(list(fields))
        elif op == "re-id":
            body.append([fields[0], token, *fields[2:]])
        elif j == len(fields):
            fields.append(token)
        elif op == "drop":
            del fields[j]
        elif op == "replace-value" and "=" in fields[j]:
            fields[j] = fields[j].split("=")[0] + "=" + token
        else:
            fields[j] = token
    return [" ".join(fields) for fields in body]


def _validate_and_run(body: list[str]) -> int:
    """`vanetkit validate` on the small bundle with `body` for its vehicle,
    zone and directive statements; a bundle it passes must run to exit 0."""
    text = "\n".join(_SMALL_HEAD + body + ["road road.txt", "roster roster.txt"]) + "\n"
    with tempfile.TemporaryDirectory() as directory, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        write_bundle(pathlib.Path(directory), text, _SMALL_ROAD, _SMALL_ROSTER)
        status = cli.main(["validate", directory])
        if status == cli.EXIT_OK:
            assert cli.main(["run", directory, "--out", directory]) == cli.EXIT_OK
    return status


def test_the_small_bundle_validates_and_runs():
    assert _validate_and_run(_SMALL_BODY) == cli.EXIT_OK


@settings(max_examples=200, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_a_mutated_bundle_is_refused_or_runs(mutations):
    """Vehicle options, zones and directives mutated with unknown words,
    huge numbers, and missing or duplicate ids: `vanetkit validate` exits 0
    or 2 and never raises, and a bundle it passes runs to exit 0."""
    assert _validate_and_run(_mutated_body(mutations)) in (cli.EXIT_OK, cli.EXIT_VALIDATION)


def test_out_of_range_detection_values_are_reported_per_statement(tmp_path):
    text = GOOD_SCENARIO + "speed_fraction 2\nsustain_window -5\nspeed_fraction 0.3\n"
    _, problems = scenario.load_bundle(write_bundle(tmp_path, text, GOOD_ROAD, GOOD_ROSTER))
    assert problems == ["line 8: speed_fraction must be in (0, 1)",
                        "line 9: sustain_window must be positive"]
