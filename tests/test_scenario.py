import os

import pytest

from vanetkit import kits, scenario

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


def test_cell_size_is_refused_not_ignored(tmp_path):
    """The event cell is one protocol constant; a scenario that tries to set
    it is told so instead of running with a setting that does nothing."""
    text = GOOD_SCENARIO + "cell_size 10\n"
    _, problems = scenario.load_bundle(write_bundle(tmp_path, text, GOOD_ROAD, GOOD_ROSTER))
    assert problems == ["line 8: unknown scenario statement 'cell_size'"]
