"""Scenario constructions shared between integration and acceptance tests."""

from vanetkit.geomodel import FORWARD, load_network
from vanetkit.config import ParkDirective, SimConfig, VehicleSpec
from vanetkit.trust import Roster, register_user

FREERIDER_ROAD = """
junction c 0 0
junction w -100 0
junction fe 120 80
junction de 120 -80
segment pw c w 20 twoway
segment pf c fe 20 twoway
segment pd c de 20 twoway
"""

# Offset placing F and D 72.11 m from the hub (in range) and 80.6 m from
# each other (out of range), so every payload must flow through G.
_SPOKE_OFFSET = 72.11103


def freerider_setup(duration=160, seed=11):
    """Hub G relays parking events from P1..P5 to free-rider F and honest D.

    Friendships all go through G's user, but geometry keeps everyone
    except G out of mutual radio range, so the cooperation gate at G is
    the only path to F and D.
    """
    net = load_network(FREERIDER_ROAD)
    roster = Roster()
    register_user(roster, "ug", 1)
    register_user(roster, "uf", 2)
    register_user(roster, "ud", 3)
    for i in range(1, 6):
        register_user(roster, f"up{i}", 10 + i)
    for uid in ["uf", "ud"] + [f"up{i}" for i in range(1, 6)]:
        roster.befriend("ug", uid)

    vehicles = [
        VehicleSpec("G", "ug", "pw", 0.0, FORWARD, speed=0.0),
        VehicleSpec("F", "uf", "pf", _SPOKE_OFFSET, FORWARD, speed=0.0, freeride=True),
        VehicleSpec("D", "ud", "pd", _SPOKE_OFFSET, FORWARD, speed=0.0),
    ]
    for i in range(1, 6):
        vehicles.append(VehicleSpec(f"P{i}", f"up{i}", "pw", 69.0 + i, FORWARD, speed=0.0))
    parks = [ParkDirective(f"P{i}", 5.0, 5.0 + 25.0 * i) for i in range(1, 6)]
    config = SimConfig(seed=seed, duration=duration, name="freerider",
                       vehicles=vehicles, parks=parks)
    return config, net, roster


PRIVACY_ROAD = """
junction west 30 20
junction east 1030 20
junction north 530 95
segment avenue west east 50 twoway
segment lane north west 20 twoway
"""


def privacy_setup(duration=1000, seed=5):
    """Small mixed scenario for beacon audits: three parked, one cruiser.

    User ids are long so accidental substring hits in random pseudonym
    bytes are out of the question.
    """
    net = load_network(PRIVACY_ROAD)
    roster = Roster()
    users = ["user-alpha-000", "user-bravo-111", "user-carol-222", "user-delta-333"]
    for i, uid in enumerate(users):
        register_user(roster, uid, 500 + i)
    roster.befriend(users[0], users[1])
    roster.befriend(users[1], users[2])
    roster.befriend(users[2], users[3])
    roster.befriend(users[3], users[0])

    vehicles = [
        VehicleSpec("va", users[0], "avenue", 35.0, FORWARD, speed=0.0),
        VehicleSpec("vb", users[1], "avenue", 70.0, FORWARD, speed=0.0),
        VehicleSpec("vc", users[2], "lane", 10.0, FORWARD, speed=0.0),
        VehicleSpec("vd", users[3], "avenue", 5.0, FORWARD, speed=36.0),
    ]
    config = SimConfig(seed=seed, duration=duration, name="privacy",
                       vehicles=vehicles,
                       min_pseudonym_lifetime=120.0, max_pseudonym_lifetime=240.0)
    return config, net, roster
