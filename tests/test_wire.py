import random

import pytest

from vanetkit import wire
from vanetkit.aggregation import AggregatedEvent, sign_observation
from vanetkit.events import AdvertEvent, CongestionObservation, ParkingEvent
from vanetkit.geomodel import FORWARD, GeoCoordinate
from vanetkit.trust import Roster


def test_frame_roundtrip_and_length_check():
    frame = wire.encode_frame(0x42, b"abc")
    assert wire.decode_frame(frame) == (0x42, b"abc")
    with pytest.raises(wire.WireError):
        wire.decode_frame(frame + b"x")
    with pytest.raises(wire.WireError):
        wire.decode_frame(frame[:3])


def test_beacon_roundtrip():
    frame = wire.encode_beacon(b"p" * 16, 7, 123)
    tag, body = wire.decode_frame(frame)
    assert tag == wire.BEACON
    assert wire.decode_beacon(body) == (b"p" * 16, 7, 123)


def test_auth_message_roundtrips():
    rng = random.Random(1)
    sid, pseu = rng.randbytes(16), rng.randbytes(16)
    commits = [rng.randbytes(32) for _ in range(16)]
    _, body = wire.decode_frame(wire.encode_auth_commit(sid, pseu, commits))
    assert wire.decode_auth_commit(body) == (sid, pseu, commits)

    chal = rng.randbytes(16)
    _, body = wire.decode_frame(wire.encode_auth_challenge(sid, pseu, chal, commits))
    assert wire.decode_auth_challenge(body) == (sid, pseu, chal, commits)

    nonce = rng.randbytes(16)
    responses = [rng.randbytes(32) for _ in range(16)]
    counter = rng.randbytes(16)
    _, body = wire.decode_frame(wire.encode_auth_response(sid, True, nonce, responses, counter))
    assert wire.decode_auth_response(body) == (sid, True, nonce, responses, counter)

    _, body = wire.decode_frame(wire.encode_auth_result(sid, True))
    assert wire.decode_auth_result(body) == (sid, True)


def observation():
    return CongestionObservation("road9", FORWARD, GeoCoordinate(123.5, -42.25),
                                 456.0, b"q" * 16)


def test_signed_observation_roundtrip_preserves_verification():
    roster = Roster()
    ident = roster.register("u", 1)
    signed = sign_observation(observation(), ident.keys.private_key,
                              ident.self_certificate, b"q" * 16)
    decoded = wire.decode_signed_observation(wire.encode_signed_observation(signed))
    assert decoded == signed
    assert decoded.verify()


def test_aggregate_roundtrip():
    roster = Roster()
    a = roster.register("a", 1)
    b = roster.register("b", 2)
    obs = observation()
    sigs = (sign_observation(obs, a.keys.private_key, a.self_certificate, b"a" * 16),
            sign_observation(obs, b.keys.private_key, b.self_certificate, b"b" * 16))
    event = AggregatedEvent(obs, sigs, b"a" * 16, 500.0, 0.75, 2)
    decoded = wire.decode_aggregate(wire.encode_aggregate(event))
    assert decoded == event
    undefined_rate = AggregatedEvent(obs, sigs, b"a" * 16, 500.0, None, 2)
    assert wire.decode_aggregate(wire.encode_aggregate(undefined_rate)).rate is None


def test_parking_roundtrip():
    event = ParkingEvent(GeoCoordinate(10.0, 20.0), 300.0, 60.0)
    data = wire.encode_parking(event, b"e" * 16)
    assert wire.decode_parking(data) == (b"e" * 16, event)


def test_advert_roundtrip():
    roster = Roster()
    ident = roster.register("shop", 3)
    advert = AdvertEvent("shop", "two for one", GeoCoordinate(5.0, 6.0),
                         150.0, 900.0, "logo42", ident.self_certificate)
    assert wire.decode_advert(wire.encode_advert(advert)) == advert


def test_revocations_roundtrip():
    records = [("mallory", 3, True), ("sloppy", 1, False)]
    assert wire.decode_revocations(wire.encode_revocations(records)) == records


def test_trailing_bytes_rejected():
    frame = wire.encode_beacon(b"p" * 16, 1, 2)
    _, body = wire.decode_frame(frame)
    with pytest.raises(wire.WireError):
        wire.decode_beacon(body + b"\x00")


def test_text_that_is_not_utf8_is_a_wire_error():
    with pytest.raises(wire.WireError):
        wire.decode_revocations(b"\x00\x01\x00\x01\xff" + b"\x00" * 5)
