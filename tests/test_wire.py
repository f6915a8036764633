import random

import pytest

from vanetkit import wire
from vanetkit.aggregation import AggregatedEvent, sign_observation
from vanetkit.events import AdvertEvent, CongestionObservation, ParkingEvent
from vanetkit.geomodel import FORWARD, GeoCoordinate
from vanetkit.trust import Roster, register_user

from reference import ref_decode_beacon


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
    assert ref_decode_beacon(body) == (b"p" * 16, 7, 123)


def test_auth_message_roundtrips():
    rng = random.Random(1)
    sid, pseu = rng.randbytes(16), rng.randbytes(16)
    commits = b"".join([rng.randbytes(32) for _ in range(16)])
    _, body = wire.decode_frame(wire.encode_auth_commit(sid, pseu, commits))
    assert wire.decode_auth_commit(body) == (sid, pseu, commits)

    chal = rng.randbytes(16)
    _, body = wire.decode_frame(wire.encode_auth_challenge(sid, pseu, chal, commits))
    assert wire.decode_auth_challenge(body) == (sid, pseu, chal, commits)

    nonce = rng.randbytes(16)
    responses = b"".join([rng.randbytes(32) for _ in range(16)])
    counter = rng.randbytes(16)
    _, body = wire.decode_frame(wire.encode_auth_response(sid, True, nonce, responses, counter))
    assert wire.decode_auth_response(body) == (sid, True, nonce, responses, counter)

    _, body = wire.decode_frame(wire.encode_auth_result(sid, True))
    assert wire.decode_auth_result(body) == (sid, True)


_HANDSHAKE_ENCODERS = {
    "commit": lambda block: wire.encode_auth_commit(b"s" * 16, b"p" * 16, block),
    "challenge": lambda block: wire.encode_auth_challenge(b"s" * 16, b"p" * 16, b"c" * 16,
                                                          block),
    "response": lambda block: wire.encode_auth_response(b"s" * 16, True, b"n" * 16, block,
                                                        b"c" * 16),
}


@pytest.mark.parametrize("kind", sorted(_HANDSHAKE_ENCODERS))
@pytest.mark.parametrize("length", [1, 31, 33, 32 * 16 + 16, 32 * 256, 32 * 300])
def test_handshake_encoders_refuse_bad_blocks(kind, length):
    """A block must be whole 32-byte fields, at most 255 of them: the
    count in front of it is one byte."""
    with pytest.raises(wire.WireError):
        _HANDSHAKE_ENCODERS[kind](b"\x07" * length)


@pytest.mark.parametrize("kind", sorted(_HANDSHAKE_ENCODERS))
def test_handshake_blocks_of_0_and_255_fields_roundtrip(kind):
    # decoder, index of the block in its result, offset of the count byte
    decode, at, count_at = {"commit": (wire.decode_auth_commit, 2, 32),
                            "challenge": (wire.decode_auth_challenge, 3, 48),
                            "response": (wire.decode_auth_response, 3, 33)}[kind]
    for count in (0, 255):
        block = random.Random(count).randbytes(32 * count)
        _, body = wire.decode_frame(_HANDSHAKE_ENCODERS[kind](block))
        assert body[count_at] == count
        decoded = decode(body)[at]
        assert decoded == block and type(decoded) is bytes


def observation():
    return CongestionObservation("road9", FORWARD, GeoCoordinate(123.5, -42.25),
                                 456.0, b"q" * 16)


def test_signed_observation_roundtrip_preserves_verification():
    roster = Roster()
    ident = register_user(roster, "u", 1)
    signed = sign_observation(observation(), ident.keys.private_key,
                              ident.self_certificate, b"q" * 16)
    decoded = wire.decode_signed_observation(wire.encode_signed_observation(signed))
    assert decoded == signed
    assert decoded.verify()


def test_aggregate_roundtrip():
    roster = Roster()
    a = register_user(roster, "a", 1)
    b = register_user(roster, "b", 2)
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
    ident = register_user(roster, "shop", 3)
    advert = AdvertEvent("shop", "two for one", GeoCoordinate(5.0, 6.0),
                         150.0, 900.0, "logo42", ident.self_certificate)
    assert wire.decode_advert(wire.encode_advert(advert)) == advert


def test_revocations_roundtrip():
    records = [("mallory", 3, True), ("sloppy", 1, False)]
    assert wire.decode_revocations(wire.encode_revocations(records)) == records


def test_trailing_bytes_rejected():
    frame = wire.encode_auth_result(b"s" * 16, True)
    _, body = wire.decode_frame(frame)
    with pytest.raises(wire.WireError):
        wire.decode_auth_result(body + b"\x00")


def test_text_that_is_not_utf8_is_a_wire_error():
    with pytest.raises(wire.WireError):
        wire.decode_revocations(b"\x00\x01\x00\x01\xff" + b"\x00" * 5)


@pytest.mark.parametrize("x,t,ok", [
    (-1e20, 1e20, True),     # cell and minute still fit a signed 64-bit integer
    (2e21, 456.0, False),    # cell 1e19 does not
    (-2e21, 456.0, False),
    (123.5, 1e21, False),    # minute 1.7e19 does not
    (123.5, float("nan"), False),
    (float("-inf"), 456.0, False),
])
def test_observation_numbers_must_fit_the_canonical_encoding(x, t, ok):
    obs = CongestionObservation("road9", FORWARD, GeoCoordinate(x, -42.25), t, b"q" * 16)
    roster = Roster()
    ident = register_user(roster, "u", 1)
    if ok:
        signed = sign_observation(obs, ident.keys.private_key, ident.self_certificate, b"q" * 16)
        assert wire.decode_signed_observation(wire.encode_signed_observation(signed)) == signed
        return
    good = sign_observation(observation(), ident.keys.private_key, ident.self_certificate,
                            b"q" * 16)
    forged = type(good)(obs, good.signer_pseudonym, good.signer_certificate, good.signature)
    with pytest.raises(wire.WireError):
        wire.decode_signed_observation(wire.encode_signed_observation(forged))


def test_parking_coordinate_must_be_finite():
    data = wire.encode_parking(ParkingEvent(GeoCoordinate(float("nan"), 20.0), 300.0, 60.0),
                               b"e" * 16)
    with pytest.raises(wire.WireError):
        wire.decode_parking(data)
