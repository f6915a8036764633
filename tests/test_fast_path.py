"""The handshake, codec and detector fast paths against plain references.

`wire`, `auth` and `CongestionDetector.firing` take shortcuts (offset
reads, precomputed hash states, an incremental window predicate) that
must not change a byte, an RNG draw or a decision.  Each is compared here
with a straightforward implementation: the slice-per-field `_Reader`
decoders, `hmac.digest`, `crypto.sha256` and `evaluate_window` over a
window rebuilt from the test's own push history.  The handshake frames
and transcripts are also pinned by known answers.
"""

import hashlib
import hmac
import math
import random
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from vanetkit import auth, crypto, kits, scenario, wire
from vanetkit.aggregation import TIME_QUANTUM, AggregatedEvent, SignedObservation
from vanetkit.auth import Party, zk_mutual_authenticate
from vanetkit.events import (AdvertEvent, CongestionDetector, CongestionObservation,
                             DetectionConfig, ParkingEvent, evaluate_window)
from vanetkit.geomodel import FORWARD, REVERSE, GeoCoordinate, VehicleState, load_network
from vanetkit.trust import Certificate, RevocationStore, Roster, register_user

from reference import RefReader, ref_decode_beacon


# -- reference codecs: one slice per field ------------------------------------

def ref_decode_frame(buf):
    if len(buf) < 5:
        raise wire.WireError("frame truncated")
    length = struct.unpack(">I", buf[:4])[0]
    if len(buf) != 4 + length:
        raise wire.WireError("frame length mismatch")
    return buf[4], buf[5:]


def ref_decode_auth_commit(body):
    r = RefReader(body)
    session_id, pseudonym = r.raw(16), r.raw(16)
    commitments = b"".join([r.raw(32) for _ in range(r.u8())])
    r.expect_end()
    return session_id, pseudonym, commitments


def ref_decode_auth_challenge(body):
    r = RefReader(body)
    session_id, pseudonym, challenge = r.raw(16), r.raw(16), r.raw(16)
    commitments = b"".join([r.raw(32) for _ in range(r.u8())])
    r.expect_end()
    return session_id, pseudonym, challenge, commitments


def ref_decode_auth_response(body):
    r = RefReader(body)
    session_id = r.raw(16)
    initiator = r.u8() == 1
    nonce = r.raw(16)
    responses = b"".join([r.raw(32) for _ in range(r.u8())])
    counter = r.raw(16)
    r.expect_end()
    return session_id, initiator, nonce, responses, counter


def ref_decode_auth_result(body):
    r = RefReader(body)
    out = (r.raw(16), r.u8() == 1)
    r.expect_end()
    return out


def _ref_quantized(r, quantum):
    v = r.f64()
    if not math.isfinite(v) or not -(1 << 63) <= math.floor(v / quantum) <= (1 << 63) - 1:
        raise wire.WireError("coordinate or time out of range")
    return v


def _ref_coordinate(r):
    return GeoCoordinate(_ref_quantized(r, 200.0), _ref_quantized(r, 200.0))


def _ref_certificate(r):
    return Certificate(r.text(), r.raw(32), r.text(), r.raw(64))


def _ref_observation(r):
    road = r.text()
    direction = FORWARD if r.u8() == 0 else REVERSE
    location = _ref_coordinate(r)
    detected_at = _ref_quantized(r, TIME_QUANTUM)
    return CongestionObservation(road, direction, location, detected_at, r.raw(16))


def ref_decode_signed_observation(data):
    r = RefReader(data)
    obs = _ref_observation(r)
    signed = SignedObservation(obs, r.raw(16), _ref_certificate(r), r.raw(64))
    r.expect_end()
    return signed


def ref_decode_aggregate(data):
    r = RefReader(data)
    obs = _ref_observation(r)
    signatures = [ref_decode_signed_observation(r.blob()) for _ in range(r.u8())]
    promoter, created_at, rate, threshold = r.raw(16), r.f64(), r.f64(), r.u8()
    r.expect_end()
    return AggregatedEvent(obs, tuple(signatures), promoter, created_at,
                           None if rate < 0 else rate, threshold)


def ref_decode_parking(data):
    r = RefReader(data)
    event_id, location = r.raw(16), _ref_coordinate(r)
    announced_at, ttl = r.f64(), r.f64()
    r.expect_end()
    return event_id, ParkingEvent(location, announced_at, ttl)


def ref_decode_advert(data):
    r = RefReader(data)
    company, message = r.text(), r.text()
    location = _ref_coordinate(r)
    radius, expiration, logo = r.f64(), r.f64(), r.text()
    cert = _ref_certificate(r)
    r.expect_end()
    return AdvertEvent(company, message, location, radius, expiration, logo, cert)


def ref_decode_revocations(data):
    r = RefReader(data)
    out = [(r.text(), r.u32(), r.u8() == 1) for _ in range(r.u16())]
    r.expect_end()
    return out


def ref_encode_frame(tag, body):
    return struct.pack(">I", 1 + len(body)) + struct.pack(">B", tag) + body


def ref_encode_beacon(pseudonym, sequence, tick):
    return ref_encode_frame(wire.BEACON, pseudonym + struct.pack(">I", sequence)
                            + struct.pack(">I", tick))


def ref_encode_auth_commit(session_id, pseudonym, commitments):
    return ref_encode_frame(wire.AUTH_COMMIT, session_id + pseudonym
                            + bytes([len(commitments) // 32]) + commitments)


def ref_encode_auth_challenge(session_id, pseudonym, challenge, commitments):
    return ref_encode_frame(wire.AUTH_CHALLENGE, session_id + pseudonym + challenge
                            + bytes([len(commitments) // 32]) + commitments)


def ref_encode_auth_response(session_id, initiator, nonce, responses, counter):
    return ref_encode_frame(wire.AUTH_RESPONSE, session_id + bytes([1 if initiator else 0])
                            + nonce + bytes([len(responses) // 32]) + responses
                            + counter)


def ref_encode_auth_result(session_id, accepted):
    return ref_encode_frame(wire.AUTH_RESULT, session_id + bytes([1 if accepted else 0]))


# -- random records ---------------------------------------------------------------

def _b(n):
    return st.binary(min_size=n, max_size=n)


_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_NUMBER = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)
_BLOCKS = st.lists(_b(32), max_size=20).map(b"".join)
_CERT = st.builds(Certificate, _TEXT, _b(32), _TEXT, _b(64))
_OBS = st.builds(CongestionObservation, _TEXT, st.sampled_from([FORWARD, REVERSE]),
                 st.builds(GeoCoordinate, _NUMBER, _NUMBER), _NUMBER, _b(16))
_SIGNED = st.builds(SignedObservation, _OBS, _b(16), _CERT, _b(64))

# kind -> (strategy of encoder arguments, new encoder, reference encoder or None,
#          new decoder, reference decoder); handshake and beacon encoders
# return frames, the others bare records.
CODECS = {
    "beacon": (st.tuples(_b(16), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
               wire.encode_beacon, ref_encode_beacon, ref_decode_beacon, ref_decode_beacon),
    "commit": (st.tuples(_b(16), _b(16), _BLOCKS), wire.encode_auth_commit,
               ref_encode_auth_commit, wire.decode_auth_commit, ref_decode_auth_commit),
    "challenge": (st.tuples(_b(16), _b(16), _b(16), _BLOCKS), wire.encode_auth_challenge,
                  ref_encode_auth_challenge, wire.decode_auth_challenge,
                  ref_decode_auth_challenge),
    "response": (st.tuples(_b(16), st.booleans(), _b(16), _BLOCKS, _b(16)),
                 wire.encode_auth_response, ref_encode_auth_response,
                 wire.decode_auth_response, ref_decode_auth_response),
    "result": (st.tuples(_b(16), st.booleans()), wire.encode_auth_result,
               ref_encode_auth_result, wire.decode_auth_result, ref_decode_auth_result),
    "signed": (st.tuples(_SIGNED), wire.encode_signed_observation, None,
               wire.decode_signed_observation, ref_decode_signed_observation),
    "aggregate": (st.tuples(st.builds(AggregatedEvent, _OBS,
                                      st.lists(_SIGNED, max_size=3).map(tuple), _b(16),
                                      _NUMBER, st.none() | st.floats(0, 10), st.integers(0, 255))),
                  wire.encode_aggregate, None, wire.decode_aggregate, ref_decode_aggregate),
    "parking": (st.tuples(st.builds(ParkingEvent, st.builds(GeoCoordinate, _NUMBER, _NUMBER),
                                    _NUMBER, _NUMBER), _b(16)),
                wire.encode_parking, None, wire.decode_parking, ref_decode_parking),
    "advert": (st.tuples(st.builds(AdvertEvent, _TEXT, _TEXT,
                                   st.builds(GeoCoordinate, _NUMBER, _NUMBER),
                                   _NUMBER, _NUMBER, _TEXT, _CERT)),
               wire.encode_advert, None, wire.decode_advert, ref_decode_advert),
    "revocations": (st.tuples(st.lists(st.tuples(_TEXT, st.integers(0, 2**32 - 1),
                                                 st.booleans()), max_size=4)),
                    wire.encode_revocations, None, wire.decode_revocations,
                    ref_decode_revocations),
}


def _outcome(decode, data):
    """What `decode` makes of `data`: its value's repr (NaN-safe), or the
    exception's type and message."""
    try:
        return "ok", repr(decode(data))
    except Exception as exc:      # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__, str(exc)


@st.composite
def _damage(draw, data: bytes) -> bytes:
    op = draw(st.sampled_from(["keep", "truncate", "extend", "mutate"]))
    if op == "truncate":
        return data[:draw(st.integers(0, max(len(data) - 1, 0)))]
    if op == "extend":
        return data + draw(st.binary(min_size=1, max_size=40))
    if op == "mutate" and data:
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    return data


@st.composite
def _records(draw):
    kind = draw(st.sampled_from(sorted(CODECS)))
    args_strategy, encode, ref_encode, _, _ = CODECS[kind]
    args = draw(args_strategy)
    encoded = encode(*args)
    if ref_encode is not None:
        assert encoded == ref_encode(*args)
    if kind in ("beacon", "commit", "challenge", "response", "result"):
        encoded = wire.decode_frame(encoded)[1]
    return kind, encoded, draw(_damage(encoded))


@settings(max_examples=600, deadline=None)
@given(_records())
def test_decoders_equal_the_slice_per_field_reference(case):
    kind, intact, damaged = case
    _, _, _, decode, ref_decode = CODECS[kind]
    assert _outcome(decode, intact)[0] == "ok"
    assert _outcome(decode, damaged) == _outcome(ref_decode, damaged)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 255), st.binary(max_size=30), st.data())
def test_frame_codec_equals_the_reference(tag, body, data):
    frame = wire.encode_frame(tag, body)
    assert frame == ref_encode_frame(tag, body)
    damaged = data.draw(_damage(frame))
    assert _outcome(wire.decode_frame, damaged) == _outcome(ref_decode_frame, damaged)


def test_error_messages_are_kept():
    with pytest.raises(wire.WireError, match="^frame truncated$"):
        wire.decode_frame(b"\x00\x00\x00\x01")
    with pytest.raises(wire.WireError, match="^frame length mismatch$"):
        wire.decode_frame(wire.encode_frame(1, b"ab") + b"c")
    body = wire.decode_frame(wire.encode_auth_commit(b"s" * 16, b"p" * 16,
                                                     b"".join([b"c" * 32] * 3)))[1]
    with pytest.raises(wire.WireError, match="^record truncated$"):
        wire.decode_auth_commit(body[:-1])
    with pytest.raises(wire.WireError, match="^trailing bytes in record$"):
        wire.decode_auth_commit(body + b"x")


# -- handshake hashing ----------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=60))
def test_precomputed_hmac_equals_hmac_digest_for_every_key_length(message):
    rng = random.Random(len(message))
    for n in range(101):
        key = rng.randbytes(n)
        assert auth._response(key, message) == hmac.digest(key, message, "sha256")


@pytest.mark.parametrize("length", [1, 2, 3, 5, 16, 17, 40])
def test_slot_shuffle_equals_random_shuffle_and_its_draws(length):
    for seed in range(400):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        slots, ref_slots = bytearray(range(length)), bytearray(range(length))
        auth._shuffle(slots, rng)
        ref_rng.shuffle(ref_slots)
        assert slots == ref_slots
        assert rng.getrandbits(32) == ref_rng.getrandbits(32)


def _ref_build_commitments(keys, nonce, rng):
    slots = list(keys) + [None] * max(0, auth.PAD_COMMITMENTS - len(keys))
    rng.shuffle(slots)
    return b"".join([crypto.sha256(b"vk-commit", nonce, k) if k is not None
                     else rng.randbytes(32) for k in slots]), slots


def _slot_keys(keys, slots):
    """A slot map as the reference's list: the key behind each slot, or None."""
    return [keys[i] if i != auth.PAD_SLOT else None for i in slots]


@settings(max_examples=100, deadline=None)
@given(st.lists(_b(32), max_size=26, unique=True), _b(16), _b(16), st.integers(0, 2**32))
def test_commitments_responses_and_matches_equal_the_reference(keys, nonce, challenge, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    commitments, slots = auth.build_commitments(keys, nonce, rng)
    assert type(slots) is bytes and len(slots) == max(len(keys), auth.PAD_COMMITMENTS)
    ref_commitments, ref_slots = _ref_build_commitments(keys, nonce, ref_rng)
    assert (commitments, _slot_keys(keys, slots)) == (ref_commitments, ref_slots)
    responses = auth.build_responses(keys, slots, challenge, nonce, rng)
    assert responses == b"".join([crypto.hmac_sha256(k, b"vk-resp", challenge, nonce)
                                  if k is not None else ref_rng.randbytes(32)
                                  for k in ref_slots])
    assert rng.getstate() == ref_rng.getstate()
    own = keys[: len(keys) // 2] + [hashlib.sha256(k).digest() for k in keys[len(keys) // 2:]]
    assert auth.match_keys(own, commitments, nonce, challenge, responses) == \
        keys[: len(keys) // 2]
    assert auth.match_keys(keys, commitments, nonce, b"x" * 16, responses) == []


@pytest.mark.parametrize("n_keys", range(27))
def test_padding_from_one_draw_equals_a_draw_per_field(n_keys):
    """From no real key to more than `PAD_COMMITMENTS` (no padding at all),
    the one padding draw per block gives the bytes and RNG state of one
    `randbytes(32)` per padding slot."""
    keys = [random.Random(i).randbytes(32) for i in range(n_keys)]
    rng, ref_rng = random.Random(n_keys), random.Random(n_keys)
    commitments, slots = auth.build_commitments(keys, b"n" * 16, rng)
    ref_commitments, ref_slots = _ref_build_commitments(keys, b"n" * 16, ref_rng)
    assert (commitments, _slot_keys(keys, slots)) == (ref_commitments, ref_slots)
    assert len(commitments) == 32 * max(n_keys, auth.PAD_COMMITMENTS)
    assert slots.count(auth.PAD_SLOT) == max(0, auth.PAD_COMMITMENTS - n_keys)
    responses = auth.build_responses(keys, slots, b"c" * 16, b"n" * 16, rng)
    assert responses == b"".join([crypto.hmac_sha256(k, b"vk-resp", b"c" * 16, b"n" * 16)
                                  if k is not None else ref_rng.randbytes(32)
                                  for k in ref_slots])
    assert rng.getstate() == ref_rng.getstate()


def _pair(key, nonce, challenge):
    return (crypto.sha256(b"vk-commit", nonce, key),
            crypto.hmac_sha256(key, b"vk-resp", challenge, nonce))


def test_match_keys_reads_whole_fields_only():
    """A key's commitment matches only at a 32-byte field boundary, with its
    response in the same field of the response block."""
    key, nonce, challenge = b"k" * 32, b"n" * 16, b"c" * 16
    commitment, response = _pair(key, nonce, challenge)
    filler = b"\xee" * 32
    assert auth.match_keys([key], filler + commitment, nonce, challenge,
                           filler + response) == [key]
    # the same digest straddling two fields, at every unaligned offset
    for shift in range(1, 32):
        commitments = filler[:shift] + commitment + filler[shift:]
        for responses in (filler[:shift] + response + filler[shift:], response + filler):
            assert auth.match_keys([key], commitments, nonce, challenge, responses) == []
    # an unaligned copy ahead of the aligned one does not hide it
    commitments = filler[:8] + commitment + filler[8:] + commitment
    assert auth.match_keys([key], commitments, nonce, challenge,
                           filler * 2 + response) == [key]
    # a response in another field than its commitment does not match
    assert auth.match_keys([key], commitment + filler, nonce, challenge,
                           filler + response) == []


@pytest.mark.parametrize("commitments_len, responses_len",
                         [(64, 32), (32, 64), (0, 32), (33, 33), (63, 63), (65, 65)])
def test_match_keys_refuses_blocks_of_unequal_or_partial_fields(commitments_len,
                                                                responses_len):
    key, nonce, challenge = b"k" * 32, b"n" * 16, b"c" * 16
    commitment, response = _pair(key, nonce, challenge)
    commitments = (commitment * 3)[:commitments_len]
    responses = (response * 3)[:responses_len]
    assert auth.match_keys([key], commitments, nonce, challenge, responses) == []
    whole = 32 * (min(commitments_len, responses_len) // 32)
    if whole:
        assert auth.match_keys([key], commitments[:whole], nonce, challenge,
                               responses[:whole]) == [key]


def _kat_roster():
    roster = Roster()
    for uid, seed in [("a", 1), ("b", 2), ("c", 3), ("F1", 4), ("F2", 5)]:
        register_user(roster, uid, seed)
    for pair in [("a", "F1"), ("b", "F1"), ("b", "F2"), ("c", "F2")]:
        roster.befriend(*pair)
    return roster


# (peer, frame lengths and sha256, session key, sha256 of the next 8 RNG bytes),
# recorded with the slice-per-field codecs and one-shot hashes.
HANDSHAKE_KAT = [
    ("b", [(550, "b2e3abf73d44d2ee5aa47333ff6f9dbbe19c4b99c5956e580b7e3c680e6b9257"),
           (566, "8abc6ae45f4f993b6aba2b60267c29888d539b90927e88c375eab96aca447867"),
           (567, "ac942d3ea892fcce20b416cec3a185bb3ca079a3712100c5d7d3bca9dfaa95ab"),
           (567, "80cb7c05c565a743e6dce2ff2438705816c868038e59655c453933b62eda485b"),
           (22, "2a47d84beefecdf0a9ffd8bf6a5f89eae05dff9a54683966d09c9c39ccb8b615")],
     "a56392fffe916c31dadeed5b1aea73b9aa8ac61edbf2d428deb7af77405349e2",
     "d5ecc6b70587d5f8c95b25b91559a735a52b3ac3f67bdaae17d7d6bbbc4a1fc1"),
    ("c", [(550, "b2e3abf73d44d2ee5aa47333ff6f9dbbe19c4b99c5956e580b7e3c680e6b9257"),
           (566, "84159b9797c0cf48ab93fe0de64eacf1bdcb724c680b340460cb20955678c1aa"),
           (567, "56e21f1e80eb3599349809a80f7cce8d3b17643cfbc72b87839ed1d636db637c"),
           (22, "cae68a16db4755cd30911dfd8b2355b5c8983f80633f0f7305eea3ae75bc6530")],
     None,
     "2069ffbf8406a30c1634cb4fd736e0b3ca4b33a29e558761f11f903b3cd939d4"),
]


@pytest.mark.parametrize("peer, frames, session_key, after", HANDSHAKE_KAT)
def test_handshake_frames_match_known_answers(monkeypatch, peer, frames, session_key, after):
    roster = _kat_roster()
    rng = random.Random(7)
    a, b = (Party(roster.user(u), RevocationStore(set(roster.users)), rng.randbytes(16))
            for u in ("a", peer))
    seen = []
    decode_frame = wire.decode_frame
    monkeypatch.setattr(wire, "decode_frame", lambda buf: seen.append(buf) or decode_frame(buf))
    _, keys = zk_mutual_authenticate(a, b, rng, now=3.0)
    assert [(len(f), hashlib.sha256(f).hexdigest()) for f in seen] == frames
    assert (keys[0].key.hex() if keys else None) == session_key
    assert hashlib.sha256(rng.randbytes(8)).hexdigest() == after


def _transcripts_digest(seed):
    """sha256 over eight handshakes between random users of a random
    roster, some of them revoked by their peer, and the RNG after them."""
    rng = random.Random(seed)
    roster = Roster()
    users = [f"u{i}" for i in range(10)]
    for i, uid in enumerate(users):
        register_user(roster, uid, 1000 * seed + i)
    for _ in range(rng.randrange(4, 30)):
        roster.befriend(*rng.sample(users, 2))
    digest = hashlib.sha256()
    for round_ in range(8):
        parties = [Party(roster.user(u), RevocationStore(set(roster.users)), rng.randbytes(16))
                   for u in rng.sample(users, 2)]
        if rng.random() < 0.3:
            judge = rng.randrange(2)
            for _ in range(3):
                parties[judge].revocations.report(parties[1 - judge].identity.user_id)
        transcript, keys = zk_mutual_authenticate(*parties, rng, now=float(round_))
        digest.update(repr((transcript, keys)).encode())
    digest.update(rng.randbytes(8))
    return digest.hexdigest()


# The six rosters cover acceptance and all three kinds of rejection.  The
# digests were recorded with engines that kept the response blocks they
# sent, so they check that taking the blocks from the frames changes nothing.
TRANSCRIPTS_KAT = [
    (1, "088e272d72c84e015bc1ab20c465b7b40877d314a02428253c5c4d32af06dc2a"),
    (2, "b22f3625013e16e2aabc4e646ab1c41224ce587d625a6c3c9cfc9c4da95207fb"),
    (3, "d1025a08f7d3263805a53f54c38721a450544a613592c20bae9ca21f491df75e"),
    (4, "7af389dc4bb0dc4b2ca91c6b8d403f94a2245e0715ae33606bb7b044cb9ea230"),
    (5, "62df35877815f15ac27518b51c78656ffb10008321900eab54d90794e61f3b28"),
    (6, "91e8607cbf4c4dda5e2307ae42b6f93aa92014bab2c6dc2472595af224128378"),
]


@pytest.mark.parametrize("seed, digest", TRANSCRIPTS_KAT)
def test_transcripts_match_known_answers(seed, digest):
    assert _transcripts_digest(seed) == digest


# -- the incremental congestion predicate ---------------------------------------

_ROAD = load_network("junction a 0 0\njunction b 500 0\njunction c 500 400\n"
                     "segment fast a b 60 twoway\nsegment slow b c 20 twoway\n")
_CONFIG = DetectionConfig(speed_fraction=0.4, sustain_window=4.0, min_limit=30.0)


def _push_reference(window, now, state, limit, config):
    """Apply one push to a reference window of (time, state, limit)
    samples: a new road or direction starts a new window, which is then
    cut to the shortest suffix still spanning the sustain window."""
    if window and (window[-1][1].segment_id != state.segment_id
                   or window[-1][1].direction != state.direction):
        window.clear()
    window.append((now, state, limit))
    while len(window) >= 2 and window[1][0] <= now - config.sustain_window:
        window.pop(0)


# Mostly samples that keep the predicate, so that windows fill up and fire;
# each other kind breaks it one way.
_SAMPLE = st.sampled_from([("fast", FORWARD, 5.0, True)] * 8 + [
    ("fast", FORWARD, 23.9, True), ("fast", FORWARD, 24.0, True),
    ("fast", FORWARD, 30.0, True), ("fast", FORWARD, float("nan"), True),
    ("fast", FORWARD, 5.0, False), ("fast", REVERSE, 5.0, True),
    ("slow", FORWARD, 5.0, True)])
_PUSH = st.tuples(st.just("push"), st.sampled_from([1.0] * 6 + [-0.5, 0.0, 0.5, 2.5]), _SAMPLE)
_STEP = st.one_of(
    _PUSH, _PUSH, _PUSH,
    st.tuples(st.just("ignition"), st.booleans()),
    st.tuples(st.just("speed"), st.sampled_from([0.0, 10.0, 24.0, 50.0, float("nan")])),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_STEP, max_size=60))
def test_firing_equals_evaluate_window(steps):
    """Fresh states are pushed, as the simulator's mobility step makes one
    per tick; the newest is switched off and on and slowed in place, as
    `Simulation._ignition_off` and `_ignition_on` do."""
    detector = CongestionDetector(_CONFIG)
    window = []
    now, last = 0.0, None
    for step in steps:
        if step[0] == "push":
            _, dt, (segment, direction, speed, ignition) = step
            now += dt
            last = VehicleState("v", segment, direction, 1.0, speed, ignition=ignition)
            detector.push(now, last, _ROAD)
            _push_reference(window, now, last, _ROAD.segments[segment].speed_limit, _CONFIG)
        elif last is not None and step[0] == "ignition":
            last.ignition = step[1]
        elif last is not None:
            last.speed = step[1]
        assert detector.firing() == evaluate_window(window, _CONFIG)
        assert detector.times == [t for t, _, _ in window]


def test_firing_reads_the_newest_sample_live():
    detector = CongestionDetector(_CONFIG)
    window = []
    for t in range(6):
        newest = VehicleState("v", "fast", FORWARD, 1.0, 5.0)
        detector.push(float(t), newest, _ROAD)
        _push_reference(window, float(t), newest, 60.0, _CONFIG)
    for field, value, fires in (("ignition", False, False), ("ignition", True, True),
                                ("speed", 24.0, False), ("speed", float("nan"), True),
                                ("speed", 0.0, True)):
        setattr(newest, field, value)
        assert detector.firing() == evaluate_window(window, _CONFIG) == fires


def test_a_pushed_state_is_freed_once_a_newer_one_is_pushed():
    detector = CongestionDetector(_CONFIG)
    refs = []
    for t in range(8):
        state = VehicleState("v", "fast", FORWARD, 1.0, 5.0)
        refs.append(weakref.ref(state))
        detector.push(float(t), state, _ROAD)
        del state
        assert all(ref() is None for ref in refs[:-1])
        assert refs[-1]() is detector.newest[0]   # the newest is read live
    assert detector.firing() and len(detector.times) == 5


@pytest.mark.parametrize("kit", ["congestion-chain", "parking"])
def test_firing_equals_evaluate_window_through_a_run(tmp_path, monkeypatch, kit):
    kits.generate_kit(kit, str(tmp_path / kit))
    bundle, problems = scenario.load_bundle(str(tmp_path / kit))
    assert problems == []
    calls = []
    windows = {}          # detector -> its reference window
    firing, push = CongestionDetector.firing, CongestionDetector.push

    def recorded(self, now, state, network):
        push(self, now, state, network)
        if self.has_gps:
            _push_reference(windows.setdefault(self, []), now, state,
                            network.segments[state.segment_id].speed_limit, self.config)

    def checked(self):
        result = firing(self)
        calls.append(result)
        assert result == evaluate_window(windows.get(self, []), self.config)
        return result

    monkeypatch.setattr(CongestionDetector, "push", recorded)
    monkeypatch.setattr(CongestionDetector, "firing", checked)
    bundle.build().run()
    assert calls and (kit == "parking" or any(calls))
