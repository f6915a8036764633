"""Binary wire formats: length-prefixed records with a one-byte type tag.

Byte-exactness matters for run determinism and for signing, not for
interoperability with any external stack.  Authentication traffic and
beacons travel in the clear; event payloads (tags 0x10 and up) are
sealed per session and the frame body is the sealed blob.

The handshake messages are the bulk of what is decoded, so the codecs
avoid per-field work: every fixed-width field has a module-level
`struct.Struct`, `_Reader` reads at an offset with `unpack_from` and
slices only the byte fields it returns.  A handshake's commitments or
responses travel and are held as one block: a `bytes` of 32-byte fields
behind a one-byte count, cut from the body with one slice and written
after `len(block) // 32`.  The beacon and handshake encoders join their
parts in one call.  Errors and their messages are those of a field-by-field
reader: `record truncated`, `trailing bytes in record`, `frame
truncated`, `frame length mismatch`.
"""

from __future__ import annotations

import math
import struct

from .events import CELL_SIZE, AdvertEvent, CongestionObservation, ParkingEvent
from .geomodel import FORWARD, REVERSE, GeoCoordinate
from .aggregation import TIME_QUANTUM, AggregatedEvent, SignedObservation
from .trust import Certificate

BEACON = 0x01
AUTH_COMMIT = 0x02
AUTH_CHALLENGE = 0x03
AUTH_RESPONSE = 0x04
AUTH_RESULT = 0x05
CHANGE_NOTICE = 0x06
CORROBORATION_REQUEST = 0x10
SIGNED_OBSERVATION = 0x11
AGGREGATED_EVENT = 0x12
PARKING_EVENT = 0x13
ADVERT = 0x14
REVOCATION_SYNC = 0x15

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

PSEUDONYM_LEN = 16
CHALLENGE_LEN = 16
FIELD_LEN = 32          # one commitment or response: a sha256 or HMAC-SHA256 digest


class WireError(Exception):
    pass


_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U32_PAIR = struct.Struct(">II")
_HEADER = struct.Struct(">IB")   # frame length (tag + body), tag


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, v: int) -> "_Writer":
        self.parts.append(_U8.pack(v)); return self

    def u16(self, v: int) -> "_Writer":
        self.parts.append(_U16.pack(v)); return self

    def u32(self, v: int) -> "_Writer":
        self.parts.append(_U32.pack(v)); return self

    def f64(self, v: float) -> "_Writer":
        self.parts.append(_F64.pack(v)); return self

    def raw(self, b: bytes) -> "_Writer":
        self.parts.append(b); return self

    def blob(self, b: bytes) -> "_Writer":
        self.parts.append(_U16.pack(len(b)) + b); return self

    def text(self, s: str) -> "_Writer":
        return self.blob(s.encode())

    def done(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Reads fields at an offset into one bytes object; only `raw` and
    `blob` slice."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)

    def _advance(self, n: int) -> int:
        """Offset of the next `n` bytes, which are then consumed."""
        pos = self.pos
        if pos + n > self.end:
            raise WireError("record truncated")
        self.pos = pos + n
        return pos

    def u8(self) -> int:
        return self.data[self._advance(1)]

    def u16(self) -> int:
        return _U16.unpack_from(self.data, self._advance(2))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self._advance(4))[0]

    def f64(self) -> float:
        return _F64.unpack_from(self.data, self._advance(8))[0]

    def raw(self, n: int) -> bytes:
        pos = self._advance(n)
        return self.data[pos:pos + n]

    def blob(self) -> bytes:
        return self.raw(self.u16())

    def text(self) -> str:
        try:
            return self.blob().decode()
        except UnicodeDecodeError as exc:
            raise WireError("text field is not UTF-8") from exc

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise WireError("trailing bytes in record")


def encode_frame(tag: int, body: bytes) -> bytes:
    return _HEADER.pack(1 + len(body), tag) + body


def decode_frame(buf: bytes) -> tuple[int, bytes]:
    if len(buf) < 5:
        raise WireError("frame truncated")
    length, tag = _HEADER.unpack_from(buf)
    if len(buf) != 4 + length:
        raise WireError("frame length mismatch")
    return tag, buf[5:]


# -- beacons ---------------------------------------------------------------

def encode_beacon(pseudonym: bytes, sequence: int, tick: int) -> bytes:
    return encode_frame(BEACON, pseudonym + _U32_PAIR.pack(sequence, tick))


# -- authentication handshake ----------------------------------------------

def _block_count(block: bytes) -> bytes:
    """The u8 field count written in front of a block of 32-byte fields."""
    count, rest = divmod(len(block), FIELD_LEN)
    if rest or count > 255:
        raise WireError("block is not at most 255 fields of 32 bytes")
    return _U8.pack(count)


def encode_auth_commit(session_id: bytes, pseudonym: bytes, commitments: bytes) -> bytes:
    body = b"".join((session_id, pseudonym, _block_count(commitments), commitments))
    return encode_frame(AUTH_COMMIT, body)


def decode_auth_commit(body: bytes) -> tuple[bytes, bytes, bytes]:
    r = _Reader(body)
    session_id = r.raw(16)
    pseudonym = r.raw(PSEUDONYM_LEN)
    commitments = r.raw(r.u8() * FIELD_LEN)
    r.expect_end()
    return session_id, pseudonym, commitments


def encode_auth_challenge(session_id: bytes, pseudonym: bytes, challenge: bytes,
                          commitments: bytes) -> bytes:
    body = b"".join((session_id, pseudonym, challenge, _block_count(commitments),
                     commitments))
    return encode_frame(AUTH_CHALLENGE, body)


def decode_auth_challenge(body: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    r = _Reader(body)
    session_id = r.raw(16)
    pseudonym = r.raw(PSEUDONYM_LEN)
    challenge = r.raw(CHALLENGE_LEN)
    commitments = r.raw(r.u8() * FIELD_LEN)
    r.expect_end()
    return session_id, pseudonym, challenge, commitments


def encode_auth_response(session_id: bytes, initiator: bool, nonce: bytes,
                         responses: bytes, counter_challenge: bytes) -> bytes:
    body = b"".join((session_id, b"\x01" if initiator else b"\x00", nonce,
                     _block_count(responses), responses, counter_challenge))
    return encode_frame(AUTH_RESPONSE, body)


def decode_auth_response(body: bytes) -> tuple[bytes, bool, bytes, bytes, bytes]:
    r = _Reader(body)
    session_id = r.raw(16)
    initiator = r.u8() == 1
    nonce = r.raw(16)
    responses = r.raw(r.u8() * FIELD_LEN)
    counter_challenge = r.raw(CHALLENGE_LEN)
    r.expect_end()
    return session_id, initiator, nonce, responses, counter_challenge


def encode_auth_result(session_id: bytes, accepted: bool) -> bytes:
    return encode_frame(AUTH_RESULT, session_id + (b"\x01" if accepted else b"\x00"))


def decode_auth_result(body: bytes) -> tuple[bytes, bool]:
    r = _Reader(body)
    session_id = r.raw(16)
    accepted = r.u8() == 1
    r.expect_end()
    return session_id, accepted


# -- sealed event payloads ---------------------------------------------------

def _write_coordinate(w: _Writer, c: GeoCoordinate) -> None:
    w.f64(c.x).f64(c.y)


def _read_quantized(r: _Reader, quantum: float) -> float:
    """An f64 that is finite and whose `quantum` bucket is a signed 64-bit
    integer, as `aggregation.canonical_observation` encodes it."""
    v = r.f64()
    if not math.isfinite(v) or not _I64_MIN <= math.floor(v / quantum) <= _I64_MAX:
        raise WireError("coordinate or time out of range")
    return v


def _read_coordinate(r: _Reader) -> GeoCoordinate:
    return GeoCoordinate(_read_quantized(r, CELL_SIZE), _read_quantized(r, CELL_SIZE))


def _write_certificate(w: _Writer, cert: Certificate) -> None:
    w.text(cert.subject).raw(cert.subject_public_key)
    w.text(cert.signer).raw(cert.signature)


def _read_certificate(r: _Reader) -> Certificate:
    subject = r.text()
    key = r.raw(32)
    signer = r.text()
    sig = r.raw(64)
    return Certificate(subject, key, signer, sig)


def _write_observation(w: _Writer, obs: CongestionObservation) -> None:
    w.text(obs.road_id).u8(0 if obs.direction == FORWARD else 1)
    _write_coordinate(w, obs.location)
    w.f64(obs.detected_at).raw(obs.observer_pseudonym)


def _read_observation(r: _Reader) -> CongestionObservation:
    road = r.text()
    direction = FORWARD if r.u8() == 0 else REVERSE
    location = _read_coordinate(r)
    detected_at = _read_quantized(r, TIME_QUANTUM)
    pseudonym = r.raw(PSEUDONYM_LEN)
    return CongestionObservation(road, direction, location, detected_at, pseudonym)


def encode_signed_observation(signed: SignedObservation) -> bytes:
    w = _Writer()
    _write_observation(w, signed.observation)
    w.raw(signed.signer_pseudonym)
    _write_certificate(w, signed.signer_certificate)
    w.raw(signed.signature)
    return w.done()


def decode_signed_observation(data: bytes) -> SignedObservation:
    r = _Reader(data)
    signed = _read_signed_observation(r)
    r.expect_end()
    return signed


def _read_signed_observation(r: _Reader) -> SignedObservation:
    obs = _read_observation(r)
    pseudonym = r.raw(PSEUDONYM_LEN)
    cert = _read_certificate(r)
    sig = r.raw(64)
    return SignedObservation(obs, pseudonym, cert, sig)


def encode_aggregate(event: AggregatedEvent) -> bytes:
    w = _Writer()
    _write_observation(w, event.observation)
    w.u8(len(event.signatures))
    for signed in event.signatures:
        w.blob(encode_signed_observation(signed))
    w.raw(event.promoter_pseudonym)
    w.f64(event.created_at)
    w.f64(-1.0 if event.rate is None else event.rate)
    w.u8(event.threshold)
    return w.done()


def decode_aggregate(data: bytes) -> AggregatedEvent:
    r = _Reader(data)
    obs = _read_observation(r)
    count = r.u8()
    signatures = [decode_signed_observation(r.blob()) for _ in range(count)]
    promoter = r.raw(PSEUDONYM_LEN)
    created_at = r.f64()
    rate = r.f64()
    threshold = r.u8()
    r.expect_end()
    return AggregatedEvent(obs, tuple(signatures), promoter, created_at,
                           None if rate < 0 else rate, threshold)


def encode_parking(event: ParkingEvent, event_id: bytes) -> bytes:
    w = _Writer().raw(event_id)
    _write_coordinate(w, event.location)
    w.f64(event.announced_at).f64(event.ttl)
    return w.done()


def decode_parking(data: bytes) -> tuple[bytes, ParkingEvent]:
    r = _Reader(data)
    event_id = r.raw(16)
    location = _read_coordinate(r)
    announced_at = r.f64()
    ttl = r.f64()
    r.expect_end()
    return event_id, ParkingEvent(location, announced_at, ttl)


def encode_advert(advert: AdvertEvent) -> bytes:
    w = _Writer().text(advert.company_name).text(advert.message)
    _write_coordinate(w, advert.location)
    w.f64(advert.area_radius).f64(advert.expiration).text(advert.logo_ref)
    _write_certificate(w, advert.certificate)
    return w.done()


def decode_advert(data: bytes) -> AdvertEvent:
    r = _Reader(data)
    company = r.text()
    message = r.text()
    location = _read_coordinate(r)
    radius = r.f64()
    expiration = r.f64()
    logo = r.text()
    cert = _read_certificate(r)
    r.expect_end()
    return AdvertEvent(company, message, location, radius, expiration, logo, cert)


def encode_revocations(records: list[tuple[str, int, bool]]) -> bytes:
    w = _Writer().u16(len(records))
    for subject, count, revoked in records:
        w.text(subject).u32(count).u8(1 if revoked else 0)
    return w.done()


def decode_revocations(data: bytes) -> list[tuple[str, int, bool]]:
    r = _Reader(data)
    out = []
    for _ in range(r.u16()):
        out.append((r.text(), r.u32(), r.u8() == 1))
    r.expect_end()
    return out


def encode_pseudonym_change(old: bytes, new: bytes) -> bytes:
    return old + new


def decode_pseudonym_change(data: bytes) -> tuple[bytes, bytes]:
    if len(data) != 2 * PSEUDONYM_LEN:
        raise WireError("bad pseudonym change payload")
    return data[:PSEUDONYM_LEN], data[PSEUDONYM_LEN:]
