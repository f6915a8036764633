"""Binary wire formats: length-prefixed records with a one-byte type tag.

Byte-exactness matters for run determinism and for signing, not for
interoperability with any external stack.  Authentication traffic and
beacons travel in the clear; event payloads (tags 0x10 and up) are
sealed per session and the frame body is the sealed blob.
"""

from __future__ import annotations

import struct

from .events import AdvertEvent, CongestionObservation, ParkingEvent
from .geomodel import FORWARD, REVERSE, GeoCoordinate
from .aggregation import AggregatedEvent, SignedObservation
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

PSEUDONYM_LEN = 16
CHALLENGE_LEN = 16
COMMITMENT_LEN = 32
RESPONSE_LEN = 32


class WireError(Exception):
    pass


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, v: int) -> "_Writer":
        self.parts.append(struct.pack(">B", v)); return self

    def u16(self, v: int) -> "_Writer":
        self.parts.append(struct.pack(">H", v)); return self

    def u32(self, v: int) -> "_Writer":
        self.parts.append(struct.pack(">I", v)); return self

    def f64(self, v: float) -> "_Writer":
        self.parts.append(struct.pack(">d", v)); return self

    def raw(self, b: bytes) -> "_Writer":
        self.parts.append(b); return self

    def blob(self, b: bytes) -> "_Writer":
        self.parts.append(struct.pack(">H", len(b)) + b); return self

    def text(self, s: str) -> "_Writer":
        return self.blob(s.encode())

    def done(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("record truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        return self._take(self.u16())

    def text(self) -> str:
        try:
            return self.blob().decode()
        except UnicodeDecodeError as exc:
            raise WireError("text field is not UTF-8") from exc

    def rest(self) -> bytes:
        out = self.data[self.pos:]
        self.pos = len(self.data)
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireError("trailing bytes in record")


def encode_frame(tag: int, body: bytes) -> bytes:
    return struct.pack(">I", 1 + len(body)) + struct.pack(">B", tag) + body


def decode_frame(buf: bytes) -> tuple[int, bytes]:
    if len(buf) < 5:
        raise WireError("frame truncated")
    length = struct.unpack(">I", buf[:4])[0]
    if len(buf) != 4 + length:
        raise WireError("frame length mismatch")
    return buf[4], buf[5:]


# -- beacons ---------------------------------------------------------------

def encode_beacon(pseudonym: bytes, sequence: int, tick: int) -> bytes:
    body = _Writer().raw(pseudonym).u32(sequence).u32(tick).done()
    return encode_frame(BEACON, body)


def decode_beacon(body: bytes) -> tuple[bytes, int, int]:
    r = _Reader(body)
    pseudonym = r.raw(PSEUDONYM_LEN)
    sequence = r.u32()
    tick = r.u32()
    r.expect_end()
    return pseudonym, sequence, tick


# -- authentication handshake ----------------------------------------------

def encode_auth_commit(session_id: bytes, pseudonym: bytes, commitments: list[bytes]) -> bytes:
    w = _Writer().raw(session_id).raw(pseudonym).u8(len(commitments))
    for c in commitments:
        w.raw(c)
    return encode_frame(AUTH_COMMIT, w.done())


def decode_auth_commit(body: bytes) -> tuple[bytes, bytes, list[bytes]]:
    r = _Reader(body)
    session_id = r.raw(16)
    pseudonym = r.raw(PSEUDONYM_LEN)
    commitments = [r.raw(COMMITMENT_LEN) for _ in range(r.u8())]
    r.expect_end()
    return session_id, pseudonym, commitments


def encode_auth_challenge(session_id: bytes, pseudonym: bytes, challenge: bytes,
                          commitments: list[bytes]) -> bytes:
    w = _Writer().raw(session_id).raw(pseudonym).raw(challenge).u8(len(commitments))
    for c in commitments:
        w.raw(c)
    return encode_frame(AUTH_CHALLENGE, w.done())


def decode_auth_challenge(body: bytes) -> tuple[bytes, bytes, bytes, list[bytes]]:
    r = _Reader(body)
    session_id = r.raw(16)
    pseudonym = r.raw(PSEUDONYM_LEN)
    challenge = r.raw(CHALLENGE_LEN)
    commitments = [r.raw(COMMITMENT_LEN) for _ in range(r.u8())]
    r.expect_end()
    return session_id, pseudonym, challenge, commitments


def encode_auth_response(session_id: bytes, initiator: bool, nonce: bytes,
                         responses: list[bytes], counter_challenge: bytes) -> bytes:
    w = _Writer().raw(session_id).u8(1 if initiator else 0).raw(nonce).u8(len(responses))
    for resp in responses:
        w.raw(resp)
    w.raw(counter_challenge)
    return encode_frame(AUTH_RESPONSE, w.done())


def decode_auth_response(body: bytes) -> tuple[bytes, bool, bytes, list[bytes], bytes]:
    r = _Reader(body)
    session_id = r.raw(16)
    initiator = r.u8() == 1
    nonce = r.raw(16)
    responses = [r.raw(RESPONSE_LEN) for _ in range(r.u8())]
    counter_challenge = r.raw(CHALLENGE_LEN)
    r.expect_end()
    return session_id, initiator, nonce, responses, counter_challenge


def encode_auth_result(session_id: bytes, accepted: bool) -> bytes:
    return encode_frame(AUTH_RESULT, _Writer().raw(session_id).u8(1 if accepted else 0).done())


def decode_auth_result(body: bytes) -> tuple[bytes, bool]:
    r = _Reader(body)
    session_id = r.raw(16)
    accepted = r.u8() == 1
    r.expect_end()
    return session_id, accepted


def encode_change_notice(sealed_blob: bytes) -> bytes:
    return encode_frame(CHANGE_NOTICE, sealed_blob)


# -- sealed event payloads ---------------------------------------------------

def encode_sealed(tag: int, sealed_blob: bytes) -> bytes:
    return encode_frame(tag, sealed_blob)


def _write_coordinate(w: _Writer, c: GeoCoordinate) -> None:
    w.f64(c.x).f64(c.y)


def _read_coordinate(r: _Reader) -> GeoCoordinate:
    return GeoCoordinate(r.f64(), r.f64())


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
    detected_at = r.f64()
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
