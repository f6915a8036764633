"""Corroboration and threshold-signed aggregation of congestion warnings.

A promoter that detects congestion asks authenticated neighbours to
corroborate; each corroborator that is itself stuck signs the matching
observation.  Once enough distinct signers support the same road,
direction and location cell, the promoter assembles an aggregated
packet.  The required signature count adapts to network density: with
fewer than one authenticated contact per minute two signatures suffice,
between one and four contacts per minute four are needed, above four
contacts per minute five.

The pool, the assembler and the verifier count a signer by one rule: a
valid signer (`_signer_problem`) whose key and pseudonym no signer counted
before it has (`_distinct_signer`).  So an attacker rotating pseudonyms on
one key pair never self-corroborates past the minimum threshold of two,
and one pseudonym never speaks for two keys.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from . import crypto
from .events import CongestionObservation, location_cell
from .trust import Certificate, RevocationStore, UserIdentity

MIN_REQUIRED_SIGNATURES = 2
TIME_QUANTUM = 60.0   # seconds; observations are signed against a minute bucket
_NO_PEERS: frozenset[str] = frozenset()


@dataclass(slots=True)
class JourneyContactLog:
    """Authentication history for the current journey.  A journey without
    contacts shares one empty `peers`; the first `record` makes its own."""
    first_auth_at: float | None = None
    peers: frozenset[str] | set[str] = _NO_PEERS   # session identities, not pseudonyms

    @property
    def distinct_peers(self) -> int:
        return len(self.peers)

    def record(self, peer: str, now: float) -> None:
        """Log an authenticated peer and, the first time, when it was.

        Distinctness follows the session identity, so a peer re-authenticating
        after a pseudonym change does not inflate the count.
        """
        if self.first_auth_at is None:
            self.first_auth_at = now
        if self.peers is _NO_PEERS:
            self.peers = set()
        self.peers.add(peer)

    def reset(self) -> None:
        self.first_auth_at = None
        self.peers = _NO_PEERS


def avg_users_per_minute(log: JourneyContactLog, now: float) -> float | None:
    """Authenticated peers per minute since the journey's first contact.

    Undefined (None) before the first authentication; the elapsed time
    is floored at one second to avoid dividing by zero.
    """
    if log.first_auth_at is None or log.distinct_peers == 0:
        return None
    minutes = max((now - log.first_auth_at) / 60.0, 1.0 / 60.0)
    return log.distinct_peers / minutes


def required_signatures(rate: float | None) -> int:
    """Adaptive threshold: <1/min needs 2, 1..4 needs 4, >4 needs 5."""
    if rate is None:
        return MIN_REQUIRED_SIGNATURES
    if rate < 0:
        raise ValueError("rate cannot be negative")
    if rate < 1.0:
        return 2
    if rate <= 4.0:
        return 4
    return 5


def canonical_observation(obs: CongestionObservation) -> bytes:
    """Byte-exact encoding signed by observers.

    Field order: road_id, direction, cell_x, cell_y, quantized time.
    Integers are big-endian so signatures reproduce across runs.
    """
    cx, cy = location_cell(obs.location)
    qt = math.floor(obs.detected_at / TIME_QUANTUM)
    road = obs.road_id.encode()
    return b"".join([
        struct.pack(">H", len(road)), road,
        struct.pack(">B", 0 if obs.direction == "fwd" else 1),
        struct.pack(">q", cx),
        struct.pack(">q", cy),
        struct.pack(">q", qt),
    ])


def observation_cell(obs: CongestionObservation) -> tuple:
    cx, cy = location_cell(obs.location)
    return (obs.road_id, obs.direction, cx, cy)


def event_id_for(obs: CongestionObservation) -> bytes:
    """Dedup key shared by all packets about the same congestion cell."""
    return crypto.sha256(b"vk-event", canonical_observation(obs))[:16]


@dataclass(frozen=True)
class SignedObservation:
    observation: CongestionObservation
    signer_pseudonym: bytes
    signer_certificate: Certificate    # the signer's self-certificate
    signature: bytes

    def verify(self) -> bool:
        return _signer_problem(self, observation_cell(self.observation)) is None


def _signer_problem(signed: SignedObservation, cell: tuple) -> str | None:
    """Why `signed` cannot count toward an aggregate over `cell`, or None:
    the first failing check of cell, self-certificate and signature."""
    if observation_cell(signed.observation) != cell:
        return "cell-mismatch"
    cert = signed.signer_certificate
    if cert.signer != cert.subject or not cert.verify(cert.subject_public_key):
        return "bad-certificate"
    if not crypto.verify(cert.subject_public_key,
                         canonical_observation(signed.observation), signed.signature):
        return "bad-signature"
    return None


def _distinct_signer(signed: SignedObservation, counted: list[SignedObservation]) -> bool:
    """True when no signature in `counted` shares `signed`'s certificate
    key or its pseudonym."""
    key = signed.signer_certificate.subject_public_key
    return not any(other.signer_certificate.subject_public_key == key
                   or other.signer_pseudonym == signed.signer_pseudonym for other in counted)


def sign_observation(obs: CongestionObservation, private_key: bytes,
                     self_certificate: Certificate, pseudonym: bytes) -> SignedObservation:
    sig = crypto.sign(private_key, canonical_observation(obs))
    return SignedObservation(obs, pseudonym, self_certificate, sig)


@dataclass(frozen=True)
class AggregatedEvent:
    observation: CongestionObservation          # canonical representative
    signatures: tuple[SignedObservation, ...]
    promoter_pseudonym: bytes
    created_at: float
    rate: float | None                           # promoter's contact rate when assembling
    threshold: int                               # signatures the promoter was required to collect

    @property
    def event_id(self) -> bytes:
        return event_id_for(self.observation)


def corroborate(observation: CongestionObservation, own_firing: CongestionObservation | None,
                signer: UserIdentity, pseudonym: bytes) -> SignedObservation | None:
    """Sign the received observation iff our own detector agrees: `own_firing`,
    the receiver's current candidate, targets the same road, direction and
    cell.  Only then are `signer`'s private key and self-certificate read,
    so a declined request issues and signs nothing."""
    if own_firing is None or observation_cell(observation) != observation_cell(own_firing):
        return None
    return sign_observation(observation, signer.keys.private_key,
                            signer.self_certificate, pseudonym)


def assemble_aggregate(observation: CongestionObservation,
                       signatures: list[SignedObservation],
                       rate: float | None, promoter_pseudonym: bytes,
                       now: float) -> AggregatedEvent | None:
    """Bundle the signatures once the adaptive threshold is met.

    Signatures that `_signer_problem` or `_distinct_signer` refuses are
    ignored, so the count is over distinct signers.  The usable
    signatures are a subset of `signatures`, so a list shorter than the
    threshold returns None before any signature is verified.
    """
    needed = required_signatures(rate)
    if len(signatures) < needed:
        return None
    cell = observation_cell(observation)
    usable: list[SignedObservation] = []
    for signed in signatures:
        if _signer_problem(signed, cell) is None and _distinct_signer(signed, usable):
            usable.append(signed)
    if len(usable) < needed:
        return None
    return AggregatedEvent(observation, tuple(usable), promoter_pseudonym, now, rate, needed)


def verify_aggregate(event: AggregatedEvent, revocations: RevocationStore) -> tuple[bool, str]:
    """Accept or reject with a reason; verifier-independent given equal
    revocation knowledge.

    The threshold evaluated is the one the promoter encoded in the
    packet, floored at the global minimum of two so a crafted packet can
    never claim a lower bar.
    """
    if not event.signatures:
        return False, "insufficient-signatures"
    cell = observation_cell(event.observation)
    counted: list[SignedObservation] = []
    for signed in event.signatures:
        problem = _signer_problem(signed, cell)
        if problem is not None:
            return False, problem
        if not _distinct_signer(signed, counted):
            return False, "duplicate-signer"
        if revocations.is_revoked(signed.signer_certificate.subject):
            return False, "revoked-signer"
        counted.append(signed)
    needed = max(MIN_REQUIRED_SIGNATURES, event.threshold)
    if len(counted) < needed:
        return False, "insufficient-signatures"
    return True, "ok"


class PendingObservation:
    """Promoter-side pool entry awaiting enough corroborating signatures."""

    def __init__(self, observation: CongestionObservation, own: SignedObservation,
                 created_at: float, expires_at: float):
        self.observation = observation
        self.signatures: list[SignedObservation] = [own]
        self.created_at = created_at
        self.expires_at = expires_at
        self.requested_peers: set[str] = set()

    def add_signature(self, signed: SignedObservation) -> bool:
        """Pool `signed` if it could count toward the aggregate."""
        if (_signer_problem(signed, observation_cell(self.observation)) is not None
                or not _distinct_signer(signed, self.signatures)):
            return False
        self.signatures.append(signed)
        return True
