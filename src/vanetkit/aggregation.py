"""Corroboration and threshold-signed aggregation of congestion warnings.

A promoter that detects congestion asks authenticated neighbours to
corroborate; each corroborator that is itself stuck signs the matching
observation.  Once enough distinct signers support the same road,
direction and location cell, the promoter assembles an aggregated
packet.  The required signature count adapts to network density: with
fewer than one authenticated contact per minute two signatures suffice,
between one and four contacts per minute four are needed, above four
contacts per minute five.

Signer distinctness is judged by the underlying certificate, never the
pseudonym, so an attacker rotating pseudonyms on a single key pair can
never self-corroborate past the minimum threshold of two.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from . import crypto
from .events import CongestionObservation, location_cell
from .trust import Certificate, RevocationStore

MIN_REQUIRED_SIGNATURES = 2
TIME_QUANTUM = 60.0   # seconds; observations are signed against a minute bucket


@dataclass
class JourneyContactLog:
    """Authentication history for the current journey."""
    first_auth_at: float | None = None
    peers: set[str] = field(default_factory=set)   # session identities, not pseudonyms

    @property
    def distinct_peers(self) -> int:
        return len(self.peers)

    def record(self, peer: str, now: float) -> None:
        if self.first_auth_at is None:
            self.first_auth_at = now
        self.peers.add(peer)

    def reset(self) -> None:
        self.first_auth_at = None
        self.peers.clear()


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


def canonical_observation(obs: CongestionObservation, cell_size: float = 200.0,
                          time_quantum: float = TIME_QUANTUM) -> bytes:
    """Byte-exact encoding signed by observers.

    Field order: road_id, direction, cell_x, cell_y, quantized time.
    Integers are big-endian so signatures reproduce across runs.
    """
    cx, cy = location_cell(obs.location, cell_size)
    qt = math.floor(obs.detected_at / time_quantum)
    road = obs.road_id.encode()
    return b"".join([
        struct.pack(">H", len(road)), road,
        struct.pack(">B", 0 if obs.direction == "fwd" else 1),
        struct.pack(">q", cx),
        struct.pack(">q", cy),
        struct.pack(">q", qt),
    ])


def observation_cell(obs: CongestionObservation, cell_size: float = 200.0) -> tuple:
    cx, cy = location_cell(obs.location, cell_size)
    return (obs.road_id, obs.direction, cx, cy)


def event_id_for(obs: CongestionObservation, cell_size: float = 200.0) -> bytes:
    """Dedup key shared by all packets about the same congestion cell."""
    return crypto.sha256(b"vk-event", canonical_observation(obs, cell_size))[:16]


@dataclass(frozen=True)
class SignedObservation:
    observation: CongestionObservation
    signer_pseudonym: bytes
    signer_certificate: Certificate    # the signer's self-certificate
    signature: bytes

    def verify(self, cell_size: float = 200.0) -> bool:
        cert = self.signer_certificate
        if cert.signer != cert.subject or not cert.verify(cert.subject_public_key):
            return False
        return crypto.verify(cert.subject_public_key,
                             canonical_observation(self.observation, cell_size),
                             self.signature)


def sign_observation(obs: CongestionObservation, private_key: bytes,
                     self_certificate: Certificate, pseudonym: bytes,
                     cell_size: float = 200.0) -> SignedObservation:
    sig = crypto.sign(private_key, canonical_observation(obs, cell_size))
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
                private_key: bytes, self_certificate: Certificate, pseudonym: bytes,
                cell_size: float = 200.0) -> SignedObservation | None:
    """Sign the received observation iff our own detector agrees.

    `own_firing` is the receiver's current local observation candidate;
    signing requires it to target the same road, direction and cell.
    """
    if own_firing is None:
        return None
    if observation_cell(observation, cell_size) != observation_cell(own_firing, cell_size):
        return None
    return sign_observation(observation, private_key, self_certificate, pseudonym, cell_size)


def distinct_certificates(signatures: list[SignedObservation] | tuple[SignedObservation, ...]) -> int:
    return len({s.signer_certificate.subject_public_key for s in signatures})


def assemble_aggregate(observation: CongestionObservation,
                       signatures: list[SignedObservation],
                       rate: float | None, promoter_pseudonym: bytes, now: float,
                       cell_size: float = 200.0) -> AggregatedEvent | None:
    """Bundle the signatures once the adaptive threshold is met.

    Signatures over non-matching cells or failing verification are
    ignored; the count is over distinct signer certificates.  The usable
    signatures are a subset of `signatures`, so a list shorter than the
    threshold returns None before any signature is verified.
    """
    needed = required_signatures(rate)
    if len(signatures) < needed:
        return None
    cell = observation_cell(observation, cell_size)
    usable: list[SignedObservation] = []
    seen_keys: set[bytes] = set()
    seen_pseudonyms: set[bytes] = set()
    for signed in signatures:
        if observation_cell(signed.observation, cell_size) != cell:
            continue
        if not signed.verify(cell_size):
            continue
        key = signed.signer_certificate.subject_public_key
        if key in seen_keys or signed.signer_pseudonym in seen_pseudonyms:
            continue
        seen_keys.add(key)
        seen_pseudonyms.add(signed.signer_pseudonym)
        usable.append(signed)
    if len(usable) < needed:
        return None
    return AggregatedEvent(observation, tuple(usable), promoter_pseudonym, now, rate, needed)


def verify_aggregate(event: AggregatedEvent, revocations: RevocationStore,
                     cell_size: float = 200.0) -> tuple[bool, str]:
    """Accept or reject with a reason; verifier-independent given equal
    revocation knowledge.

    The threshold evaluated is the one the promoter encoded in the
    packet, floored at the global minimum of two so a crafted packet can
    never claim a lower bar.
    """
    if not event.signatures:
        return False, "insufficient-signatures"
    cell = observation_cell(event.observation, cell_size)
    keys: set[bytes] = set()
    pseudonyms: set[bytes] = set()
    for signed in event.signatures:
        if observation_cell(signed.observation, cell_size) != cell:
            return False, "cell-mismatch"
        cert = signed.signer_certificate
        if cert.signer != cert.subject or not cert.verify(cert.subject_public_key):
            return False, "bad-certificate"
        if not crypto.verify(cert.subject_public_key,
                             canonical_observation(signed.observation, cell_size),
                             signed.signature):
            return False, "bad-signature"
        if cert.subject_public_key in keys or signed.signer_pseudonym in pseudonyms:
            return False, "duplicate-signer"
        if revocations.is_revoked(cert.subject):
            return False, "revoked-signer"
        keys.add(cert.subject_public_key)
        pseudonyms.add(signed.signer_pseudonym)
    needed = max(MIN_REQUIRED_SIGNATURES, event.threshold)
    if len(keys) < needed:
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

    def add_signature(self, signed: SignedObservation, cell_size: float = 200.0) -> bool:
        if observation_cell(signed.observation, cell_size) != observation_cell(self.observation, cell_size):
            return False
        if not signed.verify(cell_size):
            return False
        if any(s.signer_certificate.subject_public_key == signed.signer_certificate.subject_public_key
               for s in self.signatures):
            return False
        self.signatures.append(signed)
        return True
