"""Pseudonym lifecycle and zero-knowledge mutual authentication.

Nodes identify themselves on the air only by short-lived random
pseudonyms.  Two nodes authenticate by each proving knowledge of the
public key of some user both hold a certificate for, without revealing
which one: each side commits to a salted hash of every candidate key
(padded to a fixed count so repository size stays hidden), answers the
peer's random challenge with a keyed authenticator per candidate, and
the verifier accepts when any commitment/response pair is consistent
with a key it also holds.  Nothing is learned on mismatch beyond the
mismatch itself.

On success both sides derive the same session key from the transcript,
the shared key and both nonces, and exchange revocation knowledge.

Engines are pure state machines advanced by delivered wire messages;
the simulator serializes delivery, one engine instance per session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import crypto, wire
from .aggregation import JourneyContactLog
from .trust import RevocationStore, UserIdentity, exchange_revocations

PSEUDONYM_LEN = 16
CHALLENGE_LEN = 16
PAD_COMMITMENTS = 16
DEFAULT_MIN_LIFETIME = 120.0
DEFAULT_MAX_LIFETIME = 600.0
DEFAULT_AUTH_PERIOD = 20.0

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"

REASON_OK = "ok"
REASON_NO_COMMON_FRIEND = "no-common-friend"
REASON_REVOKED = "revoked"
REASON_TIMEOUT = "timeout"
REASON_PEER_REJECTED = "peer-rejected"


@dataclass(frozen=True)
class Pseudonym:
    value: bytes
    valid_from: float
    valid_until: float


@dataclass(frozen=True)
class Beacon:
    """Periodic presence announcement.

    Carries nothing but the pseudonym, a sequence number and the tick:
    no coordinates, no speed, no long-term key, no user id.  The change
    notice, present only in per-peer unicast copies after a rotation, is
    sealed under that peer's session key.
    """
    sender_pseudonym: bytes
    sequence: int
    timestamp: float
    change_notice: bytes | None = None


@dataclass(frozen=True)
class SessionKey:
    key: bytes
    peer_pseudonym: bytes
    established_at: float


class PseudonymState:
    """Current pseudonym plus the beacon sequence counter."""

    def __init__(self, now: float, rng: random.Random,
                 min_lifetime: float = DEFAULT_MIN_LIFETIME,
                 max_lifetime: float = DEFAULT_MAX_LIFETIME):
        self.min_lifetime = min_lifetime
        self.max_lifetime = max_lifetime
        self.sequence = 0
        self.current = self._fresh(now, rng)

    def _fresh(self, now: float, rng: random.Random) -> Pseudonym:
        lifetime = rng.uniform(self.min_lifetime, self.max_lifetime)
        return Pseudonym(rng.randbytes(PSEUDONYM_LEN), now, now + lifetime)

    def due(self, now: float) -> bool:
        return now >= self.current.valid_until


def rotate_pseudonym(state: PseudonymState, now: float, rng: random.Random,
                     sessions: dict[str, SessionKey]) -> tuple[Pseudonym, list[tuple[str, bytes]]]:
    """Switch to a fresh pseudonym and seal change notices per peer.

    Each currently authenticated peer gets one notice frame decryptable
    only under its own session key; outsiders see nothing linking old to
    new.  The beacon sequence resets so counters cannot correlate either.
    """
    old = state.current
    state.current = state._fresh(now, rng)
    state.sequence = 0
    notices: list[tuple[str, bytes]] = []
    payload = wire.encode_pseudonym_change(old.value, state.current.value)
    for peer in sorted(sessions):
        blob = crypto.seal(sessions[peer].key, payload, rng.randbytes(16))
        notices.append((peer, wire.encode_change_notice(blob)))
    return state.current, notices


def emit_beacon(state: PseudonymState, tick: int) -> tuple[Beacon, bytes]:
    """Next beacon and its wire frame; the sequence increments by one."""
    state.sequence += 1
    beacon = Beacon(state.current.value, state.sequence, float(tick))
    return beacon, wire.encode_beacon(beacon.sender_pseudonym, beacon.sequence, tick)


# -- the sigma-style proof over a shared certificate key ---------------------

def _commitment(nonce: bytes, key: bytes) -> bytes:
    return crypto.sha256(b"vk-commit", nonce, key)


def _response(key: bytes, challenge: bytes, nonce: bytes) -> bytes:
    return crypto.hmac_sha256(key, b"vk-resp", challenge, nonce)


def build_commitments(keys: list[bytes], nonce: bytes,
                      rng: random.Random) -> tuple[list[bytes], list[bytes | None]]:
    """Commitment list padded and shuffled to hide which slots are real.

    Returns the commitments plus a slot map carrying the key behind each
    real slot (None for padding), which the prover needs for responses.
    """
    slots: list[bytes | None] = list(keys)
    while len(slots) < PAD_COMMITMENTS:
        slots.append(None)
    rng.shuffle(slots)
    commitments = [_commitment(nonce, k) if k is not None else rng.randbytes(32)
                   for k in slots]
    return commitments, slots


def build_responses(slots: list[bytes | None], challenge: bytes, nonce: bytes,
                    rng: random.Random) -> list[bytes]:
    return [_response(k, challenge, nonce) if k is not None else rng.randbytes(32)
            for k in slots]


def match_keys(own_keys: list[bytes], commitments: list[bytes], nonce: bytes,
               challenge: bytes, responses: list[bytes]) -> list[bytes]:
    """Keys of ours consistent with some commitment/response pair."""
    if len(commitments) != len(responses):
        return []
    index = {c: i for i, c in enumerate(commitments)}
    matched = []
    for key in own_keys:
        i = index.get(_commitment(nonce, key))
        if i is not None and responses[i] == _response(key, challenge, nonce):
            matched.append(key)
    return matched


def _session_key_bytes(session_id: bytes, commitments_i: list[bytes],
                       commitments_r: list[bytes], challenge_r: bytes, challenge_i: bytes,
                       shared_key: bytes, nonce_i: bytes, nonce_r: bytes) -> bytes:
    transcript = crypto.sha256(session_id, b"".join(commitments_i), b"".join(commitments_r),
                               challenge_r, challenge_i)
    return crypto.sha256(b"vk-skey", transcript, shared_key, nonce_i, nonce_r)


@dataclass
class AuthTranscript:
    initiator_pseudonym: bytes
    responder_pseudonym: bytes
    commitments_initiator: tuple[bytes, ...] = ()
    commitments_responder: tuple[bytes, ...] = ()
    challenge_to_initiator: bytes = b""
    challenge_to_responder: bytes = b""
    nonce_initiator: bytes = b""
    nonce_responder: bytes = b""
    responses_initiator: tuple[bytes, ...] = ()
    responses_responder: tuple[bytes, ...] = ()
    outcome: str = OUTCOME_REJECTED
    reason: str = REASON_OK
    started_at: float = 0.0


@dataclass
class Party:
    """One endpoint's authentication-relevant state."""
    identity: UserIdentity
    revocations: RevocationStore
    pseudonym: bytes


class _EngineBase:
    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None):
        self.party = party
        self.rng = rng
        self.started_at = now
        self.peer_user_id = peer_user_id
        self.keys = party.identity.repository.candidate_keys()
        self.outcome: str | None = None
        self.reason = REASON_OK
        self.session_key: SessionKey | None = None
        self.matched: list[bytes] = []
        self.sent_responses: list[bytes] = []

    def _peer_revoked(self) -> bool:
        return (self.peer_user_id is not None
                and self.party.revocations.is_revoked(self.peer_user_id))

    def _finish(self, outcome: str, reason: str) -> None:
        self.outcome = outcome
        self.reason = reason


class SessionMismatchError(Exception):
    """A handshake message names another session than the engine's, or
    claims the wrong role; the engine's state is left untouched."""


def _check_session(expected: bytes, got: bytes, role_ok: bool = True) -> None:
    if got != expected or not role_ok:
        raise SessionMismatchError("handshake message does not continue this session")


class AuthInitiator(_EngineBase):
    """Initiator side of the five-message mutual authentication."""

    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None):
        super().__init__(party, rng, now, peer_user_id)
        self.session_id = rng.randbytes(16)
        self.nonce = rng.randbytes(16)
        self.commitments, self._slots = build_commitments(self.keys, self.nonce, rng)
        self.peer_commitments: list[bytes] = []
        self.challenge_for_peer = b""
        self.challenge_from_peer = b""
        self.peer_pseudonym = b""

    def start(self) -> bytes:
        return wire.encode_auth_commit(self.session_id, self.party.pseudonym, self.commitments)

    def on_challenge(self, body: bytes) -> bytes:
        session_id, peer_pseudonym, challenge, peer_commitments = wire.decode_auth_challenge(body)
        _check_session(self.session_id, session_id)
        self.peer_pseudonym = peer_pseudonym
        self.peer_commitments = peer_commitments
        self.challenge_from_peer = challenge
        self.challenge_for_peer = self.rng.randbytes(CHALLENGE_LEN)
        self.sent_responses = build_responses(self._slots, challenge, self.nonce, self.rng)
        return wire.encode_auth_response(self.session_id, True, self.nonce,
                                         self.sent_responses, self.challenge_for_peer)

    def on_peer_response(self, body: bytes, now: float) -> bytes:
        """Verify the responder's proof and emit the final result frame."""
        session_id, is_initiator, peer_nonce, peer_responses, _ = wire.decode_auth_response(body)
        _check_session(self.session_id, session_id, role_ok=not is_initiator)
        self.matched = match_keys(self.keys, self.peer_commitments, peer_nonce,
                                  self.challenge_for_peer, peer_responses)
        if not self.matched:
            self._finish(OUTCOME_REJECTED, REASON_NO_COMMON_FRIEND)
            return wire.encode_auth_result(self.session_id, False)
        if self._peer_revoked():
            self._finish(OUTCOME_REJECTED, REASON_REVOKED)
            return wire.encode_auth_result(self.session_id, False)
        shared = min(self.matched)
        key = _session_key_bytes(self.session_id, self.commitments, self.peer_commitments,
                                 self.challenge_from_peer, self.challenge_for_peer,
                                 shared, self.nonce, peer_nonce)
        self.session_key = SessionKey(key, self.peer_pseudonym, now)
        self._finish(OUTCOME_ACCEPTED, REASON_OK)
        return wire.encode_auth_result(self.session_id, True)


class AuthResponder(_EngineBase):
    """Responder side; challenges first, proves second."""

    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None):
        super().__init__(party, rng, now, peer_user_id)
        self.session_id = b""
        self.nonce = rng.randbytes(16)
        self.challenge_for_peer = rng.randbytes(CHALLENGE_LEN)
        self.commitments: list[bytes] = []
        self._slots: list[bytes | None] = []
        self.peer_commitments: list[bytes] = []
        self.peer_pseudonym = b""
        self._accept_pending = False
        self._pending_key_material: tuple | None = None

    def on_commit(self, body: bytes) -> bytes:
        session_id, peer_pseudonym, peer_commitments = wire.decode_auth_commit(body)
        self.session_id = session_id
        self.peer_pseudonym = peer_pseudonym
        self.peer_commitments = peer_commitments
        self.commitments, self._slots = build_commitments(self.keys, self.nonce, self.rng)
        return wire.encode_auth_challenge(session_id, self.party.pseudonym,
                                          self.challenge_for_peer, self.commitments)

    def on_response(self, body: bytes) -> bytes:
        """Verify the initiator's proof; answer with our own or reject."""
        session_id, is_initiator, peer_nonce, peer_responses, counter_challenge = \
            wire.decode_auth_response(body)
        _check_session(self.session_id, session_id, role_ok=is_initiator)
        self.matched = match_keys(self.keys, self.peer_commitments, peer_nonce,
                                  self.challenge_for_peer, peer_responses)
        if not self.matched:
            self._finish(OUTCOME_REJECTED, REASON_NO_COMMON_FRIEND)
            return wire.encode_auth_result(self.session_id, False)
        if self._peer_revoked():
            self._finish(OUTCOME_REJECTED, REASON_REVOKED)
            return wire.encode_auth_result(self.session_id, False)
        shared = min(self.matched)
        self._pending_key_material = (shared, peer_nonce, counter_challenge)
        self._accept_pending = True
        self.sent_responses = build_responses(self._slots, counter_challenge, self.nonce, self.rng)
        return wire.encode_auth_response(self.session_id, False, self.nonce,
                                         self.sent_responses, b"\x00" * 16)

    def on_result(self, body: bytes, now: float) -> None:
        session_id, accepted = wire.decode_auth_result(body)
        _check_session(self.session_id, session_id)
        if accepted and self._accept_pending:
            shared, peer_nonce, counter_challenge = self._pending_key_material
            key = _session_key_bytes(self.session_id, self.peer_commitments, self.commitments,
                                     self.challenge_for_peer, counter_challenge,
                                     shared, peer_nonce, self.nonce)
            self.session_key = SessionKey(key, self.peer_pseudonym, now)
            self._finish(OUTCOME_ACCEPTED, REASON_OK)
        else:
            # The wire carries only the verdict, so the local reason for a
            # peer-side rejection stays generic.
            self._finish(OUTCOME_REJECTED,
                         self.reason if self.outcome else REASON_PEER_REJECTED)


def zk_mutual_authenticate(initiator: Party, responder: Party, rng: random.Random,
                           now: float) -> tuple[AuthTranscript, tuple[SessionKey, SessionKey] | None]:
    """Run the full five-message exchange in process.

    Returns the transcript plus the (initiator, responder) session keys
    on acceptance.  On acceptance the two parties also exchange
    revocation knowledge, as the protocol requires after every
    successful authentication.
    """
    eng_i = AuthInitiator(initiator, rng, now, peer_user_id=responder.identity.user_id)
    eng_r = AuthResponder(responder, rng, now, peer_user_id=initiator.identity.user_id)

    m1 = eng_i.start()
    m2 = eng_r.on_commit(wire.decode_frame(m1)[1])
    m3 = eng_i.on_challenge(wire.decode_frame(m2)[1])
    m4 = eng_r.on_response(wire.decode_frame(m3)[1])
    tag4, body4 = wire.decode_frame(m4)
    if tag4 == wire.AUTH_RESULT:
        # Responder rejected outright; the initiator learns only the verdict.
        eng_i._finish(OUTCOME_REJECTED, REASON_PEER_REJECTED)
    else:
        m5 = eng_i.on_peer_response(body4, now)
        eng_r.on_result(wire.decode_frame(m5)[1], now)

    specific = [r for r in (eng_i.reason, eng_r.reason)
                if r not in (REASON_OK, REASON_PEER_REJECTED)]

    transcript = AuthTranscript(
        initiator_pseudonym=initiator.pseudonym,
        responder_pseudonym=responder.pseudonym,
        commitments_initiator=tuple(eng_i.commitments),
        commitments_responder=tuple(eng_r.commitments),
        challenge_to_initiator=eng_r.challenge_for_peer,
        challenge_to_responder=eng_i.challenge_for_peer,
        nonce_initiator=eng_i.nonce,
        nonce_responder=eng_r.nonce,
        responses_initiator=tuple(eng_i.sent_responses),
        responses_responder=tuple(eng_r.sent_responses),
        outcome=OUTCOME_ACCEPTED if eng_i.outcome == OUTCOME_ACCEPTED
        and eng_r.outcome == OUTCOME_ACCEPTED else OUTCOME_REJECTED,
        reason=specific[0] if specific else REASON_OK,
        started_at=now,
    )
    if transcript.outcome != OUTCOME_ACCEPTED:
        return transcript, None
    exchange_revocations(initiator.revocations, responder.revocations)
    assert eng_i.session_key is not None and eng_r.session_key is not None
    return transcript, (eng_i.session_key, eng_r.session_key)


class AuthScheduler:
    """Rate-limits attempts: once per period per unauthenticated neighbor.

    `note_neighbor` records when a peer was first seen, which lets a
    node that would normally wait for the peer to initiate (the tie-break
    rule) take over after one full period.  That heals half-open pairs
    where one side completed the handshake and the other lost the final
    message.
    """

    def __init__(self, period: float = DEFAULT_AUTH_PERIOD):
        self.period = period
        self.last_attempt: dict[str, float] = {}
        self.first_seen: dict[str, float] = {}

    def note_neighbor(self, peer: str, now: float) -> None:
        self.first_seen.setdefault(peer, now)

    def grace_elapsed(self, peer: str, now: float) -> bool:
        first = self.first_seen.get(peer)
        return first is not None and now - first >= self.period

    def due_peers(self, neighbors: list[str], authenticated: set[str],
                  in_progress: set[str], now: float) -> list[str]:
        out = []
        for peer in neighbors:
            if peer in authenticated or peer in in_progress:
                continue
            last = self.last_attempt.get(peer)
            if last is None or now - last >= self.period:
                out.append(peer)
        return out

    def mark(self, peer: str, now: float) -> None:
        self.last_attempt[peer] = now


def record_journey_contact(log: JourneyContactLog, peer: str, now: float) -> JourneyContactLog:
    """Log the first-auth time and the distinct authenticated peers.

    Distinctness follows the session identity, so a peer re-authenticating
    after a pseudonym change does not inflate the count.
    """
    log.record(peer, now)
    return log
