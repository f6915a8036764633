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

Engines are pure state machines advanced by delivered wire messages,
one per session.  Each step happens at most once: a step the engine has
already taken, or cannot take yet, raises `SessionMismatchError` before
it changes any state or draws from the RNG, so a replayed message shifts
no later draw.  Thousands of handshakes are open at once in a large run,
so an engine has `__slots__` and keeps only what a later step reads: its
pseudonym, its node's revocation store and the shared candidate-key
tuple (no `Party`), and the peer's block only until `match_keys` has read
it.  Its own block goes out in a frame and into a running transcript
hash, and is not kept: the transcript is `sha256(session_id || C_i || C_r
|| challenge_r || challenge_i)`, fed one part at a time as each arrives,
which yields the one-shot digest (a TLS 1.3 transcript hash is kept the
same way, RFC 8446 section 4.4.1).  The responses go out in the frame and
are never kept.  The slot map is one byte per slot, an index into the
candidate-key tuple or `PAD_SLOT`, and is dropped once the responses are
built.  Step by step, besides its fixed fields:
- an initiator after `start` holds its slot map and the transcript hash
  over the session id and its own commitments;
- after `on_challenge` it has finished the transcript, so it holds the
  digest, its challenge and the peer's commitments, which
  `on_peer_response` matches and then drops;
- a responder after `on_commit` holds its slot map, the peer's
  commitments and the transcript hash over all but the initiator's
  challenge;
- after an accepting `on_response` it has finished the transcript and
  holds only the session key bytes for `on_result`.  A rejecting one
  keeps the peer's block and the hash, but its router drops it at once.

One router, `Handshakes`, holds a node's open engines and its attempt
schedule and routes each handshake message to its engine.  The
simulator and `zk_mutual_authenticate` both drive the five messages
through it, so every handshake test runs the routing a run uses.

Hashing is the cost of a handshake, so it is done with byte-equal
results but less work than the generic helpers.  A commitment is
`crypto.sha256(b"vk-commit", nonce, key)`: each key is fed to a copy of
one sha256 state over the label and nonce.  A response is HMAC-SHA256 of
the key over label, challenge and nonce (RFC 2104), from two sha256
calls over pads that each call builds from the key with a translation
table.  No hashing state outlives its call, so nothing is kept per key
between handshakes or between simulations.

A side's commitments, and its responses, are one `bytes` block of 32-byte
fields in slot order, as on the wire: the engines send and receive
blocks, and `match_keys` reads the peer's at 32-byte offsets.  One block
costs a single object where a list of fields costs one per field, and
most handshakes are held open only to end in rejection.  Padding fields
come from one `rng.randbytes(32 * n)` draw cut in slot order, which
yields the same bytes as `n` draws of 32.  `AuthTranscript` alone splits
the blocks into tuples of fields.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections.abc import Collection, Sequence
from dataclasses import dataclass

from . import crypto, wire
from .trust import RevocationStore, UserIdentity, exchange_revocations
from .wire import CHALLENGE_LEN, FIELD_LEN, PSEUDONYM_LEN

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SessionKey:
    key: bytes
    peer_pseudonym: bytes
    established_at: float


class PseudonymState:
    """Current pseudonym plus the beacon sequence counter."""

    __slots__ = ("min_lifetime", "max_lifetime", "sequence", "current")

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
        notices.append((peer, wire.encode_frame(wire.CHANGE_NOTICE, blob)))
    return state.current, notices


def emit_beacon(state: PseudonymState, tick: int) -> tuple[Beacon, bytes]:
    """Next beacon and its wire frame; the sequence increments by one."""
    state.sequence += 1
    beacon = Beacon(state.current.value, state.sequence, float(tick))
    return beacon, wire.encode_beacon(beacon.sender_pseudonym, beacon.sequence, tick)


# -- the sigma-style proof over a shared certificate key ---------------------

_COMMIT_LABEL = b"vk-commit"
_RESPONSE_LABEL = b"vk-resp"
_HMAC_BLOCK = 64   # sha256 block size
# A slot map's entry for a padding slot.  No key index reaches it, since a
# block holds at most `wire.MAX_FIELDS` fields.
PAD_SLOT = wire.MAX_FIELDS


def _commitment_prefix(nonce: bytes):
    """sha256 state over the commitment label and nonce; `.copy()` it and
    feed a key to get `crypto.sha256(b"vk-commit", nonce, key)`."""
    return hashlib.sha256(_COMMIT_LABEL + nonce)


# the byte-wise XOR with each RFC 2104 pad, as `bytes.translate` tables
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


def _response(key: bytes, message: bytes) -> bytes:
    """`crypto.hmac_sha256(key, message)`, in about two thirds of its time."""
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_INNER_PAD) + message).digest()
    return hashlib.sha256(key.translate(_OUTER_PAD) + inner).digest()


def _padding(slots: bytes, rng: random.Random):
    """Iterator over a random field per padding slot, in slot order, cut
    from one draw: the same bytes as one `randbytes(32)` per slot."""
    pad = rng.randbytes(FIELD_LEN * slots.count(PAD_SLOT))
    return iter([pad[i:i + FIELD_LEN] for i in range(0, len(pad), FIELD_LEN)])


# the 32-bit words behind the shuffle of a slot map of `PAD_COMMITMENTS` slots
_SHUFFLE_WORDS = struct.Struct(f"<{PAD_COMMITMENTS - 1}I")
# position i of a slot map takes the top (i + 1).bit_length() bits of a word
_SHUFFLE_SHIFTS = tuple(32 - (i + 1).bit_length() for i in range(PAD_SLOT + 1))


def _shuffle(slots: bytearray, rng: random.Random) -> None:
    """`rng.shuffle(slots)`: the same permutation from the same draws.

    CPython's shuffle is Fisher-Yates; for position `i` it draws
    `getrandbits(k)` with `k = (i + 1).bit_length()`, which is the top `k`
    bits of one 32-bit word, and draws again while that is above `i`.
    Here the words come from one `getrandbits(32 * (n - 1))` draw, which
    yields them low word first, and a rejection past the last of them
    draws one more word, so the generator ends in the same state."""
    count = max(len(slots) - 1, 0)
    words = _SHUFFLE_WORDS if count == PAD_COMMITMENTS - 1 else struct.Struct(f"<{count}I")
    draws = iter(words.unpack(rng.getrandbits(32 * count).to_bytes(4 * count, "little")))
    for i in range(count, 0, -1):
        shift = _SHUFFLE_SHIFTS[i]
        for j in draws:
            j >>= shift
            if j <= i:
                break
        else:                     # every word of the one draw is used
            j = rng.getrandbits(32) >> shift
            while j > i:
                j = rng.getrandbits(32) >> shift
        slots[i], slots[j] = slots[j], slots[i]


def build_commitments(keys: Sequence[bytes], nonce: bytes,
                      rng: random.Random) -> tuple[bytes, bytes]:
    """Commitment block padded and shuffled to hide which slots are real.

    Returns the commitments plus the slot map the prover needs for its
    responses: one byte per slot, the index in `keys` of the key behind a
    real slot or `PAD_SLOT` for padding.  The map is shuffled as a list of
    the keys and padding would be, with the same draws.  More keys than a
    block has fields raise `wire.WireError`, as encoding the block would.
    """
    if len(keys) > wire.MAX_FIELDS:
        raise wire.WireError(f"{len(keys)} candidate keys exceed a block's "
                             f"{wire.MAX_FIELDS} fields")
    slots = bytearray(range(len(keys))) + bytes([PAD_SLOT]) * (PAD_COMMITMENTS - len(keys))
    _shuffle(slots, rng)
    prefix = _commitment_prefix(nonce)
    pads = _padding(slots, rng)
    commitments = []
    for i in slots:
        if i == PAD_SLOT:
            commitments.append(next(pads))
        else:
            h = prefix.copy()
            h.update(keys[i])
            commitments.append(h.digest())
    return b"".join(commitments), bytes(slots)


def build_responses(keys: Sequence[bytes], slots: bytes, challenge: bytes, nonce: bytes,
                    rng: random.Random) -> bytes:
    """Response block for the slot map of `build_commitments(keys, ...)`."""
    message = _RESPONSE_LABEL + challenge + nonce
    pads = _padding(slots, rng)
    return b"".join([_response(keys[i], message) if i != PAD_SLOT else next(pads)
                     for i in slots])


def match_keys(own_keys: Sequence[bytes], commitments: bytes, nonce: bytes,
               challenge: bytes, responses: bytes) -> list[bytes]:
    """Keys of ours consistent with a commitment/response pair: the first
    commitment field equal to the key's commitment has the key's response
    in the same field of `responses`.  Fields start at multiples of 32."""
    if len(commitments) != len(responses) or len(commitments) % FIELD_LEN:
        return []
    prefix = _commitment_prefix(nonce)
    message = _RESPONSE_LABEL + challenge + nonce
    matched = []
    for key in own_keys:
        h = prefix.copy()
        h.update(key)
        digest = h.digest()
        at = commitments.find(digest)
        while at > 0 and at % FIELD_LEN:
            at = commitments.find(digest, at + 1)
        if at >= 0 and responses.startswith(_response(key, message), at):
            matched.append(key)
    return matched


def _session_key_bytes(transcript: bytes, shared_key: bytes, nonce_i: bytes,
                       nonce_r: bytes) -> bytes:
    return crypto.sha256(b"vk-skey", transcript, shared_key, nonce_i, nonce_r)


def _fields(block: bytes) -> tuple[bytes, ...]:
    return tuple(block[i:i + FIELD_LEN] for i in range(0, len(block), FIELD_LEN))


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
    __slots__ = ("pseudonym", "revocations", "keys", "rng", "started_at", "peer_user_id",
                 "outcome", "reason", "session_key", "session_id", "nonce",
                 "commitments", "_slots", "_transcript", "challenge_for_peer",
                 "peer_commitments", "peer_pseudonym")

    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None):
        self.pseudonym = party.pseudonym
        self.revocations = party.revocations
        self.keys = party.identity.repository.candidate_keys()
        self.rng = rng
        self.started_at = now
        self.peer_user_id = peer_user_id
        self.outcome: str | None = None
        self.reason = REASON_OK
        self.session_key: SessionKey | None = None
        self.commitments = b""
        # the slot map of our commitments, until the responses are built
        self._slots: bytes | None = None
        # the running transcript hash; an initiator then keeps its digest
        self._transcript = None
        self.peer_commitments = b""
        self.peer_pseudonym = b""

    def _shared_key(self, peer_nonce: bytes, peer_responses: bytes) -> bytes | None:
        """The shared key the peer's proof answers for, or None once the
        proof is rejected: no key of ours matches, or the peer is revoked."""
        matched = match_keys(self.keys, self.peer_commitments, peer_nonce,
                             self.challenge_for_peer, peer_responses)
        if not matched:
            self._finish(OUTCOME_REJECTED, REASON_NO_COMMON_FRIEND)
            return None
        if (self.peer_user_id is not None
                and self.revocations.is_revoked(self.peer_user_id)):
            self._finish(OUTCOME_REJECTED, REASON_REVOKED)
            return None
        return min(matched)

    def _finish(self, outcome: str, reason: str) -> None:
        self.outcome = outcome
        self.reason = reason


class SessionMismatchError(Exception):
    """A handshake message names another session than the engine's,
    claims the wrong role, or repeats or skips a step; the engine's state
    is left untouched."""


class MissingSessionKeyError(RuntimeError):
    """Both engines accepted a handshake but one of them holds no session key."""


def _check_session(expected: bytes, got: bytes, role_ok: bool = True,
                   step_ok: bool = True) -> None:
    if got != expected or not role_ok or not step_ok:
        raise SessionMismatchError("handshake message does not continue this session")


class AuthInitiator(_EngineBase):
    """Initiator side of the five-message mutual authentication."""

    __slots__ = ()

    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None):
        super().__init__(party, rng, now, peer_user_id)
        self.session_id = rng.randbytes(16)
        self.nonce = rng.randbytes(16)
        self.commitments, self._slots = build_commitments(self.keys, self.nonce, rng)
        self.challenge_for_peer = b""

    def start(self) -> bytes:
        """The commit frame.  The transcript hash takes the session id and
        our commitments, which are not held after that."""
        if self._transcript is not None:
            raise SessionMismatchError("handshake already started")
        frame = wire.encode_auth_commit(self.session_id, self.pseudonym, self.commitments)
        self._transcript = hashlib.sha256(self.session_id + self.commitments)
        self.commitments = b""
        return frame

    def on_challenge(self, session_id: bytes, peer_pseudonym: bytes, challenge: bytes,
                     peer_commitments: bytes) -> bytes:
        _check_session(self.session_id, session_id,
                       step_ok=self._transcript is not None and self._slots is not None)
        self.peer_pseudonym = peer_pseudonym
        self.peer_commitments = peer_commitments
        self.challenge_for_peer = self.rng.randbytes(CHALLENGE_LEN)
        transcript = self._transcript
        transcript.update(peer_commitments + challenge + self.challenge_for_peer)
        self._transcript = transcript.digest()
        responses = build_responses(self.keys, self._slots, challenge, self.nonce, self.rng)
        self._slots = None
        return wire.encode_auth_response(self.session_id, True, self.nonce,
                                         responses, self.challenge_for_peer)

    def on_peer_response(self, session_id: bytes, is_initiator: bool, peer_nonce: bytes,
                         peer_responses: bytes, now: float) -> bytes:
        """Verify the responder's proof and emit the final result frame."""
        _check_session(self.session_id, session_id, role_ok=not is_initiator,
                       step_ok=self._slots is None and self.outcome is None)
        shared = self._shared_key(peer_nonce, peer_responses)
        self.peer_commitments = b""
        if shared is None:
            return wire.encode_auth_result(self.session_id, False)
        key = _session_key_bytes(self._transcript, shared, self.nonce, peer_nonce)
        self.session_key = SessionKey(key, self.peer_pseudonym, now)
        self._finish(OUTCOME_ACCEPTED, REASON_OK)
        return wire.encode_auth_result(self.session_id, True)


class AuthResponder(_EngineBase):
    """Responder side; challenges first, proves second.  `peer` is the node
    that committed, the only one whose messages continue the handshake."""

    __slots__ = ("peer", "_key")

    def __init__(self, party: Party, rng: random.Random, now: float,
                 peer_user_id: str | None = None, peer: str | None = None):
        super().__init__(party, rng, now, peer_user_id)
        self.peer = peer
        self.session_id: bytes | None = None      # until the commit names it
        self.nonce = rng.randbytes(16)
        self.challenge_for_peer = rng.randbytes(CHALLENGE_LEN)
        # set once we accept the peer's proof: the session key if it accepts ours
        self._key: bytes | None = None

    def on_commit(self, session_id: bytes, peer_pseudonym: bytes,
                  peer_commitments: bytes) -> bytes:
        """The challenge frame.  Our commitments go into it and into the
        transcript hash, and are not held after that."""
        if self.session_id is not None:
            raise SessionMismatchError("handshake already committed")
        commitments, self._slots = build_commitments(self.keys, self.nonce, self.rng)
        self.session_id = session_id
        self.peer_pseudonym = peer_pseudonym
        self.peer_commitments = peer_commitments
        self._transcript = hashlib.sha256(session_id + peer_commitments + commitments
                                          + self.challenge_for_peer)
        return wire.encode_auth_challenge(session_id, self.pseudonym,
                                          self.challenge_for_peer, commitments)

    def on_response(self, session_id: bytes, is_initiator: bool, peer_nonce: bytes,
                    peer_responses: bytes, counter_challenge: bytes) -> bytes:
        """Verify the initiator's proof; answer with our own or reject."""
        _check_session(self.session_id, session_id, role_ok=is_initiator,
                       step_ok=self._slots is not None)
        slots, self._slots = self._slots, None
        shared = self._shared_key(peer_nonce, peer_responses)
        if shared is None:
            return wire.encode_auth_result(self.session_id, False)
        transcript, self._transcript = self._transcript, None
        transcript.update(counter_challenge)
        self.peer_commitments = b""
        self._key = _session_key_bytes(transcript.digest(), shared, peer_nonce, self.nonce)
        return wire.encode_auth_response(
            self.session_id, False, self.nonce,
            build_responses(self.keys, slots, counter_challenge, self.nonce, self.rng),
            b"\x00" * 16)

    def on_result(self, session_id: bytes, accepted: bool, now: float) -> None:
        _check_session(self.session_id, session_id,
                       step_ok=self._slots is None and self.outcome is None)
        if accepted and self._key is not None:
            self.session_key = SessionKey(self._key, self.peer_pseudonym, now)
            self._finish(OUTCOME_ACCEPTED, REASON_OK)
        else:
            # The wire carries only the verdict, so the local reason for a
            # peer-side rejection stays generic.
            self._finish(OUTCOME_REJECTED, REASON_PEER_REJECTED)


def zk_mutual_authenticate(initiator: Party, responder: Party, rng: random.Random,
                           now: float) -> tuple[AuthTranscript, tuple[SessionKey, SessionKey] | None]:
    """Run the five-message exchange in process, passing each frame between
    two `Handshakes` routers named by the parties' user ids.

    Returns the transcript plus the (initiator, responder) session keys on
    acceptance, after which the parties exchange revocation knowledge, as
    the protocol requires after every successful authentication.
    """
    parties = (initiator, responder)
    ids = [party.identity.user_id for party in parties]
    routers = [Handshakes(i, p.identity, p.revocations, rng) for i, p in zip(ids, parties)]
    finished: list[_EngineBase | None] = [None, None]
    # each side's commitment and response blocks, as sent
    commitments, responses = [b"", b""], [b"", b""]
    frame, to = routers[0].open(ids[1], ids[1], initiator.pseudonym, now), 1
    while frame is not None:
        tag, body = wire.decode_frame(frame)
        if tag == wire.AUTH_COMMIT:
            commitments[0] = wire.decode_auth_commit(body)[2]
        elif tag == wire.AUTH_CHALLENGE:
            commitments[1] = wire.decode_auth_challenge(body)[3]
        elif tag == wire.AUTH_RESPONSE:
            responses[1 - to] = wire.decode_auth_response(body)[3]
        frame, done = routers[to].receive(tag, body, ids[1 - to], ids[1 - to],
                                          parties[to].pseudonym, now)
        if done is not None:
            finished[to] = done
        to = 1 - to
    eng_i, eng_r = finished
    specific = [r for r in (eng_i.reason, eng_r.reason)
                if r not in (REASON_OK, REASON_PEER_REJECTED)]

    transcript = AuthTranscript(
        initiator_pseudonym=initiator.pseudonym,
        responder_pseudonym=responder.pseudonym,
        commitments_initiator=_fields(commitments[0]),
        commitments_responder=_fields(commitments[1]),
        challenge_to_initiator=eng_r.challenge_for_peer,
        challenge_to_responder=eng_i.challenge_for_peer,
        nonce_initiator=eng_i.nonce,
        nonce_responder=eng_r.nonce,
        responses_initiator=_fields(responses[0]),
        responses_responder=_fields(responses[1]),
        outcome=OUTCOME_ACCEPTED if eng_i.outcome == OUTCOME_ACCEPTED
        and eng_r.outcome == OUTCOME_ACCEPTED else OUTCOME_REJECTED,
        reason=specific[0] if specific else REASON_OK,
        started_at=now,
    )
    if transcript.outcome != OUTCOME_ACCEPTED:
        return transcript, None
    exchange_revocations(initiator.revocations, responder.revocations)
    if eng_i.session_key is None or eng_r.session_key is None:
        raise MissingSessionKeyError("accepted handshake without a session key")
    return transcript, (eng_i.session_key, eng_r.session_key)


# -- one node's handshakes ----------------------------------------------------

HANDSHAKE_TAGS = frozenset({wire.AUTH_COMMIT, wire.AUTH_CHALLENGE, wire.AUTH_RESPONSE,
                            wire.AUTH_RESULT})
HANDSHAKE_TIMEOUT = 10.0     # seconds an open handshake is kept


class Handshakes:
    """One node's open handshakes and its attempt schedule.

    Initiator engines are held by peer, responder engines by session id;
    a responder names the peer that committed.  `due` allows a neighbour
    with neither a session nor an open initiator one attempt per period.
    The smaller id opens; the larger takes over once it has seen the peer
    for a full period, which heals a pair where one side lost the final
    message.

    The schedule holds only what `due` reads: `first_seen` only peers with
    a smaller id, and `last_attempt` only attempts less than a period old,
    since an older one allows the next attempt as a missing one does.
    """

    __slots__ = ("node_id", "identity", "revocations", "rng", "period",
                 "initiators", "responders", "last_attempt", "first_seen")

    def __init__(self, node_id: str, identity: UserIdentity, revocations: RevocationStore,
                 rng: random.Random, period: float = DEFAULT_AUTH_PERIOD):
        self.node_id = node_id
        self.identity = identity
        self.revocations = revocations
        self.rng = rng
        self.period = period
        self.initiators: dict[str, AuthInitiator] = {}
        self.responders: dict[bytes, AuthResponder] = {}
        self.last_attempt: dict[str, float] = {}
        self.first_seen: dict[str, float] = {}

    def due(self, neighbors: Sequence[str], sessions: Collection[str], now: float) -> list[str]:
        """The neighbours to open a handshake with now, in `neighbors` order."""
        out = []
        for peer in neighbors:
            if (peer < self.node_id
                    and now - self.first_seen.setdefault(peer, now) < self.period
                    or peer in sessions or peer in self.initiators):
                continue
            last = self.last_attempt.get(peer)
            if last is None or now - last >= self.period:
                out.append(peer)
        return out

    def open(self, peer: str, peer_user: str, pseudonym: bytes, now: float) -> bytes:
        """Open a handshake with `peer`, whose user is `peer_user`, under our
        `pseudonym`; returns the commit frame."""
        self.last_attempt[peer] = now
        engine = AuthInitiator(Party(self.identity, self.revocations, pseudonym),
                               self.rng, now, peer_user_id=peer_user)
        self.initiators[peer] = engine
        return engine.start()

    def receive(self, tag: int, body: bytes, sender: str, peer_user: str,
                pseudonym: bytes, now: float) -> tuple[bytes | None, _EngineBase | None]:
        """Route a message with a tag in `HANDSHAKE_TAGS` from `sender`.

        Returns the frame to send back and the engine the message finished,
        or None for either.  A message for no open handshake is dropped; one
        that fails to decode or to continue its engine's session raises
        before it changes any state or draws from the RNG.
        """
        if tag == wire.AUTH_COMMIT:
            session_id, peer_pseudonym, commitments = wire.decode_auth_commit(body)
            if session_id in self.responders:
                raise SessionMismatchError("handshake already committed")
            responder = AuthResponder(Party(self.identity, self.revocations, pseudonym),
                                      self.rng, now, peer_user_id=peer_user, peer=sender)
            self.responders[session_id] = responder
            return responder.on_commit(session_id, peer_pseudonym, commitments), None
        initiator = self.initiators.get(sender)
        if tag == wire.AUTH_CHALLENGE:
            if initiator is None:
                return None, None
            return initiator.on_challenge(*wire.decode_auth_challenge(body)), None
        if tag == wire.AUTH_RESPONSE:
            session_id, from_initiator, nonce, responses, counter = wire.decode_auth_response(body)
            if not from_initiator:
                if initiator is None:
                    return None, None
                reply = initiator.on_peer_response(session_id, False, nonce, responses, now)
                del self.initiators[sender]
                return reply, initiator
            responder = self.responders.get(session_id)
            if responder is None or responder.peer != sender:
                return None, None
            reply = responder.on_response(session_id, True, nonce, responses, counter)
            if responder.outcome is None:
                return reply, None
            del self.responders[session_id]      # rejected: nothing more can arrive
            return reply, responder
        session_id, accepted = wire.decode_auth_result(body)
        responder = self.responders.get(session_id)
        if responder is not None and responder.peer == sender:
            responder.on_result(session_id, accepted, now)   # raises on a step out of turn
            del self.responders[session_id]
            return None, responder
        if initiator is None or initiator.session_id != session_id:
            return None, None
        # The responder rejected our proof; the wire carries only the verdict.
        del self.initiators[sender]
        initiator._finish(OUTCOME_REJECTED, REASON_PEER_REJECTED)
        return None, initiator

    def expire(self, now: float) -> None:
        """Drop the handshakes open longer than `HANDSHAKE_TIMEOUT`, and the
        attempts a full period old."""
        if self.last_attempt:
            for peer in [p for p, last in self.last_attempt.items()
                         if now - last >= self.period]:
                del self.last_attempt[peer]
        if self.initiators:
            for peer in [p for p, engine in self.initiators.items()
                         if now - engine.started_at > HANDSHAKE_TIMEOUT]:
                del self.initiators[peer]
        if self.responders:
            for session_id in [s for s, engine in self.responders.items()
                               if now - engine.started_at > HANDSHAKE_TIMEOUT]:
                del self.responders[session_id]
