import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetkit import auth, crypto, wire
from vanetkit.aggregation import JourneyContactLog
from vanetkit.auth import (Handshakes, Party, PseudonymState, emit_beacon,
                           rotate_pseudonym, zk_mutual_authenticate)
from vanetkit.trust import RevocationStore, Roster, register_user

from reference import ref_decode_beacon


def make_party(roster, user_id, rng):
    return Party(roster.user(user_id), RevocationStore(set(roster.users)),
                 rng.randbytes(16))


def chain_roster():
    """a-F1-b and b-F2-c: a/b share F1, b/c share F2, a/c share nothing."""
    roster = Roster()
    for uid, seed in [("a", 1), ("b", 2), ("c", 3), ("F1", 4), ("F2", 5)]:
        register_user(roster, uid, seed)
    roster.befriend("a", "F1")
    roster.befriend("b", "F1")
    roster.befriend("b", "F2")
    roster.befriend("c", "F2")
    return roster


def test_accept_with_common_friend_and_equal_keys():
    rng = random.Random(1)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    transcript, keys = zk_mutual_authenticate(a, b, rng, now=10.0)
    assert transcript.outcome == auth.OUTCOME_ACCEPTED
    assert keys is not None
    assert keys[0].key == keys[1].key
    assert keys[0].established_at == 10.0


def test_reject_without_common_friend():
    rng = random.Random(2)
    roster = chain_roster()
    a, c = make_party(roster, "a", rng), make_party(roster, "c", rng)
    transcript, keys = zk_mutual_authenticate(a, c, rng, now=0.0)
    assert transcript.outcome == auth.OUTCOME_REJECTED
    assert keys is None


def test_direct_friends_authenticate():
    rng = random.Random(3)
    roster = Roster()
    register_user(roster, "a", 1)
    register_user(roster, "b", 2)
    roster.befriend("a", "b")
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    transcript, keys = zk_mutual_authenticate(a, b, rng, now=0.0)
    assert transcript.outcome == auth.OUTCOME_ACCEPTED
    assert keys is not None


def test_revoked_peer_rejected():
    rng = random.Random(4)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    for _ in range(3):
        a.revocations.report("b")
    transcript, keys = zk_mutual_authenticate(a, b, rng, now=0.0)
    assert transcript.outcome == auth.OUTCOME_REJECTED
    assert transcript.reason == auth.REASON_REVOKED
    assert keys is None


def test_revocation_knowledge_exchanged_after_accept():
    rng = random.Random(5)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    a.revocations.report("c")
    _, keys = zk_mutual_authenticate(a, b, rng, now=0.0)
    assert keys is not None
    assert b.revocations.records["c"].misbehavior_count == 1


def test_session_keys_differ_across_sessions():
    rng = random.Random(6)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    _, first = zk_mutual_authenticate(a, b, rng, now=0.0)
    _, second = zk_mutual_authenticate(a, b, rng, now=1.0)
    assert first[0].key != second[0].key


def test_completeness_over_random_rosters():
    """Acceptance must agree with the graph-intersection oracle."""
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(4, 12)
        roster = Roster()
        for i in range(n):
            register_user(roster, f"u{i}", 1000 + trial * 100 + i)
        adjacency = {f"u{i}": {f"u{i}"} for i in range(n)}
        for _ in range(rng.randrange(0, 2 * n)):
            x, y = rng.sample(range(n), 2)
            roster.befriend(f"u{x}", f"u{y}")
            adjacency[f"u{x}"].add(f"u{y}")
            adjacency[f"u{y}"].add(f"u{x}")
        x, y = rng.sample(range(n), 2)
        a, b = make_party(roster, f"u{x}", rng), make_party(roster, f"u{y}", rng)
        expected = bool(adjacency[f"u{x}"] & adjacency[f"u{y}"])
        transcript, keys = zk_mutual_authenticate(a, b, rng, now=0.0)
        assert (transcript.outcome == auth.OUTCOME_ACCEPTED) == expected
        assert (keys is not None) == expected


def test_replayed_responses_fail_fresh_challenges():
    """A recorded transcript must never satisfy a new challenge."""
    rng = random.Random(8)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    transcript, _ = zk_mutual_authenticate(a, b, rng, now=0.0)
    assert transcript.outcome == auth.OUTCOME_ACCEPTED
    verifier_keys = roster.user("b").repository.candidate_keys()
    # Sanity: the recorded responses do verify under the original challenge.
    assert auth.match_keys(verifier_keys, b"".join(transcript.commitments_initiator),
                           transcript.nonce_initiator, transcript.challenge_to_initiator,
                           b"".join(transcript.responses_initiator))
    accepted = 0
    for _ in range(10000):
        fresh = rng.randbytes(16)
        if fresh == transcript.challenge_to_initiator:
            continue
        if auth.match_keys(verifier_keys, b"".join(transcript.commitments_initiator),
                           transcript.nonce_initiator, fresh,
                           b"".join(transcript.responses_initiator)):
            accepted += 1
    assert accepted == 0


def test_commitments_padded_to_fixed_count():
    rng = random.Random(9)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    transcript, _ = zk_mutual_authenticate(a, b, rng, now=0.0)
    assert len(transcript.commitments_initiator) == auth.PAD_COMMITMENTS
    assert len(transcript.commitments_responder) == auth.PAD_COMMITMENTS


def test_beacon_contents_and_sequence():
    rng = random.Random(10)
    state = PseudonymState(0.0, rng)
    frames = [emit_beacon(state, 0), emit_beacon(state, 7)]
    for frame, expected in zip(frames, [(1, 0), (2, 7)]):
        tag, body = wire.decode_frame(frame)
        assert tag == wire.BEACON
        pseudonym, seq, tick = ref_decode_beacon(body)
        assert pseudonym == state.current.value
        assert (seq, tick) == expected
    assert state.sequence == 2


def test_rotation_notices_per_authenticated_peer():
    rng = random.Random(11)
    state = PseudonymState(0.0, rng)
    old = state.current.value
    keys = {f"peer{i}": auth.SessionKey(crypto.sha256(f"k{i}".encode()), b"p" * 16, 0.0)
            for i in range(3)}
    new, notices = rotate_pseudonym(state, 50.0, rng, keys)
    assert len(notices) == 3
    assert state.sequence == 0
    for peer, frame in notices:
        tag, blob = wire.decode_frame(frame)
        assert tag == wire.CHANGE_NOTICE
        payload = crypto.open_sealed(keys[peer].key, blob)
        got_old, got_new = wire.decode_pseudonym_change(payload)
        assert (got_old, got_new) == (old, new.value)
        # Nobody else's key opens the notice.
        for other, other_key in keys.items():
            if other != peer:
                with pytest.raises((crypto.WrongKeyError, crypto.IntegrityError)):
                    crypto.open_sealed(other_key.key, blob)


def test_rotation_without_peers_emits_nothing():
    rng = random.Random(12)
    state = PseudonymState(0.0, rng)
    _, notices = rotate_pseudonym(state, 10.0, rng, {})
    assert notices == []


def test_rotation_reproducible_with_fixed_seed():
    s1 = PseudonymState(0.0, random.Random(99))
    s2 = PseudonymState(0.0, random.Random(99))
    assert s1.current == s2.current
    n1, _ = rotate_pseudonym(s1, 5.0, random.Random(1), {})
    n2, _ = rotate_pseudonym(s2, 5.0, random.Random(1), {})
    assert n1 == n2


def test_pseudonym_lifetime_within_bounds():
    rng = random.Random(13)
    for _ in range(100):
        state = PseudonymState(0.0, rng, min_lifetime=120.0, max_lifetime=600.0)
        lifetime = state.current.valid_until - state.current.valid_from
        assert 120.0 <= lifetime <= 600.0


def make_handshakes(node_id, roster, user_id="a", seed=14):
    return Handshakes(node_id, roster.user(user_id), RevocationStore(set(roster.users)),
                      random.Random(seed), period=20.0)


def test_scheduler_rate_limits_attempts():
    handshakes = make_handshakes("a", chain_roster())
    attempts = 0
    for t in range(45):
        handshakes.expire(float(t))
        for peer in handshakes.due(["peer"], set(), float(t)):
            attempts += 1
            handshakes.open(peer, "b", b"p" * 16, float(t))
    assert attempts == 3   # ceil(45 / 20)
    # Already authenticated neighbors are never attempted.
    assert handshakes.due(["peer"], {"peer"}, 100.0) == []


def test_the_larger_id_opens_after_a_full_period_in_view():
    roster = chain_roster()
    smaller, larger = make_handshakes("n1", roster), make_handshakes("n2", roster)
    assert smaller.due(["n2"], set(), 0.0) == ["n2"]
    assert larger.due(["n1"], set(), 5.0) == []
    assert larger.due(["n1"], set(), 24.9) == []
    assert larger.due(["n1"], set(), 25.0) == ["n1"]


def test_one_attempt_per_peer_and_period():
    handshakes = make_handshakes("a", chain_roster())
    handshakes.open("p1", "b", b"p" * 16, 0.0)
    handshakes.expire(11.0)
    assert handshakes.initiators == {}
    assert handshakes.due(["p1", "p2"], set(), 19.0) == ["p2"]
    assert handshakes.due(["p1", "p2"], set(), 20.0) == ["p1", "p2"]


class _ReferenceSchedule:
    """The attempt rule as it was first written: `first_seen` holds every
    neighbour ever seen and `last_attempt` every attempt ever made."""

    def __init__(self, node_id, period):
        self.node_id, self.period = node_id, period
        self.first_seen, self.last_attempt = {}, {}

    def due(self, neighbors, sessions, initiators, now):
        out = []
        for peer in neighbors:
            first = self.first_seen.setdefault(peer, now)
            if (peer < self.node_id and now - first < self.period
                    or peer in sessions or peer in initiators):
                continue
            last = self.last_attempt.get(peer)
            if last is None or now - last >= self.period:
                out.append(peer)
        return out


_PEERS = ["b", "d", "f", "h"]       # on both sides of the node id "e"
_steps = st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 9.5, 10.0, 10.5, 19.5, 20.0, 20.5]),
              st.floats(min_value=0.0, max_value=45.0)),
    st.lists(st.sampled_from(_PEERS), unique=True),
    st.lists(st.sampled_from(_PEERS), unique=True)), max_size=30)


@settings(max_examples=150, deadline=None)
@given(_steps)
def test_the_schedule_picks_as_the_rule_that_keeps_every_entry(steps):
    """`due` keeps `first_seen` only for smaller ids and forgets attempts a
    full period old; over any neighbour sequence it picks what the rule
    that keeps every entry picks."""
    handshakes = make_handshakes("e", chain_roster())
    reference = _ReferenceSchedule("e", handshakes.period)
    now = 0.0
    for dt, neighbors, sessions in steps:
        now += dt
        handshakes.expire(now)
        picks = handshakes.due(sorted(neighbors), set(sessions), now)
        assert picks == reference.due(sorted(neighbors), set(sessions),
                                      handshakes.initiators, now)
        for peer in picks:
            handshakes.open(peer, "b", b"p" * 16, now)
            reference.last_attempt[peer] = now
        assert all(peer < "e" for peer in handshakes.first_seen)
        assert all(now - last < handshakes.period
                   for last in handshakes.last_attempt.values())


def test_no_attempt_to_a_peer_with_a_session_or_an_open_initiator():
    handshakes = make_handshakes("a", chain_roster())
    handshakes.open("p1", "b", b"p" * 16, 0.0)
    assert handshakes.due(["p1", "p2", "p3"], {"p2"}, 40.0) == ["p3"]


def test_expiry_drops_only_handshakes_older_than_the_timeout():
    roster = chain_roster()
    a, b = make_handshakes("a", roster), make_handshakes("b", roster, "b")
    timeout = auth.HANDSHAKE_TIMEOUT
    for peer, now in (("old", 0.0), ("young", 5.0)):
        commit = wire.decode_frame(a.open(peer, "b", b"p" * 16, now))
        b.receive(*commit, sender=peer, peer_user="a", pseudonym=b"q" * 16, now=now)
    old_session = a.initiators["old"].session_id
    for handshakes in (a, b):
        handshakes.expire(timeout)                    # none is older than the timeout yet
    assert sorted(a.initiators) == ["old", "young"] and len(b.responders) == 2
    for handshakes in (a, b):
        handshakes.expire(timeout + 1.0)
    assert sorted(a.initiators) == ["young"]
    assert [engine.peer for engine in b.responders.values()] == ["young"]
    assert old_session not in b.responders


def test_journey_contact_log():
    log = JourneyContactLog()
    log.record("peerA", 100.0)
    assert log.first_auth_at == 100.0 and log.distinct_peers == 1
    log.record("peerA", 150.0)   # same session identity
    assert log.distinct_peers == 1
    for i in range(4):
        log.record(f"p{i}", 200.0 + i)
    assert log.distinct_peers == 5
    assert log.first_auth_at == 100.0


def _slot_values(engine):
    """Every slot of a handshake engine, by name."""
    return {name: getattr(engine, name) for cls in type(engine).__mro__
            for name in getattr(cls, "__slots__", ())}


def test_engines_refuse_messages_of_another_session():
    """Each handshake step checks the session id and role it is given and
    raises before touching the engine's state; this holds under -O too."""
    rng = random.Random(3)
    roster = chain_roster()
    initiator = auth.AuthInitiator(make_party(roster, "a", rng), rng, 0.0)
    responder = auth.AuthResponder(make_party(roster, "b", rng), rng, 0.0)
    def body(frame):
        return wire.decode_frame(frame)[1]

    commit = wire.decode_auth_commit(body(initiator.start()))
    challenge = wire.decode_auth_challenge(body(responder.on_commit(*commit)))
    other = bytes(b ^ 0xFF for b in initiator.session_id)

    with pytest.raises(auth.SessionMismatchError):
        initiator.on_challenge(other, b"p" * 16, b"c" * 16, b"")
    assert initiator.peer_commitments == b""
    response = wire.decode_auth_response(body(initiator.on_challenge(*challenge)))
    stray_response = (other, True, b"n" * 16, b"", b"c" * 16)
    wrong_role = (initiator.session_id, False, b"n" * 16, b"", b"c" * 16)
    state = _slot_values(responder)
    for message in (stray_response, wrong_role):
        with pytest.raises(auth.SessionMismatchError):
            responder.on_response(*message)
    assert responder.outcome is None and _slot_values(responder) == state
    session_id, is_initiator, nonce, responses, _ = wire.decode_auth_response(
        body(responder.on_response(*response)))
    result = wire.decode_auth_result(body(initiator.on_peer_response(
        session_id, is_initiator, nonce, responses, 1.0)))
    with pytest.raises(auth.SessionMismatchError):
        responder.on_result(other, True, 1.0)
    assert responder.outcome is None
    responder.on_result(*result, 1.0)
    assert initiator.outcome == responder.outcome == auth.OUTCOME_ACCEPTED


# Per engine, besides its blocks: the engine object, its 16-byte fields, its
# 16-byte slot map and the Python object of its transcript hash, 350 to 470
# bytes by tracemalloc on CPython 3.11, which does not see the hash's
# OpenSSL context.  The allowance fails the test for one block more than
# expected (545 bytes) or for a block held as separate 32-byte `bytes`
# objects (about 680 more).
_ENGINE_ALLOWANCE = 700


def _retained_per_item(make, n=100):
    """Bytes each of `n` objects made by `make(i)` keeps allocated, by
    tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = [make(i) for i in range(n)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(held) == n
    return retained / n


def test_open_handshakes_hold_their_fields_as_blocks():
    """An initiator after `start()` holds no block: its own is in the
    running transcript hash.  After `on_challenge` it holds only the
    peer's.  A responder after `on_commit` holds only the peer's, and after
    accepting the initiator's proof none."""
    rng = random.Random(12)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, "b", rng)
    frames = [wire.decode_frame(auth.AuthInitiator(a, rng, 0.0).start())[1]
              for _ in range(100)]
    block = sys.getsizeof(bytes(32 * auth.PAD_COMMITMENTS))

    def body(frame):
        return wire.decode_frame(frame)[1]

    def initiator(_):
        engine = auth.AuthInitiator(a, rng, 0.0)
        engine.start()
        return engine

    def responder(i):
        engine = auth.AuthResponder(b, rng, 0.0)
        engine.on_commit(*wire.decode_auth_commit(frames[i]))
        return engine

    def challenged_initiator(_):
        engine, peer = auth.AuthInitiator(a, rng, 0.0), auth.AuthResponder(b, rng, 0.0)
        challenge = peer.on_commit(*wire.decode_auth_commit(body(engine.start())))
        engine.on_challenge(*wire.decode_auth_challenge(body(challenge)))
        return engine

    def accepting_responder(_):
        peer, engine = auth.AuthInitiator(a, rng, 0.0), auth.AuthResponder(b, rng, 0.0)
        challenge = engine.on_commit(*wire.decode_auth_commit(body(peer.start())))
        response = peer.on_challenge(*wire.decode_auth_challenge(body(challenge)))
        reply = engine.on_response(*wire.decode_auth_response(body(response)))
        assert wire.decode_frame(reply)[0] == wire.AUTH_RESPONSE    # accepted
        return engine

    for make in (initiator, responder, challenged_initiator, accepting_responder):
        make(0)                     # memoised keys and hash states
    assert _retained_per_item(initiator) <= _ENGINE_ALLOWANCE
    assert _retained_per_item(responder) <= block + _ENGINE_ALLOWANCE
    assert _retained_per_item(challenged_initiator) <= block + _ENGINE_ALLOWANCE
    assert _retained_per_item(accepting_responder) <= _ENGINE_ALLOWANCE


def _handshake_to_step(peer, upto):
    """Engines for a and `peer` of the chain roster, advanced through the
    first `upto` of the five messages; returns the RNG, both engines and
    each step taken as (engine method, its arguments)."""
    rng = random.Random(13)
    roster = chain_roster()
    a, b = make_party(roster, "a", rng), make_party(roster, peer, rng)
    eng_i, eng_r = auth.AuthInitiator(a, rng, 0.0), auth.AuthResponder(b, rng, 0.0)
    taken = []

    def take(step, *args):
        taken.append((step, args))
        return step(*args)

    def body(frame):
        return wire.decode_frame(frame)[1]

    out = take(eng_r.on_commit, *wire.decode_auth_commit(body(eng_i.start())))
    if upto > 1:
        out = take(eng_i.on_challenge, *wire.decode_auth_challenge(body(out)))
    if upto > 2:
        out = take(eng_r.on_response, *wire.decode_auth_response(body(out)))
    if upto > 3:
        out = take(eng_i.on_peer_response, *wire.decode_auth_response(body(out))[:4], 0.0)
    if upto > 4:
        take(eng_r.on_result, *wire.decode_auth_result(body(out)), 0.0)
    return rng, eng_i, eng_r, taken


@pytest.mark.parametrize("upto", [1, 2, 3, 4, 5])
def test_each_handshake_step_happens_once(upto):
    """A repeated step raises before it changes the engine or draws from
    the RNG, so a replayed message cannot shift the run's later draws."""
    rng, eng_i, eng_r, taken = _handshake_to_step("b", upto)
    step, args = taken[-1]
    engine = step.__self__
    state, before = _slot_values(engine), rng.getstate()
    with pytest.raises(auth.SessionMismatchError):
        step(*args)
    assert _slot_values(engine) == state and rng.getstate() == before
    if upto == 5:
        assert eng_i.outcome == eng_r.outcome == auth.OUTCOME_ACCEPTED


def test_a_rejecting_responder_cannot_be_asked_again():
    rng, eng_i, eng_r, taken = _handshake_to_step("c", 3)
    assert eng_r.outcome == auth.OUTCOME_REJECTED
    step, args = taken[-1]
    before = rng.getstate()
    with pytest.raises(auth.SessionMismatchError):
        step(*args)
    assert rng.getstate() == before and eng_r.reason == auth.REASON_NO_COMMON_FRIEND


def test_a_responder_takes_one_result_only():
    """After a rejecting result, an accepting one for the same session is
    refused: it changes no slot and makes no session key."""
    _, _, eng_r, _ = _handshake_to_step("b", 4)
    eng_r.on_result(eng_r.session_id, False, 0.0)
    assert eng_r.outcome == auth.OUTCOME_REJECTED
    state = _slot_values(eng_r)
    with pytest.raises(auth.SessionMismatchError):
        eng_r.on_result(eng_r.session_id, True, 0.0)
    assert _slot_values(eng_r) == state and eng_r.session_key is None


def test_steps_out_of_order_are_refused():
    _, eng_i, eng_r, _ = _handshake_to_step("b", 1)
    with pytest.raises(auth.SessionMismatchError):       # no challenge yet
        eng_i.on_peer_response(eng_i.session_id, False, b"n" * 16, b"", 0.0)
    with pytest.raises(auth.SessionMismatchError):       # no response yet
        eng_r.on_result(eng_r.session_id, True, 0.0)
    assert eng_i.outcome is None and eng_r.outcome is None


def test_start_happens_once_and_before_the_challenge():
    rng = random.Random(3)
    initiator = auth.AuthInitiator(make_party(chain_roster(), "a", rng), rng, 0.0)
    with pytest.raises(auth.SessionMismatchError):       # no commit sent yet
        initiator.on_challenge(initiator.session_id, b"p" * 16, b"c" * 16, b"")
    initiator.start()
    state, before = _slot_values(initiator), rng.getstate()
    with pytest.raises(auth.SessionMismatchError):
        initiator.start()
    assert _slot_values(initiator) == state and rng.getstate() == before


def test_more_candidate_keys_than_a_block_holds_fail_with_the_codec_error():
    """The slot map is one byte per slot, so a key count above 255 fails
    with the codec's `WireError`, as the block's encoding would.  Building
    the commitments fails before any draw, so a responder's commit step
    changes nothing."""
    keys = tuple(random.Random(i).randbytes(32) for i in range(256))
    rng = random.Random(1)
    _, slots = auth.build_commitments(keys[:255], b"n" * 16, rng)
    assert sorted(slots) == list(range(255))
    repository = type("Repository", (), {"candidate_keys": lambda self: keys})()
    identity = type("Identity", (), {"repository": repository})()
    party = Party(identity, RevocationStore(), b"p" * 16)
    before = rng.getstate()
    with pytest.raises(wire.WireError):
        auth.build_commitments(keys, b"n" * 16, rng)
    assert rng.getstate() == before
    with pytest.raises(wire.WireError):
        auth.AuthInitiator(party, rng, 0.0)
    responder = auth.AuthResponder(party, rng, 0.0)
    before = rng.getstate()
    with pytest.raises(wire.WireError):
        responder.on_commit(b"s" * 16, b"q" * 16, bytes(32 * auth.PAD_COMMITMENTS))
    assert responder.session_id is None and rng.getstate() == before


def test_engines_drop_each_block_after_its_last_reader():
    """The initiator drops its own block once the transcript is hashed and
    the peer's once it has checked the peer's proof; an accepting
    responder drops both once the transcript is hashed."""
    _, eng_i, eng_r, _ = _handshake_to_step("b", 2)
    assert eng_i.commitments == b"" and eng_i.peer_commitments != b""
    _, eng_i, eng_r, _ = _handshake_to_step("b", 4)
    assert eng_r.outcome is None and eng_r.commitments == eng_r.peer_commitments == b""
    assert eng_i.outcome == auth.OUTCOME_ACCEPTED and eng_i.peer_commitments == b""


def test_engines_drop_the_slot_map_once_the_responses_are_built():
    _, eng_i, eng_r, _ = _handshake_to_step("b", 1)
    assert eng_i._slots is not None and eng_r._slots is not None
    _, eng_i, eng_r, _ = _handshake_to_step("b", 3)
    assert eng_i._slots is None and eng_r._slots is None
