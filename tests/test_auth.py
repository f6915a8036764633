import random

import pytest

from vanetkit import auth, crypto, wire
from vanetkit.aggregation import JourneyContactLog
from vanetkit.auth import (AuthScheduler, Party, PseudonymState, emit_beacon,
                           record_journey_contact, rotate_pseudonym,
                           zk_mutual_authenticate)
from vanetkit.trust import RevocationStore, Roster


def make_party(roster, user_id, rng):
    return Party(roster.user(user_id), RevocationStore(set(roster.users)),
                 rng.randbytes(16))


def chain_roster():
    """a-F1-b and b-F2-c: a/b share F1, b/c share F2, a/c share nothing."""
    roster = Roster()
    for uid, seed in [("a", 1), ("b", 2), ("c", 3), ("F1", 4), ("F2", 5)]:
        roster.register(uid, seed)
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
    roster.register("a", 1)
    roster.register("b", 2)
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
            roster.register(f"u{i}", 1000 + trial * 100 + i)
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
    assert auth.match_keys(verifier_keys, list(transcript.commitments_initiator),
                           transcript.nonce_initiator, transcript.challenge_to_initiator,
                           list(transcript.responses_initiator))
    accepted = 0
    for _ in range(10000):
        fresh = rng.randbytes(16)
        if fresh == transcript.challenge_to_initiator:
            continue
        if auth.match_keys(verifier_keys, list(transcript.commitments_initiator),
                           transcript.nonce_initiator, fresh,
                           list(transcript.responses_initiator)):
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
    b1, f1 = emit_beacon(state, 0)
    b2, f2 = emit_beacon(state, 1)
    assert b2.sequence == b1.sequence + 1
    tag, body = wire.decode_frame(f1)
    assert tag == wire.BEACON
    pseudonym, seq, tick = wire.decode_beacon(body)
    assert pseudonym == state.current.value
    assert (seq, tick) == (1, 0)
    assert b1.change_notice is None


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


def test_scheduler_rate_limits_attempts():
    sched = AuthScheduler(period=20.0)
    attempts = 0
    for t in range(45):
        due = sched.due_peers(["peer"], set(), set(), float(t))
        if due:
            attempts += 1
            sched.mark("peer", float(t))
    assert attempts == 3   # ceil(45 / 20)
    # Already authenticated neighbors are never attempted.
    assert sched.due_peers(["peer"], {"peer"}, set(), 100.0) == []


def test_journey_contact_log():
    log = JourneyContactLog()
    record_journey_contact(log, "peerA", 100.0)
    assert log.first_auth_at == 100.0 and log.distinct_peers == 1
    record_journey_contact(log, "peerA", 150.0)   # same session identity
    assert log.distinct_peers == 1
    for i in range(4):
        record_journey_contact(log, f"p{i}", 200.0 + i)
    assert log.distinct_peers == 5
    assert log.first_auth_at == 100.0


def test_engines_refuse_messages_of_another_session():
    """Each handshake step checks the session id and role it is given and
    raises before touching the engine's state; this holds under -O too."""
    rng = random.Random(3)
    roster = chain_roster()
    initiator = auth.AuthInitiator(make_party(roster, "a", rng), rng, 0.0)
    responder = auth.AuthResponder(make_party(roster, "b", rng), rng, 0.0)
    _, commit = wire.decode_frame(initiator.start())
    _, challenge = wire.decode_frame(responder.on_commit(commit))
    other = bytes(b ^ 0xFF for b in initiator.session_id)

    def body(frame):
        return wire.decode_frame(frame)[1]

    stray_challenge = body(wire.encode_auth_challenge(other, b"p" * 16, b"c" * 16, []))
    with pytest.raises(auth.SessionMismatchError):
        initiator.on_challenge(stray_challenge)
    assert initiator.peer_commitments == []
    _, response = wire.decode_frame(initiator.on_challenge(challenge))
    stray_response = body(wire.encode_auth_response(other, True, b"n" * 16, [], b"c" * 16))
    wrong_role = body(wire.encode_auth_response(initiator.session_id, False, b"n" * 16, [],
                                                b"c" * 16))
    for message in (stray_response, wrong_role):
        with pytest.raises(auth.SessionMismatchError):
            responder.on_response(message)
    assert responder.outcome is None and responder.matched == []
    _, counter = wire.decode_frame(responder.on_response(response))
    _, result = wire.decode_frame(initiator.on_peer_response(counter, 1.0))
    with pytest.raises(auth.SessionMismatchError):
        responder.on_result(body(wire.encode_auth_result(other, True)), 1.0)
    assert responder.outcome is None
    responder.on_result(result, 1.0)
    assert initiator.outcome == responder.outcome == auth.OUTCOME_ACCEPTED
