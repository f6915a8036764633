import random

import pytest

from vanetkit import trust
from vanetkit.geomodel import DocumentError
from vanetkit.trust import (DuplicateUserError, RevocationStore, Roster,
                            TrustGraph, UnknownUserError, common_friends,
                            exchange_revocations, load_roster, register_user,
                            report_misbehavior, sign_friend)


def star_roster():
    """Hub H signed by/signing leaves L1..L5."""
    roster = Roster()
    register_user(roster, "H", 0)
    for i in range(1, 6):
        register_user(roster, f"L{i}", i)
        roster.befriend("H", f"L{i}")
    return roster


def test_register_creates_only_self_certificate():
    roster = Roster()
    ident = register_user(roster, "alice", 1)
    certs = ident.repository.certificates()
    assert len(certs) == 1
    assert certs[0].subject == certs[0].signer == "alice"
    assert certs[0].verify(ident.keys.public_key)


def test_register_duplicate_id_fails():
    roster = Roster()
    register_user(roster, "alice", 1)
    with pytest.raises(DuplicateUserError):
        register_user(roster, "alice", 2)


def test_distinct_seeds_give_distinct_keys():
    roster = Roster()
    a = register_user(roster, "u1", 1)
    b = register_user(roster, "u2", 2)
    assert a.keys.public_key != b.keys.public_key


def test_sign_friend_updates_both_repositories():
    roster = Roster()
    a = register_user(roster, "a", 1)
    b = register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    assert cert in a.repository.certificates()
    assert cert in b.repository.certificates()
    graph = TrustGraph.from_roster(roster)
    assert ("a", "b") in graph.edges


def test_candidate_keys_are_cached_until_a_certificate_is_added():
    roster = Roster()
    a = register_user(roster, "a", 1)
    b = register_user(roster, "b", 2)
    c = register_user(roster, "c", 3)
    repo = a.repository
    keys = repo.candidate_keys()
    assert keys == (a.keys.public_key,)
    assert repo.candidate_keys() is keys and isinstance(keys, tuple)
    sign_friend(b, a)
    sign_friend(a, c)
    sign_friend(b, a)                 # the same certificate again: same keys
    keys = repo.candidate_keys()
    assert keys == tuple(sorted({cert.subject_public_key for cert in repo.certificates()}))
    assert keys == tuple(sorted([a.keys.public_key, c.keys.public_key]))
    assert repo.candidate_keys() is keys


def test_mutual_signing_gives_mutual_edges():
    roster = Roster()
    register_user(roster, "a", 1)
    register_user(roster, "b", 2)
    roster.befriend("a", "b")
    graph = TrustGraph.from_roster(roster)
    assert ("a", "b") in graph.edges and ("b", "a") in graph.edges


def test_trust_graph_counts_for_10_users_15_friendships():
    # Oracle: construct the expected edge set by hand from the pair list.
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (4, 7),
             (5, 8), (6, 9), (7, 8), (8, 9), (2, 9), (3, 7), (4, 6)]
    roster = Roster()
    for i in range(10):
        register_user(roster, f"u{i}", i)
    expected = {(f"u{i}", f"u{i}") for i in range(10)}   # self-loops
    for a, b in pairs:
        roster.befriend(f"u{a}", f"u{b}")
        expected.add((f"u{a}", f"u{b}"))
        expected.add((f"u{b}", f"u{a}"))
    graph = TrustGraph.from_roster(roster)
    assert len(graph.nodes) == 10
    assert graph.edges == expected
    assert len(graph.edges) == 30 + 10


def test_trust_graph_edges_require_verification():
    roster = Roster()
    a = register_user(roster, "a", 1)
    b = register_user(roster, "b", 2)
    good = sign_friend(a, b)
    bad = trust.Certificate("b", b.keys.public_key, "a", bytes(64))
    a.repository.add(bad)   # overwrites the (b, a) slot with a forgery
    graph = TrustGraph.from_roster(roster)
    assert ("a", "b") not in graph.edges
    a.repository.add(good)
    assert ("a", "b") in TrustGraph.from_roster(roster).edges


def test_certificate_tamper_detection():
    rng = random.Random(5)
    roster = Roster()
    a = register_user(roster, "a", 1)
    b = register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    for _ in range(1000):
        i = rng.randrange(len(cert.subject_public_key))
        bit = 1 << rng.randrange(8)
        mutated = bytes([byte ^ bit if j == i else byte
                         for j, byte in enumerate(cert.subject_public_key)])
        forged = trust.Certificate(cert.subject, mutated, cert.signer, cert.signature)
        assert not forged.verify(a.keys.public_key)


def test_common_friends_examples():
    roster = star_roster()
    l1 = roster.user("L1").repository
    l2 = roster.user("L2").repository
    assert common_friends(l1, l2) == {"H"}
    # Disjoint: two leaves of different, unconnected stars.
    other = Roster()
    register_user(other, "X", 77)
    register_user(other, "Y", 78)
    assert common_friends(other.user("X").repository, other.user("Y").repository) == set()


def test_common_friends_symmetric():
    roster = star_roster()
    for a in roster.users:
        for b in roster.users:
            ra, rb = roster.user(a).repository, roster.user(b).repository
            assert common_friends(ra, rb) == common_friends(rb, ra)


def test_revocation_threshold_and_monotonicity():
    store = RevocationStore({"mallory"})
    rec = report_misbehavior(store, "mallory")
    assert rec.misbehavior_count == 1 and not rec.revoked
    report_misbehavior(store, "mallory")
    rec = report_misbehavior(store, "mallory")
    assert rec.revoked
    rec = report_misbehavior(store, "mallory")
    assert rec.revoked and rec.misbehavior_count == 4


def test_revocation_unknown_subject():
    store = RevocationStore({"alice"})
    with pytest.raises(UnknownUserError):
        report_misbehavior(store, "nobody")


def test_exchange_revocations_union_and_max():
    a = RevocationStore()
    b = RevocationStore()
    a.merge_record("x", 2, False)
    b.merge_record("x", 1, False)
    b.merge_record("y", 3, True)
    exchange_revocations(a, b)
    assert a.records["x"].misbehavior_count == 2
    assert b.records["x"].misbehavior_count == 2
    assert a.records["y"].revoked
    # Idempotent on identical stores.
    snapshot = {(r.subject, r.misbehavior_count, r.revoked) for r in a.records.values()}
    exchange_revocations(a, b)
    assert snapshot == {(r.subject, r.misbehavior_count, r.revoked) for r in a.records.values()}


def test_roster_file_roundtrip():
    text = """
# demo roster
user alice 1
user bob 2
user carol 3
friend alice bob
friend bob carol
"""
    roster = load_roster(text)
    assert set(roster.users) == {"alice", "bob", "carol"}
    assert common_friends(roster.user("alice").repository,
                          roster.user("carol").repository) == {"bob"}
    dump = trust.dump_certificates(roster)
    assert dump.count("\n") == 3 + 4   # three self-certs + two mutual friendships


def test_roster_file_reports_all_problems():
    text = "user a 1\nuser a 2\nfriend a ghost\nbogus line\n"
    with pytest.raises(DocumentError) as err:
        load_roster(text)
    assert len(err.value.problems) == 3
