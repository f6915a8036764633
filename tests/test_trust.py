import dataclasses
import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetkit import crypto, kits, scenario, trust
from vanetkit.geomodel import DocumentError
from vanetkit.trust import (DuplicateUserError, RevocationStore, Roster,
                            TrustGraph, UnknownUserError, common_friends,
                            exchange_revocations, load_roster, register_user,
                            report_misbehavior, sign_friend)

from reference import dump_certificates


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


def _trust_state(roster):
    graph = TrustGraph.from_roster(roster)
    repositories = {user_id: (identity.repository.certificates(),
                              identity.repository.candidate_ids(),
                              identity.repository.candidate_keys())
                    for user_id, identity in roster.users.items()}
    return repositories, graph.nodes, graph.edges


def test_a_friendship_declared_twice_is_held_once():
    users = [("a", 1), ("b", 2), ("c", 3)]
    text = "".join(f"user {user_id} {seed}\n" for user_id, seed in users)
    once = load_roster(text + "friend a b\nfriend b c\n")
    twice = load_roster(text + "friend a b\nfriend b a\nfriend b c\nfriend c b\n")
    befriended = Roster()
    for user_id, seed in users:
        register_user(befriended, user_id, seed)
    for a, b in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]:
        befriended.befriend(a, b)
    expected = _trust_state(once)
    for roster in (twice, befriended):
        assert _trust_state(roster) == expected
        for identity in roster.users.values():
            held = [(c.subject, c.signer) for c in identity.repository.certificates()]
            assert len(held) == len(set(held))
    # A read after a later add sees that add: a's certificate for a new key of b.
    repo = twice.user("a").repository
    new_b = register_user(Roster(), "b", 99)
    replacement = trust.make_certificate("b", new_b.keys.public_key, "a",
                                         twice.user("a").keys.private_key)
    repo.add(replacement)
    assert repo.get("b", "a") is replacement
    assert replacement in repo.certificates()
    assert len(repo.certificates()) == len(expected[0]["a"][0])
    assert repo.candidate_ids() == expected[0]["a"][1]
    assert new_b.keys.public_key in repo.candidate_keys()
    assert twice.user("b").keys.public_key not in repo.candidate_keys()


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
    dump = dump_certificates(roster)
    assert dump.count("\n") == 3 + 4   # three self-certs + two mutual friendships


def test_roster_file_reports_all_problems():
    text = "user a 1\nuser a 2\nfriend a ghost\nbogus line\n"
    with pytest.raises(DocumentError) as err:
        load_roster(text)
    assert len(err.value.problems) == 3


# -- certificates are issued, and signed, on first read ------------------------

@pytest.fixture
def sign_calls(monkeypatch):
    calls = []
    real_sign = crypto.sign
    monkeypatch.setattr(crypto, "sign", lambda *a: calls.append(a) or real_sign(*a))
    return calls


@pytest.mark.filterwarnings("ignore:vehicle count")
def test_loading_and_building_a_demo_signs_nothing(tmp_path, sign_calls):
    directory = kits.demo_bundle(str(tmp_path / "demo"), vehicle_count=60, duration=5,
                                 seed=3, grid=4)
    bundle, problems = scenario.load_bundle(directory)
    assert problems == []
    bundle.build()
    assert sign_calls == []
    dump = dump_certificates(bundle.roster)
    assert len(sign_calls) == dump.count("\n")      # each certificate once, when read


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 3), st.integers(0, 10_000))
def test_lazy_certificates_equal_eager_ones(user_count, friends, seed):
    roster = load_roster(kits.demo_roster_text(user_count, friends_per_user=friends, seed=seed))
    for identity in roster.users.values():
        for cert in identity.repository.certificates():
            signer = roster.users[cert.signer].keys.private_key
            eager = trust.Certificate(
                cert.subject, cert.subject_public_key, cert.signer,
                crypto.sign(signer, trust._cert_message(cert.subject, cert.subject_public_key)))
            assert hash(cert) == hash(eager)
            assert cert == eager
            assert cert.signature == eager.signature


# sha256 of dump_certificates for each kit's roster, recorded while every
# certificate was still signed at load.
_KIT_CERTIFICATE_DIGESTS = {
    "congestion-chain": "c97a1552a08a5df04544745d60c6564c4d9f9291a2b7e0c3f41bb67fa8670c98",
    "parking": "0ea14de984983803272ccfa134c72ab16d5e84628b597ecccec646410ba52410",
    "find-car": "bb0206a3e9e2c04051d8c48e67c060929677290812468482c3253500ba48b031",
    "advert": "ea770bb2cda51acbae78c53b05719c55bb1ad9cb5cb35e31017a6f3a60596e40",
}


@pytest.mark.parametrize("name", kits.KIT_NAMES)
def test_kit_certificates_known_answer(name, tmp_path):
    kits.generate_kit(name, str(tmp_path))
    roster = load_roster((tmp_path / "roster.txt").read_text())
    dump = dump_certificates(roster)
    assert hashlib.sha256(dump.encode()).hexdigest() == _KIT_CERTIFICATE_DIGESTS[name]


# -- friendships are issued on first read, like self-certificates ------------

@pytest.fixture
def issued(monkeypatch):
    """(subject, signer) of every certificate `make_certificate` issues."""
    calls = []
    real = trust.make_certificate
    monkeypatch.setattr(trust, "make_certificate",
                        lambda subject, *rest: calls.append((subject, rest[1])) or
                        real(subject, *rest))
    return calls


@pytest.mark.filterwarnings("ignore:vehicle count")
def test_loading_and_running_a_bundle_issues_only_self_certificates(tmp_path, issued,
                                                                    sign_calls):
    """Loading and building issue and sign no certificate; a run issues the
    self-certificates it reads, and never a friend's certificate."""
    users = 60
    directory = kits.demo_bundle(str(tmp_path / "demo"), vehicle_count=users, duration=40,
                                 seed=3, grid=3)
    (tmp_path / "demo" / "roster.txt").write_text(
        kits.demo_roster_text(users, friends_per_user=8, seed=3))
    kits.generate_kit("congestion-chain", str(tmp_path / "kit"))
    runs = []
    for directory in (directory, str(tmp_path / "kit")):
        bundle, problems = scenario.load_bundle(directory)
        assert problems == []
        sim = bundle.build()
        assert issued == [] and sign_calls == []
        runs.append(sim.run())
        assert all(subject == signer for subject, signer in issued)
    assert runs[0].connections > 0
    # the three congestion-chain vehicles sign observations, so each reads its own
    assert sorted(issued) == [("uc", "uc"), ("ud", "ud"), ("ur", "ur")]


def test_a_friendship_issues_its_pair_once_for_both_repositories(issued, sign_calls):
    roster = Roster()
    a, b, c = (register_user(roster, user_id, seed) for user_id, seed in
               (("a", 1), ("b", 2), ("c", 3)))
    roster.befriend("a", "b")
    roster.befriend("c", "a")
    for user in (a, b, c):
        user.repository.candidate_keys()
        user.repository.candidate_ids()
    assert issued == [] and sign_calls == []
    assert a.repository.candidate_ids() == {"a", "b", "c"}
    assert b.repository.candidate_keys() == tuple(sorted([a.keys.public_key,
                                                          b.keys.public_key]))
    b_by_a = a.repository.get("b", "a")
    assert issued == [("b", "a"), ("a", "b")]        # the one friendship, in order
    assert len(sign_calls) == 2                      # each signed as it is issued
    assert b.repository.get("b", "a") is b_by_a
    assert b.repository.get("a", "b") is a.repository.get("a", "b")
    assert len(issued) == 2 and len(sign_calls) == 2
    assert b_by_a.verify(a.keys.public_key)
    assert b.repository.get("a", "b").verify(b.keys.public_key)
    assert a.self_certificate is a.repository.get("a", "a")
    assert issued[2:] == [("a", "a")] and len(sign_calls) == 3
    assert len(a.repository.certificates()) == 5     # issues the a-c friendship too
    assert len(issued) == 5 and len(sign_calls) == 5


def _eager_roster(users, friendships):
    roster = Roster()
    for user_id, seed in users:
        register_user(roster, user_id, seed)
    for x, y in friendships:
        sign_friend(roster.user(x), roster.user(y))
        sign_friend(roster.user(y), roster.user(x))
    return roster


def test_replacing_one_pair_of_a_friendship_keeps_the_other(issued):
    users = [("a", 1), ("b", 2), ("c", 3)]
    friendships = [("a", "b"), ("b", "c")]
    eager = _eager_roster(users, friendships)
    lazy = load_roster("".join(f"user {u} {seed}\n" for u, seed in users)
                       + "".join(f"friend {x} {y}\n" for x, y in friendships))
    new_b = register_user(Roster(), "b", 99)
    for roster in (eager, lazy):
        roster.user("a").repository.add(trust.make_certificate(
            "b", new_b.keys.public_key, "a", roster.user("a").keys.private_key))
    del issued[:]
    for user_id, _ in users:
        repo, expected = lazy.user(user_id).repository, eager.user(user_id).repository
        assert repo.candidate_keys() == expected.candidate_keys()
        assert repo.candidate_ids() == expected.candidate_ids()
    assert issued == [("b", "a"), ("a", "b")]         # the a-b friendship, for its survivor
    kept = lazy.user("a").repository.get("a", "b")
    assert kept is lazy.user("b").repository.get("a", "b")
    assert kept == eager.user("a").repository.get("a", "b")
    assert new_b.keys.public_key in lazy.user("a").repository.candidate_keys()
    assert lazy.user("b").keys.public_key not in lazy.user("a").repository.candidate_keys()
    for user_id, _ in users:
        assert (lazy.user(user_id).repository.certificates()
                == eager.user(user_id).repository.certificates())


def test_befriend_refuses_a_self_friendship_and_an_unknown_user():
    roster = Roster()
    register_user(roster, "a", 1)
    with pytest.raises(ValueError):
        roster.befriend("a", "a")
    with pytest.raises(KeyError):
        roster.befriend("a", "ghost")
    assert len(roster.user("a").repository.certificates()) == 1


def test_shared_certificate_is_signed_once(sign_calls):
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    held_by_a = a.repository.get("b", "a")
    held_by_b = b.repository.get("b", "a")
    assert held_by_a is held_by_b is cert
    assert held_by_a.signature == held_by_b.signature
    assert len(sign_calls) == 1
    assert held_by_b.verify(a.keys.public_key)


def _reachable(root):
    """Every object reachable from `root`, classes and modules left out."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(ref, type):
                seen[id(ref)] = ref
                todo.append(ref)
    return seen.values()


def test_no_certificate_references_a_private_key(sign_calls):
    """A certificate is a plain signed value from the moment it is issued:
    its five fields, and never a signer's private key."""
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    roster.befriend("a", "b")
    certs = [sign_friend(a, b)]
    assert len(sign_calls) == 1
    certs += a.repository.certificates() + b.repository.certificates()
    assert len(sign_calls) == 5      # the self-certificates and the friendship's pair
    for cert in certs:
        assert not any(obj is user.keys.private_key
                       for obj in _reachable(cert) for user in (a, b))
        assert [f.name for f in dataclasses.fields(cert)] == [
            "subject", "subject_public_key", "signer", "signature", "trust_weight"]
        assert cert.signature in gc.get_referents(cert)
        text = repr(cert)
        assert not any(user.keys.private_key.hex() in text for user in (a, b))


def test_certificate_stays_a_frozen_value(sign_calls):
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.signature = bytes(64)
    weighted = dataclasses.replace(cert, trust_weight=2)
    assert weighted.signature == cert.signature and weighted.trust_weight == 2
    signed = len(sign_calls)
    signature = bytes(64)
    explicit = trust.Certificate("b", b.keys.public_key, "a", signature)
    assert any(obj is signature for obj in gc.get_referents(explicit))
    assert explicit.signature is signature and len(sign_calls) == signed
    assert not explicit.verify(a.keys.public_key)


# Python heap that `load_roster` keeps per user of a 600-user demo roster
# with 8 friends per user, by tracemalloc on CPython 3.11: 5 712 bytes with
# a dict per repository keyed by (subject, signer) tuples and an instance
# dict on every certificate, identity and key pair, 2 097 with one list per
# repository and all three slotted, 1 145 with each friendship one entry
# whose two certificates are issued on first read.
_ROSTER_HEAP_PER_USER = 1400


def test_a_loaded_roster_keeps_its_heap_per_user_within_budget(monkeypatch):
    # A fresh public-key memo, so earlier tests' entries cannot lower the figure.
    monkeypatch.setattr(crypto, "_PUBLIC_KEYS", {})
    users = 600
    text = kits.demo_roster_text(users, friends_per_user=8, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        roster = load_roster(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(roster.users) == users
    assert kept / users <= _ROSTER_HEAP_PER_USER
