import dataclasses
import gc
import hashlib
import random

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


# -- certificates are signed on first read --------------------------------------

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


def test_shared_certificate_is_signed_once(sign_calls):
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    held_by_a = a.repository._certs[("b", "a")]
    held_by_b = b.repository._certs[("b", "a")]
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


def test_pending_key_is_dropped_once_signed():
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    private = a.keys.private_key
    cert = sign_friend(a, b)
    assert any(obj is private for obj in _reachable(cert))     # pending until read
    text = repr(cert)
    assert private.hex() not in text and repr(private) not in text
    assert [f.name for f in dataclasses.fields(cert)] == [
        "subject", "subject_public_key", "signer", "signature", "trust_weight"]
    assert "_unsigned" not in vars(cert)
    assert not any(obj is private for obj in _reachable(cert))


def test_certificate_stays_a_frozen_value():
    roster = Roster()
    a, b = register_user(roster, "a", 1), register_user(roster, "b", 2)
    cert = sign_friend(a, b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.signature = bytes(64)
    weighted = dataclasses.replace(cert, trust_weight=2)
    assert weighted.signature == cert.signature and weighted.trust_weight == 2
    explicit = trust.Certificate("b", b.keys.public_key, "a", bytes(64))
    assert vars(explicit)["signature"] == bytes(64)
    assert not explicit.verify(a.keys.public_key)
