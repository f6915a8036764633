import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetkit import crypto, trust
from vanetkit.aggregation import (AggregatedEvent, JourneyContactLog,
                                  PendingObservation, SignedObservation, assemble_aggregate,
                                  avg_users_per_minute, canonical_observation,
                                  corroborate, event_id_for, observation_cell,
                                  required_signatures, sign_observation,
                                  verify_aggregate)
from vanetkit.events import CongestionObservation
from vanetkit.geomodel import FORWARD, GeoCoordinate
from vanetkit.trust import RevocationStore, Roster, register_user


def oracle_required(rate):
    """Independent case analysis of the adaptive threshold."""
    if rate is None:
        return 2
    if rate < 1.0:
        return 2
    if rate <= 4.0:
        return 4
    return 5


def test_threshold_paper_values():
    assert required_signatures(0.5) == 2
    assert required_signatures(2.0) == 4
    assert required_signatures(5.0) == 5
    assert required_signatures(1.0) == 4
    assert required_signatures(4.0) == 4
    assert required_signatures(None) == 2


def test_threshold_matches_oracle_on_random_rates():
    rng = random.Random(1)
    for _ in range(10000):
        rate = rng.uniform(0.0, 8.0) if rng.random() < 0.95 else rng.choice([0.0, 1.0, 4.0, None])
        assert required_signatures(rate) == oracle_required(rate)


def test_avg_users_per_minute():
    log = JourneyContactLog()
    assert avg_users_per_minute(log, 100.0) is None
    log.record("a", 0.0)
    log.record("b", 60.0)
    log.record("c", 120.0)
    assert avg_users_per_minute(log, 360.0) == pytest.approx(0.5)   # 3 peers / 6 min
    log2 = JourneyContactLog()
    for i in range(8):
        log2.record(f"p{i}", 0.0)
    assert avg_users_per_minute(log2, 120.0) == pytest.approx(4.0)  # 8 peers / 2 min
    log3 = JourneyContactLog()
    log3.record("only", 50.0)
    assert avg_users_per_minute(log3, 50.0) == pytest.approx(60.0)  # floored at 1 s


def observation(road="r1", direction=FORWARD, x=150.0, y=40.0, t=500.0,
                pseudonym=b"o" * 16):
    return CongestionObservation(road, direction, GeoCoordinate(x, y), t, pseudonym)


def signer(roster, uid, seed):
    ident = register_user(roster, uid, seed)
    return ident


def sign_as(ident, obs, pseudonym):
    return sign_observation(obs, ident.keys.private_key, ident.self_certificate, pseudonym)


def test_canonical_encoding_is_stable_and_cell_quantized():
    obs_a = observation(x=150.0, y=40.0, t=500.0)
    obs_b = observation(x=190.0, y=10.0, t=530.0)     # same 200 m cell, same minute bucket
    obs_c = observation(x=210.0, y=40.0, t=500.0)     # next cell over
    assert canonical_observation(obs_a) == canonical_observation(obs_b)
    assert canonical_observation(obs_a) != canonical_observation(obs_c)
    assert event_id_for(obs_a) == event_id_for(obs_b)
    # Byte-exact layout: length-prefixed road, direction, two cells, minute.
    encoded = canonical_observation(obs_a)
    assert encoded[:2] == b"\x00\x02" and encoded[2:4] == b"r1"
    assert encoded[4] == 0
    assert int.from_bytes(encoded[5:13], "big") == 0       # cell_x = floor(150/200)
    assert int.from_bytes(encoded[13:21], "big") == 0      # cell_y
    assert int.from_bytes(encoded[21:29], "big") == 8      # floor(500/60)


def test_corroborate_requires_matching_cell():
    roster = Roster()
    ident = signer(roster, "w", 1)
    obs = observation()
    same_cell = observation(x=120.0, pseudonym=b"w" * 16)
    other_road = observation(road="r2", pseudonym=b"w" * 16)
    assert corroborate(obs, same_cell, ident, b"w" * 16) is not None
    assert corroborate(obs, other_road, ident, b"w" * 16) is None
    assert corroborate(obs, None, ident, b"w" * 16) is None


def test_corroborator_signs_the_received_observation():
    roster = Roster()
    ident = signer(roster, "w", 1)
    obs = observation()
    own = observation(x=130.0, pseudonym=b"w" * 16)
    signed = corroborate(obs, own, ident, b"w" * 16)
    assert signed.observation == obs
    assert signed.verify()


def test_assemble_low_density_with_two_signatures():
    roster = Roster()
    promoter = signer(roster, "p", 1)
    helper = signer(roster, "h", 2)
    obs = observation(pseudonym=b"p" * 16)
    sigs = [sign_as(promoter, obs, b"p" * 16), sign_as(helper, obs, b"h" * 16)]
    event = assemble_aggregate(obs, sigs, rate=0.5, promoter_pseudonym=b"p" * 16, now=510.0)
    assert event is not None
    assert len(event.signatures) == 2
    assert event.threshold == 2


def test_assemble_insufficient_for_mid_density():
    roster = Roster()
    idents = [signer(roster, f"u{i}", i) for i in range(3)]
    obs = observation(pseudonym=b"0" * 16)
    sigs = [sign_as(ident, obs, f"{i}".encode() * 16) for i, ident in enumerate(idents)]
    assert assemble_aggregate(obs, sigs, rate=2.0, promoter_pseudonym=b"0" * 16, now=0.0) is None


def test_duplicate_certificate_counted_once():
    roster = Roster()
    promoter = signer(roster, "p", 1)
    obs = observation(pseudonym=b"p" * 16)
    sigs = [sign_as(promoter, obs, b"p" * 16), sign_as(promoter, obs, b"q" * 16)]
    assert assemble_aggregate(obs, sigs, rate=0.5, promoter_pseudonym=b"p" * 16, now=0.0) is None


def test_the_pool_refuses_a_second_signature_under_a_held_pseudonym():
    """The promoter's pool counts signers as the assembler and the verifier
    do: a pseudonym it holds cannot bring in a second key, and a key it
    holds cannot come back under a new pseudonym."""
    roster = Roster()
    promoter, helper, other = (signer(roster, uid, seed)
                               for uid, seed in (("p", 1), ("h", 2), ("o", 3)))
    obs = observation(pseudonym=b"p" * 16)
    pending = PendingObservation(obs, sign_as(promoter, obs, b"p" * 16), 500.0, 800.0)
    assert pending.add_signature(sign_as(helper, obs, b"h" * 16))
    assert not pending.add_signature(sign_as(other, obs, b"h" * 16))
    assert not pending.add_signature(sign_as(helper, obs, b"x" * 16))
    assert pending.add_signature(sign_as(other, obs, b"o" * 16))
    assert [s.signer_pseudonym for s in pending.signatures] == [b"p" * 16, b"h" * 16, b"o" * 16]


def accepted_event(rate=0.5):
    roster = Roster()
    promoter = signer(roster, "p", 1)
    helper = signer(roster, "h", 2)
    obs = observation(pseudonym=b"p" * 16)
    sigs = [sign_as(promoter, obs, b"p" * 16), sign_as(helper, obs, b"h" * 16)]
    return assemble_aggregate(obs, sigs, rate, b"p" * 16, 510.0), roster


def test_verify_accepts_well_formed_event():
    event, roster = accepted_event()
    ok, reason = verify_aggregate(event, RevocationStore(set(roster.users)))
    assert ok, reason


def test_verify_rejects_flipped_signature_byte():
    event, roster = accepted_event()
    victim = event.signatures[1]
    bad_sig = bytes([victim.signature[0] ^ 1]) + victim.signature[1:]
    tampered = AggregatedEvent(
        event.observation,
        (event.signatures[0],
         SignedObservation(victim.observation, victim.signer_pseudonym,
                           victim.signer_certificate, bad_sig)),
        event.promoter_pseudonym, event.created_at, event.rate, event.threshold)
    ok, reason = verify_aggregate(tampered, RevocationStore())
    assert not ok and reason == "bad-signature"


def test_verify_rejects_revoked_signer():
    event, roster = accepted_event()
    store = RevocationStore(set(roster.users))
    for _ in range(3):
        store.report("h")
    ok, reason = verify_aggregate(event, store)
    assert not ok and reason == "revoked-signer"


def test_verify_enforces_global_minimum_threshold():
    """A crafted packet claiming threshold 1 still needs two signers."""
    roster = Roster()
    attacker = signer(roster, "evil", 66)
    obs = observation(pseudonym=b"e" * 16)
    one_sig = (sign_as(attacker, obs, b"e" * 16),)
    crafted = AggregatedEvent(obs, one_sig, b"e" * 16, 0.0, rate=0.01, threshold=1)
    ok, reason = verify_aggregate(crafted, RevocationStore())
    assert not ok and reason == "insufficient-signatures"


def test_single_attacker_with_many_pseudonyms_never_accepted():
    """One key pair plus any number of pseudonyms cannot pass threshold 2."""
    rng = random.Random(5)
    roster = Roster()
    attacker = signer(roster, "sybil", 13)
    obs = observation(pseudonym=b"a" * 16)
    store = RevocationStore()
    for _ in range(300):
        pseudonyms = [rng.randbytes(16) for _ in range(rng.randrange(1, 11))]
        sigs = tuple(sign_as(attacker, obs, p) for p in pseudonyms)
        claimed_rate = rng.choice([None, 0.0, 0.5, 3.0, 9.0])
        claimed_threshold = rng.randrange(0, 6)
        crafted = AggregatedEvent(obs, sigs, pseudonyms[0], 0.0,
                                  claimed_rate, claimed_threshold)
        ok, _ = verify_aggregate(crafted, store)
        assert not ok


def test_soundness_random_signature_multisets():
    """Below-threshold distinct certificates never verify, duplicates included."""
    rng = random.Random(6)
    roster = Roster()
    idents = [signer(roster, f"s{i}", 100 + i) for i in range(6)]
    obs = observation(pseudonym=b"x" * 16)
    store = RevocationStore()
    for _ in range(200):
        chosen = [idents[rng.randrange(len(idents))] for _ in range(rng.randrange(1, 8))]
        sigs = tuple(sign_as(ident, obs, rng.randbytes(16)) for ident in chosen)
        rate = rng.choice([0.5, 2.0, 5.0])
        threshold = required_signatures(rate)
        crafted = AggregatedEvent(obs, sigs, b"x" * 16, 0.0, rate, threshold)
        ok, _ = verify_aggregate(crafted, store)
        distinct = len({ident.user_id for ident in chosen})
        distinct_pseudonym_ok = len({s.signer_pseudonym for s in sigs}) == len(sigs)
        expected = distinct == len(chosen) and distinct >= threshold and distinct_pseudonym_ok
        assert ok == expected


def test_verifier_independence():
    event, roster = accepted_event()
    a = RevocationStore(set(roster.users))
    b = RevocationStore(set(roster.users))
    assert verify_aggregate(event, a) == verify_aggregate(event, b)
    a.report("h")
    trust.exchange_revocations(a, b)
    assert verify_aggregate(event, a) == verify_aggregate(event, b)


def reference_assemble(observation, signatures, rate, promoter_pseudonym, now):
    """The promoter's rule with every signature verified, whatever the pool size."""
    cell = observation_cell(observation)
    usable, keys, pseudonyms = [], set(), set()
    for signed in signatures:
        if observation_cell(signed.observation) != cell:
            continue
        if not signed.verify():
            continue
        key = signed.signer_certificate.subject_public_key
        if key in keys or signed.signer_pseudonym in pseudonyms:
            continue
        keys.add(key)
        pseudonyms.add(signed.signer_pseudonym)
        usable.append(signed)
    needed = required_signatures(rate)
    if len(usable) < needed:
        return None
    return AggregatedEvent(observation, tuple(usable), promoter_pseudonym, now, rate, needed)


_POOL_ROSTER = Roster()
_POOL_SIGNERS = [signer(_POOL_ROSTER, f"pool{i}", 500 + i) for i in range(6)]
_POOL_OBSERVATIONS = [observation(pseudonym=b"p" * 16), observation(road="r2", pseudonym=b"p" * 16)]
_POOL_PSEUDONYMS = [bytes([65 + i]) * 16 for i in range(5)]
_POOL_SIGNED: dict[tuple[int, int, int], SignedObservation] = {}


def pooled(signer_index, pseudonym_index, observation_index, tampered):
    """One pool entry; signatures are made once per (signer, pseudonym, cell)."""
    key = (signer_index, pseudonym_index, observation_index)
    if key not in _POOL_SIGNED:
        _POOL_SIGNED[key] = sign_as(_POOL_SIGNERS[signer_index],
                                    _POOL_OBSERVATIONS[observation_index],
                                    _POOL_PSEUDONYMS[pseudonym_index])
    signed = _POOL_SIGNED[key]
    if tampered:
        sig = bytearray(signed.signature)
        sig[-1] ^= 1
        signed = SignedObservation(signed.observation, signed.signer_pseudonym,
                                   signed.signer_certificate, bytes(sig))
    return signed


pool_entries = st.tuples(st.integers(0, len(_POOL_SIGNERS) - 1),
                         st.integers(0, len(_POOL_PSEUDONYMS) - 1),
                         st.sampled_from([0, 0, 0, 1]),          # mostly the promoter's cell
                         st.booleans())
rates = st.none() | st.floats(min_value=0.0, max_value=8.0) | st.sampled_from([1.0, 4.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(pool_entries, max_size=8), rates)
def test_assemble_matches_verify_everything_reference(entries, rate):
    """Tampered signatures, repeated keys and repeated pseudonyms included,
    the short-circuit never changes the promoter's answer."""
    pool = [pooled(*entry) for entry in entries]
    obs = _POOL_OBSERVATIONS[0]
    assert (assemble_aggregate(obs, pool, rate, b"p" * 16, 510.0)
            == reference_assemble(obs, pool, rate, b"p" * 16, 510.0))


def test_assemble_below_threshold_verifies_nothing(monkeypatch):
    roster = Roster()
    idents = [signer(roster, f"u{i}", i) for i in range(5)]
    obs = observation(pseudonym=b"0" * 16)
    sigs = [sign_as(ident, obs, f"{i}".encode() * 16) for i, ident in enumerate(idents)]
    calls = []
    real_verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *a: calls.append(a) or real_verify(*a))
    for rate, needed in ((None, 2), (2.0, 4), (5.0, 5)):
        calls.clear()
        assert assemble_aggregate(obs, sigs[:needed - 1], rate, b"0" * 16, 0.0) is None
        assert calls == []
        event = assemble_aggregate(obs, sigs[:needed], rate, b"0" * 16, 0.0)
        assert event is not None and event.threshold == needed
        assert len(calls) == 2 * needed     # certificate and observation per signer
