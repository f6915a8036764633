import hashlib
import hmac
import inspect
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetkit import crypto


def test_sign_verify_roundtrip():
    private = crypto.derive_private_key(b"alice-seed")
    public = crypto.public_key(private)
    sig = crypto.sign(private, b"hello road")
    assert crypto.verify(public, b"hello road", sig)
    assert not crypto.verify(public, b"hello r0ad", sig)


def test_signing_is_deterministic():
    private = crypto.derive_private_key(b"seed")
    assert crypto.sign(private, b"m") == crypto.sign(private, b"m")


def test_distinct_keys_from_distinct_seeds():
    keys = {crypto.public_key(crypto.derive_private_key(str(i).encode())) for i in range(200)}
    assert len(keys) == 200


def test_tampering_any_byte_fails():
    rng = random.Random(7)
    private = crypto.derive_private_key(b"tamper")
    public = crypto.public_key(private)
    message = b"canonical observation bytes"
    sig = crypto.sign(private, message)
    for _ in range(1000):
        target = rng.choice(("key", "msg", "sig"))
        blob = {"key": public, "msg": message, "sig": sig}[target]
        i = rng.randrange(len(blob))
        flipped = bytes([b ^ (1 << rng.randrange(8)) if j == i else b
                         for j, b in enumerate(blob)])
        if target == "key":
            assert not crypto.verify(flipped, message, sig)
        elif target == "msg":
            assert not crypto.verify(public, flipped, sig)
        else:
            assert not crypto.verify(public, message, flipped)


def test_seal_roundtrip_and_key_separation():
    rng = random.Random(3)
    key_a = crypto.sha256(b"session-a")
    key_b = crypto.sha256(b"session-b")
    blob = crypto.seal(key_a, b"payload bytes", rng.randbytes(16))
    assert crypto.open_sealed(key_a, blob) == b"payload bytes"
    with pytest.raises(crypto.WrongKeyError):
        crypto.open_sealed(key_b, blob)


def test_seal_detects_tampering():
    rng = random.Random(4)
    key = crypto.sha256(b"session")
    blob = crypto.seal(key, b"secret event", rng.randbytes(16))
    for i in range(24, len(blob)):   # past nonce+keycheck: ciphertext and tag
        flipped = bytes([b ^ 1 if j == i else b for j, b in enumerate(blob)])
        with pytest.raises(crypto.IntegrityError):
            crypto.open_sealed(key, flipped)


def test_empty_payload_roundtrip():
    key = crypto.sha256(b"k")
    blob = crypto.seal(key, b"", bytes(16))
    assert crypto.open_sealed(key, blob) == b""


@settings(max_examples=300, deadline=None)
@given(key=st.binary(min_size=32, max_size=32), nonce=st.binary(min_size=16, max_size=16),
       plaintext=st.binary(max_size=200))
@example(key=bytes(32), nonce=bytes(16), plaintext=b"")
@example(key=bytes(32), nonce=bytes(16), plaintext=b"\x00" * 33)
def test_seal_and_open_xor_the_keystream_byte_by_byte(key, nonce, plaintext):
    """Both directions XOR with one integer operation; the reference is
    the per-byte XOR with the keystream, leading zero bytes included."""
    def per_byte(data):
        stream = crypto._keystream(key, nonce, len(data))
        return bytes(a ^ b for a, b in zip(data, stream))

    blob = crypto.seal(key, plaintext, nonce)
    ct = blob[16 + 8:len(blob) - 16]
    assert ct == per_byte(plaintext)
    assert crypto.open_sealed(key, blob) == plaintext == per_byte(ct)


def test_public_key_memo_returns_the_derived_key(monkeypatch):
    private = crypto.derive_private_key(b"memo")
    derived = pow(crypto.GROUP_G, int.from_bytes(private, "big"),
                  crypto.GROUP_P).to_bytes(crypto.PUBLIC_KEY_LEN, "big")
    assert crypto.public_key(private) == derived
    assert crypto.public_key(private) == derived          # repeated: from the memo
    signature = crypto.sign(private, b"msg")
    monkeypatch.setattr(crypto, "_PUBLIC_KEYS", {})
    assert crypto.sign(private, b"msg") == signature      # fresh: derived again
    assert crypto.public_key(private) == derived
    assert crypto.verify(derived, b"msg", signature)
    # The benchmark's tracer wraps plain functions only.
    assert inspect.isfunction(crypto.public_key) and inspect.isfunction(crypto.sign)


_W = crypto._G_WINDOW


@pytest.mark.parametrize("k", [0, 1, 2**_W - 1, 2**_W, crypto.GROUP_Q - 1,
                               2**256 - 1, crypto._G_LIMIT - 1])
def test_g_pow_matches_builtin_pow_at_window_edges(k):
    assert crypto._G_LIMIT - 1 >= 2**256 - 1          # every 32-byte scalar is in the table
    assert crypto._g_pow(k) == pow(crypto.GROUP_G, k, crypto.GROUP_P)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=crypto._G_LIMIT - 1))
def test_g_pow_matches_builtin_pow(k):
    assert crypto._g_pow(k) == pow(crypto.GROUP_G, k, crypto.GROUP_P)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-2**300, max_value=2**300))
def test_g_pow_outside_the_table_reduces_by_the_group_order(k):
    assert pow(crypto.GROUP_G, crypto.GROUP_Q, crypto.GROUP_P) == 1
    assert crypto._g_pow(k) == pow(crypto.GROUP_G, k % crypto.GROUP_Q, crypto.GROUP_P)


def test_g_pow_table_memory_is_bounded():
    table = crypto._G_TABLE
    size = sys.getsizeof(table) + sum(
        sys.getsizeof(row) + sum(sys.getsizeof(entry) for entry in row) for row in table)
    assert size < 256 * 1024


# (private key, public key, signature of b"hello road"), from builtin-`pow` signing.
_KNOWN_ANSWERS = [
    ("072a7fa3d5fcebff9965a3bf6dcf4e6976c94c06e2a9692b84b2b7e4b00e2a65",
     "b324a40aad5ca0f63a9605bcf76d689b4f1027a7c04a74c16d279be8552044ab",
     "24c07071487edfd36eb9079b7a7e5fe169b96457bf4875748dde17b7fb3bd63b"
     "49d8a8e21f4da8c4da965d33bb7399f4e09921ae2db1be1df8ca45c19e7b0646"),
    ("60d1870c91d42b20077e37586ad94bf06399ea86b8f06aa1658c5289baf92ace",
     "619b8a3a47485ff5af45e8c8b1520453672bb648f72460522a847058a86d6ce2",
     "e3e803ac44a31017d3342e63e7c8f26f601fd7ffe9c88a903dac3ba1d43fa6c9"
     "552e3b825e48b7a9e30618483bf6ada59c37cf5071d2c21161893c0d110d308e"),
    ("0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000004", None),
    ("77b977e579d46947386cd561501b55ae86bcc358098edc0285da251470a15ff2",
     "3bdcbbf2bcea34a39c366ab0a80daad7435e61ac04c76e0142ed128a3850affa", None),
    ("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "c8170f24ce60166f2958a558076ea351d376ccae6d0e55f7446c2baecf007a66", None),
]


@pytest.mark.parametrize("private,public,signature", _KNOWN_ANSWERS)
def test_known_answer_keys_and_signatures(private, public, signature, monkeypatch):
    monkeypatch.setattr(crypto, "_PUBLIC_KEYS", {})
    private = bytes.fromhex(private)
    assert crypto.public_key(private).hex() == public
    if signature is not None:
        assert crypto.sign(private, b"hello road").hex() == signature
        assert crypto.verify(bytes.fromhex(public), b"hello road", bytes.fromhex(signature))


def test_known_answer_derived_key():
    assert crypto.derive_private_key(b"alice").hex() == _KNOWN_ANSWERS[0][0]


_parts = st.lists(st.binary(max_size=80), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200), _parts)
@example(b"", [])
@example(b"", [b"", b"a", b""])
# keys of one sha256 block, one byte past it and well past it, which
# `hmac_sha256` hashes first
@example(bytes(range(64)), [b"vk-resp", b"c" * 32, b"n" * 16])
@example(bytes(range(65)), [b"vk-resp", b"c" * 32, b"n" * 16])
@example(bytes(200), [b"x" * 1500])
def test_one_shot_hashes_match_incremental_references(key, parts):
    h = hashlib.sha256()
    m = hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        h.update(part)
        m.update(part)
    assert crypto.sha256(*parts) == h.digest()
    assert crypto.hmac_sha256(key, *parts) == m.digest()


_scalars = st.one_of(st.binary(min_size=32, max_size=32), st.binary(max_size=40))
_signatures = st.one_of(st.binary(min_size=64, max_size=64), st.binary(max_size=70))


@settings(max_examples=150, deadline=None)
@given(_scalars, st.binary(max_size=40), _signatures)
def test_verify_memo_matches_uncached_check_on_random_inputs(public, message, signature):
    expected = crypto._verify(public, message, signature)
    assert crypto.verify(public, message, signature) is expected
    assert crypto.verify(public, message, signature) is expected     # answered from the memo


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=16), st.binary(max_size=48),
       st.sampled_from(("key", "msg", "sig")), st.integers(0, 1 << 16), st.integers(0, 7))
def test_verify_memo_after_cached_true(seed, message, target, index, bit):
    """A memoised True for the genuine triple never leaks to a triple that
    differs from it in one byte."""
    private = crypto.derive_private_key(seed)
    genuine = [crypto.public_key(private), message, crypto.sign(private, message)]
    assert crypto.verify(*genuine)
    tampered = list(genuine)
    field = ("key", "msg", "sig").index(target)
    blob = bytearray(tampered[field] or b"\x00")
    blob[index % len(blob)] ^= 1 << bit
    tampered[field] = bytes(blob)
    assert crypto.verify(*tampered) is crypto._verify(*tampered) is False
    assert crypto.verify(*genuine)


def test_verify_memo_takes_only_bytes():
    private = crypto.derive_private_key(b"memo")
    public = crypto.public_key(private)
    signature = crypto.sign(private, b"m")
    crypto._verify_memo.cache_clear()
    assert crypto.verify(bytearray(public), b"m", signature)
    assert crypto.verify(public, memoryview(b"m"), signature)
    assert crypto._verify_memo.cache_info().currsize == 0
    assert crypto.verify(public, b"m", signature)
    assert crypto._verify_memo.cache_info().currsize == 1
    assert crypto._verify_memo.cache_info().maxsize == crypto._VERIFY_MEMO_SIZE
