import inspect
import random

import pytest

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
