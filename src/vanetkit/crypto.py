"""Desk-scale cryptographic primitives shared by the protocol layers.

Provides Schnorr signatures over a fixed 256-bit prime-order group,
a hash-keystream cipher with an integrity tag, and keyed-hash helpers.
Everything is deterministic given its inputs; nonces come from the
caller so simulation runs stay reproducible.

The contract these primitives honour is functional: sign/verify round
trips, verification failure on any byte tampering, ciphertext key
separation and tamper detection.  No claim of production-grade
strength or side-channel resistance is made.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

# Safe prime p = 2q + 1; g = 4 generates the order-q subgroup of squares.
GROUP_P = 0xEF72EFCAF3A8D28E70D9AAC2A036AB5D0D7986B0131DB8050BB44A28E142BFE7
GROUP_Q = 0x77B977E579D46947386CD561501B55AE86BCC358098EDC0285DA251470A15FF3
GROUP_G = 4

PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64

_NONCE_LEN = 16
_KEYCHECK_LEN = 8
_TAG_LEN = 16


class IntegrityError(Exception):
    """Ciphertext was modified: authentication tag does not verify."""


class WrongKeyError(Exception):
    """Ciphertext was sealed under a different key."""


def sha256(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def hmac_sha256(key: bytes, *parts: bytes) -> bytes:
    h = _hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        h.update(part)
    return h.digest()


def derive_private_key(material: bytes) -> bytes:
    """Map arbitrary seed material to a private scalar, as 32 bytes."""
    x = int.from_bytes(sha256(b"vk-private", material), "big") % GROUP_Q
    if x == 0:
        x = 1
    return x.to_bytes(32, "big")


# private key -> public key; one modular exponentiation per key, not per signature
_PUBLIC_KEYS: dict[bytes, bytes] = {}


def public_key(private: bytes) -> bytes:
    public = _PUBLIC_KEYS.get(private)
    if public is None:
        y = pow(GROUP_G, int.from_bytes(private, "big"), GROUP_P)
        public = _PUBLIC_KEYS[private] = y.to_bytes(PUBLIC_KEY_LEN, "big")
    return public


def _challenge_scalar(commit: bytes, public: bytes, message: bytes) -> int:
    return int.from_bytes(sha256(b"vk-chal", commit, public, message), "big") % GROUP_Q


def sign(private: bytes, message: bytes) -> bytes:
    """Schnorr signature, deterministic: the nonce is derived from key and message."""
    x = int.from_bytes(private, "big")
    y = public_key(private)
    k = int.from_bytes(sha256(b"vk-nonce", private, message), "big") % GROUP_Q
    if k == 0:
        k = 1
    r = pow(GROUP_G, k, GROUP_P)
    r_bytes = r.to_bytes(32, "big")
    e = _challenge_scalar(r_bytes, y, message)
    s = (k + e * x) % GROUP_Q
    return r_bytes + s.to_bytes(32, "big")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    y = int.from_bytes(public, "big")
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 < y < GROUP_P) or not (1 < r < GROUP_P) or s >= GROUP_Q:
        return False
    e = _challenge_scalar(signature[:32], public, message)
    # g^s == r * y^e (mod p)
    return pow(GROUP_G, s, GROUP_P) == (r * pow(y, e, GROUP_P)) % GROUP_P


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha256(b"vk-stream", key, nonce, counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:length])


def seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt-then-MAC under a session key.

    Layout: nonce(16) | keycheck(8) | ciphertext | tag(16).  The keycheck
    lets a receiver distinguish wrong-key from tampering.
    """
    if len(nonce) != _NONCE_LEN:
        raise ValueError("nonce must be 16 bytes")
    keycheck = sha256(b"vk-kc", key, nonce)[:_KEYCHECK_LEN]
    ct = bytes(a ^ b for a, b in zip(plaintext, _keystream(key, nonce, len(plaintext))))
    tag = hmac_sha256(sha256(b"vk-mac", key), nonce, keycheck, ct)[:_TAG_LEN]
    return nonce + keycheck + ct + tag


def open_sealed(key: bytes, blob: bytes) -> bytes:
    if len(blob) < _NONCE_LEN + _KEYCHECK_LEN + _TAG_LEN:
        raise IntegrityError("sealed blob truncated")
    nonce = blob[:_NONCE_LEN]
    keycheck = blob[_NONCE_LEN:_NONCE_LEN + _KEYCHECK_LEN]
    ct = blob[_NONCE_LEN + _KEYCHECK_LEN:-_TAG_LEN]
    tag = blob[-_TAG_LEN:]
    if not _hmac.compare_digest(keycheck, sha256(b"vk-kc", key, nonce)[:_KEYCHECK_LEN]):
        raise WrongKeyError("sealed under a different key")
    expect = hmac_sha256(sha256(b"vk-mac", key), nonce, keycheck, ct)[:_TAG_LEN]
    if not _hmac.compare_digest(tag, expect):
        raise IntegrityError("authentication tag mismatch")
    return bytes(a ^ b for a, b in zip(ct, _keystream(key, nonce, len(ct))))
