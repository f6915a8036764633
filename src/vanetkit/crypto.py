"""Desk-scale cryptographic primitives shared by the protocol layers.

Provides Schnorr signatures over a fixed 256-bit prime-order group,
a hash-keystream cipher with an integrity tag, and keyed-hash helpers.
Everything is deterministic given its inputs; nonces come from the
caller so simulation runs stay reproducible.

The contract these primitives honour is functional: sign/verify round
trips, verification failure on any byte tampering, ciphertext key
separation and tamper detection.  No claim of production-grade
strength or side-channel resistance is made.

Every power of the generator (public keys, signing nonces and the `g^s`
side of verification) reads a fixed-base table built once at import,
after Brickell, Gordon, McCurley & Wilson (EUROCRYPT 1992) and Lim &
Lee (CRYPTO 1994).  Row `i` holds `GROUP_G ** (j << (6 * i)) mod
GROUP_P` for `j < 64`; `_g_pow(k)` multiplies one entry per 6-bit
window of `k`.  The 43 rows cover every 32-byte scalar, take about
190 KB and make a generator power roughly 4 times faster than builtin
`pow`.  The arithmetic is exact, so keys and signatures are unchanged.
"""

from __future__ import annotations

import functools
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
    return hashlib.sha256(b"".join(parts)).digest()


_HMAC_BLOCK = 64   # sha256 block size
# the byte-wise XOR with each RFC 2104 pad, as `bytes.translate` tables
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256(key: bytes, *parts: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) of the joined parts: two sha256 calls over
    pads built from the key with a translation table, the bytes of
    `hmac.digest` in about two thirds of its time."""
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_INNER_PAD) + b"".join(parts)).digest()
    return hashlib.sha256(key.translate(_OUTER_PAD) + inner).digest()


_G_WINDOW = 6
_G_MASK = (1 << _G_WINDOW) - 1
_G_ROWS = -(-8 * PUBLIC_KEY_LEN // _G_WINDOW)   # enough windows for any 32-byte scalar


def _g_table() -> tuple[tuple[int, ...], ...]:
    rows = []
    base = GROUP_G
    for _ in range(_G_ROWS):
        row = [1]
        for _ in range(_G_MASK):
            row.append(row[-1] * base % GROUP_P)
        rows.append(tuple(row))
        base = row[-1] * base % GROUP_P   # base ** (2 ** _G_WINDOW): the next row's base
    return tuple(rows)


_G_TABLE = _g_table()
_G_LIMIT = 1 << (_G_WINDOW * _G_ROWS)   # exponents below this are read from the table as they are


def _g_pow(k: int) -> int:
    """`pow(GROUP_G, k, GROUP_P)` from the fixed-base table."""
    if not 0 <= k < _G_LIMIT:
        k %= GROUP_Q   # GROUP_G has order GROUP_Q
    r = 1
    for row in _G_TABLE:
        r = r * row[k & _G_MASK] % GROUP_P
        k >>= _G_WINDOW
    return r


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
        y = _g_pow(int.from_bytes(private, "big"))
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
    r = _g_pow(k)
    r_bytes = r.to_bytes(32, "big")
    e = _challenge_scalar(r_bytes, y, message)
    s = (k + e * x) % GROUP_Q
    return r_bytes + s.to_bytes(32, "big")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Schnorr check; results for `bytes` arguments are memoised.

    A run verifies the same signature many times (a self-certificate
    with every observation it covers, an aggregate at every receiver),
    and the answer depends on the arguments alone.  Other argument
    types, such as `bytearray`, are checked afresh every time."""
    if type(public) is bytes and type(message) is bytes and type(signature) is bytes:
        return _verify_memo(public, message, signature)
    return _verify(public, message, signature)


def _verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    y = int.from_bytes(public, "big")
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 < y < GROUP_P) or not (1 < r < GROUP_P) or s >= GROUP_Q:
        return False
    e = _challenge_scalar(signature[:32], public, message)
    # g^s == r * y^e (mod p)
    return _g_pow(s) == (r * pow(y, e, GROUP_P)) % GROUP_P


# A busy run checks a few hundred distinct signatures; the bound keeps a
# long sweep from holding every one it ever saw.
_VERIFY_MEMO_SIZE = 2048
_verify_memo = functools.lru_cache(maxsize=_VERIFY_MEMO_SIZE)(_verify)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha256(b"vk-stream", key, nonce, counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """`data` XOR `stream`, byte by byte, as one integer operation;
    `stream` is exactly as long as `data`."""
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


def seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt-then-MAC under a session key.

    Layout: nonce(16) | keycheck(8) | ciphertext | tag(16).  The keycheck
    lets a receiver distinguish wrong-key from tampering.
    """
    if len(nonce) != _NONCE_LEN:
        raise ValueError("nonce must be 16 bytes")
    keycheck = sha256(b"vk-kc", key, nonce)[:_KEYCHECK_LEN]
    ct = _xor(plaintext, _keystream(key, nonce, len(plaintext)))
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
    return _xor(ct, _keystream(key, nonce, len(ct)))
