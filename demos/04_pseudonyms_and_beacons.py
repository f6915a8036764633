#!/usr/bin/env python3
"""Pseudonym rotation and what a beacon actually carries.

Beacons hold a 16-byte random pseudonym, a sequence number and the
tick: no coordinates, no speed, no long-term identity.  When a node
rotates, only authenticated peers can link old to new.
"""

import random

from vanetkit import PseudonymState, SessionKey, emit_beacon, rotate_pseudonym
from vanetkit import crypto, wire

rng = random.Random(12)

state = PseudonymState(now=0.0, rng=rng, min_lifetime=120.0, max_lifetime=600.0)
print(f"pseudonym {state.current.value.hex()[:16]}... "
      f"valid {state.current.valid_from:.0f}..{state.current.valid_until:.0f} s")

tick = 5
frame = emit_beacon(state, tick)
print(f"beacon frame ({len(frame)} bytes): {frame.hex()}")
print(f"  = pseudonym + sequence {state.sequence} + tick {tick}")

# Two authenticated peers hold session keys from earlier handshakes.
sessions = {
    "peer-east": SessionKey(crypto.sha256(b"east"), b"e" * 16, 0.0),
    "peer-west": SessionKey(crypto.sha256(b"west"), b"w" * 16, 0.0),
}
old = state.current.value
fresh, notices = rotate_pseudonym(state, now=150.0, rng=rng, sessions=sessions)
print(f"\nrotated {old.hex()[:8]}... -> {fresh.value.hex()[:8]}...; "
      f"{len(notices)} sealed notices, sequence reset to {state.sequence}")

for peer, notice_frame in notices:
    _, blob = wire.decode_frame(notice_frame)
    linked_old, linked_new = wire.decode_pseudonym_change(
        crypto.open_sealed(sessions[peer].key, blob))
    print(f"  {peer} decrypts the link: {linked_old.hex()[:8]}... -> {linked_new.hex()[:8]}...")

# An eavesdropper without a session key gets nothing.
try:
    crypto.open_sealed(crypto.sha256(b"eavesdropper"), wire.decode_frame(notices[0][1])[1])
except (crypto.WrongKeyError, crypto.IntegrityError) as err:
    print(f"outsider decryption fails: {type(err).__name__}")
