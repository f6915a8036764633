#!/usr/bin/env python3
"""The web of trust and zero-knowledge mutual authentication.

Two strangers who share a friend can prove it to each other without
revealing which friend, then derive a common session key.  Misbehavior
reports spread after every successful authentication.
"""

import random

from vanetkit import (Party, RevocationStore, Roster, TrustGraph,
                      common_friends, register_user, zk_mutual_authenticate)

rng = random.Random(7)

# alice-hub and bob-hub are mutual friendships signed at registration
# time; alice and bob have never met.
roster = Roster()
for name, seed in [("alice", 1), ("bob", 2), ("hub", 3), ("loner", 4)]:
    register_user(roster, name, seed)
roster.befriend("alice", "hub")
roster.befriend("bob", "hub")

graph = TrustGraph.from_roster(roster)
print(f"trust graph: {len(graph.nodes)} users, {len(graph.edges)} signed edges")
print("common friends of alice and bob:",
      common_friends(roster.user("alice").repository, roster.user("bob").repository))

def party(name):
    return Party(roster.user(name), RevocationStore(set(roster.users)),
                 rng.randbytes(16))

# The proof runs commit -> challenge -> response in both directions; the
# transcript never names the shared friend.
transcript, keys = zk_mutual_authenticate(party("alice"), party("bob"), rng, now=0.0)
print(f"alice <-> bob: {transcript.outcome}")
print(f"  session keys equal: {keys[0].key == keys[1].key}")
print(f"  commitments sent: {len(transcript.commitments_initiator)} "
      "(padded, so repository size stays hidden)")

# No shared friend, no luck: the wire only ever says "rejected".
transcript, keys = zk_mutual_authenticate(party("alice"), party("loner"), rng, now=0.0)
print(f"alice <-> loner: {transcript.outcome} ({transcript.reason})")

# Three misbehavior reports revoke a user; revoked peers are refused.
mallory_store = RevocationStore(set(roster.users))
for _ in range(3):
    mallory_store.report("bob")
suspicious = Party(roster.user("alice"), mallory_store, rng.randbytes(16))
transcript, _ = zk_mutual_authenticate(suspicious, party("bob"), rng, now=0.0)
print(f"alice (who revoked bob) <-> bob: {transcript.outcome} ({transcript.reason})")
