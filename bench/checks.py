"""Output checks computed apart from the program.

Each check takes plain data (CSV text, coordinates, decoded aggregates,
roster text) and returns a list of problems; an empty list passes.
None of them compares against a stored copy of earlier output, and none
calls the program's own verification code: the Schnorr check, the
signed encodings, the key derivation and the threshold table are
written out here from the published scheme and `crypto`'s group
constants.
"""

from __future__ import annotations

import hashlib
import math
import struct

from vanetkit.crypto import GROUP_G, GROUP_P, GROUP_Q

CSV_HEADER = "node,generated,sent,broadcasted,received,lost,auth_attempts,auth_accepted"
CELL_SIZE = 200.0      # metres: observations are signed per location cell
MINUTE = 60.0          # seconds: and per minute bucket
MAX_LISTED = 5         # problems listed per check before summarising


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cap(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_LISTED:
        return problems
    return problems[:MAX_LISTED] + [f"... and {len(problems) - MAX_LISTED} more"]


# -- packet conservation ------------------------------------------------------

def check_conservation(csv_text: str, in_flight: int) -> list[str]:
    """The TOTAL row is the column sum of the node rows, every generated
    packet was received or lost, and nothing is left in flight."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["metrics CSV header differs from " + CSV_HEADER]
    width = len(CSV_HEADER.split(",")) - 1
    sums = [0] * width
    nodes: list[str] = []
    total: list[int] | None = None
    problems: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        name, *fields = line.split(",")
        if len(fields) != width or not all(f.isdigit() for f in fields):
            problems.append(f"CSV line {lineno} is not {width} counters: {line!r}")
            continue
        values = [int(f) for f in fields]
        if name == "TOTAL":
            if total is not None or lineno != len(lines):
                problems.append("TOTAL row is not the single last row")
            total = values
            continue
        nodes.append(name)
        sums = [a + b for a, b in zip(sums, values)]
    if nodes != sorted(set(nodes)):
        problems.append("node rows are not unique and sorted")
    if total is None:
        return problems + ["CSV has no TOTAL row"]
    columns = CSV_HEADER.split(",")[1:]
    for column, want, got in zip(columns, sums, total):
        if want != got:
            problems.append(f"TOTAL {column} is {got}, the node rows sum to {want}")
    generated, received, lost = sums[0], sums[3], sums[4]
    if generated != received + lost:
        problems.append(f"generated {generated} != received {received} + lost {lost}")
    if in_flight != 0:
        problems.append(f"{in_flight} packets still in flight after the final drain")
    return _cap(problems)


# -- radio neighbours -----------------------------------------------------------

def check_neighbors(positions: dict[str, tuple[float, float]], active: set[str],
                    neighbors: dict[str, list[str]], radio_range: float) -> list[str]:
    """Neighbour lists are symmetric, exclude self, and equal a plain
    pairwise `dx*dx + dy*dy <= r*r` over the active nodes."""
    r2 = radio_range * radio_range
    expected: dict[str, set[str]] = {node: set() for node in positions}
    coords = [(node, *positions[node]) for node in sorted(active)]
    for i, (a, xa, ya) in enumerate(coords):
        for b, xb, yb in coords[i + 1:]:
            dx = xa - xb
            dy = ya - yb
            if dx * dx + dy * dy <= r2:
                expected[a].add(b)
                expected[b].add(a)
    problems: list[str] = []
    if set(neighbors) != set(positions):
        problems.append("neighbour lists do not cover exactly the positioned nodes")
    for node in sorted(neighbors):
        listed = neighbors[node]
        if node in listed:
            problems.append(f"{node} lists itself")
        if len(set(listed)) != len(listed):
            problems.append(f"{node} lists a neighbour twice")
        for peer in listed:
            if node not in neighbors.get(peer, ()):
                problems.append(f"{node} lists {peer} but not the reverse")
        want = expected.get(node, set())
        if set(listed) != want:
            extra = sorted(set(listed) - want)
            missing = sorted(want - set(listed))
            problems.append(f"{node}: listed but out of range or inactive {extra}, "
                            f"in range but missing {missing}")
    return _cap(problems)


# -- Schnorr signatures and aggregation thresholds -------------------------------

def _h(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def schnorr_ok(public: bytes, message: bytes, signature: bytes) -> bool:
    """g^s == r * y^e (mod p), e = H("vk-chal" | r | y | message) mod q,
    with y a member of the order-q subgroup."""
    if len(public) != 32 or len(signature) != 64:
        return False
    y = int.from_bytes(public, "big")
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 < y < GROUP_P and 1 < r < GROUP_P and s < GROUP_Q):
        return False
    if pow(y, GROUP_Q, GROUP_P) != 1:
        return False
    e = int.from_bytes(_h(b"vk-chal", signature[:32], public, message), "big") % GROUP_Q
    return pow(GROUP_G, s, GROUP_P) == r * pow(y, e, GROUP_P) % GROUP_P


def roster_public_keys(roster_text: str) -> dict[str, bytes]:
    """Public key of every `user <id> <seed>` line: x = H("vk-private" |
    id | 0x00 | seed) mod q (0 maps to 1), y = g^x mod p."""
    keys = {}
    for line in roster_text.splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 3 and fields[0] == "user":
            material = fields[1].encode() + b"\x00" + fields[2].encode()
            x = int.from_bytes(_h(b"vk-private", material), "big") % GROUP_Q or 1
            keys[fields[1]] = pow(GROUP_G, x, GROUP_P).to_bytes(32, "big")
    return keys


def _cell(x: float, y: float) -> tuple[int, int]:
    return math.floor(x / CELL_SIZE), math.floor(y / CELL_SIZE)


def canonical_observation(obs) -> bytes:
    """`len u16 | road | direction u8 | cell_x i64 | cell_y i64 | minute i64`."""
    road = obs.road_id.encode()
    cx, cy = _cell(obs.location.x, obs.location.y)
    minute = math.floor(obs.detected_at / MINUTE)
    return (struct.pack(">H", len(road)) + road
            + struct.pack(">Bqqq", 0 if obs.direction == "fwd" else 1, cx, cy, minute))


def certificate_message(subject: str, public: bytes) -> bytes:
    return _h(b"vk-cert", subject.encode(), public)


def paper_threshold(rate: float | None) -> int:
    """Signers required for a contact rate in authenticated peers per
    minute: 2 below one, 4 from one to four, 5 above four, 2 undefined."""
    if rate is None or rate < 1.0:
        return 2
    return 4 if rate <= 4.0 else 5


def check_aggregate(event, roster_keys: dict[str, bytes]) -> list[str]:
    """Re-verify one aggregated congestion event from its fields."""
    obs = event.observation
    label = f"aggregate {obs.road_id}/{obs.direction}@{obs.detected_at:g}"
    cell = (obs.road_id, obs.direction, _cell(obs.location.x, obs.location.y))
    problems: list[str] = []
    signers: set[bytes] = set()
    for signed in event.signatures:
        cert = signed.signer_certificate
        o = signed.observation
        if (o.road_id, o.direction, _cell(o.location.x, o.location.y)) != cell:
            problems.append(f"{label}: a signature covers another cell")
        elif cert.signer != cert.subject:
            problems.append(f"{label}: certificate of {cert.subject} is not self-signed")
        elif roster_keys.get(cert.subject) != cert.subject_public_key:
            problems.append(f"{label}: {cert.subject}'s key is not its roster key")
        elif not schnorr_ok(cert.subject_public_key,
                            certificate_message(cert.subject, cert.subject_public_key),
                            cert.signature):
            problems.append(f"{label}: certificate of {cert.subject} does not verify")
        elif not schnorr_ok(cert.subject_public_key, canonical_observation(o),
                            signed.signature):
            problems.append(f"{label}: observation signature of {cert.subject} "
                            "does not verify")
        else:
            signers.add(cert.subject_public_key)
    need = paper_threshold(event.rate)
    if len(signers) < need:
        problems.append(f"{label}: {len(signers)} valid distinct signers, rate "
                        f"{event.rate} needs {need}")
    if event.threshold != need:
        problems.append(f"{label}: carries threshold {event.threshold}, rate "
                        f"{event.rate} needs {need}")
    return problems


def check_aggregates(events, roster_keys: dict[str, bytes]) -> list[str]:
    problems: list[str] = []
    for event in events:
        problems += check_aggregate(event, roster_keys)
    return _cap(problems)


# -- work done and determinism ----------------------------------------------------

# Each floor names the work its workload exists to measure: a run that
# does not do it measures nothing, however fast it is.
FLOORS = {
    "city": [
        ("received", "beacons and handshakes must be delivered, or the radio "
                     "and delivery layers are not measured"),
        ("sessions", "handshakes must sometimes succeed, or session set-up "
                     "and sealed traffic are not measured"),
    ],
    "sprawl": [
        ("received", "the fleet must reach each other over the radio, or the "
                     "adjacency being measured is empty"),
    ],
    "jam": [
        ("sessions", "corroboration needs authenticated sessions"),
        ("aggregates_built", "the paper's pipeline must assemble threshold-"
                             "signed aggregates"),
        ("aggregates_received", "aggregates must be relayed to and accepted "
                                "by other nodes"),
        ("aggregates_verified", "accepted aggregates must be available for "
                                "independent re-verification"),
        ("parking_shown", "a vacancy announcement must reach a searcher"),
    ],
}


def work_facts(csv_text: str, trace_text: str, connections: int,
               aggregates_verified: int) -> dict[str, int]:
    total = csv_text.splitlines()[-1].split(",")
    kinds = [line.split(" ", 4)[2:4] for line in trace_text.splitlines()]
    return {
        "received": int(total[4]),
        "sessions": connections,
        "aggregates_built": sum(1 for k in kinds if k[0] == "aggregate"),
        "aggregates_received": sum(1 for k in kinds if k == ["receive", "congestion"]),
        "aggregates_verified": aggregates_verified,
        "parking_shown": sum(1 for k in kinds if k == ["show", "parking"]),
    }


def check_floors(workload: str, facts: dict[str, int]) -> list[str]:
    return [f"{workload}: no {fact} ({facts[fact]}); {reason}"
            for fact, reason in FLOORS[workload] if facts[fact] < 1]


def check_digests(label: str, digests: list[tuple[str, str]]) -> list[str]:
    """Every run of one input must give the same CSV and trace bytes."""
    if len(set(digests)) <= 1:
        return []
    return [f"{label}: CSV/trace digests differ between runs of one input: "
            f"{sorted(set(digests))}"]
