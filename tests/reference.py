"""Test-side references and tools that the library does not need: the
slice-per-field record reader and beacon decoder, a mobility trace check,
the all-pairs radio neighbourhood and a certificate dump."""

import struct
from dataclasses import dataclass, field

from vanetkit import wire
from vanetkit.geomodel import RoadNetwork, VehicleState, distance
from vanetkit.radio import in_radio_range
from vanetkit.trust import Roster


class RefReader:
    """Field-by-field record reader: one slice per field."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise wire.WireError("record truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        return self._take(self.u16())

    def text(self) -> str:
        try:
            return self.blob().decode()
        except UnicodeDecodeError as exc:
            raise wire.WireError("text field is not UTF-8") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise wire.WireError("trailing bytes in record")


def ref_decode_beacon(body):
    """The pseudonym, sequence number and tick of a beacon frame's body."""
    r = RefReader(body)
    out = (r.raw(16), r.u32(), r.u32())
    r.expect_end()
    return out


@dataclass
class MobilityTrace:
    node_id: str
    samples: list[tuple[float, VehicleState]] = field(default_factory=list)


def validate_trace(trace: MobilityTrace, network: RoadNetwork, slack: float = 0.10) -> list[str]:
    """Check timestamp ordering and speed/position consistency (10% slack)."""
    problems = []
    prev_t, prev_state = None, None
    for t, state in trace.samples:
        if prev_t is not None:
            if t <= prev_t:
                problems.append(f"timestamps not strictly increasing at t={t}")
            else:
                moved = distance(prev_state.position(network), state.position(network))
                allowed = (prev_state.speed / 3.6) * (t - prev_t) * (1 + slack) + 1e-6
                if moved > allowed:
                    problems.append(f"jump of {moved:.2f} m at t={t} exceeds speed budget")
        prev_t, prev_state = t, state
    return problems


def neighbors_in_range(positions: dict[str, tuple[float, float]], node_id: str,
                       radio_range: float, active: set[str] | None = None) -> set[str]:
    """Active nodes within the radio range (inclusive), excluding self: every
    other node tested, the reference for the radio's cell list."""
    x0, y0 = positions[node_id]
    return {nid for nid, (x, y) in positions.items()
            if nid != node_id and (active is None or nid in active)
            and in_radio_range(x - x0, y - y0, radio_range)}


def dump_certificates(roster: Roster) -> str:
    """One `cert <subject> <signer> <hex signature>` line per certificate."""
    lines = []
    seen: set[tuple[str, str]] = set()
    for user_id in sorted(roster.users):
        for cert in roster.users[user_id].repository.certificates():
            key = (cert.subject, cert.signer)
            if key not in seen:
                seen.add(key)
                lines.append(f"cert {cert.subject} {cert.signer} {cert.signature.hex()}")
    return "\n".join(lines) + "\n"
