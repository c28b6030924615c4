"""BlueSwitch flow tables: OpenFlow-style match/action over a TCAM.

A :class:`FlowMatch` compiles to a ternary (value, mask) pair over the
128-bit flow key; a :class:`FlowTable` holds *two* TCAM banks — the
double buffering that makes atomic update possible.  Bank selection is
the packet's version tag, applied by the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.module import StateCell
from repro.cores.header_parser import parse_headers
from repro.cores.tcam import Tcam, TcamEntry
from repro.utils.bitfield import BitField, mask

#: The match key: the OpenFlow 1.0 field set BlueSwitch matches on.
FLOW_KEY = BitField(
    224,
    [
        ("in_port", 8),
        ("eth_dst", 48),
        ("eth_src", 48),
        ("eth_type", 16),
        ("ip_src", 32),
        ("ip_dst", 32),
        ("ip_proto", 8),
        ("l4_src", 16),
        ("l4_dst", 16),
    ],
)


def flow_key_of(frame: bytes, in_port_bits: int) -> int:
    """Build the lookup key for a frame arriving on ``in_port_bits``."""
    parsed = parse_headers(frame[:64])
    return FLOW_KEY.pack(
        in_port=in_port_bits & 0xFF,
        eth_dst=parsed.dst_mac.value if parsed.dst_mac else 0,
        eth_src=parsed.src_mac.value if parsed.src_mac else 0,
        eth_type=parsed.ethertype or 0,
        ip_src=parsed.ip_src.value if parsed.ip_src else 0,
        ip_dst=parsed.ip_dst.value if parsed.ip_dst else 0,
        ip_proto=parsed.ip_proto or 0,
        l4_src=parsed.l4_src_port or 0,
        l4_dst=parsed.l4_dst_port or 0,
    )


@dataclass(frozen=True)
class ActionOutput:
    """Forward out the ports in ``port_bits`` (one-hot, SUME convention)."""

    port_bits: int


@dataclass(frozen=True)
class ActionGoto:
    """Continue matching at table ``table_id`` (must be downstream)."""

    table_id: int


@dataclass(frozen=True)
class ActionDrop:
    """Explicitly drop (distinct from a table miss)."""


Action = Union[ActionOutput, ActionGoto, ActionDrop]


@dataclass(frozen=True)
class FlowMatch:
    """Wildcard-capable match; ``None`` = don't care.

    IP addresses take an optional prefix length for LPM-style masks.
    """

    in_port: Optional[int] = None
    eth_dst: Optional[int] = None
    eth_src: Optional[int] = None
    eth_type: Optional[int] = None
    ip_src: Optional[int] = None
    ip_src_prefix: int = 32
    ip_dst: Optional[int] = None
    ip_dst_prefix: int = 32
    ip_proto: Optional[int] = None
    l4_src: Optional[int] = None
    l4_dst: Optional[int] = None

    def _ip_mask(self, prefix: int) -> int:
        if not 0 <= prefix <= 32:
            raise ValueError(f"bad prefix {prefix}")
        return (mask(prefix) << (32 - prefix)) & mask(32)

    def to_tcam(self, result: int = 0) -> TcamEntry:
        value = 0
        key_mask = 0
        fields: list[tuple[str, Optional[int], int]] = [
            ("in_port", self.in_port, mask(8)),
            ("eth_dst", self.eth_dst, mask(48)),
            ("eth_src", self.eth_src, mask(48)),
            ("eth_type", self.eth_type, mask(16)),
            ("ip_src", self.ip_src, self._ip_mask(self.ip_src_prefix)),
            ("ip_dst", self.ip_dst, self._ip_mask(self.ip_dst_prefix)),
            ("ip_proto", self.ip_proto, mask(8)),
            ("l4_src", self.l4_src, mask(16)),
            ("l4_dst", self.l4_dst, mask(16)),
        ]
        for name, want, field_mask in fields:
            if want is None:
                continue
            value = FLOW_KEY.insert(value, name, want & field_mask)
            shifted = FLOW_KEY.insert(0, name, field_mask)
            key_mask |= shifted
        return TcamEntry(value=value, mask=key_mask, result=result)


@dataclass(frozen=True)
class FlowEntry:
    """A complete flow: match + ordered action list."""

    match: FlowMatch
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a flow entry needs at least one action")


class FlowTable:
    """A double-banked match table.

    ``banks[0]`` and ``banks[1]`` are full TCAM copies; which one a
    packet consults is its version tag.  Actions are stored side-by-side
    (the TCAM result is an index into the bank's action store).
    """

    def __init__(self, table_id: int, slots: int = 64,
                 state: Optional[StateCell] = None):
        self.table_id = table_id
        self.slots = slots
        self.banks = (Tcam(slots, FLOW_KEY.width), Tcam(slots, FLOW_KEY.width))
        self._actions: list[list[Optional[tuple[Action, ...]]]] = [
            [None] * slots,
            [None] * slots,
        ]
        # The installed match per slot: the TCAM encoding is lossy
        # (masked-out bits are gone), so keep the software view beside
        # it — this is what lets ``read`` round-trip a FlowEntry for
        # the resilience auditor's desired-vs-hardware diff.
        self._matches: list[list[Optional[FlowMatch]]] = [
            [None] * slots,
            [None] * slots,
        ]
        # Per-slot match counters, per bank (the OpenFlow flow counters).
        self.hit_counts: list[list[int]] = [[0] * slots, [0] * slots]
        self.matches = 0
        self.misses = 0
        #: Bumped by every write (either bank), so any flow cache
        #: layered on top of the classifier invalidates on table churn.
        self.state = state if state is not None else StateCell()

    def write(self, bank: int, slot: int, entry: Optional[FlowEntry]) -> None:
        """Install or clear (None) one slot in one bank.

        Writing a slot resets its counter — a new flow starts at zero.
        """
        if bank not in (0, 1):
            raise ValueError("bank must be 0 or 1")
        if entry is None:
            self.banks[bank].write_slot(slot, None)
            self._actions[bank][slot] = None
            self._matches[bank][slot] = None
        else:
            self.banks[bank].write_slot(slot, entry.match.to_tcam(result=slot))
            self._actions[bank][slot] = entry.actions
            self._matches[bank][slot] = entry.match
        self.hit_counts[bank][slot] = 0
        self.state.bump()

    def read(self, bank: int, slot: int) -> Optional[FlowEntry]:
        tcam_entry = self.banks[bank].read_slot(slot)
        actions = self._actions[bank][slot]
        if tcam_entry is None or actions is None:
            return None
        match = self._matches[bank][slot]
        return FlowEntry(match=match if match is not None else FlowMatch(),
                         actions=actions)

    def lookup(self, bank: int, key: int) -> Optional[tuple[Action, ...]]:
        hit = self.banks[bank].lookup(key)
        if hit is None:
            self.misses += 1
            return None
        slot, _result = hit
        self.matches += 1
        self.hit_counts[bank][slot] += 1
        return self._actions[bank][slot]

    def flow_counts(self, bank: int) -> list[tuple[int, int]]:
        """``[(slot, matches)]`` for every occupied slot of ``bank``."""
        return [
            (slot, self.hit_counts[bank][slot])
            for slot in range(self.slots)
            if self.banks[bank].read_slot(slot) is not None
        ]

    def copy_bank(self, src: int, dst: int) -> None:
        """Clone one bank onto the other (shadow resynchronization).

        Counters follow the configuration so a commit does not zero the
        statistics of unchanged flows.
        """
        self.banks[dst].restore(self.banks[src].snapshot())
        self._actions[dst] = list(self._actions[src])
        self._matches[dst] = list(self._matches[src])
        self.hit_counts[dst] = list(self.hit_counts[src])
