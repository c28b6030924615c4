"""Contributed project: a transparent firewall (network security).

§1 singles out the NetFPGA-1G-CML as "especially suited for
network-security applications"; this project is the canonical example —
a bump-in-the-wire firewall assembled entirely from library blocks:

* a TCAM-backed 5-tuple ACL (first match wins, default configurable);
* a SYN-flood detector: per-destination SYN counting over a sliding
  window, with an automatic per-destination block once the rate
  threshold trips (and release when the window cools);
* transparent bridging on the switch_lite port pairs (0↔1, 2↔3), so the
  device needs no addresses of its own.

The software side is :class:`repro.host.firewall_manager.FirewallManager`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.axilite import RegisterFile
from repro.core.axis import AxiStreamChannel
from repro.core.metadata import DMA_PORT_BITS, PHYS_PORT_BITS, SUME_TUSER
from repro.core.module import Resources
from repro.cores.header_parser import ParsedHeaders, parse_headers
from repro.cores.output_port_lookup import Decision, OutputPortLookup
from repro.cores.output_queues import QueueConfig
from repro.cores.tcam import Tcam, TcamEntry
from repro.projects.base import ReferencePipeline
from repro.utils.bitfield import BitField, mask

#: ACL match key: proto(8) | src_ip(32) | dst_ip(32) | sport(16) | dport(16).
ACL_KEY = BitField(
    104,
    [
        ("proto", 8),
        ("src_ip", 32),
        ("dst_ip", 32),
        ("sport", 16),
        ("dport", 16),
    ],
)

#: TCP flag bit used by the SYN-flood detector.
TCP_FLAG_SYN = 0x02
TCP_FLAG_ACK = 0x10


class AclAction(enum.Enum):
    PERMIT = "permit"
    DENY = "deny"


@dataclass(frozen=True)
class AclRule:
    """One wildcardable 5-tuple rule; ``None`` fields match anything."""

    action: AclAction
    proto: Optional[int] = None
    src_ip: Optional[int] = None
    src_prefix: int = 32
    dst_ip: Optional[int] = None
    dst_prefix: int = 32
    sport: Optional[int] = None
    dport: Optional[int] = None

    def _ip_mask(self, prefix: int) -> int:
        if not 0 <= prefix <= 32:
            raise ValueError(f"bad prefix {prefix}")
        return (mask(prefix) << (32 - prefix)) & mask(32)

    def to_tcam(self, slot: int) -> TcamEntry:
        value = 0
        key_mask = 0
        fields = [
            ("proto", self.proto, mask(8)),
            ("src_ip", self.src_ip, self._ip_mask(self.src_prefix)),
            ("dst_ip", self.dst_ip, self._ip_mask(self.dst_prefix)),
            ("sport", self.sport, mask(16)),
            ("dport", self.dport, mask(16)),
        ]
        for name, want, field_mask in fields:
            if want is None:
                continue
            value = ACL_KEY.insert(value, name, want & field_mask)
            key_mask |= ACL_KEY.insert(0, name, field_mask)
        result = 1 if self.action is AclAction.PERMIT else 0
        return TcamEntry(value=value, mask=key_mask, result=result)


def acl_key_of(parsed: ParsedHeaders) -> int:
    return ACL_KEY.pack(
        proto=parsed.ip_proto or 0,
        src_ip=parsed.ip_src.value if parsed.ip_src else 0,
        dst_ip=parsed.ip_dst.value if parsed.ip_dst else 0,
        sport=parsed.l4_src_port or 0,
        dport=parsed.l4_dst_port or 0,
    )


class SynFloodDetector:
    """Sliding-window SYN rate tracking with automatic blocking.

    Counts bare SYNs (SYN without ACK) per destination IP in
    ``window_packets``-sized epochs of *observed traffic* (hardware
    counts in time windows; packet-count epochs keep the model
    deterministic).  A destination whose per-epoch SYN count reaches
    ``threshold`` is blocked for ``block_epochs`` epochs.
    """

    def __init__(self, threshold: int = 64, window_packets: int = 256,
                 block_epochs: int = 4):
        if threshold <= 0 or window_packets <= 0 or block_epochs <= 0:
            raise ValueError("detector parameters must be positive")
        self.threshold = threshold
        self.window_packets = window_packets
        self.block_epochs = block_epochs
        self._seen = 0
        self._epoch = 0
        self._syn_counts: dict[int, int] = {}
        self._blocked_until: dict[int, int] = {}
        self.blocks_triggered = 0
        self.syns_dropped = 0

    def observe(self, parsed: ParsedHeaders, tcp_flags: Optional[int]) -> bool:
        """Account one packet; returns True if it must be dropped."""
        self._seen += 1
        if self._seen % self.window_packets == 0:
            self._epoch += 1
            self._syn_counts.clear()
        if parsed.ip_dst is None:
            return False
        dst = parsed.ip_dst.value
        blocked_until = self._blocked_until.get(dst)
        if blocked_until is not None:
            if self._epoch < blocked_until:
                if tcp_flags is not None and tcp_flags & TCP_FLAG_SYN:
                    self.syns_dropped += 1
                    return True
                return False
            del self._blocked_until[dst]
        if tcp_flags is None or not (tcp_flags & TCP_FLAG_SYN) or tcp_flags & TCP_FLAG_ACK:
            return False
        count = self._syn_counts.get(dst, 0) + 1
        self._syn_counts[dst] = count
        if count >= self.threshold:
            self._blocked_until[dst] = self._epoch + self.block_epochs
            self.blocks_triggered += 1
            self.syns_dropped += 1
            return True
        return False

    def blocked_destinations(self) -> list[int]:
        return [
            dst for dst, until in self._blocked_until.items() if self._epoch < until
        ]


def _tcp_flags_of(header: bytes, parsed: ParsedHeaders) -> Optional[int]:
    """Extract the TCP flags byte if present in the header window."""
    if parsed.ip_proto != 6 or parsed.ip_header_offset is None:
        return None
    flags_at = parsed.ip_header_offset + (parsed.ip_header_len or 20) + 13
    if flags_at >= len(header):
        return None
    return header[flags_at]


class FirewallLookup(OutputPortLookup):
    """Bridge + ACL + SYN-flood OPL."""

    DECISION_LATENCY_CYCLES = 5  # parse + TCAM + detector update

    #: switch_lite-style transparent pairs, plus DMA→paired port.
    BRIDGE_MAP = {
        PHYS_PORT_BITS[0]: PHYS_PORT_BITS[1],
        PHYS_PORT_BITS[1]: PHYS_PORT_BITS[0],
        PHYS_PORT_BITS[2]: PHYS_PORT_BITS[3],
        PHYS_PORT_BITS[3]: PHYS_PORT_BITS[2],
        DMA_PORT_BITS[0]: PHYS_PORT_BITS[0],
        DMA_PORT_BITS[1]: PHYS_PORT_BITS[1],
        DMA_PORT_BITS[2]: PHYS_PORT_BITS[2],
        DMA_PORT_BITS[3]: PHYS_PORT_BITS[3],
    }

    def __init__(
        self,
        name: str,
        s_axis: AxiStreamChannel,
        m_axis: AxiStreamChannel,
        acl_slots: int = 64,
        default_permit: bool = True,
        detector: Optional[SynFloodDetector] = None,
    ):
        super().__init__(name, s_axis, m_axis)
        self.acl = Tcam(slots=acl_slots, key_bits=ACL_KEY.width)
        self.default_permit = default_permit
        self.detector = detector if detector is not None else SynFloodDetector()
        self.registers = RegisterFile(f"{name}_regs")
        for offset, counter in (
            (0x00, "permitted"),
            (0x04, "acl_denied"),
            (0x08, "syn_flood_dropped"),
            (0x0C, "non_ip_bridged"),
        ):
            self.registers.add_register(
                counter, offset, read_only=True,
                on_read=lambda c=counter: self.counters.get(c, 0),
            )
        self.registers.add_register(
            "blocked_dst_count", 0x10, read_only=True,
            on_read=lambda: len(self.detector.blocked_destinations()),
        )
        self.registers.add_register(
            "default_permit", 0x14, init=int(default_permit),
            on_write=self._set_default,
        )

    #: The SYN-flood detector advances on every observed packet, so two
    #: identical frames can legitimately get different decisions — this
    #: lookup is not a pure function of (header, tables), so a network
    #: never caches a walk through it.
    CACHEABLE = False

    def _set_default(self, value: int) -> None:
        self.default_permit = bool(value & 1)

    def decide(self, header: bytes, tuser: int) -> Decision:
        src = SUME_TUSER.extract(tuser, "src_port")
        out_bits = self.BRIDGE_MAP.get(src)
        if out_bits is None:
            return Decision(tuser, drop=True, note="unknown_source")
        forward = Decision(SUME_TUSER.insert(tuser, "dst_port", out_bits))

        parsed = parse_headers(header)
        if not parsed.is_ipv4:
            # Non-IP (ARP &c.) bridges transparently, like real firewalls
            # in transparent mode.
            forward.note = "non_ip_bridged"
            return forward

        # SYN-flood detector runs before the ACL, like a DoS pre-filter.
        if self.detector.observe(parsed, _tcp_flags_of(header, parsed)):
            return Decision(tuser, drop=True, note="syn_flood_dropped")

        hit = self.acl.lookup(acl_key_of(parsed))
        if hit is not None:
            _slot, permit = hit
            if not permit:
                return Decision(tuser, drop=True, note="acl_denied")
            forward.note = "permitted"
            return forward
        if self.default_permit:
            forward.note = "permitted"
            return forward
        return Decision(tuser, drop=True, note="acl_denied")

    def resources(self) -> Resources:
        return (
            super().resources()
            + self.acl.resources()
            + Resources(luts=1_400, ffs=1_100, brams=4.0)  # detector tables
        )


class FirewallProject(ReferencePipeline):
    """The firewall as a standard five-stage project."""

    DESCRIPTION = "Transparent ACL firewall with SYN-flood protection"

    def __init__(
        self,
        name: str = "firewall",
        acl_slots: int = 64,
        default_permit: bool = True,
        detector: Optional[SynFloodDetector] = None,
    ):
        def make_opl(opl_name, s_axis, m_axis):
            return FirewallLookup(
                opl_name, s_axis, m_axis,
                acl_slots=acl_slots,
                default_permit=default_permit,
                detector=detector,
            )

        super().__init__(name, make_opl, QueueConfig(capacity_bytes=64 * 1024))

    @property
    def firewall(self) -> FirewallLookup:
        return self.opl  # type: ignore[return-value]
