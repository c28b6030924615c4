"""Workload generation for tests and benchmarks.

All generators take an explicit seeded ``random.Random`` (or a seed) so
every experiment in EXPERIMENTS.md is bit-reproducible.  The IMIX mix is
the classic 7:4:1 of 64/576/1518-byte frames used across the industry for
"internet-like" load.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.packet.addresses import BROADCAST_MAC, Ipv4Addr, MacAddr
from repro.packet.arp import ARP_OP_REQUEST, ArpPacket
from repro.packet.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    MAX_FRAME_SIZE,
    MIN_FRAME_SIZE,
    EthernetFrame,
)

#: (size_with_fcs, weight) — the standard simple IMIX.
IMIX_MIX: tuple[tuple[int, int], ...] = ((64, 7), (576, 4), (1518, 1))

#: make_udp_frame's option-less IPv4 header and UDP header, in one.
_IPV4_UDP = struct.Struct("!BBHHHBBHIIHHHH")
_UDP_OVERHEAD = 14 + 20 + 8 + 4  # eth + ipv4 + udp + fcs
_UDP_AT = 14 + 20  # make_udp_frame: untagged Ethernet, option-less IPv4


def _rng(seed_or_rng: int | random.Random | None) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(0 if seed_or_rng is None else seed_or_rng)


def make_udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    sport: int = 10000,
    dport: int = 20000,
    size: int = 256,
    ttl: int = 64,
    fill: bytes = b"\xa5",
) -> EthernetFrame:
    """A UDP/IPv4/Ethernet frame of ``size`` bytes on the wire (FCS
    included), its payload ``fill`` (one byte) repeated; a field out of
    range raises.  One ``struct`` pack, both checksums arithmetic: 2**16
    is 1 modulo 0xFFFF, so an address adds to a word sum as its value."""
    payload_len = size - _UDP_OVERHEAD
    if not MIN_FRAME_SIZE - _UDP_OVERHEAD <= payload_len <= 0xFFFF - 28:
        raise ValueError(f"frame size {size} out of range for UDP/IPv4")
    if not (0 <= sport <= 0xFFFF and 0 <= dport <= 0xFFFF):
        raise ValueError(f"port out of range: {sport}, {dport}")
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL out of range: {ttl}")
    if len(fill) != 1:
        raise ValueError(f"fill must be one byte, got {fill!r}")
    src, dst, udp_len = src_ip.value, dst_ip.value, payload_len + 8
    ip_sum = 0x4500 + udp_len + 20 + (ttl << 8 | 17) + src + dst
    # The payload's words: fill twice each, then fill and 0 if odd.
    words = fill[0] * (0x101 * (payload_len >> 1) + 0x100 * (payload_len & 1))
    udp_sum = src + dst + 17 + 2 * udp_len + sport + dport + words
    headers = _IPV4_UDP.pack(
        0x45, 0, udp_len + 20, 0, 0, ttl, 17, -ip_sum % 0xFFFF, src, dst,
        sport, dport, udp_len, -udp_sum % 0xFFFF or 0xFFFF)  # RFC 768
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4,
                         headers + fill * payload_len)


def retarget_udp_frame(packed: bytes, sport: int, dport: int) -> bytes:
    """``make_udp_frame(..., sport, dport, ...).pack()``, cut from the
    packed frame the same call built for any other pair of ports.

    Two port words and the RFC 1624 checksum update, at any size.
    One's-complement arithmetic is arithmetic modulo 0xFFFF, the
    checksum sent is minus the word sum, and ``0xFFFF - residue`` is
    never zero — RFC 768's "a computed zero is sent as all ones".  A
    zero checksum field (none computed) stays zero.
    """
    if not (0 <= sport <= 0xFFFF and 0 <= dport <= 0xFFFF):
        raise ValueError(f"port out of range: {sport}, {dport}")
    header = int.from_bytes(packed[_UDP_AT:_UDP_AT + 8], "big")
    ports = sport << 16 | dport
    checksum = header & 0xFFFF
    if checksum:
        checksum = 0xFFFF - (ports - (header >> 32) - checksum) % 0xFFFF
    header = ports << 32 | header & 0xFFFF0000 | checksum
    return (packed[:_UDP_AT] + header.to_bytes(8, "big")
            + packed[_UDP_AT + 8:])


def make_arp_request(
    sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr
) -> EthernetFrame:
    arp = ArpPacket(
        op=ARP_OP_REQUEST,
        sender_mac=sender_mac,
        sender_ip=sender_ip,
        target_mac=MacAddr(0),
        target_ip=target_ip,
    )
    return EthernetFrame(BROADCAST_MAC, sender_mac, ETHERTYPE_ARP, arp.pack())


def random_frame(
    rng: int | random.Random | None = None,
    size: Optional[int] = None,
    src_mac: Optional[MacAddr] = None,
    dst_mac: Optional[MacAddr] = None,
) -> EthernetFrame:
    """A random-but-well-formed UDP frame, deterministic under a seed."""
    rand = _rng(rng)
    if size is None:
        size = rand.randint(MIN_FRAME_SIZE, MAX_FRAME_SIZE)
    def _unicast_laa() -> MacAddr:
        # Clear the I/G bit (multicast) and set the U/L bit (locally
        # administered); both live in the first transmitted octet.
        value = rand.getrandbits(48)
        return MacAddr((value & ~(1 << 40)) | (1 << 41))

    return make_udp_frame(
        src_mac=src_mac or _unicast_laa(),
        dst_mac=dst_mac or _unicast_laa(),
        src_ip=Ipv4Addr(rand.getrandbits(32)),
        dst_ip=Ipv4Addr(rand.getrandbits(32)),
        sport=rand.randint(1024, 65535),
        dport=rand.randint(1024, 65535),
        size=size,
    )


def uniform_random_frames(
    count: int, seed: int = 0, size: Optional[int] = None
) -> list[EthernetFrame]:
    rand = random.Random(seed)
    return [random_frame(rand, size=size) for _ in range(count)]


@dataclass
class TrafficSpec:
    """A reproducible traffic description for the benchmark harness.

    ``sizes`` gives the wire sizes (with FCS) and ``weights`` their mix;
    a single-element spec is a fixed-size stream.  ``flows`` spreads the
    stream over that many (src_ip, dst_ip, ports) tuples round-robin,
    which exercises lookup tables realistically.
    """

    sizes: Sequence[int] = (1518,)
    weights: Sequence[int] = (1,)
    flows: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights):
            raise ValueError("sizes and weights must align")
        if not self.sizes:
            raise ValueError("at least one frame size required")
        if self.flows <= 0:
            raise ValueError("flows must be positive")

    @classmethod
    def imix(cls, flows: int = 1, seed: int = 0) -> "TrafficSpec":
        sizes, weights = zip(*IMIX_MIX)
        return cls(sizes=sizes, weights=weights, flows=flows, seed=seed)

    @classmethod
    def fixed(cls, size: int, flows: int = 1, seed: int = 0) -> "TrafficSpec":
        return cls(sizes=(size,), weights=(1,), flows=flows, seed=seed)

    def mean_size(self) -> float:
        total_weight = sum(self.weights)
        return sum(s * w for s, w in zip(self.sizes, self.weights)) / total_weight

    def frames(self, count: int) -> Iterator[EthernetFrame]:
        """Yield ``count`` frames following the spec, deterministically."""
        rand = random.Random(self.seed)
        flow_tuples = [
            (
                MacAddr(0x02_00_00_00_00_00 | f),
                MacAddr(0x02_00_00_00_01_00 | f),
                Ipv4Addr(0x0A000000 | f),  # 10.0.x.x
                Ipv4Addr(0x0A010000 | f),
                1024 + f,
                2048 + f,
            )
            for f in range(self.flows)
        ]
        for i in range(count):
            size = rand.choices(self.sizes, weights=self.weights)[0]
            smac, dmac, sip, dip, sport, dport = flow_tuples[i % self.flows]
            yield make_udp_frame(smac, dmac, sip, dip, sport, dport, size=size)
