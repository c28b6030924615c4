"""Workload generation for tests and benchmarks.

All generators take an explicit seeded ``random.Random`` (or a seed) so
every experiment in EXPERIMENTS.md is bit-reproducible.  The IMIX mix is
the classic 7:4:1 of 64/576/1518-byte frames used across the industry for
"internet-like" load.
"""

from __future__ import annotations

import random
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
from repro.packet.ipv4 import Ipv4Packet
from repro.packet.udp import UdpDatagram

#: (size_with_fcs, weight) — the standard simple IMIX.
IMIX_MIX: tuple[tuple[int, int], ...] = ((64, 7), (576, 4), (1518, 1))


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
    """A UDP/IPv4/Ethernet frame padded to ``size`` bytes on the wire
    (including FCS).  ``size`` below the protocol minimum raises."""
    overhead = 14 + 20 + 8 + 4  # eth + ipv4 + udp + fcs
    if size < max(overhead, MIN_FRAME_SIZE):
        raise ValueError(f"frame size {size} too small for UDP/IPv4 ({overhead}B min)")
    payload_len = size - overhead
    udp = UdpDatagram(sport, dport, fill * payload_len)
    ip = Ipv4Packet(src_ip, dst_ip, 17, udp.pack(src_ip, dst_ip), ttl=ttl)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.pack())


_UDP_AT = 14 + 20  # make_udp_frame: untagged Ethernet, option-less IPv4


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
