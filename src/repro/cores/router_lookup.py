"""The reference IPv4 router's output-port lookup.

Implements the reference router data plane:

1. Filter on destination MAC (ours / broadcast, else drop).
2. Non-IPv4 (ARP &c.) → CPU via the ingress port's DMA queue.
3. IPv4 sanity: header checksum, TTL.  Bad checksum drops; expiring TTL
   punts to the CPU, which generates ICMP Time Exceeded.
4. Destination-IP filter (the router's own addresses) → CPU.
5. LPM lookup → (next hop, egress port); miss → CPU (ICMP unreachable).
6. ARP cache lookup for the next hop MAC; miss → CPU (ARP resolution).
7. Hit: rewrite MACs, decrement TTL, *incrementally* update the header
   checksum (RFC 1624), forward.

Everything the software side needs — table writes, counters — is exposed
through the register file, mirroring the reference router's register map.
"""

from __future__ import annotations

from typing import Optional

from repro.core.axilite import RegisterFile
from repro.core.axis import AxiStreamChannel
from repro.core.metadata import (
    NUM_PHYS_PORTS,
    dma_port_bit,
    phys_port_bit,
    tuser_src_port,
    with_tuser_dst_port,
)
from repro.core.module import Resources, StateCell
from repro.cores.cam import BinaryCam
from repro.cores.header_parser import parse_headers
from repro.cores.lpm import LpmEntry, LpmTable
from repro.cores.output_port_lookup import Decision, OutputPortLookup
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.checksum import incremental_update16, internet_checksum

#: Reference router table sizes (32 LPM slots, 32 ARP slots).
DEFAULT_LPM_CAPACITY = 32
DEFAULT_ARP_CAPACITY = 32


class RouterTables:
    """The router's forwarding state, shared with the software plane."""

    def __init__(
        self,
        port_macs: list[MacAddr],
        port_ips: list[Ipv4Addr],
        lpm_capacity: int = DEFAULT_LPM_CAPACITY,
        arp_capacity: int = DEFAULT_ARP_CAPACITY,
    ):
        if len(port_macs) != NUM_PHYS_PORTS or len(port_ips) != NUM_PHYS_PORTS:
            raise ValueError(f"router needs {NUM_PHYS_PORTS} port MACs and IPs")
        self.port_macs = list(port_macs)
        self.port_ips = list(port_ips)
        #: The owning device's change signal: every table below bumps it.
        self.state = StateCell()
        self.lpm = LpmTable(capacity=lpm_capacity, state=self.state)
        self.arp = BinaryCam(capacity=arp_capacity, key_bits=32,
                             evict_oldest=False, state=self.state)
        # Destination-IP filter: addresses terminating at the router
        # (its own interfaces plus anything software adds, e.g. OSPF
        # multicast groups in the reference router).
        self.ip_filter: set[int] = {ip.value for ip in port_ips}

    def add_route(self, entry: LpmEntry) -> bool:
        return self.lpm.insert(entry)

    def add_arp(self, ip: Ipv4Addr, mac: MacAddr) -> bool:
        return self.arp.insert(ip.value, mac.value)

    def add_filter(self, ip: Ipv4Addr) -> None:
        if ip.value not in self.ip_filter:
            self.ip_filter.add(ip.value)
            self.state.bump()

    def clear_volatile(self) -> None:
        """Wipe everything software loaded: routes, ARP, extra filters.

        Port MACs/IPs survive (they are synthesis-time configuration in
        the reference design); the destination-IP filter falls back to
        just the router's own interfaces.
        """
        for entry in self.lpm.entries():
            self.lpm.delete(entry.prefix, entry.prefix_len)
        self.arp.clear()
        self.ip_filter = {ip.value for ip in self.port_ips}
        self.state.bump()


class RouterLookup(OutputPortLookup):
    """The router OPL stage; see the module docstring for the pipeline."""

    DECISION_LATENCY_CYCLES = 8  # parse + checksum + LPM walk + ARP + rewrite

    def __init__(
        self,
        name: str,
        s_axis: AxiStreamChannel,
        m_axis: AxiStreamChannel,
        tables: RouterTables,
    ):
        super().__init__(name, s_axis, m_axis)
        self.tables = tables
        self.state = tables.state  # the tables were built first
        self.registers = RegisterFile(f"{name}_regs")
        for offset, counter in (
            (0x00, "forwarded"),
            (0x04, "to_cpu"),
            (0x08, "bad_checksum"),
            (0x0C, "ttl_expired"),
            (0x10, "lpm_miss"),
            (0x14, "arp_miss"),
            (0x18, "bad_mac"),
            (0x1C, "non_ip_to_cpu"),
        ):
            self.registers.add_register(
                counter, offset, read_only=True,
                on_read=lambda c=counter: self.counters.get(c, 0),
            )

    # ------------------------------------------------------------------
    def _ingress_index(self, src_bits: int) -> Optional[int]:
        for i in range(NUM_PHYS_PORTS):
            if src_bits & (phys_port_bit(i) | dma_port_bit(i)):
                return i
        return None

    def _to_cpu(self, tuser: int, ingress: int, note: str) -> Decision:
        self.bump("to_cpu")
        return Decision(
            with_tuser_dst_port(tuser, dma_port_bit(ingress)), note=note
        )

    def decide(self, header: bytes, tuser: int) -> Decision:
        src_bits = tuser_src_port(tuser)
        ingress = self._ingress_index(src_bits)
        if ingress is None:
            return Decision(tuser, drop=True, note="unknown_source")

        # Packets from the CPU go straight out the paired interface —
        # software has already made its forwarding decision.
        if src_bits & dma_port_bit(ingress):
            return Decision(
                with_tuser_dst_port(tuser, phys_port_bit(ingress)),
                note="from_cpu",
            )

        parsed = parse_headers(header)
        if parsed.dst_mac is None:
            return Decision(tuser, drop=True, note="runt")
        our_mac = self.tables.port_macs[ingress]
        if parsed.dst_mac != our_mac and not parsed.dst_mac.is_broadcast:
            return Decision(tuser, drop=True, note="bad_mac")
        if not parsed.is_ipv4:
            # ARP and friends are handled by software.
            return self._to_cpu(tuser, ingress, "non_ip_to_cpu")

        assert parsed.ip_header_offset is not None
        assert parsed.ip_header_len is not None
        ip_start = parsed.ip_header_offset
        ip_end = ip_start + parsed.ip_header_len
        if ip_end > len(header):
            # Options pushed the header past our parse window: software path.
            return self._to_cpu(tuser, ingress, "long_header_to_cpu")
        ip_header = header[ip_start:ip_end]
        if internet_checksum(ip_header) != 0:
            return Decision(tuser, drop=True, note="bad_checksum")

        assert parsed.ip_ttl is not None and parsed.ip_dst is not None
        if parsed.ip_dst.value in self.tables.ip_filter:
            return self._to_cpu(tuser, ingress, "local_ip")
        if parsed.ip_ttl <= 1:
            return self._to_cpu(tuser, ingress, "ttl_expired")

        route = self.tables.lpm.lookup(parsed.ip_dst)
        if route is None:
            return self._to_cpu(tuser, ingress, "lpm_miss")
        next_hop = parsed.ip_dst if route.is_directly_connected else route.next_hop
        next_mac_value = self.tables.arp.lookup(next_hop.value)
        if next_mac_value is None:
            return self._to_cpu(tuser, ingress, "arp_miss")

        egress = self._ingress_index(route.port_bits)
        if egress is None:
            return Decision(tuser, drop=True, note="bad_route_port")

        # Header rewrites: MACs, TTL, checksum (RFC 1624 incremental on
        # the TTL/protocol word, exactly like the Verilog).
        new_ttl = parsed.ip_ttl - 1
        old_word = (parsed.ip_ttl << 8) | (parsed.ip_proto or 0)
        new_word = (new_ttl << 8) | (parsed.ip_proto or 0)
        old_csum = int.from_bytes(ip_header[10:12], "big")
        new_csum = incremental_update16(old_csum, old_word, new_word)

        rewrites = {
            0: MacAddr(next_mac_value).packed,  # dst MAC
            6: self.tables.port_macs[egress].packed,  # src MAC
            ip_start + 8: bytes([new_ttl]),
            ip_start + 10: new_csum.to_bytes(2, "big"),
        }
        return Decision(
            with_tuser_dst_port(tuser, route.port_bits),
            rewrites=rewrites,
            note="forwarded",
        )

    def resources(self) -> Resources:
        # OPL base + LPM walker + ARP CAM + checksum/TTL datapath.
        return (
            super().resources()
            + self.tables.lpm.resources()
            + self.tables.arp.resources()
            + Resources(luts=3_800, ffs=3_200, brams=2.0)
        )
