"""Concrete output-port lookups for the NIC and switch projects.

Each class is one drop-in OPL stage (§3 modularity): identical stream
interfaces, different forwarding logic.
"""

from __future__ import annotations

from repro.core.axilite import RegisterFile
from repro.core.axis import AxiStreamChannel
from repro.core.metadata import (
    DMA_PORT_BITS,
    NUM_PHYS_PORTS,
    PHYS_PORT_BITS,
    all_phys_ports_mask,
    dma_port_bit,
    phys_port_bit,
    tuser_dst_port,
    tuser_src_port,
    with_tuser_dst_port,
)
from repro.core.module import Resources
from repro.cores.cam import BinaryCam
from repro.cores.output_port_lookup import (
    READS_NOTHING,
    Decision,
    HeaderReads,
    OutputPortLookup,
    header_bytes,
)
from repro.packet.ethernet import ETHERTYPE_VLAN

_ALL_PHYS = all_phys_ports_mask()
_VLAN_TPID = ETHERTYPE_VLAN.to_bytes(2, "big")


class PassthroughLookup(OutputPortLookup):
    """Forwards with TUSER untouched — the I/O-exerciser's OPL.

    Whatever destination the ingress stage (or the test) wrote into
    TUSER is honoured; a zero destination is dropped, matching the
    reference behaviour of an unrouted packet.
    """

    def header_reads(self) -> HeaderReads:
        return READS_NOTHING

    def decide(self, header: bytes, tuser: int) -> Decision:
        if tuser_dst_port(tuser) == 0:
            return Decision(tuser, drop=True, note="no_destination")
        return Decision(tuser, note="passthrough")


class NicLookup(OutputPortLookup):
    """The reference NIC's OPL: a fixed port↔host wiring.

    Traffic arriving on physical port *i* goes to DMA queue *i*; traffic
    arriving from DMA queue *i* goes out physical port *i*.  No tables,
    no parsing — which is why the NIC is the smallest reference design
    (visible in the E4 utilization comparison).
    """

    DECISION_LATENCY_CYCLES = 1  # a wired mapping: no table walk

    def header_reads(self) -> HeaderReads:
        return READS_NOTHING

    def decide(self, header: bytes, tuser: int) -> Decision:
        src = tuser_src_port(tuser)
        for i in range(NUM_PHYS_PORTS):
            if src & phys_port_bit(i):
                dst = dma_port_bit(i)
                return Decision(with_tuser_dst_port(tuser, dst), note="to_host")
            if src & dma_port_bit(i):
                dst = phys_port_bit(i)
                return Decision(with_tuser_dst_port(tuser, dst), note="to_wire")
        return Decision(tuser, drop=True, note="unknown_source")

    def resources(self) -> Resources:
        return super().resources() + Resources(luts=120, ffs=90)


class LearningSwitchLookup(OutputPortLookup):
    """The reference (learning) switch's OPL.

    Learns source MAC → ingress port into an exact-match CAM; forwards
    to the learned port on a hit, floods all other physical ports on a
    miss or for group-addressed frames.  Host software can inspect and
    clear the table through the register file.

    ``vlan_aware=True`` enables the community-contributed 802.1Q
    enhancement (§1: projects "are regularly enhanced by community
    members"): the FDB key becomes (VID, MAC) and flooding is confined
    to ports that are members of the frame's VLAN.  Untagged traffic
    uses VID 0; a VLAN with no explicit membership spans all ports.
    """

    DECISION_LATENCY_CYCLES = 4  # learn + CAM lookup + encode

    def __init__(
        self,
        name: str,
        s_axis: AxiStreamChannel,
        m_axis: AxiStreamChannel,
        table_size: int = 512,
        learn: bool = True,
        vlan_aware: bool = False,
    ):
        super().__init__(name, s_axis, m_axis)
        self.vlan_aware = vlan_aware
        key_bits = 60 if vlan_aware else 48  # 12-bit VID + 48-bit MAC
        self.mac_table = BinaryCam(capacity=table_size, key_bits=key_bits,
                                   state=self.state)
        #: Backup next-hop column (fast reroute): same key space as the
        #: FDB, consulted only when the primary port has lost link.
        self.backup_table = BinaryCam(capacity=table_size, key_bits=key_bits,
                                      state=self.state)
        self.learn = learn
        #: VLAN membership: vid -> one-hot physical-port mask.
        self.vlan_members: dict[int, int] = {}
        self.registers = RegisterFile(f"{name}_regs")
        self.registers.add_register(
            "lut_hits", 0x00, read_only=True,
            on_read=lambda: self.counters.get("hit", 0),
        )
        self.registers.add_register(
            "lut_misses", 0x04, read_only=True,
            on_read=lambda: self.counters.get("flood", 0),
        )
        self.registers.add_register(
            "table_size", 0x08, read_only=True, on_read=lambda: len(self.mac_table)
        )
        self.registers.add_register(
            "table_clear", 0x0C, on_write=lambda _v: self.mac_table.clear()
        )

    def set_vlan_members(self, vid: int, port_mask: int) -> None:
        """Restrict VLAN ``vid`` flooding to ``port_mask`` (one-hot)."""
        if not 0 <= vid <= 0xFFF:
            raise ValueError(f"VLAN ID out of range: {vid}")
        if self.vlan_members.get(vid) != port_mask:
            self.vlan_members[vid] = port_mask
            self.state.bump()

    def header_reads(self) -> HeaderReads:
        """Both MAC addresses — the source is learned, the destination
        looked up — once the 14-byte Ethernet header is there to parse;
        a VLAN-aware switch also reads TPID and TCI, and honours the
        tag only when all 18 tagged-header bytes arrived."""
        if self.vlan_aware:
            return HeaderReads(header_bytes(0, 16), 18)
        return HeaderReads(header_bytes(0, 12), 14)

    def decide(self, header: bytes, tuser: int) -> Decision:
        # Off the raw bytes (the CAM is keyed by them): no parsed objects.
        src_bits = tuser_src_port(tuser)
        if len(header) < 14:
            return Decision(tuser, drop=True, note="runt")
        vid = 0  # also of untagged frames, and of a tag cut short of 18 bytes
        if self.vlan_aware and header[12:14] == _VLAN_TPID and len(header) >= 18:
            vid = int.from_bytes(header[14:16], "big") & 0xFFF
        members = self.vlan_members.get(vid, _ALL_PHYS)
        if self.vlan_aware and not (src_bits & members):
            # Frame arrived on a port outside its VLAN: drop at ingress.
            return Decision(tuser, drop=True, note="vlan_violation")
        # FDB keys are (VID, MAC); an unaware switch only has VID 0.
        if self.learn and not header[6] & 1:  # I/G bit: group sources never
            self.mac_table.insert(
                (vid << 48) | int.from_bytes(header[6:12], "big"), src_bits)
        if not header[0] & 1:
            key = (vid << 48) | int.from_bytes(header[0:6], "big")
            hit = self.mac_table.lookup(key)
            if hit is not None:
                if hit == src_bits:
                    # Destination is back out the ingress port: filter.
                    return Decision(tuser, drop=True, note="same_port_filter")
                if hit & self.port_liveness:
                    return Decision(with_tuser_dst_port(tuser, hit), note="hit")
                # Primary port is dead: fall over to the precomputed
                # backup next-hop, still inside this packet's walk.
                backup = self.backup_table.lookup(key)
                if (
                    backup is not None
                    and backup & self.port_liveness
                    and backup != src_bits
                ):
                    return Decision(
                        with_tuser_dst_port(tuser, backup), note="frr_reroute"
                    )
                return Decision(tuser, drop=True, note="frr_blackhole")
        flood = _ALL_PHYS & ~src_bits & members & self.port_liveness
        if flood == 0:
            return Decision(tuser, drop=True, note="no_flood_targets")
        return Decision(with_tuser_dst_port(tuser, flood), note="flood")

    def resources(self) -> Resources:
        return (
            super().resources()
            + self.mac_table.resources()
            + self.backup_table.resources()
            + Resources(luts=400, ffs=300)
        )


class SwitchLiteLookup(OutputPortLookup):
    """The reference switch_lite OPL: CAM-less crossbar switching.

    A static port-mapping switch (out = the "other" port pair), the
    cheapest possible switch — used by the E3/E4 comparisons as the
    lower bound on switching cost.  Port pairs: 0↔1, 2↔3.
    """

    DECISION_LATENCY_CYCLES = 1  # static crossing

    def header_reads(self) -> HeaderReads:
        return READS_NOTHING

    def decide(self, header: bytes, tuser: int) -> Decision:
        src = tuser_src_port(tuser)
        mapping = {
            PHYS_PORT_BITS[0]: PHYS_PORT_BITS[1],
            PHYS_PORT_BITS[1]: PHYS_PORT_BITS[0],
            PHYS_PORT_BITS[2]: PHYS_PORT_BITS[3],
            PHYS_PORT_BITS[3]: PHYS_PORT_BITS[2],
            DMA_PORT_BITS[0]: PHYS_PORT_BITS[0],
            DMA_PORT_BITS[1]: PHYS_PORT_BITS[1],
            DMA_PORT_BITS[2]: PHYS_PORT_BITS[2],
            DMA_PORT_BITS[3]: PHYS_PORT_BITS[3],
        }
        dst = mapping.get(src)
        if dst is None:
            return Decision(tuser, drop=True, note="unknown_source")
        return Decision(with_tuser_dst_port(tuser, dst), note="crossed")

    def resources(self) -> Resources:
        return super().resources() + Resources(luts=60, ffs=40)
