"""Packet construction, parsing and capture.

A from-scratch packet library covering the protocols the NetFPGA reference
projects handle in hardware: Ethernet (with 802.1Q VLAN), ARP, IPv4, ICMP,
UDP and TCP, plus pcap file I/O and workload generators for the test and
benchmark harnesses.

Design note: each protocol is an explicit dataclass with ``pack()`` /
``parse()`` — no metaclass field magic — because the datapath cores need
byte-exact, auditable encodings (they parse headers straight off beat
boundaries).
"""

from repro.packet.addresses import BROADCAST_MAC, Ipv4Addr, MacAddr
from repro.packet.arp import ArpPacket, ARP_OP_REPLY, ARP_OP_REQUEST
from repro.packet.checksum import internet_checksum, incremental_update16, verify_checksum
from repro.packet.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    MIN_FRAME_SIZE,
    MAX_FRAME_SIZE,
    EthernetFrame,
)
from repro.packet.icmp import IcmpPacket, ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, ICMP_TIME_EXCEEDED
from repro.packet.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, Ipv4Packet
from repro.packet.pcap import PcapReader, PcapWriter, read_pcap, write_pcap
from repro.packet.tcp import TcpSegment
from repro.packet.udp import UdpDatagram
from repro.packet.vlan import VlanTag
from repro.packet.analysis import (
    CaptureSummary,
    flow_breakdown,
    interarrival_stats,
    rate_timeseries,
    size_histogram,
    summarize,
)
from repro.packet.generator import (
    TrafficSpec,
    make_arp_request,
    make_udp_frame,
    random_frame,
    retarget_udp_frame,
    uniform_random_frames,
)

__all__ = [
    "BROADCAST_MAC",
    "Ipv4Addr",
    "MacAddr",
    "ArpPacket",
    "ARP_OP_REPLY",
    "ARP_OP_REQUEST",
    "internet_checksum",
    "incremental_update16",
    "verify_checksum",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_VLAN",
    "MIN_FRAME_SIZE",
    "MAX_FRAME_SIZE",
    "EthernetFrame",
    "IcmpPacket",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "ICMP_TIME_EXCEEDED",
    "IPPROTO_ICMP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "Ipv4Packet",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
    "TcpSegment",
    "UdpDatagram",
    "VlanTag",
    "CaptureSummary",
    "flow_breakdown",
    "interarrival_stats",
    "rate_timeseries",
    "size_histogram",
    "summarize",
    "TrafficSpec",
    "make_arp_request",
    "make_udp_frame",
    "random_frame",
    "retarget_udp_frame",
    "uniform_random_frames",
]
