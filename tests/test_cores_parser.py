"""Header parser: field extraction and total robustness."""

from dataclasses import dataclass, fields
from typing import Optional

from hypothesis import given, strategies as st

from repro.cores.header_parser import parse_headers
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    EthernetFrame,
)
from repro.packet.generator import make_arp_request, make_udp_frame
from repro.packet.ipv4 import Ipv4Packet
from repro.packet.tcp import TcpSegment
from repro.packet.vlan import VlanTag, tag_frame

from tests.conftest import ip, mac


class TestFieldExtraction:
    def test_udp_frame_fields(self):
        frame = make_udp_frame(mac(1), mac(2), ip(1), ip(2), sport=7, dport=8, size=128)
        parsed = parse_headers(frame.pack()[:64])
        assert parsed.src_mac == mac(1)
        assert parsed.dst_mac == mac(2)
        assert parsed.ethertype == ETHERTYPE_IPV4
        assert parsed.ip_src == ip(1)
        assert parsed.ip_dst == ip(2)
        assert parsed.ip_proto == 17
        assert parsed.l4_src_port == 7
        assert parsed.l4_dst_port == 8
        assert parsed.is_ipv4

    def test_tcp_ports(self):
        seg = TcpSegment(8080, 443)
        packet = Ipv4Packet(ip(1), ip(2), 6, seg.pack(ip(1), ip(2)))
        frame = EthernetFrame(mac(2), mac(1), ETHERTYPE_IPV4, packet.pack())
        parsed = parse_headers(frame.pack()[:64])
        assert (parsed.l4_src_port, parsed.l4_dst_port) == (8080, 443)

    def test_arp_not_ipv4(self):
        frame = make_arp_request(mac(1), ip(1), ip(2))
        parsed = parse_headers(frame.pack()[:64])
        assert parsed.ethertype == ETHERTYPE_ARP
        assert not parsed.is_ipv4
        assert parsed.ip_dst is None

    def test_vlan_tagged(self):
        inner = make_udp_frame(mac(1), mac(2), ip(1), ip(2), size=128)
        tagged = tag_frame(inner, VlanTag(vid=7, pcp=5))
        parsed = parse_headers(tagged.pack()[:64])
        assert parsed.vlan_vid == 7
        assert parsed.vlan_pcp == 5
        assert parsed.ethertype == ETHERTYPE_IPV4  # inner type after tag
        assert parsed.ip_dst == ip(2)

    def test_dscp_and_ttl(self):
        packet = Ipv4Packet(ip(1), ip(2), 17, b"", ttl=7, dscp=46)
        frame = EthernetFrame(mac(2), mac(1), ETHERTYPE_IPV4, packet.pack())
        parsed = parse_headers(frame.pack()[:64])
        assert parsed.ip_ttl == 7
        assert parsed.ip_dscp == 46

    def test_ip_options_shift_l4(self):
        seg = TcpSegment(1, 2)
        packet = Ipv4Packet(ip(1), ip(2), 6, seg.pack(), options=b"\x01" * 4)
        frame = EthernetFrame(mac(2), mac(1), ETHERTYPE_IPV4, packet.pack())
        parsed = parse_headers(frame.pack()[:64])
        assert parsed.ip_header_len == 24
        assert parsed.l4_src_port == 1

    def test_non_tcp_udp_has_no_ports(self):
        packet = Ipv4Packet(ip(1), ip(2), 1, b"\x08\x00\x00\x00\x00\x00\x00\x00")
        frame = EthernetFrame(mac(2), mac(1), ETHERTYPE_IPV4, packet.pack())
        parsed = parse_headers(frame.pack()[:64])
        assert parsed.ip_proto == 1
        assert parsed.l4_src_port is None


class TestRobustness:
    def test_runt(self):
        assert parse_headers(b"\x00" * 10).dst_mac is None

    def test_truncated_after_ethernet(self):
        frame = EthernetFrame(mac(1), mac(2), ETHERTYPE_IPV4, b"\x45")
        parsed = parse_headers(frame.pack(pad=False))
        assert parsed.ethertype == ETHERTYPE_IPV4
        assert not parsed.is_ipv4

    def test_truncated_vlan(self):
        raw = mac(1).packed + mac(2).packed + (0x8100).to_bytes(2, "big") + b"\x00"
        parsed = parse_headers(raw)
        assert parsed.vlan_vid is None

    def test_bad_ihl(self):
        header = bytearray(make_udp_frame(mac(1), mac(2), ip(1), ip(2), size=128).pack())
        header[14] = 0x41  # IHL=1: invalid
        parsed = parse_headers(bytes(header[:64]))
        assert not parsed.is_ipv4  # falls back to L2-only view
        assert parsed.ethertype == ETHERTYPE_IPV4

    @given(st.binary(max_size=80))
    def test_never_raises_property(self, data):
        """Hardware parsers do not throw; neither does this one."""
        parse_headers(data)


# ----------------------------------------------------------------------
# Lazy extraction == the eager parser, field for field
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _EagerHeaders:
    """The eager parser's result type, kept verbatim as the oracle."""

    dst_mac: Optional[MacAddr] = None
    src_mac: Optional[MacAddr] = None
    ethertype: Optional[int] = None
    vlan_vid: Optional[int] = None
    vlan_pcp: Optional[int] = None
    ip_src: Optional[Ipv4Addr] = None
    ip_dst: Optional[Ipv4Addr] = None
    ip_proto: Optional[int] = None
    ip_ttl: Optional[int] = None
    ip_dscp: Optional[int] = None
    ip_header_offset: Optional[int] = None
    ip_header_len: Optional[int] = None
    l4_src_port: Optional[int] = None
    l4_dst_port: Optional[int] = None

    @property
    def is_ipv4(self) -> bool:
        return self.ip_dst is not None


def _eager_parse_headers(data: bytes) -> _EagerHeaders:
    """``parse_headers`` as it was while it extracted everything up
    front — the reference the lazy one must match on every input."""
    if len(data) < 14:
        return _EagerHeaders()
    dst_mac = MacAddr.from_bytes(data[0:6])
    src_mac = MacAddr.from_bytes(data[6:12])
    ethertype = int.from_bytes(data[12:14], "big")
    offset = 14
    vlan_vid: Optional[int] = None
    vlan_pcp: Optional[int] = None
    if ethertype == ETHERTYPE_VLAN:
        if len(data) < offset + 4:
            return _EagerHeaders(dst_mac, src_mac, ethertype)
        tci = int.from_bytes(data[offset : offset + 2], "big")
        vlan_vid = tci & 0xFFF
        vlan_pcp = (tci >> 13) & 0x7
        ethertype = int.from_bytes(data[offset + 2 : offset + 4], "big")
        offset += 4

    base = _EagerHeaders(
        dst_mac=dst_mac,
        src_mac=src_mac,
        ethertype=ethertype,
        vlan_vid=vlan_vid,
        vlan_pcp=vlan_pcp,
    )
    if ethertype != ETHERTYPE_IPV4 or len(data) < offset + 20:
        return base
    version = data[offset] >> 4
    ihl = data[offset] & 0x0F
    ip_header_len = ihl * 4
    if version != 4 or ip_header_len < 20:
        return base

    l4 = offset + ip_header_len
    l4_src: Optional[int] = None
    l4_dst: Optional[int] = None
    proto = data[offset + 9]
    if proto in (6, 17) and len(data) >= l4 + 4:
        l4_src = int.from_bytes(data[l4 : l4 + 2], "big")
        l4_dst = int.from_bytes(data[l4 + 2 : l4 + 4], "big")

    return _EagerHeaders(
        dst_mac=dst_mac,
        src_mac=src_mac,
        ethertype=ethertype,
        vlan_vid=vlan_vid,
        vlan_pcp=vlan_pcp,
        ip_src=Ipv4Addr.from_bytes(data[offset + 12 : offset + 16]),
        ip_dst=Ipv4Addr.from_bytes(data[offset + 16 : offset + 20]),
        ip_proto=proto,
        ip_ttl=data[offset + 8],
        ip_dscp=data[offset + 1] >> 2,
        ip_header_offset=offset,
        ip_header_len=ip_header_len,
        l4_src_port=l4_src,
        l4_dst_port=l4_dst,
    )


_FIELDS = tuple(f.name for f in fields(_EagerHeaders)) + ("is_ipv4",)


@st.composite
def header_windows(draw) -> bytes:
    """Header-shaped bytes cut anywhere in 0..64: every layer boundary
    the parser tests gets hit, which uniform noise almost never does."""
    tagged = draw(st.booleans())
    ethertype = draw(st.sampled_from(
        (ETHERTYPE_IPV4, ETHERTYPE_IPV4, ETHERTYPE_ARP, ETHERTYPE_VLAN,
         draw(st.integers(0, 0xFFFF)))))
    version_ihl = draw(st.sampled_from(
        (0x45, 0x45, 0x46, 0x4F, 0x44, 0x40, 0x65,
         draw(st.integers(0, 0xFF)))))
    proto = draw(st.sampled_from((6, 17, 1, draw(st.integers(0, 0xFF)))))
    body = bytearray(draw(st.binary(min_size=64, max_size=64)))
    at = 12
    if tagged:
        body[at:at + 2] = ETHERTYPE_VLAN.to_bytes(2, "big")
        at += 4
    body[at:at + 2] = ethertype.to_bytes(2, "big")
    body[at + 2] = version_ihl
    body[at + 2 + 9] = proto
    return bytes(body[:draw(st.integers(0, 64))])


class TestLazyExtractionMatchesTheEagerParser:
    @given(st.one_of(header_windows(), st.binary(max_size=64)),
           st.permutations(_FIELDS))
    def test_every_field_in_any_read_order(self, data, order):
        """Same values — every ``None`` included — whichever layer is
        asked for first."""
        lazy, eager = parse_headers(data), _eager_parse_headers(data)
        for name in order:
            assert getattr(lazy, name) == getattr(eager, name), name

    def test_the_shapes_by_name(self):
        """The boundaries the property is for, spelled out once, each
        with what it must parse as: (vlan_vid, is_ipv4, l4_src_port)."""
        l2 = mac(2).packed + mac(1).packed
        ipv4 = bytes([0x45, 0xB8, 0, 40, 0, 0, 0, 0, 9, 17, 0, 0,
                      10, 0, 0, 1, 10, 0, 0, 2])
        udp = (7).to_bytes(2, "big") + (8).to_bytes(2, "big")
        tag = (0x8100).to_bytes(2, "big") + (0xA007).to_bytes(2, "big")
        ip_type = b"\x08\x00"
        cases = {
            "runt": (l2[:11], (None, False, None)),
            "truncated tag": (l2 + tag + ip_type[:1], (None, False, None)),
            "tag, nothing after": (l2 + tag + ip_type, (7, False, None)),
            "arp": (l2 + b"\x08\x06" + bytes(28), (None, False, None)),
            "ipv4 cut short": (l2 + ip_type + ipv4[:19], (None, False, None)),
            "ihl < 5": (l2 + ip_type + b"\x44" + ipv4[1:] + udp,
                        (None, False, None)),
            "udp": (l2 + ip_type + ipv4 + udp, (None, True, 7)),
            "tagged udp": (l2 + tag + ip_type + ipv4 + udp, (7, True, 7)),
            "options past the window":
                ((l2 + ip_type + b"\x4f" + ipv4[1:] + bytes(40))[:64],
                 (None, True, None)),
            "other protocol": (l2 + ip_type + ipv4[:9] + b"\x01"
                               + ipv4[10:] + udp, (None, True, None)),
            "l4 cut short": (l2 + ip_type + ipv4 + udp[:3],
                             (None, True, None)),
        }
        for name, (data, expected) in cases.items():
            lazy, eager = parse_headers(data), _eager_parse_headers(data)
            assert (eager.vlan_vid, eager.is_ipv4,
                    eager.l4_src_port) == expected, name
            for field in reversed(_FIELDS):  # L3 and L4 first
                assert getattr(lazy, field) == getattr(eager, field), name

    def test_a_learning_switch_builds_no_ip_address(self, monkeypatch):
        """Reading the Ethernet fields extracts the Ethernet fields."""
        def refuse(*_):
            raise AssertionError("an L2 read built an Ipv4Addr")

        frame = make_udp_frame(mac(1), mac(2), ip(1), ip(2), size=128).pack()
        monkeypatch.setattr(Ipv4Addr, "from_bytes", refuse)
        parsed = parse_headers(frame[:64])
        assert (parsed.src_mac, parsed.dst_mac) == (mac(1), mac(2))
        assert parsed.ethertype == ETHERTYPE_IPV4 and parsed.vlan_vid is None
