"""Header parser: the field-extraction stage of the reference pipelines.

The Verilog parser walks the packet as beats arrive and latches fields at
fixed offsets; this model does the same extraction over the buffered
header bytes.  It is deliberately *non-throwing*: malformed or truncated
packets yield ``None`` fields and let the lookup stage decide (drop, or
punt to the CPU path) — hardware never raises exceptions.
"""

from __future__ import annotations

from typing import Optional

from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.ethernet import ETHERTYPE_IPV4, ETHERTYPE_VLAN

#: Bytes of header the pipelines need at most: eth(14) + vlan(4) +
#: ipv4+options(60) would be 78, but the reference parsers cap options.
HEADER_WINDOW = 64


_L2_FIELDS = ("dst_mac", "src_mac", "ethertype", "vlan_vid", "vlan_pcp")
_L3_FIELDS = ("ip_src", "ip_dst", "ip_proto", "ip_ttl", "ip_dscp",
              "ip_header_offset", "ip_header_len", "l4_src_port",
              "l4_dst_port")


class ParsedHeaders:
    """Every field the reference lookups use; ``None`` = not present.

    Fields are extracted a layer at a time, when one of the layer's is
    first read — the Ethernet/802.1Q fields together, then the IPv4 and
    L4 fields together — and are plain attributes from then on: a
    learning switch, which reads two MAC addresses, never builds an
    :class:`Ipv4Addr`.
    """

    def __init__(self, data: bytes = b""):
        self._data = data

    def __getattr__(self, name: str):
        # Reached only for a field whose layer is not extracted yet.
        if name in _L2_FIELDS:
            fields = _L2_FIELDS
            *values, self._l3_offset = _extract_l2(self._data)
        elif name in _L3_FIELDS:
            fields = _L3_FIELDS
            values = _extract_l3(self._data, self.ethertype, self._l3_offset)
        else:
            raise AttributeError(name)
        self.__dict__.update(zip(fields, values))
        return self.__dict__[name]

    def __repr__(self) -> str:
        return "ParsedHeaders(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in _L2_FIELDS + _L3_FIELDS)

    @property
    def is_ipv4(self) -> bool:
        return self.ip_dst is not None


def parse_headers(data: bytes) -> ParsedHeaders:
    """Extract header fields from the first bytes of a frame.

    Handles one optional 802.1Q tag (like the reference parser) and stops
    gracefully at whatever layer the data runs out.  The extraction
    itself is deferred to the first read of a field (see
    :class:`ParsedHeaders`); what a field reads as is unchanged.
    """
    return ParsedHeaders(data)


def _extract_l2(data: bytes) -> tuple:
    """The :data:`_L2_FIELDS`, then the offset an IPv4 header would
    start at."""
    if len(data) < 14:
        return None, None, None, None, None, 14
    dst_mac = MacAddr.from_bytes(data[0:6])
    src_mac = MacAddr.from_bytes(data[6:12])
    ethertype = int.from_bytes(data[12:14], "big")
    if ethertype != ETHERTYPE_VLAN or len(data) < 18:
        # Untagged — or a truncated tag, which leaves the TPID standing
        # as the ethertype and so parses no further.
        return dst_mac, src_mac, ethertype, None, None, 14
    tci = int.from_bytes(data[14:16], "big")
    return (dst_mac, src_mac, int.from_bytes(data[16:18], "big"),
            tci & 0xFFF, (tci >> 13) & 0x7, 18)


def _extract_l3(data: bytes, ethertype: Optional[int], offset: int) -> tuple:
    """The :data:`_L3_FIELDS`."""
    absent = (None,) * len(_L3_FIELDS)
    if ethertype != ETHERTYPE_IPV4 or len(data) < offset + 20:
        return absent
    ip_header_len = (data[offset] & 0x0F) * 4
    if data[offset] >> 4 != 4 or ip_header_len < 20:
        return absent
    # The fixed 20-byte header is present; options may extend past the
    # parse window — the caller sees that via ip_header_len and decides
    # (the router punts such packets to software).
    l4 = offset + ip_header_len
    l4_src: Optional[int] = None
    l4_dst: Optional[int] = None
    proto = data[offset + 9]
    if proto in (6, 17) and len(data) >= l4 + 4:
        l4_src = int.from_bytes(data[l4 : l4 + 2], "big")
        l4_dst = int.from_bytes(data[l4 + 2 : l4 + 4], "big")
    return (
        Ipv4Addr.from_bytes(data[offset + 12 : offset + 16]),
        Ipv4Addr.from_bytes(data[offset + 16 : offset + 20]),
        proto, data[offset + 8], data[offset + 1] >> 2,
        offset, ip_header_len, l4_src, l4_dst,
    )
