"""The INT trailer codec: a bounded hop stack carved into the payload.

In-band network telemetry (S24) makes the *packet itself* carry the
evidence of what the fabric did to it — the IntSight/Felix telemetry
half of the fast-reroute story, in the spirit of the per-packet
timestamping the NetFPGA/OSNT ecosystem pioneered.  Each INT-enabled
flow's frames end with a fixed-size trailer carved out of the tail of
the UDP payload:

* **zero length change** — the trailer replaces fill bytes, so the
  frame's wire length (and with it every length-keyed cache: the
  path cache key's frame length, ``bytes_delivered``) is untouched;
* **header-window clear** — :func:`encode_template` refuses frames
  whose trailer would reach into the first ``HEADER_WINDOW`` bytes the
  lookups read, so stamping can never perturb a forwarding decision;
* **fixed offsets from the frame end** — every hop record lives at a
  constant negative offset, so a stamp is a handful of ``bytearray``
  writes and the receiver can parse without knowing the frame size.

Layout (all integers big-endian), for a stack of ``max_hops`` records::

    ... payload ... | slot 0 | slot 1 | ... | slot max_hops-1 | header |
                                                               16 bytes

    header:  flow_id u32 | seq u32 | hop_count u8 | flags u8
             | max_hops u8 | reserved u8 | magic "INT1"
    slot:    device_id u16 | ingress u8 | egress u8 | timestamp u32
             | flags u8 | dead_ports u8          (HOP_BYTES = 10 each)

The magic sits in the frame's last four bytes so ``is_int_frame`` is a
single tail compare on the hot path.  Header flags: bit 0 marks the
response direction of a request/response flow, bit 1 records a hop-stack
overflow (the packet crossed more devices than the stack holds — the
stamps stop, the flag survives).  Slot flags: bit 0 marks a fast-reroute
stamp (the egress is the *backup* port); ``dead_ports`` then carries the
one-bit-per-index mask of the device's link-down physical ports, which
is what lets the receiver name the failed link.

Determinism: timestamps are cycle-domain path sums — each hop adds its
lookup's ``DECISION_LATENCY_CYCLES`` to the previous stamp — so a
packet's stamp stack is a pure function of its path, independent of
injection order, shard count or the flow caches (the template carries
``seq == 0``; :meth:`~repro.testenv.topology.Network.inject` substitutes
the per-packet sequence number into the delivered frames *after* the
cached walk, so cached and uncached deliveries are byte-identical).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

#: The trailer magic, in the frame's last four bytes.
MAGIC = b"INT1"

#: Hop records per stack unless the encoder is told otherwise.
MAX_INT_HOPS = 8

HEADER_BYTES = 16
HOP_BYTES = 10

#: Bytes of frame the lookups read; the trailer must start strictly
#: after them.
HEADER_WINDOW = 64

#: Smallest ``make_udp_frame(size=...)`` wire size whose packed frame
#: holds a default trailer clear of the header window (packed frames
#: omit the 4-byte FCS; 192 - 4 - 16 - 8*10 = 92 >= 64).
INT_MIN_FRAME_SIZE = 192

#: Offset of the UDP checksum in an eth+ipv4+udp frame; the encoder
#: zeroes it (legal for UDP over IPv4) so stamping keeps frames honest.
_UDP_CSUM_OFFSET = 14 + 20 + 6

#: The layout above: the header up to its reserved byte, and one slot.
_HEADER = struct.Struct(">IIBBB")
_HOP = struct.Struct(">HBBIBB")

_F_RESPONSE = 0x01
#: The header flag a full stack sets; with the slots and the hop-count
#: byte it is the *hop stack*, all a walk writes into a trailer.
OVERFLOW = 0x02
_H_REROUTED = 0x01


class IntError(ValueError):
    """A frame too small for its trailer, or a malformed trailer."""


class IntHop(NamedTuple):
    """One parsed hop record."""

    device_id: int
    ingress: int  #: physical port index, or ``0xF0 | i`` for DMA queue i
    egress: int
    timestamp: int  #: cycle-domain path sum at this device's egress
    rerouted: bool  #: True when the egress is the backup (FRR) port
    dead_ports: int  #: one-hot link-down port mask, only when rerouted


class IntStack(NamedTuple):
    """A parsed trailer: the header plus the stamped hop records."""

    flow_id: int
    seq: int
    response: bool
    overflow: bool
    max_hops: int
    hops: tuple[IntHop, ...]

    def latencies(self) -> tuple[int, ...]:
        """Per-hop cycle latencies (timestamp deltas along the path)."""
        out, prev = [], 0
        for hop in self.hops:
            out.append(hop.timestamp - prev)
            prev = hop.timestamp
        return tuple(out)


def trailer_bytes(max_hops: int = MAX_INT_HOPS) -> int:
    return HEADER_BYTES + max_hops * HOP_BYTES


def is_int_frame(frame: bytes) -> bool:
    """Whether the frame tail carries an INT trailer (hot-path cheap)."""
    return frame[-4:] == MAGIC and len(frame) >= HEADER_BYTES


def encode_template(
    frame: bytes, flow_id: int, *, response: bool = False,
    max_hops: int = MAX_INT_HOPS,
) -> bytes:
    """Carve an empty INT trailer into the tail of a packed frame.

    Returns the per-flow *template*: ``seq == 0``, no stamps, UDP
    checksum zeroed.  The frame length never changes.
    """
    if not 1 <= max_hops <= 0xFF:
        raise IntError(f"max_hops {max_hops} out of range 1..255")
    region = trailer_bytes(max_hops)
    if len(frame) - region < HEADER_WINDOW:
        raise IntError(
            f"frame of {len(frame)} bytes cannot hold a {region}-byte INT "
            f"trailer clear of the {HEADER_WINDOW}-byte header window"
        )
    data = bytearray(frame)
    data[_UDP_CSUM_OFFSET:_UDP_CSUM_OFFSET + 2] = b"\x00\x00"
    data[-region:] = bytes(region)
    data[-16:-12] = (flow_id & 0xFFFFFFFF).to_bytes(4, "big")
    # seq (-12:-8) and hop_count (-8) stay zero in the template.
    data[-7] = _F_RESPONSE if response else 0
    data[-6] = max_hops
    data[-4:] = MAGIC
    return bytes(data)


def set_seq(frame: bytes, seq: int) -> bytes:
    """Return the frame with the trailer's sequence number substituted.

    Non-INT frames pass through untouched, so callers can apply it
    blindly to every delivery of an injection.
    """
    if not is_int_frame(frame):
        return frame
    want = (seq & 0xFFFFFFFF).to_bytes(4, "big")
    if frame[-12:-8] == want:
        return frame
    data = bytearray(frame)
    data[-12:-8] = want
    return bytes(data)


def stamp(
    frame: bytes, device_id: int, ingress: int, egress: int, *,
    latency: int, rerouted: bool = False, dead_ports: int = 0,
) -> bytes:
    """Append one hop record; returns the stamped frame.

    A full stack sets the overflow flag instead of stamping — the
    evidence that stamps are missing survives even when the stamps
    themselves cannot.  Pure in (frame, args): identical inputs yield
    identical bytes, which is what keeps stamped walks cacheable.
    """
    hop_count = frame[-8]
    max_hops = frame[-6]
    if hop_count >= max_hops:
        if frame[-7] & OVERFLOW:
            return frame
        data = bytearray(frame)
        data[-7] |= OVERFLOW
        return bytes(data)
    slot = len(frame) - HEADER_BYTES - (max_hops - hop_count) * HOP_BYTES
    prev_ts = 0
    if hop_count:
        prev_ts = int.from_bytes(frame[slot - HOP_BYTES + 4:slot - HOP_BYTES + 8], "big")
    data = bytearray(frame)
    data[slot:slot + 2] = (device_id & 0xFFFF).to_bytes(2, "big")
    data[slot + 2] = ingress & 0xFF
    data[slot + 3] = egress & 0xFF
    data[slot + 4:slot + 8] = ((prev_ts + latency) & 0xFFFFFFFF).to_bytes(4, "big")
    data[slot + 8] = _H_REROUTED if rerouted else 0
    data[slot + 9] = dead_ports & 0xFF
    data[-8] = hop_count + 1
    return bytes(data)


def parse(frame: bytes) -> IntStack:
    """Parse a trailer into an :class:`IntStack` (receiver side)."""
    if not is_int_frame(frame):
        raise IntError("frame carries no INT trailer")
    end = len(frame)
    flow_id, seq, hop_count, flags, max_hops = _HEADER.unpack_from(
        frame, end - HEADER_BYTES)
    if not 1 <= max_hops <= 0xFF or hop_count > max_hops:
        raise IntError(
            f"malformed INT trailer: {hop_count} hops in a "
            f"{max_hops}-slot stack"
        )
    base = end - trailer_bytes(max_hops)
    if base < 0:
        raise IntError("frame shorter than its own INT trailer")
    return IntStack(
        flow_id, seq, bool(flags & _F_RESPONSE), bool(flags & OVERFLOW),
        max_hops,
        tuple([
            IntHop(device_id, ingress, egress, timestamp,
                   bool(hop_flags & _H_REROUTED), dead_ports)
            for device_id, ingress, egress, timestamp, hop_flags, dead_ports
            in _HOP.iter_unpack(frame[base:base + hop_count * HOP_BYTES])
        ]),
    )
