"""The Internet checksum (RFC 1071) and its incremental update (RFC 1624).

The reference router updates the IPv4 header checksum *incrementally* when
it decrements TTL — recomputing over the full header would cost another
pipeline stage.  ``incremental_update16`` implements RFC 1624 equation 3,
the same arithmetic as the Verilog.

The word sum itself never loops in Python: 2**16 is 1 modulo 0xFFFF, so
the data read as one big-endian integer is congruent to the sum of its
16-bit words, and the end-around-carry fold of that sum is its residue
modulo 0xFFFF (with 0xFFFF, not 0, for a non-zero multiple).
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data`` (odd length padded)."""
    if len(data) % 2:
        data = data + b"\x00"
    total = int.from_bytes(data, "big")
    # The end-around-carry fold of the word sum, in one step.
    return ~(total % 0xFFFF or (total and 0xFFFF)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0


def incremental_update16(checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 incremental checksum update for one 16-bit field change.

    ``HC' = ~(~HC + ~m + m')`` where ``m``/``m'`` are the old/new field
    values.  Used by the router for the TTL/protocol word after TTL
    decrement.
    """
    if not 0 <= checksum <= 0xFFFF:
        raise ValueError(f"checksum out of range: {checksum:#x}")
    if not 0 <= old_word <= 0xFFFF or not 0 <= new_word <= 0xFFFF:
        raise ValueError("field words must be 16-bit")
    total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + new_word
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header_checksum_words(
    src: bytes, dst: bytes, protocol: int, length: int
) -> int:
    """Partial sum of the TCP/UDP pseudo header (not folded or inverted)."""
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("pseudo header needs 4-byte IPv4 addresses")
    total = 0
    for addr in (src, dst):
        total += (addr[0] << 8 | addr[1]) + (addr[2] << 8 | addr[3])
    total += protocol
    total += length
    return total


def transport_checksum(
    src: bytes, dst: bytes, protocol: int, segment: bytes
) -> int:
    """Full TCP/UDP checksum including the IPv4 pseudo header."""
    total = pseudo_header_checksum_words(src, dst, protocol, len(segment))
    if len(segment) % 2:
        segment = segment + b"\x00"
    total += int.from_bytes(segment, "big")
    return ~(total % 0xFFFF or (total and 0xFFFF)) & 0xFFFF
