"""Internet checksum: RFC 1071 semantics and RFC 1624 incremental update."""

import pytest
from hypothesis import example, given, strategies as st

from repro.packet.checksum import (
    incremental_update16,
    internet_checksum,
    pseudo_header_checksum_words,
    transport_checksum,
    verify_checksum,
)


def loop_checksum(data: bytes, total: int = 0) -> int:
    """The oracle: RFC 1071's word-by-word sum, as the module computed
    it before the sum moved into one big-integer residue."""
    if len(data) % 2:
        data = data + b"\x00"
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


#: Word patterns that push the sum onto the fold's edges, mixed with
#: arbitrary bytes; lengths run past a full-size frame.
_checksum_inputs = st.one_of(
    st.binary(max_size=1600),
    st.lists(st.sampled_from([b"\x00\x00", b"\xff\xff", b"\xff\xfe",
                              b"\x00\x01", b"\x80\x00"]),
             max_size=800).map(b"".join),
)


class TestInternetChecksum:
    def test_known_header(self):
        # Classic example header from RFC 1071 discussions.
        header = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert internet_checksum(header) == 0  # includes its own checksum
        zeroed = header[:10] + b"\x00\x00" + header[12:]
        assert internet_checksum(zeroed) == 0xB861

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verify_helper(self):
        data = b"\x12\x34\x56\x78"
        csum = internet_checksum(data)
        assert verify_checksum(data + csum.to_bytes(2, "big"))

    @given(st.binary(min_size=2, max_size=256).filter(lambda d: len(d) % 2 == 0))
    def test_self_verifying_property(self, data):
        # The appended checksum must land 16-bit aligned (as in real
        # headers), hence even-length data.
        csum = internet_checksum(data)
        assert internet_checksum(data + csum.to_bytes(2, "big")) == 0

    @given(_checksum_inputs)
    @example(b"")
    @example(bytes(64))                    # all-zero: the sum stays 0
    @example(b"\xff\xff")                  # folds to 0xFFFF
    @example(b"\xff\xfe\x00\x01")          # carries into 0xFFFF
    @example(b"\xff\xff" * 700 + b"\x01")  # odd length, many carries
    def test_matches_the_word_loop(self, data):
        assert internet_checksum(data) == loop_checksum(data)


class TestIncrementalUpdate:
    def test_matches_full_recompute(self):
        header = bytearray(bytes.fromhex("45000073000040004011b861c0a80001c0a800c7"))
        old_word = (header[8] << 8) | header[9]  # ttl/proto
        header_csum = int.from_bytes(header[10:12], "big")
        # Decrement TTL.
        new_word = ((header[8] - 1) << 8) | header[9]
        updated = incremental_update16(header_csum, old_word, new_word)
        header[8] -= 1
        header[10:12] = b"\x00\x00"
        assert updated == internet_checksum(bytes(header))

    @given(
        data=st.binary(min_size=20, max_size=20),
        position=st.integers(0, 8),
        new_word=st.integers(0, 0xFFFF),
    )
    def test_equivalence_property(self, data, position, new_word):
        """RFC 1624 update == zero-field recompute, for any word change."""
        data = bytearray(data)
        # Treat bytes [10:12] as the checksum field, like IPv4.
        data[10:12] = b"\x00\x00"
        original_csum = internet_checksum(bytes(data))
        offset = position * 2
        if offset == 10:
            offset = 12  # don't rewrite the checksum field itself
        old_word = (data[offset] << 8) | data[offset + 1]
        updated = incremental_update16(original_csum, old_word, new_word)
        data[offset : offset + 2] = new_word.to_bytes(2, "big")
        full = internet_checksum(bytes(data))
        # One's complement has two zeros: 0x0000 and 0xFFFF are the same
        # value, and the incremental form may land on the other one
        # (the corner RFC 1624 §3 is about).
        assert updated == full or {updated, full} == {0x0000, 0xFFFF}

    def test_range_validation(self):
        with pytest.raises(ValueError):
            incremental_update16(0x10000, 0, 0)
        with pytest.raises(ValueError):
            incremental_update16(0, 0x10000, 0)


class TestTransportChecksum:
    def test_udp_checksum_verifies(self):
        src, dst = b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"
        segment = b"\x04\x00\x10\x00\x00\x0c\x00\x00hell"
        csum = transport_checksum(src, dst, 17, segment)
        patched = segment[:6] + csum.to_bytes(2, "big") + segment[8:]
        assert transport_checksum(src, dst, 17, patched) == 0

    @given(segment=_checksum_inputs, src=st.binary(min_size=4, max_size=4),
           dst=st.binary(min_size=4, max_size=4),
           protocol=st.sampled_from([0, 6, 17, 0xFF]))
    @example(segment=b"", src=bytes(4), dst=bytes(4), protocol=0)
    @example(segment=b"\xff\xfe", src=bytes(4), dst=bytes(4), protocol=0)
    @example(segment=b"\xff", src=b"\xff" * 4, dst=b"\xff" * 4, protocol=0xFF)
    def test_matches_the_word_loop(self, segment, src, dst, protocol):
        pseudo = pseudo_header_checksum_words(src, dst, protocol, len(segment))
        assert transport_checksum(src, dst, protocol, segment) \
            == loop_checksum(segment, pseudo)

    def test_bad_address_length(self):
        with pytest.raises(ValueError):
            transport_checksum(b"\x00" * 3, b"\x00" * 4, 17, b"")
