"""Unit and property tests for repro.utils.bitfield."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.bitfield import BitField, bits_to_bytes, bytes_to_bits, mask


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(8) == 0xFF

    def test_wide(self):
        assert mask(128) == (1 << 128) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestByteConversion:
    def test_byte_zero_is_low_bits(self):
        # AXI lane mapping: byte 0 occupies bits [7:0].
        assert bytes_to_bits(b"\x01\x02") == 0x0201

    def test_roundtrip_simple(self):
        data = b"\xde\xad\xbe\xef"
        assert bits_to_bytes(bytes_to_bits(data), 4) == data

    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data), len(data)) == data

    def test_truncation(self):
        assert bits_to_bytes(0x123456, 2) == b"\x56\x34"


class TestBitFieldConstruction:
    def test_fields_fit(self):
        bf = BitField(32, [("a", 16), ("b", 16)])
        assert bf.field_names == ["a", "b"]
        assert bf.field_width("a") == 16

    def test_unused_high_bits_allowed(self):
        BitField(64, [("a", 8)])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitField(16, [("a", 10), ("b", 10)])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            BitField(32, [("a", 8), ("a", 8)])

    def test_zero_width_field_rejected(self):
        with pytest.raises(ValueError):
            BitField(32, [("a", 0)])

    def test_zero_width_word_rejected(self):
        with pytest.raises(ValueError):
            BitField(0, [])


class TestPackUnpack:
    BF = BitField(32, [("len", 16), ("src", 8), ("dst", 8)])

    def test_pack_layout(self):
        word = self.BF.pack(len=0x1234, src=0xAB, dst=0xCD)
        assert word == 0xCDAB1234

    def test_unpack_inverse(self):
        values = {"len": 999, "src": 3, "dst": 200}
        assert self.BF.unpack(self.BF.pack(**values)) == values

    def test_missing_fields_default_zero(self):
        assert self.BF.unpack(self.BF.pack(src=5)) == {"len": 0, "src": 5, "dst": 0}

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            self.BF.pack(bogus=1)

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError):
            self.BF.pack(src=256)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            self.BF.pack(len=-1)

    def test_unpack_range_check(self):
        with pytest.raises(ValueError):
            self.BF.unpack(1 << 32)

    @given(
        len_=st.integers(0, 0xFFFF),
        src=st.integers(0, 0xFF),
        dst=st.integers(0, 0xFF),
    )
    def test_roundtrip_property(self, len_, src, dst):
        word = self.BF.pack(len=len_, src=src, dst=dst)
        assert self.BF.unpack(word) == {"len": len_, "src": src, "dst": dst}


class TestExtractInsert:
    BF = BitField(32, [("a", 12), ("b", 12), ("c", 8)])

    def test_extract(self):
        word = self.BF.pack(a=0x123, b=0x456, c=0x78)
        assert self.BF.extract(word, "b") == 0x456

    def test_insert_preserves_others(self):
        word = self.BF.pack(a=1, b=2, c=3)
        word = self.BF.insert(word, "b", 0xFFF)
        assert self.BF.unpack(word) == {"a": 1, "b": 0xFFF, "c": 3}

    def test_insert_oversize_rejected(self):
        with pytest.raises(ValueError):
            self.BF.insert(0, "c", 0x100)

    @given(st.integers(0, mask(32)), st.integers(0, mask(12)))
    def test_insert_then_extract(self, word, value):
        word &= mask(32)
        assert self.BF.extract(self.BF.insert(word, "a", value), "a") == value

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @given(word=st.integers(0, mask(32)), value=st.integers(-2, mask(12) + 2))
    def test_compiled_accessors_are_extract_and_insert(self, name, word, value):
        """Same values, same refusals — message and all."""
        read, write = self.BF.accessors(name)
        assert read(word) == self.BF.extract(word, name)
        try:
            expected = self.BF.insert(word, name, value)
        except ValueError as error:
            with pytest.raises(ValueError) as refused:
                write(word, value)
            assert str(refused.value) == str(error)
        else:
            assert write(word, value) == expected

    def test_the_tuser_port_accessors(self):
        from repro.core.metadata import (
            SUME_TUSER, tuser_dst_port, tuser_src_port, with_tuser_dst_port)
        word = SUME_TUSER.pack(len=1500, src_port=0x04, dst_port=0x41, user=9)
        assert (tuser_src_port(word), tuser_dst_port(word)) == (0x04, 0x41)
        assert with_tuser_dst_port(word, 0x10) \
            == SUME_TUSER.insert(word, "dst_port", 0x10)
        with pytest.raises(ValueError, match="does not fit field 'dst_port'"):
            with_tuser_dst_port(word, 0x100)
