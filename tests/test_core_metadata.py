"""The SUME TUSER convention and port-bit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.metadata import (
    DMA_PORT_BITS,
    PHYS_PORT_BITS,
    SUME_TUSER,
    all_phys_ports_mask,
    dma_port_bit,
    pack_tuser_len_src,
    phys_port_bit,
    port_bits_to_indices,
)


class TestPortBits:
    def test_interleaved_encoding(self):
        assert PHYS_PORT_BITS == (0x01, 0x04, 0x10, 0x40)
        assert DMA_PORT_BITS == (0x02, 0x08, 0x20, 0x80)

    def test_helpers_match_tables(self):
        for i in range(4):
            assert phys_port_bit(i) == PHYS_PORT_BITS[i]
            assert dma_port_bit(i) == DMA_PORT_BITS[i]

    def test_range_checked(self):
        with pytest.raises(ValueError):
            phys_port_bit(4)
        with pytest.raises(ValueError):
            dma_port_bit(-1)

    def test_all_ports_disjoint(self):
        bits = [*PHYS_PORT_BITS, *DMA_PORT_BITS]
        assert len({b for b in bits}) == 8
        combined = 0
        for bit in bits:
            assert not combined & bit
            combined |= bit
        assert combined == 0xFF

    def test_flood_mask(self):
        assert all_phys_ports_mask() == 0x55
        assert all_phys_ports_mask(exclude=phys_port_bit(1)) == 0x51


class TestDecoding:
    def test_roundtrip_simple(self):
        bits = phys_port_bit(2) | dma_port_bit(0)
        assert port_bits_to_indices(bits) == [("phys", 2), ("dma", 0)]

    def test_empty(self):
        assert port_bits_to_indices(0) == []

    @given(st.integers(0, 0xFF))
    def test_decode_covers_every_set_bit_property(self, bits):
        decoded = port_bits_to_indices(bits)
        rebuilt = 0
        for kind, index in decoded:
            rebuilt |= phys_port_bit(index) if kind == "phys" else dma_port_bit(index)
        assert rebuilt == bits


class TestTuserLayout:
    def test_field_widths(self):
        assert SUME_TUSER.width == 128
        assert SUME_TUSER.field_width("len") == 16
        assert SUME_TUSER.field_width("src_port") == 8
        assert SUME_TUSER.field_width("dst_port") == 8
        assert SUME_TUSER.field_width("user") == 96

    @given(
        length=st.integers(0, 0xFFFF),
        src=st.integers(0, 0xFF),
        dst=st.integers(0, 0xFF),
        user=st.integers(0, (1 << 96) - 1),
    )
    def test_pack_unpack_property(self, length, src, dst, user):
        word = SUME_TUSER.pack(len=length, src_port=src, dst_port=dst, user=user)
        fields = SUME_TUSER.unpack(word)
        assert fields == {"len": length, "src_port": src, "dst_port": dst, "user": user}

    def test_compiled_packer_matches_general_pack(self):
        for length, src in [(64, 0b1), (1518, 0b0100_0000), (0, 0)]:
            assert (pack_tuser_len_src(length, src)
                    == SUME_TUSER.pack(len=length, src_port=src))

    def test_compiled_packer_oversize_error_is_identical(self):
        with pytest.raises(ValueError) as compiled:
            pack_tuser_len_src(1 << 16, 0)
        with pytest.raises(ValueError) as general:
            SUME_TUSER.pack(len=1 << 16, src_port=0)
        assert str(compiled.value) == str(general.value)

    def test_packer_unknown_field_raises_keyerror(self):
        with pytest.raises(KeyError):
            SUME_TUSER.packer("len", "no_such_field")
