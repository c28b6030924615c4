"""MAC and IPv4 address types."""

import pytest
from hypothesis import given, strategies as st

from repro.packet.addresses import BROADCAST_MAC, Ipv4Addr, MacAddr


class TestMacAddr:
    def test_parse_format_roundtrip(self):
        text = "02:0a:0b:0c:0d:0e"
        assert str(MacAddr.parse(text)) == text

    def test_packed(self):
        assert MacAddr.parse("00:00:00:00:00:01").packed == b"\x00" * 5 + b"\x01"
        assert MacAddr.from_bytes(b"\xff" * 6) == BROADCAST_MAC

    def test_broadcast_and_multicast(self):
        assert BROADCAST_MAC.is_broadcast and BROADCAST_MAC.is_multicast
        assert MacAddr.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddr.parse("02:00:00:00:00:01").is_multicast

    @pytest.mark.parametrize(
        "bad",
        ["", "02:00:00:00:00", "02:00:00:00:00:00:00", "zz:00:00:00:00:00", "2000:00:00:00:00:00"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            MacAddr.parse(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MacAddr(1 << 48)
        with pytest.raises(ValueError):
            MacAddr(-1)

    def test_from_bytes_length_check(self):
        with pytest.raises(ValueError):
            MacAddr.from_bytes(b"\x00" * 5)

    @given(st.integers(0, (1 << 48) - 1))
    def test_roundtrip_property(self, value):
        addr = MacAddr(value)
        assert MacAddr.parse(str(addr)) == addr
        assert MacAddr.from_bytes(addr.packed) == addr

    def test_parse_memo_matches_and_is_cached(self):
        assert MacAddr.parse("02:aa:00:00:00:01").value == 0x02AA00000001
        # Repeat parses serve from the memo yet stay value-equal.
        assert (MacAddr.parse("02:aa:00:00:00:01")
                == MacAddr.parse("02:AA:00:00:00:01"))

    @pytest.mark.parametrize("bad", ["", "02:aa", "zz:zz:zz:zz:zz:zz",
                                     "02:aa:00:00:00:01:99", "02aa00000001x"])
    def test_parse_malformed_raises_every_time(self, bad):
        with pytest.raises(ValueError) as first:
            MacAddr.parse(bad)
        with pytest.raises(ValueError) as second:
            MacAddr.parse(bad)  # errors are not cached
        assert str(first.value) == str(second.value)


class TestIpv4Addr:
    def test_parse_format_roundtrip(self):
        assert str(Ipv4Addr.parse("192.168.1.200")) == "192.168.1.200"

    def test_packed_is_network_order(self):
        assert Ipv4Addr.parse("10.0.0.1").packed == b"\x0a\x00\x00\x01"

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            Ipv4Addr.parse(bad)

    def test_prefix_membership(self):
        net = Ipv4Addr.parse("10.1.0.0")
        assert Ipv4Addr.parse("10.1.2.3").in_prefix(net, 16)
        assert not Ipv4Addr.parse("10.2.0.1").in_prefix(net, 16)
        assert Ipv4Addr.parse("8.8.8.8").in_prefix(net, 0)  # default route

    def test_prefix_32_exact(self):
        addr = Ipv4Addr.parse("10.0.0.5")
        assert addr.in_prefix(addr, 32)
        assert not Ipv4Addr.parse("10.0.0.6").in_prefix(addr, 32)

    def test_bad_prefix_len(self):
        with pytest.raises(ValueError):
            Ipv4Addr(0).in_prefix(Ipv4Addr(0), 33)

    @given(st.integers(0, (1 << 32) - 1))
    def test_roundtrip_property(self, value):
        addr = Ipv4Addr(value)
        assert Ipv4Addr.parse(str(addr)) == addr
        assert Ipv4Addr.from_bytes(addr.packed) == addr

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, 32))
    def test_prefix_reflexive_property(self, value, prefix_len):
        addr = Ipv4Addr(value)
        assert addr.in_prefix(addr, prefix_len)
