"""Workload generators: determinism, well-formedness, distributions."""

import pytest
from hypothesis import given, strategies as st

from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.arp import ArpPacket
from repro.packet.ethernet import EthernetFrame, MIN_FRAME_SIZE
from repro.packet.generator import (
    TrafficSpec,
    make_arp_request,
    make_udp_frame,
    random_frame,
    retarget_udp_frame,
    uniform_random_frames,
)
from repro.packet.ipv4 import Ipv4Packet
from repro.packet.udp import UdpDatagram

MAC_A = MacAddr.parse("02:00:00:00:00:01")
MAC_B = MacAddr.parse("02:00:00:00:00:02")
IP_A = Ipv4Addr.parse("10.0.0.1")
IP_B = Ipv4Addr.parse("10.0.0.2")


class TestMakeUdpFrame:
    def test_exact_wire_size(self):
        for size in (64, 65, 128, 1518):
            frame = make_udp_frame(MAC_A, MAC_B, IP_A, IP_B, size=size)
            assert len(frame.pack()) + 4 == size  # +FCS

    def test_layers_parse(self):
        frame = make_udp_frame(MAC_A, MAC_B, IP_A, IP_B, sport=5, dport=6, size=200)
        ip_packet = Ipv4Packet.parse(frame.payload)
        udp = UdpDatagram.parse(ip_packet.payload)
        assert (udp.src_port, udp.dst_port) == (5, 6)
        assert (ip_packet.src, ip_packet.dst) == (IP_A, IP_B)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_udp_frame(MAC_A, MAC_B, IP_A, IP_B, size=45)

    def test_ttl_propagates(self):
        frame = make_udp_frame(MAC_A, MAC_B, IP_A, IP_B, ttl=3, size=100)
        assert Ipv4Packet.parse(frame.payload).ttl == 3


ports = st.integers(0, 0xFFFF)


class TestRetargetUdpFrame:
    """A re-targeted frame is byte-equal to one built for its ports."""

    @given(ports, ports, ports, ports, st.integers(64, 1518),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_equals_a_fresh_build(self, sport, dport, new_sport, new_dport,
                                  size, src_ip, dst_ip):
        def build(sport, dport):
            return make_udp_frame(MAC_A, MAC_B, Ipv4Addr(src_ip),
                                  Ipv4Addr(dst_ip), sport, dport,
                                  size=size).pack()

        assert retarget_udp_frame(build(sport, dport), new_sport,
                                  new_dport) == build(new_sport, new_dport)

    @given(ports, ports, ports, st.integers(64, 1518))
    def test_a_sum_that_folds_to_zero_is_sent_as_all_ones(
            self, sport, dport, new_sport, size):
        """RFC 768: the destination port that makes the words sum to
        minus zero gives a computed checksum of 0, transmitted 0xFFFF —
        from, and to, such a frame."""
        def build(sport, dport):
            return make_udp_frame(MAC_A, MAC_B, IP_A, IP_B, sport, dport,
                                  size=size).pack()

        def checksum(frame):
            return int.from_bytes(frame[40:42], "big")

        # The checksum is minus the word sum (mod 0xFFFF): moving the
        # port by what is left of it makes the sum a multiple of 0xFFFF.
        zeroing = (checksum(build(new_sport, 0)) % 0xFFFF) or 0xFFFF
        folded = build(new_sport, zeroing)
        assert checksum(folded) == 0xFFFF
        assert retarget_udp_frame(build(sport, dport), new_sport,
                                  zeroing) == folded
        assert retarget_udp_frame(folded, sport, dport) == build(sport, dport)
        assert retarget_udp_frame(folded, new_sport, zeroing) == folded

    def test_no_checksum_stays_no_checksum(self):
        datagram = UdpDatagram(5, 6, b"\xa5" * 30)
        def frame(datagram):
            return EthernetFrame(MAC_B, MAC_A, 0x0800, Ipv4Packet(
                IP_A, IP_B, 17, datagram.pack()).pack()).pack()

        assert retarget_udp_frame(frame(datagram), 7, 8) \
            == frame(UdpDatagram(7, 8, datagram.payload))

    def test_ports_out_of_range_are_refused(self):
        frame = make_udp_frame(MAC_A, MAC_B, IP_A, IP_B).pack()
        for sport, dport in ((-1, 5), (5, 0x10000)):
            with pytest.raises(ValueError):
                retarget_udp_frame(frame, sport, dport)


class TestArpRequest:
    def test_broadcast_and_parse(self):
        frame = make_arp_request(MAC_A, IP_A, IP_B)
        assert frame.dst.is_broadcast
        arp = ArpPacket.parse(frame.payload)
        assert arp.target_ip == IP_B
        assert arp.sender_mac == MAC_A


class TestRandomFrames:
    def test_deterministic_under_seed(self):
        frames_a = [f.pack() for f in uniform_random_frames(10, seed=3)]
        frames_b = [f.pack() for f in uniform_random_frames(10, seed=3)]
        assert frames_a == frames_b

    def test_different_seeds_differ(self):
        a = uniform_random_frames(5, seed=1)[0].pack()
        b = uniform_random_frames(5, seed=2)[0].pack()
        assert a != b

    def test_all_parse(self):
        for frame in uniform_random_frames(30, seed=9):
            parsed = EthernetFrame.parse(frame.pack())
            Ipv4Packet.parse(parsed.payload)

    def test_fixed_size(self):
        for frame in uniform_random_frames(10, seed=0, size=256):
            assert len(frame.pack()) + 4 == 256

    def test_generated_macs_are_unicast(self):
        for frame in uniform_random_frames(20, seed=5):
            assert not frame.src.is_multicast


class TestTrafficSpec:
    def test_imix_mean(self):
        spec = TrafficSpec.imix()
        # 7:4:1 of 64/576/1518.
        expected = (7 * 64 + 4 * 576 + 1 * 1518) / 12
        assert spec.mean_size() == pytest.approx(expected)

    def test_fixed_spec(self):
        spec = TrafficSpec.fixed(512)
        frames = list(spec.frames(10))
        assert all(len(f.pack()) + 4 == 512 for f in frames)

    def test_imix_distribution_roughly_matches(self):
        spec = TrafficSpec.imix(seed=1)
        sizes = [len(f.pack()) + 4 for f in spec.frames(1200)]
        small = sum(1 for s in sizes if s == 64)
        # 7/12 of frames should be small, generously bounded.
        assert 0.45 < small / len(sizes) < 0.70

    def test_flows_cycle(self):
        spec = TrafficSpec.fixed(128, flows=4)
        frames = list(spec.frames(8))
        srcs = [Ipv4Packet.parse(f.payload).src for f in frames]
        assert srcs[0] == srcs[4] and len(set(srcs[:4])) == 4

    def test_determinism(self):
        a = [f.pack() for f in TrafficSpec.imix(flows=3, seed=7).frames(20)]
        b = [f.pack() for f in TrafficSpec.imix(flows=3, seed=7).frames(20)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(sizes=(64,), weights=(1, 2))
        with pytest.raises(ValueError):
            TrafficSpec(sizes=(), weights=())
        with pytest.raises(ValueError):
            TrafficSpec(flows=0)
