"""Reference projects end to end, in both harness modes (claims C2/C6)."""

import pickle

import pytest

from repro.board.fpga import report_for_design
from repro.projects.base import ALL_PORTS, PortRef, ReferencePipeline
from repro.projects.reference_nic import ReferenceNic
from repro.projects.reference_router import ReferenceRouter, default_router_tables
from repro.projects.reference_switch import ReferenceSwitch, ReferenceSwitchLite
from repro.testenv.harness import Stimulus, run_hw, run_sim

from tests.conftest import udp_frame


class TestPortRef:
    def test_bits_follow_convention(self):
        assert PortRef("phys", 0).bit == 0x01
        assert PortRef("dma", 0).bit == 0x02
        assert PortRef("phys", 3).bit == 0x40
        assert PortRef("dma", 3).bit == 0x80

    def test_stored_bit_is_not_part_of_the_identity(self):
        port = PortRef("phys", 2)
        assert repr(port) == "PortRef(kind='phys', index=2)"
        assert port == PortRef("phys", 2)
        assert hash(port) == hash(PortRef("phys", 2))
        assert pickle.loads(pickle.dumps(port)).bit == port.bit
        with pytest.raises(TypeError):
            PortRef("phys", 2, 0x10)  # derived, never passed in

    def test_validation(self):
        with pytest.raises(ValueError):
            PortRef("phys", 4)
        with pytest.raises(ValueError):
            PortRef("usb", 0)

    def test_all_ports(self):
        assert len(ALL_PORTS) == 8
        assert str(ALL_PORTS[0]) == "nf0"
        assert str(ALL_PORTS[4]) == "dma0"


class TestReferenceNic:
    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_bridges_both_directions(self, mode):
        nic = ReferenceNic()
        runner = run_sim if mode == "sim" else run_hw
        frame_up = udp_frame(src=1, dst=2)
        frame_down = udp_frame(src=3, dst=4)
        result = runner(
            nic,
            [
                Stimulus(PortRef("phys", 1), frame_up),
                Stimulus(PortRef("dma", 2), frame_down),
            ],
        )
        assert result.at(PortRef("dma", 1)) == [frame_up]
        assert result.at(PortRef("phys", 2)) == [frame_down]

    def test_register_map_has_stats(self):
        nic = ReferenceNic()
        windows = [name for _, _, name in nic.interconnect.memory_map()]
        assert any("stats" in name for name in windows)

    def test_stats_count_traffic(self):
        nic = ReferenceNic()
        run_sim(nic, [Stimulus(PortRef("phys", 0), udp_frame())])
        assert nic.stats.packets["rx_nf0"] == 1
        assert nic.stats.packets["tx_dma0"] == 1


class TestReferenceSwitch:
    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_flood_then_learn(self, mode):
        switch = ReferenceSwitch()
        runner = run_sim if mode == "sim" else run_hw
        a_to_b = udp_frame(src=1, dst=2)
        b_to_a = udp_frame(src=2, dst=1)
        result = runner(
            switch,
            [
                Stimulus(PortRef("phys", 0), a_to_b),
                Stimulus(PortRef("phys", 3), b_to_a),
            ],
        )
        # First packet floods to 1,2,3; reply goes straight to 0.
        assert result.at(PortRef("phys", 1)) == [a_to_b]
        assert result.at(PortRef("phys", 2)) == [a_to_b]
        assert result.at(PortRef("phys", 3)) == [a_to_b]
        assert result.at(PortRef("phys", 0)) == [b_to_a]

    def test_modes_agree_on_random_traffic(self):
        """E11's core claim: sim and hw targets produce identical results."""
        stimuli = [
            Stimulus(PortRef("phys", i % 4), udp_frame(src=i % 5, dst=(i + 1) % 5))
            for i in range(12)
        ]
        sim_result = run_sim(ReferenceSwitch(), stimuli)
        hw_result = run_hw(ReferenceSwitch(), stimuli)
        for port in ALL_PORTS:
            assert sorted(sim_result.at(port)) == sorted(hw_result.at(port)), port


class TestReferenceSwitchLite:
    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_pairs(self, mode):
        lite = ReferenceSwitchLite()
        runner = run_sim if mode == "sim" else run_hw
        frame = udp_frame()
        result = runner(lite, [Stimulus(PortRef("phys", 2), frame)])
        assert result.at(PortRef("phys", 3)) == [frame]


class TestReferenceRouter:
    def _frame_to_b(self, ttl=32):
        from repro.packet.addresses import Ipv4Addr, MacAddr
        from repro.packet.generator import make_udp_frame

        tables = default_router_tables()
        return make_udp_frame(
            MacAddr.parse("02:aa:00:00:00:01"),
            tables.port_macs[0],
            Ipv4Addr.parse("10.0.0.9"),
            Ipv4Addr.parse("10.0.1.2"),
            size=128,
            ttl=ttl,
        ).pack()

    def _router(self):
        from repro.packet.addresses import Ipv4Addr, MacAddr

        router = ReferenceRouter()
        router.tables.add_arp(
            Ipv4Addr.parse("10.0.1.2"), MacAddr.parse("02:bb:00:00:00:01")
        )
        return router

    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_forwards_between_subnets(self, mode):
        runner = run_sim if mode == "sim" else run_hw
        result = runner(self._router(), [Stimulus(PortRef("phys", 0), self._frame_to_b())])
        out = result.at(PortRef("phys", 1))
        assert len(out) == 1
        from repro.packet.ethernet import EthernetFrame
        from repro.packet.ipv4 import Ipv4Packet

        packet = Ipv4Packet.parse(EthernetFrame.parse(out[0]).payload)
        assert packet.ttl == 31

    def test_exception_traffic_reaches_dma(self):
        router = self._router()
        result = run_sim(
            router, [Stimulus(PortRef("phys", 0), self._frame_to_b(ttl=1))]
        )
        assert len(result.at(PortRef("dma", 0))) == 1


class TestUtilizationComparison:
    """C4/E4: shared blocks make cross-project comparison meaningful."""

    def test_every_reference_design_fits(self):
        for factory in (ReferenceNic, ReferenceSwitchLite, ReferenceSwitch, ReferenceRouter):
            report_for_design(factory()).check()

    def test_router_largest_nic_smallest_family(self):
        nic = report_for_design(ReferenceNic()).used
        router = report_for_design(ReferenceRouter()).used
        assert router.luts > nic.luts
        assert router.brams > nic.brams

    def test_project_trees_share_block_structure(self):
        """Every reference project is the same five-stage pipeline."""
        for factory in (ReferenceNic, ReferenceSwitch, ReferenceRouter):
            project = factory()
            child_kinds = {type(m).__name__ for m in project.walk()}
            assert "InputArbiter" in child_kinds
            assert "OutputQueues" in child_kinds
            assert "StatsCollector" in child_kinds
