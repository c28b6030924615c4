"""The unified test environment itself (claim C6, experiment E11)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metadata import phys_port_bit
from repro.cores.lookups import LearningSwitchLookup
from repro.cores.output_queues import QueueConfig
from repro.int import encode_template
from repro.projects.base import PortRef, ReferencePipeline
from repro.projects.reference_nic import ReferenceNic
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.harness import (
    NetFpgaTest,
    Stimulus,
    run_hw,
    run_sim,
    run_test,
)
from repro.testenv.regress import RegressionRunner, standard_scenarios

from tests.conftest import udp_frame
from tests.test_cores_header_reads import ethernet_frames


def vlan_aware_switch() -> ReferencePipeline:
    """The reference switch with the 802.1Q lookup dropped in; VLAN 7
    spans ports 0 and 1."""
    switch = ReferencePipeline(
        "vlan_switch",
        lambda name, s, m: LearningSwitchLookup(name, s, m, vlan_aware=True),
        QueueConfig(capacity_bytes=128 * 1024))
    switch.opl.set_vlan_members(7, phys_port_bit(0) | phys_port_bit(1))
    return switch


def both_targets(factory, stimuli):
    """Run ``stimuli`` on the kernel and on the behavioural target;
    for each, what left every port and what the lookup's books say."""
    seen = []
    for run in (run_sim, run_hw):
        project = factory()
        result = run(project, stimuli)
        opl = project.opl
        seen.append(({port: result.at(port) for port in result.outputs},
                     opl.counters, opl.packets, opl.drops,
                     list(opl.mac_table)))
    return seen


class TestRunTest:
    def _passing_test(self):
        frame = udp_frame()
        return NetFpgaTest(
            name="nic_smoke",
            project_factory=ReferenceNic,
            stimuli=[Stimulus(PortRef("phys", 0), frame)],
            expected={PortRef("dma", 0): [frame]},
        )

    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_passes_in_both_modes(self, mode):
        result = run_test(self._passing_test(), mode)
        assert result.mode == mode
        assert result.total_packets() == 1

    @pytest.mark.parametrize("mode", ["sim", "hw"])
    def test_wrong_expectation_fails_identically(self, mode):
        bad = self._passing_test()
        bad.expected = {PortRef("dma", 1): [udp_frame()]}
        with pytest.raises(AssertionError):
            run_test(bad, mode)

    def test_unexpected_extra_output_fails(self):
        test = self._passing_test()
        test.expected = {}  # NIC will still emit to dma0
        with pytest.raises(AssertionError):
            run_test(test, "sim")

    def test_ignore_ports(self):
        test = self._passing_test()
        test.expected = {}
        test.ignore_ports = (PortRef("dma", 0),)
        run_test(test, "sim")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            run_test(self._passing_test(), "fpga")


class TestModeParity:
    """E11: identical results from the kernel and the behavioural target."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_on_pseudorandom_traffic(self, seed):
        # All traffic enters one port so the learning order is defined:
        # cross-port arrival interleaving is unspecified on real hardware
        # and in the kernel alike, exactly like cross-port TX ordering.
        import random

        rng = random.Random(seed)
        ingress = PortRef("phys", rng.randrange(4))
        stimuli = [
            Stimulus(
                ingress,
                udp_frame(src=rng.randrange(6), dst=rng.randrange(6),
                          size=rng.choice([64, 128, 256, 512])),
            )
            for _ in range(15)
        ]
        sim_result = run_sim(ReferenceSwitch(), stimuli)
        hw_result = run_hw(ReferenceSwitch(), stimuli)
        for port in sim_result.outputs:
            assert sim_result.at(port) == hw_result.at(port), port

    @pytest.mark.parametrize("factory", [ReferenceSwitch, vlan_aware_switch])
    @settings(max_examples=25, deadline=None)
    @given(ingress=st.integers(0, 3),
           frames=st.lists(ethernet_frames().filter(len),  # the kernel
                           min_size=1, max_size=6))  # carries no empty one
    def test_parity_on_every_header_shape(self, factory, ingress, frames):
        """Runts, tags whole and cut short, group addresses: the shapes
        the raw-byte ``decide()`` tells apart, learned in one order."""
        stimuli = [Stimulus(PortRef("phys", ingress), f) for f in frames]
        sim, hw = both_targets(factory, stimuli)
        assert sim == hw

    @pytest.mark.xfail(strict=True, reason="INT stamping lives only in "
                       "forward_behavioural: the kernel emits the frame "
                       "unstamped (ROADMAP, Correctness)")
    def test_parity_on_an_int_frame(self):
        frame = encode_template(udp_frame(size=256), flow_id=1)
        sim, hw = both_targets(
            ReferenceSwitch, [Stimulus(PortRef("phys", 0), frame)])
        assert sim == hw

    def test_sim_reports_cycles_hw_does_not(self):
        stimuli = [Stimulus(PortRef("phys", 0), udp_frame())]
        assert run_sim(ReferenceNic(), stimuli).cycles > 0
        assert run_hw(ReferenceNic(), stimuli).cycles == 0


class TestRegression:
    def test_standard_suite_all_green(self):
        runner = RegressionRunner()
        assert runner.run()
        assert len(runner.results) == len(standard_scenarios()) * 2
        assert all(ok for _, _, ok, _ in runner.results)

    def test_report_rendering(self):
        runner = RegressionRunner(modes=("hw",))
        runner.run()
        report = runner.render()
        assert "nic_port_host_bridge" in report
        assert "PASS" in report

    def test_failure_recorded_not_raised(self):
        broken = NetFpgaTest(
            name="expected_to_fail",
            project_factory=ReferenceNic,
            stimuli=[Stimulus(PortRef("phys", 0), udp_frame())],
            expected={PortRef("dma", 3): [udp_frame()]},
        )
        runner = RegressionRunner(modes=("hw",))
        assert not runner.run([broken])
        assert runner.results[0][2] is False
        assert "expected" in runner.results[0][3]
