"""Read-bounded spans: a coalesced run lasts until a cable its own walk
read flips, not until any scheduled cable flips.

Under a link schedule alone the engine asks the walk it is about to
replay which cables it read (:meth:`Network.cables_read`) and runs the
burst on to the first window edge on one of them
(:meth:`_LinkTimeline.reach`).  Every run here is held to the per-packet
reference (``fastpath=False, batch=False``), which walks each packet at
its own tick; the exact tests also pin where the spans end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import get_topology, run_sharded
from repro.fabric.scheduler import (
    FLAP_EPOCH_TICKS, FlowEngine, LinkSchedule, run_flows)
from repro.fabric.workload import Flow, WorkloadSpec
from repro.testenv.topology import TopologyError

pytestmark = [pytest.mark.fabric, pytest.mark.fastpath]

SPEC = WorkloadSpec(flows=1)


def both(flows, topology="leaf-spine", **options):
    """The coalesced run and the per-packet reference of ``flows``."""
    return [run_flows(get_topology(topology).build(), SPEC, flows=flows,
                      **options, **reference)
            for reference in ({}, {"fastpath": False, "batch": False})]


def h0_to_h2(packets=64, gap_ticks=4, response_packets=0):
    """One flow leaf0 → leaf1; its walk reads leaf0~spine0 and
    spine0~leaf1 (with FRR, after a cut of leaf0~spine0: the detour
    through spine1)."""
    return [Flow(0, "h0", "h2", 128, packets, response_packets,
                 start_tick=0, gap_ticks=gap_ticks)]


def at(epoch: int, gap_ticks: int = 4) -> int:
    """The packets a flow from tick 0 sends before ``epoch``."""
    return epoch * FLAP_EPOCH_TICKS // gap_ticks


class TestSpans:
    def test_a_flow_that_reads_no_scheduled_cable_is_one_segment(self):
        """Flips on leaf2~spine1 land inside the burst, but the walk
        never reads that cable: the whole burst is one segment."""
        schedule = LinkSchedule((("leaf2", "spine1", 1, 2),
                                 ("spine1", "leaf2", 3, 5)))
        run, reference = both(h0_to_h2(), link_schedule=schedule)
        assert run.batch["segments"] == 1
        assert run.batch["segment_packets"] == 64
        assert run.fingerprint() == reference.fingerprint()

    @pytest.mark.parametrize("frr", (False, True))
    def test_a_flow_splits_at_its_own_cables_first_edge(self, frr):
        """spine0~leaf1 (read at the spine0 end only, behind port 1)
        is dark for epochs 3-4; leaf2~spine1, which the walk never
        reads, flips at 1 and 2.  The spans are epochs 0-2, 3-4 and the
        rest: the unread flips split nothing."""
        schedule = LinkSchedule((("leaf2", "spine1", 1, 2),
                                 ("spine0", "leaf1", 3, 5)))
        run, reference = both(h0_to_h2(), link_schedule=schedule, frr=frr)
        assert run.fingerprint() == reference.fingerprint()
        assert run.records == reference.records
        assert run.batch["segments"] == 3
        assert run.batch["segment_packets"] == 64
        (record,) = run.records
        if not frr:  # spine0 has nowhere to send the cut packets
            assert record.blackholed == at(5) - at(3)

    def test_a_detour_is_bounded_by_the_cables_it_reads_now(self):
        """With FRR the cut of leaf0~spine0 at epoch 2 sends the flow
        through spine1, whose cable to leaf1 is dark for epoch 4: the
        span from the cut must end there, although the walk recorded
        before the cut never read that cable."""
        schedule = LinkSchedule((("leaf0", "spine0", 2, 6),
                                 ("leaf1", "spine1", 4, 5)))
        run, reference = both(h0_to_h2(), link_schedule=schedule, frr=True)
        assert run.fingerprint() == reference.fingerprint()
        assert run.records == reference.records
        assert run.loss_by_epoch == reference.loss_by_epoch == {
            4: at(5) - at(4)}


class TestBadSchedules:
    @pytest.mark.parametrize("window", (("leaf0", "leaf1", 5, 8),
                                        ("spine0", "nosuch", 5, 8)))
    def test_an_uncabled_pair_is_refused_before_any_packet_moves(
            self, window):
        schedule = LinkSchedule((window,))
        with pytest.raises(TopologyError):
            FlowEngine(get_topology("leaf-spine").build(), SPEC,
                       link_schedule=schedule)
        for shards in (1, 2):
            with pytest.raises(TopologyError):
                run_sharded(get_topology("leaf-spine"),
                            WorkloadSpec(flows=2), shards=shards,
                            parallel=False, link_schedule=schedule)

    def test_an_empty_window_is_accepted(self):
        schedule = LinkSchedule((("spine0", "leaf0", 8, 5),))
        run, reference = both(h0_to_h2(), link_schedule=schedule)
        assert run.batch["segments"] == 1
        assert run.fingerprint() == reference.fingerprint()


@st.composite
def scenarios(draw):
    """A topology, 1-6 windows over its cables (epochs 0-40, either end
    first) and 1-3 flows between distinct hosts."""
    topology = draw(st.sampled_from(("abilene", "leaf-spine")))
    fabric = get_topology(topology).build()
    cables = [(a.device, b.device) for a, b in fabric.network.links()]
    epochs = st.integers(0, 40)
    windows = draw(st.lists(st.tuples(
        st.sampled_from(cables), st.booleans(), epochs, epochs),
        min_size=1, max_size=6))
    schedule = LinkSchedule(tuple(
        (*(pair[::-1] if swap else pair), start, end)
        for pair, swap, start, end in windows))
    hosts = fabric.host_names()
    flows = []
    for flow_id in range(draw(st.integers(1, 3))):
        src, dst = draw(st.lists(st.sampled_from(hosts), min_size=2,
                                 max_size=2, unique=True))
        packets = draw(st.integers(1, 96))
        flows.append(Flow(
            flow_id, src, dst, 128, packets,
            draw(st.sampled_from((0, packets))),
            start_tick=draw(st.integers(0, 20 * FLAP_EPOCH_TICKS)),
            gap_ticks=draw(st.integers(0, 64))))
    return topology, schedule, flows


class TestCoalescedEqualsPerPacket:
    @settings(max_examples=25, deadline=None)
    @given(scenario=scenarios(), frr=st.booleans(), int_all=st.booleans())
    def test_any_schedule_any_burst_shape(self, scenario, frr, int_all):
        topology, schedule, flows = scenario
        run, reference = both(flows, topology, link_schedule=schedule,
                              frr=frr, int_all=int_all)
        assert run.fingerprint() == reference.fingerprint()
