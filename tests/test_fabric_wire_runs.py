"""A run under wire faults: drawn in packet order, survivors carried.

An armed ``plan.link`` no longer keeps a run per-packet.  ``_send``
draws the run's wire outcomes up front from the flow's own session,
books each loss at its own epoch, adds the retransmit delta once and
carries the surviving sequences through the counted entry — splitting
inside the same call when the walk is cold.  These tests hold that to
:class:`PerPacketOracle` — ``_send`` as it stood while wire faults
barred coalescing, kept verbatim — on everything a run can show:
fingerprint, per-flow records, loss by epoch, fault counters, the INT
summary and the collector's per-sequence ledgers.

The ``TestNamedMutants`` cases are each the smallest run on which one
plausible wrong ``_send`` differs from the oracle; the property sweeps
the space around them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import FlowEngine, WorkloadSpec, generate_flows, get_topology
from repro.fabric.scheduler import FLAP_EPOCH_TICKS, LinkSchedule
from repro.fabric.workload import Flow
from repro.faults import FaultPlan, LinkFaultSpec, get_plan
from repro.faults import inject as arm_faults
from repro.telemetry import TelemetrySession, probe_faults
from tests.test_faults_plan import reference_link_transfer

pytestmark = [pytest.mark.fabric, pytest.mark.fastpath]


class PerPacketOracle(FlowEngine):
    """The reference: one ``_send`` per packet, one wire draw per
    ``_send`` — the method as it stood while an armed ``plan.link``
    barred coalescing, kept verbatim (it returned the events it
    settled; with ``batch=False`` that is always the one) but for its
    wire draw, which goes to the per-attempt reference kept in
    ``test_faults_plan`` rather than to ``link_transfers``, the kernel
    the engine under test draws through."""

    def __init__(self, *args, **options):
        super().__init__(*args, **options, batch=False)

    def _send(self, event, n):
        flow, record = event.flow, event.record
        if event.is_response and record.delivered == 0:
            return n  # the request never arrived: there is no RPC to answer
        hosts = self.topology.hosts
        src = hosts[flow.dst if event.is_response else flow.src]
        dst = hosts[flow.src if event.is_response else flow.dst]
        tick = event.tick
        epoch = tick // FLAP_EPOCH_TICKS
        if self._flap.enabled and self._flap.down(src.name, epoch):
            # An armed flap oracle caps a run to one epoch, so booking
            # the whole run at its head's epoch is exact.
            record.attempted += n
            record.lost_flap += n
            event.session.counters["flap_lost_frames"] += n
            self._loss_by_epoch[epoch] += n
            return n
        if self._wire_faults:  # bars coalescing: n == 1
            counters = event.session.counters
            retransmits = counters.get("link_retransmits", 0)
            on_wire = reference_link_transfer(event.session)
            record.retransmits += (
                counters.get("link_retransmits", 0) - retransmits)
            if not on_wire:
                record.attempted += 1
                record.lost_wire += 1
                self._loss_by_epoch[epoch] += 1
                return 1
        frame = self._frame(flow, event.is_response)
        network = self.topology.network
        seq = event.pkt_index
        telemetered = flow.int_enabled  # the collector exists iff any is
        walk = (network.inject_batch(src.device, src.port, frame, n)
                if n > 1 else None)
        if walk is not None:
            outcome, deliveries = walk, walk.deliveries
        else:
            if n > 1:  # no valid walk to replay: split the run
                self._coalesced["splits"] += 1
                n = 1
            outcome = deliveries = network.inject(
                src.device, src.port, frame,
                int_seq=seq if telemetered else None,
            )
        # One packet's outcome, counted n times.
        record.attempted += n
        lost = outcome.dropped_hop_limit + outcome.dropped_link_down
        if lost:
            record.dropped_hop_limit += outcome.dropped_hop_limit * n
            record.lost_link += outcome.dropped_link_down * n
        hit = False
        for delivery in deliveries:
            at, hops = delivery.at, delivery.hops
            if at.device == dst.device and at.port.index == dst.port:
                hit = True
                record.delivered += n
                # A walk the class shares names no frame: ours went through.
                record.bytes_delivered += len(delivery.frame or frame) * n
                record.hops_total += hops * n
                if hops > record.hops_max:
                    record.hops_max = hops
                self._hops_hist[hops] += n
            else:
                record.misdelivered += n
        if not hit and not lost:
            record.blackholed += n
            lost = 1
        if lost or telemetered:
            # A run may span flap epochs (the epoch-free case): loss and
            # INT evidence are booked at each packet's own epoch.
            gap = flow.gap_ticks
            epochs = [(tick + j * gap) // FLAP_EPOCH_TICKS for j in range(n)]
            if lost:
                for packet_epoch in epochs:
                    self._loss_by_epoch[packet_epoch] += lost
            if telemetered:
                seqs = range(seq, seq + n)
                self.collector.sent_batch(
                    flow.flow_id, event.is_response, seqs, epochs, outcome)
                for delivery in deliveries:
                    self.collector.deliver_batch(delivery.frame, seqs)
        return n


def observed(engine: FlowEngine) -> dict:
    """Everything a finished run shows, the collector's books included."""
    report = engine.report()
    ledgers = None if engine.collector is None else {
        key: (state.sent, state.received, state.last_seq, state.last_path)
        for key, state in engine.collector._flows.items()}
    return {
        "fingerprint": report.fingerprint(),
        "records": report.records,
        "loss_by_epoch": report.loss_by_epoch,
        "fault_counters": report.fault_counters,
        "int_summary": report.int_summary,
        "ledgers": ledgers,
    }


def run_both(plan, flows=None, topology="leaf-spine",
             spec=WorkloadSpec(flows=1), armed=(), **options):
    """The same run coalesced and on the oracle: ``(engine, observed)``
    of the first, ``observed`` of the second.  ``armed`` devices get a
    data-path fault session, which makes every walk through them
    uncacheable (and changes nothing else)."""
    engines = []
    for cls in (FlowEngine, PerPacketOracle):
        fabric = get_topology(topology).build()
        for name in armed:
            arm_faults(plan, project=fabric.network.device(name))
        engines.append(cls(fabric, spec, plan, flows=flows, **options))
    engine, oracle = engines
    return engine, observed(engine), observed(oracle)


def leaf_to_leaf(packets: int, gap_ticks: int, response_packets: int = 0,
                 int_enabled: bool = False, count: int = 1) -> list[Flow]:
    """``count`` flows between one pair of hosts on different leaves,
    all from tick 0."""
    hosts = get_topology("leaf-spine").build().host_names()
    return [Flow(flow_id, hosts[0], hosts[-1], 128, packets,
                 response_packets, start_tick=0, gap_ticks=gap_ticks,
                 int_enabled=int_enabled) for flow_id in range(count)]


#: Permanent loss at a rate that leaves survivors between the losses.
BLACK_HOLE = get_plan("black-hole", seed=11)
#: Recoverable loss only: every packet arrives, most after retransmits.
LOSSY = get_plan("lossy-link", seed=11)


class TestNamedMutants:
    """Each test names the wrong ``_send`` it is there to catch."""

    def test_a_wire_loss_is_booked_at_its_own_epoch(self):
        """Mutant: book the run's wire losses at the head's epoch.  With
        static links and no flap the whole burst is one run across four
        epochs."""
        flows = leaf_to_leaf(packets=64, gap_ticks=FLAP_EPOCH_TICKS // 16)
        engine, run, oracle = run_both(BLACK_HOLE, flows)
        assert engine.report().batch["segments"] == 1
        assert len(oracle["loss_by_epoch"]) > 1
        assert run["loss_by_epoch"] == oracle["loss_by_epoch"]

    def test_the_wire_is_drawn_past_a_permanent_loss(self):
        """Mutant: draw only until the first permanent loss.  The
        oracle draws once per packet whatever came before, and packets
        behind a loss arrive."""
        flows = leaf_to_leaf(packets=64, gap_ticks=2)
        _, run, oracle = run_both(BLACK_HOLE, flows)
        (record,) = oracle["records"]
        assert record.lost_wire > 1 and record.delivered > record.lost_wire
        assert run["fault_counters"] == oracle["fault_counters"]
        assert run["records"] == oracle["records"]

    def test_the_retransmit_delta_is_added_once_per_run(self):
        """Mutant: drop the retransmit delta (or add it per survivor)."""
        flows = leaf_to_leaf(packets=48, gap_ticks=1, response_packets=48)
        _, run, oracle = run_both(LOSSY, flows)
        (record,) = oracle["records"]
        assert record.retransmits > record.attempted // 4
        assert run["records"] == oracle["records"]

    def test_only_the_survivors_are_replayed(self):
        """Mutant: replay ``n`` instead of the survivors.  Every packet
        is attempted once — lost on the wire or injected, never both —
        whether its run replays at the first offer (the second flow
        shares the first one's walk) or behind a head."""
        flows = leaf_to_leaf(packets=64, gap_ticks=2, count=2)
        engine, run, oracle = run_both(BLACK_HOLE, flows)
        delivered = 0
        for record in run["records"]:
            assert record.lost_wire > 1
            assert record.attempted == 64
            assert record.delivered == 64 - record.lost_wire
            delivered += record.delivered
        batch = engine.report().batch
        assert batch["splits"] == 1
        assert batch["replayed_packets"] == delivered - 1  # the one head
        assert run["fingerprint"] == oracle["fingerprint"]

    def test_int_books_the_surviving_sequences(self):
        """Mutant: hand INT ``range(seq, seq + survivors)`` instead of
        the surviving indices.  The summary only counts, so it cannot
        tell; the ledgers name every sequence sent and received."""
        flows = leaf_to_leaf(packets=64, gap_ticks=2, int_enabled=True)
        _, run, oracle = run_both(BLACK_HOLE, flows)
        sent, received, _, _ = oracle["ledgers"][0, False]
        assert sorted(sent) != list(range(len(sent)))  # holes: wire losses
        assert received == set(sent)
        assert run["ledgers"] == oracle["ledgers"]
        assert run["int_summary"] == oracle["int_summary"]

    @pytest.mark.parametrize("splits, options", (
        pytest.param(2, {}, id="a cold walk"),
        pytest.param(
            4, {"link_schedule": LinkSchedule((("spine0", "leaf0", 1, 2),))},
            id="a cut and its repair"),
        pytest.param(2, {"armed": ("spine0",)}, id="an armed device"),
    ))
    def test_a_declined_replay_does_not_redraw_the_wire(
            self, splits, options):
        """Mutant: re-draw the wire after a declined ``inject_batch``.
        Under wire faults nothing is prewarmed, so each direction's
        first run is declined; with a scripted cut so are the runs that
        follow the cut and the repair; through an armed device every
        offer is, and the run goes on packet by packet on the draws it
        already made."""
        flows = leaf_to_leaf(packets=48, gap_ticks=2, response_packets=48)
        engine, run, oracle = run_both(BLACK_HOLE, flows, **options)
        batch = engine.report().batch
        assert batch["splits"] == splits
        assert bool(batch["replayed_packets"]) == ("armed" not in options)
        assert run["fault_counters"] == oracle["fault_counters"]
        assert run["records"] == oracle["records"]
        assert run["loss_by_epoch"] == oracle["loss_by_epoch"]


@st.composite
def link_plans(draw) -> FaultPlan:
    rates = draw(st.lists(st.sampled_from((0.0, 0.05, 0.2, 0.33)),
                          min_size=3, max_size=3))
    max_burst = draw(st.integers(1, 4))
    spec = LinkFaultSpec(
        *rates, max_burst=max_burst,
        max_attempts=draw(st.integers(max_burst + 1, 8)))
    return FaultPlan("drawn", draw(st.integers(0, 2**32)), link=spec)


class TestCoalescedEqualsPerPacket:
    @settings(max_examples=60, deadline=None)
    @given(plan=link_plans(), packets=st.integers(1, 40),
           gap_ticks=st.integers(0, 40),
           response_ratio=st.sampled_from((0.0, 0.5, 1.0)),
           int_all=st.booleans(), seed=st.integers(0, 2**32),
           armed=st.sampled_from(((), ("spine0",))))
    def test_any_link_spec_any_burst_shape(
            self, plan, packets, gap_ticks, response_ratio, int_all, seed,
            armed):
        spec = WorkloadSpec("bursty", flows=6, seed=seed,
                            packets_per_flow=packets, window_ticks=96,
                            response_ratio=response_ratio)
        hosts = get_topology("leaf-spine").build().host_names()
        flows = [replace(flow, gap_ticks=gap_ticks)
                 for flow in generate_flows(hosts, spec)]
        _, run, oracle = run_both(plan, flows, spec=spec, int_all=int_all,
                                  armed=armed)
        assert run == oracle

    @pytest.mark.parametrize("plan_name", ("black-hole", "flaky-fabric"))
    def test_every_attempted_packet_is_accounted_for(self, plan_name):
        """Where the packets went: lost to a flap or on the wire before
        injection, replayed through the counted entry, or carried by the
        per-packet one (hit or slow walk)."""
        spec = WorkloadSpec("bursty", flows=60, packets_per_flow=24, seed=2)
        engine, run, oracle = run_both(
            get_plan(plan_name, seed=5), spec=spec, int_all=True)
        assert run == oracle
        report = engine.report()
        batch, fastpath = report.batch, report.fastpath
        assert batch["wire_lost"] == report._total("lost_wire") > 0
        assert batch["replayed_packets"] > report.attempted // 2
        assert (batch["replayed_packets"] + fastpath["path_hits"]
                + fastpath["path_misses"] + batch["wire_lost"]
                + report._total("lost_flap")) == report.attempted

    def test_fault_hooks_fire_once_per_draw(self):
        """``probe_faults`` sees every firing either way: only the
        interleaving across flows moves, so the registry's series and
        the multiset of trace events are equal batch on / off."""
        spec = WorkloadSpec("bursty", flows=24, packets_per_flow=12, seed=8)

        def firings(batch: bool):
            engine = FlowEngine(get_topology("leaf-spine").build(), spec,
                                get_plan("flaky-fabric", seed=5), batch=batch)
            telemetry = TelemetrySession("hw")
            for *_, cursor in engine._heap:  # every flow is admitted
                probe_faults(cursor.session, telemetry)
            engine.report()
            return (telemetry.registry.snapshot(),
                    Counter(event.name for event in telemetry.trace.events))

        on, off = firings(True), firings(False)
        assert on == off
        assert on[0]['faults_injected_total{site="link"}'] > 0
