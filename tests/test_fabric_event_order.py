"""Event order is the scheduler's spec.

The engine's stepping heap holds one entry per live flow; these tests
pin it to what one heap entry per *packet* would do — the same pops in
the same order — and keep the per-packet cost of the coalesced run loop
from creeping back.
"""

from __future__ import annotations

import cProfile
import heapq
from hashlib import sha256
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import (
    FlowEngine,
    LinkSchedule,
    WorkloadSpec,
    generate_flows,
    get_topology,
    run_flows,
)
from repro.fabric.scheduler import FLAP_EPOCH_TICKS
from repro.fabric.workload import Flow
from repro.faults import derive_seed, get_plan
from repro.shell import VirtualClock

pytestmark = pytest.mark.fabric


class EagerHeap:
    """The reference: every packet event of every flow sits in the heap,
    keyed ``(tick, rr, flow_id, is_response, pkt_index)``."""

    def __init__(self, flows, seed):
        self.heap = []
        for flow in flows:
            rr = derive_seed(seed, "rr", flow.flow_id) & 0xFFFFFFFF
            first = flow.start_tick + flow.packets * flow.gap_ticks + 1
            self.heap += [
                (flow.start_tick + i * flow.gap_ticks, rr, flow.flow_id,
                 False, i) for i in range(flow.packets)
            ] + [
                (first + i * flow.gap_ticks, rr, flow.flow_id, True, i)
                for i in range(flow.response_packets)
            ]
        heapq.heapify(self.heap)

    def pop(self):
        return heapq.heappop(self.heap)


def _recording(log):
    """Patch the one send path so every dispatched event is logged, a
    coalesced span as the ``n`` events it carries."""
    real = FlowEngine._send

    def send(engine, event, n):
        gap = event.flow.gap_ticks
        log.extend((event.tick + i * gap, event.rr, event.flow.flow_id,
                    event.is_response, event.pkt_index + i)
                   for i in range(n))
        return real(engine, event, n)

    return mock.patch.object(FlowEngine, "_send", send)


specs = st.builds(
    WorkloadSpec,
    pattern=st.sampled_from(("uniform", "bursty", "incast")),
    flows=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    packets_per_flow=st.integers(1, 6),
    window_ticks=st.integers(1, 64),
    burst_gap=st.integers(1, 16),
    response_ratio=st.floats(0.0, 1.0),
)


def _engine(spec):
    topology = get_topology("star-3").build()
    flows = generate_flows(topology.host_names(), spec)
    return FlowEngine(topology, spec), flows


class TestOrderIsTheSpec:
    @settings(max_examples=30, deadline=None)
    @given(spec=specs)
    def test_step_pops_in_eager_heap_order(self, spec):
        engine, flows = _engine(spec)
        reference = EagerHeap(flows, spec.seed)
        log = []
        with _recording(log):
            while not engine.finished:
                assert engine.flows_admitted == len(flows)
                assert engine.pending_events == len(reference.heap)
                assert engine.next_tick == reference.heap[0][0]
                assert engine.step() == 1
                assert log[-1] == reference.pop()
        assert engine.pending_events == 0
        assert engine.next_tick is None and not reference.heap
        assert engine.step() == 0
        assert len(log) == sum(f.packets + f.response_packets for f in flows)
        assert log == sorted(log)  # one heap: globally sorted

    @settings(max_examples=30, deadline=None)
    @given(spec=specs, data=st.data())
    def test_run_until_stops_on_the_same_event(self, spec, data):
        """The shell's ``run-until``: the clock paces the engine in
        spans capped at the tick, which carry exactly the eager heap's
        events up to it.  Order inside a span is not observable."""
        engine, flows = _engine(spec)
        reference = EagerHeap(flows, spec.seed)
        last = max(event[0] for event in reference.heap)
        tick = data.draw(st.integers(0, last + 1))
        expected = []
        while reference.heap and reference.heap[0][0] <= tick:
            expected.append(reference.pop())
        log = []
        clock = VirtualClock(warp=True)
        with _recording(log):
            assert clock.pace(engine, tick) == len(expected)
        assert sorted(log) == expected
        assert clock.now == max((event[0] for event in expected), default=0)
        assert engine.pending_events == len(reference.heap)
        assert engine.next_tick == (reference.heap[0][0]
                                    if reference.heap else None)

    def test_the_tie_break_is_the_recorded_one(self):
        """``rr`` of flows 0..99 under seed 5, hashed while each cursor
        called ``derive_seed(seed, "rr", flow_id)`` whole: rendering the
        prefix once per engine cannot have moved one."""
        spec = WorkloadSpec("uniform", flows=100, seed=5)
        engine, flows = _engine(spec)
        log = []
        with _recording(log):
            while engine.step():
                pass
        by_flow = {flow_id: rr for _, rr, flow_id, *_ in log}
        rr = [by_flow[flow_id] for flow_id in sorted(by_flow)]
        assert rr[:3] == [493227606, 2492957608, 1055332539]
        assert sha256(repr(rr).encode()).hexdigest() == (
            "1bcf0c49d9a8f8fd9081660e3249388e8bdf8e34e2f23283e6be7e5997bd8b0c")


@st.composite
def cut_runs(draw):
    """Abilene under 1-4 scripted windows (epochs 1-9), 1-4 bursts of up
    to 64 packets from the first two epochs, and an increasing list of
    stop ticks: a few drawn ones plus one shortly past every flip, so
    some capped span starts before a flip inside a burst that runs on
    past the stop."""
    topology = get_topology("abilene").build()
    cables = [(a.device, b.device) for a, b in topology.network.links()]
    windows = draw(st.lists(st.tuples(
        st.sampled_from(cables), st.integers(1, 6), st.integers(1, 3)),
        min_size=1, max_size=4))
    schedule = LinkSchedule(tuple((a, b, start, start + length)
                                  for (a, b), start, length in windows))
    hosts = topology.host_names()
    flows = []
    for flow_id in range(draw(st.integers(1, 4))):
        src, dst = draw(st.lists(st.sampled_from(hosts), min_size=2,
                                 max_size=2, unique=True))
        packets = draw(st.integers(2, 64))
        flows.append(Flow(
            flow_id, src, dst, 128, packets,
            draw(st.sampled_from((0, packets))),
            start_tick=draw(st.integers(0, 2 * FLAP_EPOCH_TICKS)),
            gap_ticks=draw(st.integers(1, 16))))
    flips = sorted({edge * FLAP_EPOCH_TICKS
                    for *_, down, up in schedule.events for edge in (down, up)})
    past = st.integers(1, 2 * FLAP_EPOCH_TICKS)
    drawn = draw(st.lists(st.integers(0, 40 * FLAP_EPOCH_TICKS), max_size=4))
    return schedule, flows, sorted({*drawn, *(flip + draw(past) for flip in flips)})


class TestCappedSpans:
    @settings(max_examples=25, deadline=None)
    @given(run=cut_runs(), frr=st.booleans(), seed=st.integers(0, 2**32))
    def test_run_until_carries_exactly_the_heaps_events(self, run, frr, seed):
        """The shell's ``run-until`` under a link schedule: each capped
        span carries the eager heap's events up to its stop tick and no
        further — a read-bounded span does not run on past it — and the
        run ends on the batch fingerprint."""
        schedule, flows, stops = run
        spec = WorkloadSpec(flows=1, seed=seed)
        engine = FlowEngine(get_topology("abilene").build(), spec,
                            flows=flows, frr=frr, link_schedule=schedule)
        reference = EagerHeap(flows, seed)
        clock, log, expected = VirtualClock(warp=True), [], []
        with _recording(log):
            for tick in stops:
                while reference.heap and reference.heap[0][0] <= tick:
                    expected.append(reference.pop())
                clock.pace(engine, tick)
                assert sorted(log) == expected
                assert engine.pending_events == len(reference.heap)
            report = engine.report()
        assert report.fingerprint() == run_flows(
            get_topology("abilene").build(), spec, flows=flows, frr=frr,
            link_schedule=schedule).fingerprint()


def _flow(flow_id, src, dst, **kw):
    fields = dict(frame_size=128, packets=5, response_packets=3,
                  start_tick=7, gap_ticks=0)
    return Flow(flow_id, src, dst, **{**fields, **kw})


class TestWhatTheCursorCanOrder:
    SPEC = WorkloadSpec("uniform", flows=4, seed=5)

    def _flows(self, topology, **kw):
        hosts = topology.host_names()
        return [_flow(i, hosts[i % len(hosts)], hosts[(i + 1) % len(hosts)],
                      start_tick=7 + 30 * i, **kw) for i in range(4)]

    @pytest.mark.parametrize("plan", [None, "frr-chaos", "flaky-fabric"])
    def test_zero_gap_matches_the_per_packet_reference(self, plan):
        """All packets of a direction on one tick: the batch tier, the
        epoch-capped span and the per-packet walk must agree."""
        def run(**options):
            topology = get_topology("leaf-spine").build()
            return run_flows(
                topology, self.SPEC,
                get_plan(plan, seed=3) if plan else None,
                flows=self._flows(topology), **options)

        reference = run(fastpath=False, batch=False)
        assert reference.attempted > 4 * 5
        assert run().fingerprint() == reference.fingerprint()

    @pytest.mark.parametrize("bad", [{"gap_ticks": -1}, {"packets": 0}])
    def test_unorderable_flow_rejected_by_name(self, bad):
        topology = get_topology("leaf-spine").build()
        flows = self._flows(topology, gap_ticks=1)
        flows[2] = _flow(2, flows[2].src, flows[2].dst, **bad)
        with pytest.raises(ValueError, match="flow 2"):
            FlowEngine(topology, self.SPEC, flows=flows)


class TestDispatchCallBudget:
    def test_coalesced_drain_costs_a_few_calls_per_packet(self):
        """A count, so it holds on any machine: carrying a clean flow's
        packets must not cost per-packet heap traffic again."""
        spec = WorkloadSpec("uniform", flows=32, seed=2,
                            packets_per_flow=256, window_ticks=256)
        engine = FlowEngine(get_topology("leaf-spine").build(), spec)
        profile = cProfile.Profile()
        profile.enable()
        carried = engine.run()
        profile.disable()
        report = engine.report()
        assert carried == report.attempted == report.delivered
        calls = sum(entry.callcount for entry in profile.getstats())
        assert carried > 32 * 64
        assert calls / carried <= 4
