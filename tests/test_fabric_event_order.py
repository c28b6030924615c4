"""Event order is the scheduler's spec.

The engine's heap holds one entry per live flow; these tests pin it to
what one heap entry per *packet* would do — the same pops in the same
order, admission at the same points — and keep the per-packet cost of
the coalesced drain loop from creeping back.
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
    WorkloadSpec,
    generate_flows,
    get_topology,
    run_flows,
)
from repro.fabric.workload import Flow
from repro.faults import derive_seed, get_plan

pytestmark = pytest.mark.fabric


class EagerHeap:
    """The reference: every packet event of every admitted flow sits in
    the heap, keyed ``(tick, rr, flow_id, is_response, pkt_index)``."""

    def __init__(self, flows, seed, max_inflight):
        self._pending = sorted(flows, key=lambda f: (f.start_tick, f.flow_id))
        self._seed = seed
        self._max_inflight = max_inflight
        self._resident = {}
        self.heap = []
        self._admit()

    def _admit(self):
        while self._pending and len(self._resident) < self._max_inflight:
            flow = self._pending.pop(0)
            rr = derive_seed(self._seed, "rr", flow.flow_id) & 0xFFFFFFFF
            first = flow.start_tick + flow.packets * flow.gap_ticks + 1
            events = [
                (flow.start_tick + i * flow.gap_ticks, rr, flow.flow_id,
                 False, i) for i in range(flow.packets)
            ] + [
                (first + i * flow.gap_ticks, rr, flow.flow_id, True, i)
                for i in range(flow.response_packets)
            ]
            self._resident[flow.flow_id] = len(events)
            for event in events:
                heapq.heappush(self.heap, event)

    def pop(self):
        event = heapq.heappop(self.heap)
        self._resident[event[2]] -= 1
        if not self._resident[event[2]]:
            del self._resident[event[2]]
            self._admit()
        return event


def _recording(log):
    """Patch the one send path so every dispatched event is logged."""
    real = FlowEngine._send

    def send(engine, event, n):
        log.append((event.tick, event.rr, event.flow.flow_id,
                    event.is_response, event.pkt_index))
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
inflights = st.sampled_from((1, 3, 1024))


def _engine(spec, max_inflight):
    topology = get_topology("star-3").build()
    flows = generate_flows(topology.host_names(), spec)
    engine = FlowEngine(topology, spec, max_inflight=max_inflight,
                        batch=False)
    return engine, flows


class TestOrderIsTheSpec:
    @settings(max_examples=30, deadline=None)
    @given(spec=specs, max_inflight=inflights)
    def test_step_pops_in_eager_heap_order(self, spec, max_inflight):
        engine, flows = _engine(spec, max_inflight)
        reference = EagerHeap(flows, spec.seed, max_inflight)
        log = []
        with _recording(log):
            while not engine.finished:
                before = engine.pending_events, engine.flows_admitted
                assert before[0] == len(reference.heap)
                assert engine.next_tick == reference.heap[0][0]
                assert engine.step() == 1
                assert log[-1] == reference.pop()
                if engine.flows_admitted == before[1]:  # nobody let in
                    assert engine.pending_events == before[0] - 1
        assert engine.pending_events == 0
        assert engine.next_tick is None and not reference.heap
        assert engine.step() == 0
        assert len(log) == sum(f.packets + f.response_packets for f in flows)
        if max_inflight >= len(flows):
            assert log == sorted(log)  # nothing held back: globally sorted

    @settings(max_examples=30, deadline=None)
    @given(spec=specs, max_inflight=inflights, data=st.data())
    def test_run_until_stops_on_the_same_event(self, spec, max_inflight,
                                               data):
        engine, flows = _engine(spec, max_inflight)
        reference = EagerHeap(flows, spec.seed, max_inflight)
        last = max(event[0] for event in reference.heap)
        tick = data.draw(st.integers(0, last + 1))
        expected = []
        while reference.heap and reference.heap[0][0] <= tick:
            expected.append(reference.pop())
        log = []
        with _recording(log):
            assert engine.run_until(tick) == len(expected)
        assert log == expected
        assert engine.pending_events == len(reference.heap)
        assert engine.next_tick == (reference.heap[0][0]
                                    if reference.heap else None)

    def test_the_tie_break_is_the_recorded_one(self):
        """``rr`` of flows 0..99 under seed 5, hashed while each cursor
        called ``derive_seed(seed, "rr", flow_id)`` whole: rendering the
        prefix once per engine cannot have moved one."""
        spec = WorkloadSpec("uniform", flows=100, seed=5)
        engine, flows = _engine(spec, 1024)
        rr = [entry[1] for entry in sorted(engine._heap, key=lambda e: e[2])]
        assert rr[:3] == [493227606, 2492957608, 1055332539]
        assert sha256(repr(rr).encode()).hexdigest() == (
            "1bcf0c49d9a8f8fd9081660e3249388e8bdf8e34e2f23283e6be7e5997bd8b0c")


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
        assert run(max_inflight=1).fingerprint() == reference.fingerprint()

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
