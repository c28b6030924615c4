"""S27: counted replay of cached walks and coalesced dispatch.

Three contracts under test.  **Counter identity**: a warm
``inject_batch(n)`` must move every observable counter exactly as far
as ``n`` sequential ``inject`` calls — per-device OPL packets, drops
and named counters, network loss tallies, forwarded hops and template
deliveries.  **Invalidation**: any wiring or table mutation between
batches must split the batch at the generation boundary (flushed walk
→ ``None`` → the caller re-warms through the real pipeline).
**Fingerprint invariance**: the FabricReport and INT fingerprints are
byte-identical across {batch on/off} × {cache on/off} × {1/2/4
shards}, with and without fault plans and link schedules — batching is
an execution strategy, never an observable.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import get_topology, merge_reports, run_sharded
from repro.fabric.scheduler import (
    FLAP_EPOCH_TICKS, FlowEngine, LinkSchedule, _LinkTimeline, run_flows)
from repro.fabric.workload import WorkloadSpec
from repro.faults import CtrlFaultSpec, FaultPlan, LinkStateSpec, get_plan
from repro.faults import inject as arm_faults
from repro.host.nfmon import main as nfmon_main
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import Network

from .conftest import QUEUE_DRAWS, closed_ledgers, udp_frame, worker_slices

pytestmark = pytest.mark.fastpath


def two_switch_fabric() -> Network:
    net = Network()
    net.add_device("s1", ReferenceSwitch())
    net.add_device("s2", ReferenceSwitch())
    net.link("s1", 3, "s2", 0)
    return net


def counter_state(net: Network) -> tuple:
    """Every batch-replayed observable, as one comparable value."""
    return (
        {name: dict(net.device(name).opl.counters)
         for name in net.device_names()},
        net.dropped_hop_limit,
        net.dropped_link_down,
        net.forwarded_hops,
    )


# ----------------------------------------------------------------------
# Network layer: inject_batch counter identity and invalidation
# ----------------------------------------------------------------------
class TestInjectBatch:
    def test_warm_batch_equals_sequential_injects(self):
        batched, serial = two_switch_fabric(), two_switch_fabric()
        frame = udp_frame(1, 2)
        for net in (batched, serial):
            net.inject("s1", 0, frame)  # learn
            net.inject("s1", 0, frame)  # fill + warm the walk
        template = batched.inject_batch("s1", 0, frame, 6)
        for _ in range(6):
            one = serial.inject("s1", 0, frame)
        assert counter_state(batched) == counter_state(serial)
        assert batched.batch_stats()["replayed_packets"] == 6
        # The returned walk is one packet's outcome, field for field (a
        # frame of None is the one injected).
        assert [(d.at, d.frame or frame, d.hops)
                for d in template.deliveries] \
            == [(d.at, d.frame, d.hops) for d in one]
        for name in ("dropped_hop_limit", "dropped_link_down",
                     "hop_limit_sites", "link_down_sites"):
            assert getattr(template, name) == getattr(one, name)

    def test_cold_flow_returns_none_and_counts_the_miss(self):
        net = two_switch_fabric()
        assert net.inject_batch("s1", 0, udp_frame(1, 2), 4) is None
        assert net.batch_stats()["cold_misses"] == 1
        assert counter_state(net) == counter_state(two_switch_fabric())

    def test_mutation_between_batches_splits_at_the_boundary(self):
        """A cut repaired before the next batch leaves every bit the
        walk read where it was: the walk is re-checked and replays.  A
        cut that stands moved a liveness bit the flood read: the batch
        splits there."""
        net, twin = two_switch_fabric(), two_switch_fabric()
        frame = udp_frame(1, 2)
        for fabric in (net, twin):
            fabric.inject("s1", 0, frame)
            fabric.inject("s1", 0, frame)
        assert net.inject_batch("s1", 0, frame, 3) is not None
        for fabric in (net, twin):
            fabric.set_link_state("s1", "s2", False)
            fabric.set_link_state("s1", "s2", True)
        assert net.inject_batch("s1", 0, frame, 3) is not None
        stats = net.fastpath_stats()
        assert (stats["path_revalidated"], stats["path_invalidations"]) \
            == (1, 0)
        for _ in range(3 + 3):
            twin.inject("s1", 0, frame)
        assert counter_state(net) == counter_state(twin)
        for fabric in (net, twin):
            fabric.set_link_state("s1", "s2", False)
        # The stale walk declines exactly once, carrying nothing ...
        before = counter_state(net)
        assert net.inject_batch("s1", 0, frame, 3) is None
        assert counter_state(net) == before
        assert net.batch_stats()["cold_misses"] == 1
        assert net.fastpath_stats()["path_invalidations"] == 1
        # ... one real inject re-warms, and the next replay matches a
        # twin that took every packet the per-packet way.
        net.inject("s1", 0, frame)
        assert net.inject_batch("s1", 0, frame, 3) is not None
        for _ in range(1 + 3):
            twin.inject("s1", 0, frame)
        assert counter_state(net) == counter_state(twin)
        # Two walks were stored: the first warm-up and the re-warm.
        assert net.batch_stats()["compiled"] == 2
        assert net.batch_stats()["entries"] == 1

    def test_fastpath_off_clears_and_declines(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        assert net.inject_batch("s1", 0, frame, 2) is not None
        net.set_fastpath(False)
        assert net.batch_stats()["entries"] == 0
        assert net.inject_batch("s1", 0, frame, 2) is None

    def test_count_must_be_positive(self):
        net = two_switch_fabric()
        with pytest.raises(ValueError):
            net.inject_batch("s1", 0, udp_frame(1, 2), 0)


# ----------------------------------------------------------------------
# Property: batched == cached == uncached under random churn
# ----------------------------------------------------------------------
class TestChurnProperty:
    def test_random_interleaving_of_batches_and_churn(self):
        """Random walks of traffic, FDB writes and link flaps: the
        batched, cached and uncached fabrics agree counter-for-counter
        after every step."""
        rng = random.Random(2701)
        batched = two_switch_fabric()
        cached = two_switch_fabric()  # same caches, per-packet entry only
        plain = two_switch_fabric()
        plain.set_fastpath(False)
        fabrics = (batched, cached, plain)
        pairs = ((1, 2), (2, 1), (3, 4), (4, 3))
        flows = [udp_frame(a, b) for a, b in pairs]
        ports = {1: ("s1", 0), 2: ("s2", 1), 3: ("s1", 1), 4: ("s2", 2)}
        took_batch = 0
        for _ in range(120):
            op = rng.random()
            if op < 0.55:  # a burst of one flow
                index = rng.randrange(len(flows))
                device, port = ports[pairs[index][0]]
                frame, count = flows[index], rng.randrange(1, 6)
                result = batched.inject_batch(device, port, frame, count)
                if result is None:
                    for _ in range(count):
                        batched.inject(device, port, frame)
                else:
                    took_batch += 1
                for net in (cached, plain):
                    for _ in range(count):
                        net.inject(device, port, frame)
            elif op < 0.8:  # link churn
                up = rng.random() < 0.5
                for net in fabrics:
                    net.set_link_state("s1", "s2", up)
            else:  # FDB churn
                mac = f"02:00:00:00:00:{rng.randrange(9, 99):02x}"
                port = rng.randrange(4)
                for net in fabrics:
                    net.device("s2").install_static_mac(mac, port)
            assert counter_state(batched) == counter_state(cached)
            assert counter_state(batched) == counter_state(plain)
        assert took_batch > 0
        assert cached.batch_stats()["replays"] == 0
        # Churn flushed warm walks: inject_batch declined mid-stream.
        assert batched.batch_stats()["cold_misses"] > 0
        assert batched.fastpath_stats()["path_invalidations"] > 0


# ----------------------------------------------------------------------
# Engine: fingerprint identity across the whole grid
# ----------------------------------------------------------------------
class TestEngineFingerprint:
    WORKLOAD = WorkloadSpec(flows=48, packets_per_flow=8, seed=7)

    def _run(self, **kw):
        return run_flows(get_topology("leaf-spine").build(),
                         self.WORKLOAD, kw.pop("plan", None), **kw)

    @pytest.mark.parametrize("plan_name, schedule", (
        (None, None), ("lossy-link", None), ("black-hole", None),
        ("flaky-fabric", None), ("frr-chaos", None),
        (None, LinkSchedule((("spine0", "leaf0", 2, 5),
                             ("leaf1", "spine1", 4, 7)))),
    ), ids=("None", "lossy-link", "black-hole", "flaky-fabric", "frr-chaos",
            "link-schedule"))
    def test_outcome_neutral_grid_is_one_run(self, plan_name, schedule):
        """``fastpath``, ``batch`` and the shard count decide how a run
        executes, never what it computes: every point of the grid
        reproduces the per-packet reference's fingerprint, per-flow
        records and loss curve — on clean wires, under retransmitted
        loss (``lossy-link``), under permanent loss that gates responses
        (``black-hole``), under loss plus edge flaps (``flaky-fabric``),
        under seeded cable cuts (``frr-chaos``) and under scripted
        windows.  The reference itself is the heap's per-packet order
        driven by ``step()``."""
        spec = get_topology("leaf-spine")
        plan = plan_name and get_plan(plan_name, seed=4)
        reference = run_sharded(spec, self.WORKLOAD, plan, fastpath=False,
                                batch=False, link_schedule=schedule)
        # The reference's own loop is run()'s: the heap's per-packet
        # order, stepped to the end, pins it from outside that loop.
        stepped = FlowEngine(spec.build(), self.WORKLOAD, plan, fastpath=False,
                             batch=False, link_schedule=schedule)
        while stepped.step():
            pass
        stepped = stepped.report()
        assert stepped.fingerprint() == reference.fingerprint()
        assert stepped.records == reference.records
        assert stepped.loss_by_epoch == reference.loss_by_epoch
        assert stepped.fault_counters == reference.fault_counters
        runs = {}
        for point in itertools.product((True, False), (True, False),
                                       (1, 2, 4)):
            fastpath, batch, shards = point
            options = dict(fastpath=fastpath, batch=batch,
                           link_schedule=schedule)
            # Inline, any shard count is the one engine: the shard axis
            # is the workers' slices, each an engine of its own.
            run = runs[point] = (
                run_sharded(spec, self.WORKLOAD, plan, **options)
                if shards == 1 else merge_reports(worker_slices(
                    spec, self.WORKLOAD, plan, shards, **options), shards))
            assert run.fingerprint() == reference.fingerprint(), point
            assert run.records == reference.records, point
            assert run.loss_by_epoch == reference.loss_by_epoch, point
            assert run.fault_counters == reference.fault_counters, point
        on = runs[True, True, 1]
        assert on.batch["segment_packets"] > 0
        assert on.batch["replayed_packets"] > 0
        if plan is None and schedule is None:  # prewarmed, nothing mutated
            assert on.batch["splits"] == 0
        # batch needs the flow cache; without it the tier stands down
        uncached = runs[False, True, 1]
        assert uncached.batch.get("replayed_packets", 0) == 0

    @settings(max_examples=25, deadline=None)
    @given(pattern=st.sampled_from(("uniform", "bursty", "incast")),
           response_ratio=st.floats(0.0, 1.0),
           plan_name=st.sampled_from((None, "lossy-link")),
           int_ratio=st.sampled_from((0.0, 1.0)),
           shards=st.sampled_from((1, 2)), seed=st.integers(0, 99))
    def test_a_static_run_sends_each_flow_whole(
            self, pattern, response_ratio, plan_name, int_ratio, shards,
            seed):
        """With coalescing on and a link timeline that cannot move, the
        run is one steady interval: no heap is built, and every carry
        is a whole direction.  That order is not the heap's, and the
        run must still be the per-packet reference's — fingerprint,
        records and INT summary — at any inline shard count, on clean
        and on retransmitting wires."""
        workload = WorkloadSpec(pattern, flows=12, seed=seed,
                                packets_per_flow=6,
                                response_ratio=response_ratio,
                                int_ratio=int_ratio)
        spec = get_topology("leaf-spine")
        plan = plan_name and get_plan(plan_name, seed=seed)
        reference = run_sharded(spec, workload, plan, fastpath=False,
                                batch=False)
        whole, send = [], FlowEngine._send

        def refuse(engine):
            raise AssertionError("a run that never stepped built the heap")

        def carry(engine, cursor, n):
            whole.append(n == cursor.left)
            send(engine, cursor, n)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FlowEngine, "_live", refuse)
            patch.setattr(FlowEngine, "_send", carry)
            lane = run_sharded(spec, workload, plan, shards=shards,
                               parallel=False)
        assert whole and all(whole)
        assert lane.fingerprint() == reference.fingerprint()
        assert lane.records == reference.records
        assert lane.int_summary == reference.int_summary
        assert lane.fault_counters == reference.fault_counters

    @settings(max_examples=20, deadline=None)
    @given(first=st.sampled_from(("next_tick", "finished", "flows_admitted",
                                  "pending_events")),
           steps=st.integers(0, 30),
           timeline=st.sampled_from((None, "lossy-link", "flaky-fabric",
                                     "frr-chaos", "schedule")))
    def test_steps_then_run_is_run_alone(self, first, steps, timeline):
        """Under every kind of link timeline — static (clean or with
        wire faults), armed flaps, armed cuts, a schedule alone — an
        engine fills its heap the first time the stepping surface asks,
        whichever question comes first, and then answers and pops
        exactly as a ``batch=False`` engine; ``run`` after ``k`` steps
        carries what the steps left on the heap, and the run is the one
        ``run`` alone gives."""
        workload = WorkloadSpec("bursty", flows=10, packets_per_flow=5,
                                seed=steps)
        options = {}
        if timeline == "schedule":
            options["link_schedule"] = LinkSchedule(
                (("spine0", "leaf0", 0, 2), ("leaf1", "spine1", 1, 3)))
            timeline = None
        plan = timeline and get_plan(timeline, seed=2)

        def engine(**kw):
            return FlowEngine(get_topology("leaf-spine").build(), workload,
                              plan, **options, **kw)

        def logged(engine):
            log, send = [], engine._send
            engine._send = lambda cursor, n: (
                log.append((cursor.flow.flow_id, cursor.is_response,
                            cursor.pkt_index, n)), send(cursor, n))
            return log

        batch, heap = engine(), engine(batch=False)
        assert not batch._heap and not heap._heap  # filled on first ask
        surface = ("next_tick", "finished", "flows_admitted", "pending_events")
        for name in (first, *surface):
            assert getattr(batch, name) == getattr(heap, name), name
        stepped, popped = logged(batch), logged(heap)
        for _ in range(steps):
            assert batch.step() == heap.step()
        assert stepped == popped
        assert batch.pending_events == heap.pending_events
        batch.run()
        assert batch.finished and batch.next_tick is None
        alone = engine().report()
        assert batch.report().fingerprint() == alone.fingerprint() \
            == heap.report().fingerprint()
        assert batch.report().records == alone.records

    def test_the_tier_engages_only_for_walks_that_avoid_armed_devices(self):
        """A walk through a device with an armed data-path session is
        never cached, so its flows go packet by packet — inside the one
        dispatch that drew their wire outcomes — while flows that stay
        clear of it still replay.  Every leaf-to-leaf path crosses
        spine0; same-leaf flows cross no spine.  The armed session draws
        output-queue pressure that never spikes: it bars the cache and
        changes no outcome."""
        plan = get_plan("flaky-fabric", seed=3)

        def run(armed, **kw):
            topology = get_topology("leaf-spine").build()
            for name in armed:
                arm_faults(QUEUE_DRAWS, project=topology.network.device(name))
            return run_flows(topology, self.WORKLOAD, plan, **kw)

        everywhere = get_topology("leaf-spine").build().network.device_names()
        clear, spine, all_armed = (
            run(armed) for armed in ((), ("spine0",), everywhere))
        for on, armed in ((clear, ()), (spine, ("spine0",)),
                          (all_armed, everywhere)):
            off = run(armed, batch=False)
            assert on.fingerprint() == off.fingerprint() \
                == clear.fingerprint()
            assert on.fastpath["path_bypasses"] \
                == off.fastpath["path_bypasses"]
        assert clear.fastpath["path_bypasses"] == 0
        assert 0 < spine.batch["replayed_packets"] \
            < clear.batch["replayed_packets"]
        assert all_armed.batch["replayed_packets"] == 0
        assert all_armed.fastpath["path_bypasses"] \
            == all_armed.attempted - all_armed.batch["wire_lost"] \
            - all_armed._total("lost_flap")

    def test_flap_plan_keeps_batching_within_epochs(self):
        plan = FaultPlan("flap-only", seed=9,
                         ctrl=CtrlFaultSpec(flap_rate=0.2))
        on = self._run(plan=plan)
        off = self._run(plan=plan, batch=False)
        assert on.fingerprint() == off.fingerprint()
        assert on.batch["replayed_packets"] > 0

    def test_seeded_link_cuts_split_batches_identically(self):
        plan = FaultPlan("cuts", seed=5,
                         link_state=LinkStateSpec(down_rate=0.05,
                                                  max_down_epochs=3))
        on = self._run(plan=plan)
        off = self._run(plan=plan, batch=False)
        assert on.fingerprint() == off.fingerprint()
        assert on.records == off.records

    def test_link_schedule_splits_at_the_boundary(self):
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=40, packets_per_flow=12, seed=0)
        topo = get_topology("leaf-spine")
        on = run_flows(topo.build(), workload, link_schedule=schedule)
        off = run_flows(topo.build(), workload, link_schedule=schedule,
                        batch=False)
        assert on.fingerprint() == off.fingerprint()
        assert on.batch["splits"] > 0

    @pytest.mark.parametrize("plan, options", (
        pytest.param(None, {"link_schedule": LinkSchedule(())},
                     id="an empty schedule"),
        pytest.param(FaultPlan("no-cuts", seed=5,
                               link_state=LinkStateSpec(down_rate=0)),
                     {}, id="a zero cut rate"),
        pytest.param(None, {"link_schedule": LinkSchedule(
            (("spine0", "leaf0", 40, 44),))}, id="a window after the run"),
    ))
    def test_link_state_that_cannot_move_is_epoch_free(self, plan, options):
        """Mutant: decide "epoch-free" from whether a schedule or a cut
        spec was passed, not from whether any link may move.  No input
        moves a link during the run (the run's last packet sits in
        epoch 11, before the window opens), so bursts coalesce across
        flap epochs as on a run with neither — the same segments — and
        the run still fingerprints as the per-packet reference."""
        workload = WorkloadSpec(flows=40, packets_per_flow=64, seed=3,
                                window_ticks=64)
        topo = get_topology("leaf-spine")
        on = run_flows(topo.build(), workload, plan, **options)
        off = run_flows(topo.build(), workload, plan, batch=False, **options)
        bare = run_flows(topo.build(), workload)
        assert on.fingerprint() == off.fingerprint()
        assert on.records == off.records == bare.records
        assert bare.batch["segments"] > 0
        for name in ("segments", "segment_packets", "splits"):
            assert on.batch[name] == bare.batch[name], name

    def test_link_cut_drops_the_shared_walks_across_it_too(self):
        """Twenty flows per host pair share walks; a walk shared across
        the cut (or the repair) would carry packets over a dark cable
        and move loss to other epochs.  And *only* the walks that used
        the cable go — those through spine0 or leaf0 that did not are
        re-checked and kept: with every walk through either end dropped
        this run took 81 slow walks and 39 batch splits coalesced, 69
        slow walks per packet (with whole-table flushes 89, 47, 76)."""
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        topo = get_topology("leaf-spine")
        on, per_packet, slow = (
            run_flows(topo.build(), workload, link_schedule=schedule, **kw)
            for kw in ({}, {"batch": False}, {"fastpath": False}))
        for run in (on, per_packet):
            assert run.fastpath["path_shared"] > 0
            assert run.fastpath["path_invalidations"] > 0
            assert run.fastpath["path_revalidated"] > 0
            assert run.loss_by_epoch == slow.loss_by_epoch
            assert run.records == slow.records
            assert run.fingerprint() == slow.fingerprint()
        assert slow.lost > 0 and len(slow.loss_by_epoch) > 1
        assert on.fastpath["path_misses"] < 81 and on.batch["splits"] < 39
        assert per_packet.fastpath["path_misses"] < 69

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_link_timeline_answers_as_the_schedule_and_the_seeds_do(
            self, data):
        """The timeline against a reference written from the schedule's
        own events and from the seeded cuts' ``fabric-link`` draws,
        expanded forward from every start epoch: the cable state after
        any ``apply``, in any tick order, and the interval it returns —
        it holds the tick, no window opens or closes strictly inside
        it, and it is one epoch while an oracle is armed, the stretch
        between two window edges under a schedule alone and all time
        when nothing can move."""
        topology = get_topology("abilene").build()
        network, host = topology.network, topology.host_names()[0]
        links = sorted((a.device, b.device) for a, b in network.links())
        events = data.draw(st.lists(st.tuples(
            st.sampled_from(links[:4]), st.booleans(),  # ends reversed
            st.integers(0, 12), st.integers(-2, 6)), max_size=6))
        schedule = LinkSchedule(tuple(
            ((b, a) if swap else (a, b)) + (start, start + length)
            for (a, b), swap, start, length in events))
        cut_rate = data.draw(st.sampled_from((0, 0.2)))
        flap_rate = data.draw(st.sampled_from((0, 0.3)))
        plan = FaultPlan(
            "timeline", seed=data.draw(st.integers(0, 999)),
            link_state=LinkStateSpec(down_rate=cut_rate, max_down_epochs=3),
            ctrl=CtrlFaultSpec(flap_rate=flap_rate) if flap_rate else None)
        ticks = data.draw(st.lists(
            st.integers(0, 20 * FLAP_EPOCH_TICKS), min_size=1, max_size=12))

        dark = [(frozenset(event[:2]), event[2], event[3])
                for event in schedule.events]
        if cut_rate:
            for a, b in links:
                for e0 in range(max(ticks) // FLAP_EPOCH_TICKS + 1):
                    session = plan.derived("fabric-link", a, b, e0).session()
                    if session.link_down_faults():
                        length = max(1, session.link_down_epochs())
                        dark.append((frozenset((a, b)), e0, e0 + length))
        edges = {edge for *_, down, up in schedule.events if down < up
                 for edge in (down, up)}  # an empty window never opens
        timeline = _LinkTimeline(plan, schedule, network)
        try:
            for tick in ticks:
                start, end = timeline.apply(tick)
                epoch = tick // FLAP_EPOCH_TICKS
                assert [network.link_is_up(a, b) for a, b in links] == [
                    not any(pair == {a, b} and down <= epoch < up
                            for pair, down, up in dark)
                    for a, b in links], tick
                assert start <= tick < end
                assert not any(start < edge * FLAP_EPOCH_TICKS < end
                               for edge in edges)
                if cut_rate or flap_rate:
                    assert (start, end) == (epoch * FLAP_EPOCH_TICKS,
                                            (epoch + 1) * FLAP_EPOCH_TICKS)
                else:  # bounded only by window edges
                    assert {start, end} <= {edge * FLAP_EPOCH_TICKS
                                             for edge in edges} | {
                        -math.inf, math.inf}
                if flap_rate:
                    assert timeline.flap(host, epoch) == plan.derived(
                        "fabric-flap", host, epoch).session() \
                        .link_flap_faults()
        finally:
            timeline.restore()
        assert timeline.flapping == bool(flap_rate)
        if not (events or cut_rate or flap_rate):
            assert timeline.before == (-math.inf, math.inf)

    def test_the_report_brings_every_moved_link_back_up(self):
        """A run that ends inside a window leaves its cable dark until
        the report, which restores every cable the run may move — the
        replica is handed on (the next engine on it prewarms there)
        with the links it was built with."""
        topology = get_topology("leaf-spine").build()
        network = topology.network
        engine = FlowEngine(topology, self.WORKLOAD, link_schedule=(
            LinkSchedule((("spine0", "leaf0", 2, 1000),))))
        engine.run()
        assert not network.link_is_up("spine0", "leaf0")
        engine.report()
        assert all(network.link_is_up(a.device, b.device)
                   for a, b in network.links())

    def test_shards_sum_what_the_cuts_dropped(self):
        """Each worker's slice goes through the cut and the repair on a
        replica of its own; its report counts what its own engine kept,
        dropped and revived, and the merge sums them.  Inline, a 2-shard
        run is the 1-shard run's one engine: the same ledger."""
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        spec = get_topology("leaf-spine")
        one, two = (run_sharded(spec, workload, shards=shards, parallel=False,
                                link_schedule=schedule)
                    for shards in (1, 2))
        slices = worker_slices(spec, workload, link_schedule=schedule)
        merged = merge_reports(slices, 2)
        assert one.fingerprint() == two.fingerprint() == merged.fingerprint()
        assert two.fastpath == one.fastpath
        for name in ("path_invalidations", "path_dropped",
                     "path_revalidated", "path_revived", "path_misses"):
            assert merged.fastpath[name] == sum(
                part.fastpath[name] for part in slices)
        for report in (one, *slices):
            assert report.fastpath["path_revalidated"] > 0
            assert report.fastpath["path_revived"] > 0
            # A cut retires walks and drops no key.
            assert report.fastpath["path_invalidations"] > 0
            assert report.fastpath["path_dropped"] == 0
        assert one.fastpath["path_misses"] <= merged.fastpath["path_misses"]

    def test_engines_back_to_back_report_their_own_share(self):
        """A report's ``fastpath`` / ``batch`` are what its own engine
        moved, never the replica's running total: two engines carried
        one after the other on one replica, through a cut and its
        repair, sum to the replica's counts."""
        topology = get_topology("leaf-spine").build()
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        reports = [run_flows(topology, self.WORKLOAD, shards=2,
                             flow_filter=lambda flow, i=index:
                             flow.flow_id % 2 == i,
                             link_schedule=schedule)
                   for index in range(2)]
        network = topology.network
        for name, total in (("fastpath", network.fastpath_stats()),
                            ("batch", network.batch_stats())):
            first, second = (getattr(report, name) for report in reports)
            assert any(first.values()) and any(second.values())
            assert {key: first[key] + second[key] for key in total} == total

    def test_int_flows_share_walks_through_cuts(self):
        """Every hop stamps an INT frame, but only in its hop stack: the
        INT flows of a host pair share a walk, before, during and after
        a cut, and the stamps they carry off it are the reference's."""
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        topo = get_topology("leaf-spine")
        on = run_flows(topo.build(), workload, link_schedule=schedule,
                       int_all=True)
        slow = run_flows(topo.build(), workload, link_schedule=schedule,
                         int_all=True, fastpath=False)
        assert on.fingerprint() == slow.fingerprint()
        assert on.int_summary == slow.int_summary
        assert on.fastpath["path_shared"] > 0

    def test_precut_link_books_loss_at_each_packets_own_epoch(self):
        """A link cut before the engine is built leaves the run
        epoch-free, so whole bursts coalesce across flap epochs while
        losing packets on the dark cable: loss must still land in each
        packet's own epoch."""
        workload = WorkloadSpec(flows=40, packets_per_flow=64, seed=3,
                                window_ticks=64)

        def run(**kw):
            topology = get_topology("leaf-spine").build()
            topology.network.set_link_state("spine0", "leaf0", False)
            return run_flows(topology, workload, **kw)

        on, off, slow = run(), run(batch=False), run(fastpath=False)
        assert on.batch["segments"] > 0
        assert on.lost > 0 and len(on.loss_by_epoch) > 1
        assert sum(on.loss_by_epoch.values()) == on.lost
        assert on.loss_by_epoch == off.loss_by_epoch == slow.loss_by_epoch
        assert on.fingerprint() == off.fingerprint() == slow.fingerprint()

    def test_wire_faults_coalesce_with_one_fingerprint(self):
        """Per-packet wire draws do not bar coalescing: a run's draws
        are made up front, in packet order, and the survivors take the
        counted entry — only each walk's first packet (there is no
        prewarm under wire faults) takes the per-packet one."""
        plan = get_plan("lossy-link", seed=4)
        on = self._run(plan=plan)
        off = self._run(plan=plan, batch=False)
        assert on.fingerprint() == off.fingerprint()
        assert on._total("retransmits") > 0
        assert on.batch["segments"] > 0
        assert on.batch["prewarmed"] == 0
        assert on.batch["replayed_packets"] > on.attempted // 2
        assert on.batch["replayed_packets"] + on.fastpath["path_misses"] \
            + on.fastpath["path_hits"] == on.attempted  # nothing lost for good
        assert off.batch["segments"] == off.batch["replayed_packets"] == 0

    def test_shard_reports_carry_summed_batch_stats(self):
        """Each worker's slice books the packets its own engine
        replayed, so the merged ledger is the 1-shard run's; inline, a
        4-shard run is that run."""
        spec = get_topology("leaf-spine")
        single = run_sharded(spec, self.WORKLOAD, shards=1)
        inline = run_sharded(spec, self.WORKLOAD, shards=4, parallel=False)
        slices = worker_slices(spec, self.WORKLOAD, shards=4)
        merged = merge_reports(slices, 4)
        assert merged.batch["replayed_packets"] == \
            single.batch["replayed_packets"]
        assert merged.batch["replayed_packets"] <= merged.attempted
        for part in slices:
            assert part.batch["replayed_packets"] == part.attempted
        assert merged.batch == {name: sum(part.batch[name] for part in slices)
                                for name in merged.batch}
        assert inline.batch == single.batch
        assert merged.config.batch is inline.config.batch is True


# ----------------------------------------------------------------------
# INT: batched replays keep receiver-side sequences gapless
# ----------------------------------------------------------------------
class TestIntBatched:
    WORKLOAD = WorkloadSpec(flows=32, packets_per_flow=10, seed=13)

    def test_batched_int_run_is_gapless_at_the_collector(self):
        topology = get_topology("leaf-spine").build()
        engine = FlowEngine(topology, self.WORKLOAD, int_all=True)
        ledgers = closed_ledgers(engine.collector)
        engine.run()
        report = engine.report()
        assert report.batch["replayed_packets"] > 0
        summary = report.int_summary
        assert summary["lost"] == 0
        assert summary["delivered"] == summary["packets"] > 0
        assert len({flow_id for flow_id, _ in ledgers}) \
            == self.WORKLOAD.flows
        for state in ledgers.values():
            sent = [seq for seqs, _, _ in state.runs for seq in seqs]
            assert sent == list(range(len(sent)))  # gapless assignment
            assert state.received == set(sent)  # gapless arrival

    def test_int_summary_identical_batch_on_off(self):
        spec = get_topology("leaf-spine")
        on = run_sharded(spec, self.WORKLOAD, shards=2, parallel=False,
                         int_all=True)
        off = run_sharded(spec, self.WORKLOAD, shards=2, parallel=False,
                          int_all=True, batch=False)
        assert on.int_summary == off.int_summary
        assert on.fingerprint() == off.fingerprint()


# ----------------------------------------------------------------------
# nf-mon: the batch tier's ledger in the operator's report
# ----------------------------------------------------------------------
class TestNfmonBatch:
    def test_fabric_prints_batch_tier_stats(self, capsys):
        assert nfmon_main(["fabric", "--topo", "leaf-spine",
                           "--workload", "uniform-small"]) == 0
        out = capsys.readouterr().out
        assert "batch tier:" in out
        assert "replayed_packets" in out
