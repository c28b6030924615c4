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
import json
import random

import pytest

from repro.fabric import DEFAULT_MAX_INFLIGHT, get_topology, run_sharded
from repro.fabric.scheduler import FlowEngine, LinkSchedule, run_flows
from repro.fabric.workload import WorkloadSpec
from repro.faults import CtrlFaultSpec, FaultPlan, LinkStateSpec, get_plan
from repro.faults import inject as arm_faults
from repro.host.nfmon import main as nfmon_main
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import Network

from .conftest import udp_frame

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
        # The returned walk is one packet's outcome, field for field.
        assert [tuple(d) for d in template.deliveries] \
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
        net, twin = two_switch_fabric(), two_switch_fabric()
        frame = udp_frame(1, 2)
        for fabric in (net, twin):
            fabric.inject("s1", 0, frame)
            fabric.inject("s1", 0, frame)
        assert net.inject_batch("s1", 0, frame, 3) is not None
        for fabric in (net, twin):
            fabric.set_link_state("s1", "s2", False)
            fabric.set_link_state("s1", "s2", True)
        # The flushed walk declines exactly once, carrying nothing ...
        before = counter_state(net)
        assert net.inject_batch("s1", 0, frame, 3) is None
        assert counter_state(net) == before
        assert net.batch_stats()["cold_misses"] == 1
        assert net.fastpath_stats()["path_invalidations"] == 1
        # ... one real inject re-warms, and the next replay matches a
        # twin that took every packet the per-packet way.
        net.inject("s1", 0, frame)
        assert net.inject_batch("s1", 0, frame, 3) is not None
        for _ in range(3 + 1 + 3):
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

    @pytest.mark.parametrize(
        "plan_name", (None, "lossy-link", "black-hole", "flaky-fabric"))
    def test_outcome_neutral_grid_is_one_run(self, plan_name):
        """``fastpath``, ``batch``, ``max_inflight`` and the shard count
        decide how a run executes, never what it computes: every point
        of the grid reproduces the per-packet reference's fingerprint,
        per-flow records and loss curve — on clean wires, under
        retransmitted loss (``lossy-link``), under permanent loss that
        gates responses (``black-hole``) and under loss plus edge flaps
        (``flaky-fabric``)."""
        spec = get_topology("leaf-spine")
        plan = plan_name and get_plan(plan_name, seed=4)
        reference = run_sharded(spec, self.WORKLOAD, plan,
                                fastpath=False, batch=False)
        runs = {}
        for point in itertools.product(
                (True, False), (True, False), (1, DEFAULT_MAX_INFLIGHT),
                (1, 2, 4)):
            fastpath, batch, max_inflight, shards = point
            run = runs[point] = run_sharded(
                spec, self.WORKLOAD, plan, shards=shards, parallel=False,
                fastpath=fastpath, batch=batch, max_inflight=max_inflight)
            assert run.fingerprint() == reference.fingerprint(), point
            assert run.records == reference.records, point
            assert run.loss_by_epoch == reference.loss_by_epoch, point
            assert run.fault_counters == reference.fault_counters, point
        on = runs[True, True, DEFAULT_MAX_INFLIGHT, 1]
        assert on.batch["segment_packets"] > 0
        assert on.batch["replayed_packets"] > 0
        if plan is None:  # prewarmed, nothing mutated: nothing split
            assert on.batch["splits"] == 0
        # batch needs the flow cache; without it the tier stands down
        uncached = runs[False, True, DEFAULT_MAX_INFLIGHT, 1]
        assert uncached.batch.get("replayed_packets", 0) == 0

    def test_the_tier_engages_only_for_walks_that_avoid_armed_devices(self):
        """A walk through a device with an armed data-path session is
        never cached, so its flows go packet by packet — inside the one
        dispatch that drew their wire outcomes — while flows that stay
        clear of it still replay.  Every leaf-to-leaf path crosses
        spine0; same-leaf flows cross no spine."""
        plan = get_plan("flaky-fabric", seed=3)

        def run(armed, **kw):
            topology = get_topology("leaf-spine").build()
            for name in armed:
                arm_faults(plan, project=topology.network.device(name))
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

    def test_link_cut_flushes_shared_walks_too(self):
        """Twenty flows per host pair share walks; a walk shared across
        the cut (or the repair) would carry packets over a dark cable
        and move loss to other epochs.  And *only* the walks through
        spine0 or leaf0 go: with whole-table flushes (before walks
        recorded their dependencies) this run took 89 slow walks and 47
        batch splits coalesced, 76 slow walks per packet."""
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        topo = get_topology("leaf-spine")
        on, per_packet, slow = (
            run_flows(topo.build(), workload, link_schedule=schedule, **kw)
            for kw in ({}, {"batch": False}, {"fastpath": False}))
        for run in (on, per_packet):
            assert run.fastpath["path_shared"] > 0
            assert run.fastpath["path_invalidations"] == 2
            assert run.loss_by_epoch == slow.loss_by_epoch
            assert run.records == slow.records
            assert run.fingerprint() == slow.fingerprint()
        assert slow.lost > 0 and len(slow.loss_by_epoch) > 1
        assert on.fastpath["path_misses"] < 89 and on.batch["splits"] < 47
        assert per_packet.fastpath["path_misses"] < 76

    def test_the_link_controller_answers_as_the_schedule_does(self):
        """The controller indexes the windows by canonical pair once;
        the schedule's own events stay the specification."""
        topology = get_topology("abilene").build()
        links = [(a, b) for a, _, b, _ in topology.links()[:3]]
        schedule = LinkSchedule(tuple(  # ends reversed, windows abutting
            (b, a, 1 + i + 4 * k, 3 + i + 4 * k)
            for i, (a, b) in enumerate(links) for k in range(3)))
        assert schedule.pairs() == sorted(links)
        engine = FlowEngine(topology, WorkloadSpec(flows=1),
                            link_schedule=schedule)
        for epoch in (0, 5, 2, *range(16)):  # absolute, in any order
            engine._link_ctl.apply(epoch)
            dark = {frozenset(event[:2]) for event in schedule.events
                    if event[2] <= epoch < event[3]}
            assert [topology.network.link_is_up(a, b) for a, b in links] \
                == [frozenset(link) not in dark for link in links]

    def test_shards_sum_what_the_cuts_dropped(self):
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        spec = get_topology("leaf-spine")
        one, two = (run_sharded(spec, workload, shards=shards, parallel=False,
                                link_schedule=schedule)
                    for shards in (1, 2))
        assert one.fingerprint() == two.fingerprint()
        assert one.fastpath["path_invalidations"] == 2
        assert two.fastpath["path_invalidations"] == 4  # each replica's two
        for report in (one, two):
            assert report.fastpath["path_dropped"] \
                > report.fastpath["path_invalidations"]

    def test_int_flows_share_nothing_and_lean_on_the_device_cache(self):
        """Every hop stamps an INT frame, so no walk is frame-preserving:
        after a flush the re-walks still hit the device caches whose own
        generation did not move, as they did before walks were shared."""
        schedule = LinkSchedule(events=(("spine0", "leaf0", 1, 4),))
        workload = WorkloadSpec(flows=120, packets_per_flow=12, seed=0)
        topo = get_topology("leaf-spine")
        on = run_flows(topo.build(), workload, link_schedule=schedule,
                       int_all=True)
        slow = run_flows(topo.build(), workload, link_schedule=schedule,
                         int_all=True, fastpath=False)
        assert on.fingerprint() == slow.fingerprint()
        assert on.int_summary == slow.int_summary
        assert on.fastpath["path_shared"] == 0
        assert on.fastpath["device_hits"] > 0

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
        spec = get_topology("leaf-spine")
        merged = run_sharded(spec, self.WORKLOAD, shards=4, parallel=False)
        single = run_sharded(spec, self.WORKLOAD, shards=1)
        assert merged.batch["replayed_packets"] == \
            single.batch["replayed_packets"]
        assert merged.config.batch is True


# ----------------------------------------------------------------------
# INT: batched replays keep receiver-side sequences gapless
# ----------------------------------------------------------------------
class TestIntBatched:
    WORKLOAD = WorkloadSpec(flows=32, packets_per_flow=10, seed=13)

    def test_batched_int_run_is_gapless_at_the_collector(self):
        topology = get_topology("leaf-spine").build()
        engine = FlowEngine(topology, self.WORKLOAD, int_all=True)
        engine.run()
        report = engine.report()
        assert report.batch["replayed_packets"] > 0
        summary = report.int_summary
        assert summary["lost"] == 0
        assert summary["delivered"] == summary["packets"] > 0
        for state in engine.collector._flows.values():
            seqs = sorted(state.sent)
            assert seqs == list(range(len(seqs)))  # gapless assignment
            assert state.received == set(state.sent)  # gapless arrival

    def test_int_summary_identical_batch_on_off(self):
        spec = get_topology("leaf-spine")
        on = run_sharded(spec, self.WORKLOAD, shards=2, parallel=False,
                         int_all=True)
        off = run_sharded(spec, self.WORKLOAD, shards=2, parallel=False,
                          int_all=True, batch=False)
        assert on.int_summary == off.int_summary
        assert on.fingerprint() == off.fingerprint()


# ----------------------------------------------------------------------
# nf-mon: the operator's A/B switch
# ----------------------------------------------------------------------
class TestNfmonBatch:
    def test_fabric_prints_batch_tier_stats(self, capsys):
        assert nfmon_main(["fabric", "--topo", "leaf-spine",
                           "--workload", "uniform-small"]) == 0
        out = capsys.readouterr().out
        assert "batch tier:" in out
        assert "replayed_packets" in out

    def test_no_batch_flag_same_fingerprint(self, capsys):
        args = ["fabric", "--topo", "leaf-spine",
                "--workload", "uniform-small", "--format", "json"]
        assert nfmon_main(args) == 0
        with_batch = json.loads(capsys.readouterr().out)
        assert nfmon_main(args + ["--no-batch"]) == 0
        without = json.loads(capsys.readouterr().out)
        assert with_batch["fingerprint"] == without["fingerprint"]
        assert with_batch["batch"]["replayed_packets"] > 0
        assert without["batch"].get("replayed_packets", 0) == 0
