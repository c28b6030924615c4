"""Flow-cache fast path at the network layer: path cache, batched
injection, fabric fingerprint identity, telemetry and the CLI face."""

from __future__ import annotations

import cProfile
import json
import pstats

import pytest

from repro.cores.lookups import SwitchLiteLookup
from repro.cores.output_queues import QueueConfig
from repro.fabric import get_topology, get_workload, run_sharded
from repro.fabric.scheduler import flow_frame, int_frame, run_flows
from repro.fabric.workload import Flow, WorkloadSpec, generate_flows
from repro.faults import get_plan, inject
from repro.host.nfmon import main as nfmon_main
from repro.int import INT_MIN_FRAME_SIZE, encode_template
from repro.packet.generator import make_udp_frame
from repro.projects.base import ReferencePipeline
from repro.projects.firewall import FirewallProject, SynFloodDetector
from repro.projects.reference_nic import ReferenceNic
from repro.projects.reference_router import ReferenceRouter
from repro.projects.reference_switch import ReferenceSwitch
from repro.telemetry import TelemetrySession, probe_fastpath
from repro.testenv.topology import Network

from .conftest import ip, mac, udp_frame
from .test_projects_firewall import tcp_frame

pytestmark = pytest.mark.fastpath

_SPORT_BASE = 40000
_DPORT_BASE = 50000


def two_switch_fabric() -> Network:
    net = Network()
    net.add_device("s1", ReferenceSwitch())
    net.add_device("s2", ReferenceSwitch())
    net.link("s1", 3, "s2", 0)
    return net


def delivery_log(net: Network) -> list[tuple]:
    return [(d.at.device, d.at.port.index, d.frame, d.hops)
            for d in net.deliveries]


def programmed_fabric() -> Network:
    """:func:`two_switch_fabric` with pinned FDBs: host 1 on s1 port 0,
    host 2 on s2 port 1 — every walk is cacheable from the first."""
    net = Network()
    for name in ("s1", "s2"):
        net.add_device(name, ReferenceSwitch(name=name, learning=False))
    net.link("s1", 3, "s2", 0)
    for name, port_1, port_2 in (("s1", 0, 3), ("s2", 0, 1)):
        net.device(name).install_static_mac(mac(1), port_1)
        net.device(name).install_static_mac(mac(2), port_2)
    return net


def flow_of_pair(sport: int, size: int = 96) -> bytes:
    """One more flow between hosts 1 and 2: same MACs, its own bytes."""
    return make_udp_frame(mac(1), mac(2), ip(1), ip(2), sport=sport,
                          dport=7, size=size).pack()


def observables(net: Network) -> tuple:
    return (delivery_log(net), net.dropped_hop_limit, net.dropped_link_down,
            net.forwarded_hops,
            {name: (net.device(name).opl.packets, net.device(name).opl.drops,
                    dict(net.device(name).opl.counters))
             for name in net.device_names()})


# ----------------------------------------------------------------------
# Path cache: replay equivalence and stats
# ----------------------------------------------------------------------
class TestPathCache:
    def test_cached_walks_replay_identically(self):
        fast, slow = two_switch_fabric(), two_switch_fabric()
        slow.set_fastpath(False)
        traffic = [("s1", 0, udp_frame(1, 2)), ("s2", 1, udp_frame(2, 1)),
                   ("s1", 0, udp_frame(1, 2)), ("s1", 0, udp_frame(1, 2))]
        for device, port, frame in traffic:
            fast.inject(device, port, frame)
            slow.inject(device, port, frame)
        assert delivery_log(fast) == delivery_log(slow)
        assert fast.dropped_hop_limit == slow.dropped_hop_limit
        assert fast.forwarded_hops == slow.forwarded_hops
        for name in ("s1", "s2"):
            assert (fast.device(name).opl.counters
                    == slow.device(name).opl.counters)
        assert fast.path_hits == 1  # the third A→B repeats the second

    def test_inject_many_equals_sequential_injects(self):
        batched, sequential = two_switch_fabric(), two_switch_fabric()
        traffic = [("s1", 0, udp_frame(1, 2)), ("s2", 1, udp_frame(2, 1)),
                   ("s1", 0, udp_frame(1, 2)), ("s2", 2, udp_frame(3, 1)),
                   ("s1", 0, udp_frame(1, 2))]
        batch_results = batched.inject_many(traffic)
        seq_results = [sequential.inject(d, p, f) for d, p, f in traffic]
        assert delivery_log(batched) == delivery_log(sequential)
        for got, want in zip(batch_results, seq_results):
            assert [(d.at, d.frame, d.hops) for d in got] == \
                   [(d.at, d.frame, d.hops) for d in want]
            assert got.dropped_hop_limit == want.dropped_hop_limit

    def test_table_mutation_invalidates_the_path_cache(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        hits_before = net.path_hits
        assert hits_before >= 1
        net.device("s2").install_static_mac("02:00:00:00:00:09", 2)
        net.inject("s1", 0, frame)
        assert net.path_invalidations == 1
        assert net.path_hits == hits_before  # that walk was a miss

    def test_armed_datapath_faults_make_walks_uncacheable(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)  # learn
        with inject(get_plan("oq-pressure"), project=net.device("s2")):
            net.inject("s1", 0, frame)
            net.inject("s1", 0, frame)
            assert net.path_hits == 0
            assert net.path_bypasses >= 2
        stats = net.fastpath_stats()
        assert stats["device_bypasses"] >= 2  # s2 stepped aside per packet

    def test_set_fastpath_off_clears_and_stops_counting(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        assert net.path_entries > 0
        net.set_fastpath(False)
        assert net.path_entries == 0
        misses_before = net.path_misses
        net.inject("s1", 0, frame)
        assert net.path_misses == misses_before
        assert net.fastpath_stats()["device_entries"] == 0

    def test_an_uncacheable_lookup_bars_the_walk(self):
        """The SYN-flood detector advances per packet, so a walk through
        the firewall may never be replayed: the tenth SYN must meet the
        same detector with the fast path on as off."""
        outcomes = []
        for fastpath in (True, False):
            net = Network()
            net.add_device("fw", FirewallProject(detector=SynFloodDetector(
                threshold=4, window_packets=10_000)))
            net.set_fastpath(fastpath)
            delivered = sum(len(net.inject("fw", 0, tcp_frame()))
                            for _ in range(10))
            outcomes.append((delivered, dict(net.device("fw").opl.counters)))
            if fastpath:
                assert net.path_hits == 0 and net.path_entries == 0
                assert net.path_bypasses == 10
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (3, {"permitted": 3, "syn_flood_dropped": 7})


# ----------------------------------------------------------------------
# Walk sharing: frames the lookups cannot tell apart share one cold walk
# ----------------------------------------------------------------------
class TestWalkSharing:
    def test_flows_of_one_host_pair_share_one_walk(self):
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        flows = [flow_of_pair(5000 + i, size) for i, size in
                 enumerate((64, 96, 96, 512, 1500, 64))]
        for frame in flows + flows[:2]:
            fast.inject("s1", 0, frame)
            slow.inject("s1", 0, frame)
        assert observables(fast) == observables(slow)
        stats = fast.fastpath_stats()
        assert stats["path_misses"] == 1  # the pair's first frame walked
        assert stats["path_shared"] == len(flows) - 1
        assert stats["path_hits"] == len(flows) - 1 + 2
        assert stats["path_entries"] == len(flows)

    def test_every_entry_point_derives(self):
        net = programmed_fabric()
        net.inject("s1", 0, flow_of_pair(1))
        assert net.warm_paths([("s1", 0, flow_of_pair(2)),
                               ("s1", 0, flow_of_pair(1))]) == 1
        walk = net.inject_batch("s1", 0, flow_of_pair(3), 5)
        # The class's walk names no frame: what went in came out.
        assert [d.frame for d in walk.deliveries] == [None]
        assert net.inject_many([("s1", 0, flow_of_pair(4))])[0][0].frame \
            == flow_of_pair(4)
        stats = net.fastpath_stats()
        assert (stats["path_misses"], stats["path_shared"]) == (1, 3)
        assert net.batch_stats()["cold_misses"] == 0
        # A derived walk is neither a dry walk nor a miss, and the
        # sandbox left the device counters to the 1 + 5 + 1 real packets.
        assert net.device("s2").opl.packets == 7

    def test_another_port_or_host_is_another_class(self):
        net = programmed_fabric()
        net.inject("s1", 0, flow_of_pair(1))
        net.inject("s1", 1, flow_of_pair(2))       # same bytes, other port
        net.inject("s1", 0, udp_frame(1, 3))       # other destination
        net.inject("s1", 0, flow_of_pair(3)[:12])  # a runt of the same MACs
        assert net.path_shared == 0
        assert net.path_misses == 4

    def test_a_mutation_flushes_the_templates_too(self):
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        for net in (fast, slow):
            net.inject("s1", 0, flow_of_pair(1))
            net.device("s2").install_static_mac(mac(2), 2)  # host 2 moved
            net.inject("s1", 0, flow_of_pair(2))
        assert fast.path_shared == 0 and fast.path_invalidations == 1
        assert observables(fast) == observables(slow)
        assert fast.deliveries[-1].at.port.index == 2

    def test_fastpath_off_drops_the_templates(self):
        net = programmed_fabric()
        net.inject("s1", 0, flow_of_pair(1))
        net.set_fastpath(False)
        net.set_fastpath(True)
        net.inject("s1", 0, flow_of_pair(2))
        assert net.path_shared == 0

    def test_derived_walks_do_not_alias(self):
        """Each flow's deliveries carry its own bytes, whoever walked
        first and whatever a caller did to a result it was handed."""
        net = programmed_fabric()
        first, second = flow_of_pair(1), flow_of_pair(2)
        handed = net.inject("s1", 0, first, int_seq=3)
        derived = net.inject("s1", 0, second, int_seq=9)
        handed[0].frame = derived[0].frame = b"scribbled"
        assert [d.frame for d in net.inject("s1", 0, first)] == [first]
        assert [d.frame for d in net.inject("s1", 0, second, int_seq=4)] \
            == [second]
        assert net.inject_batch("s1", 0, first, 2).deliveries[0].frame == first
        assert net.path_shared == 1

    def test_a_class_shares_one_walk_that_names_no_frame(self):
        """Derived keys hold the class's walk itself, and nothing read
        off it is another flow's bytes."""
        net = programmed_fabric()
        walked, short, long = (flow_of_pair(1), flow_of_pair(2, size=64),
                               flow_of_pair(3, size=1500))
        net.inject("s1", 0, walked)
        shared = net.inject_batch("s1", 0, short, 2)
        assert net.inject_batch("s1", 0, long, 2) is shared
        assert [d.frame for d in shared.deliveries] == [None]
        # Only the recorded frame's own key names it, being that frame.
        own = net.inject_batch("s1", 0, walked, 2)
        assert own is not shared
        assert [d.frame for d in own.deliveries] == [walked]
        for frame in (long, short, walked, long):
            assert [d.frame for d in net.inject("s1", 0, frame)] == [frame]
        assert (net.path_misses, net.path_shared) == (1, 2)

    def test_eviction_from_under_a_derivation_keeps_the_class(
            self, monkeypatch):
        """Storing a derived key may evict the record it derives from;
        the record, its class entry included, is live again with it."""
        from repro.testenv import topology

        monkeypatch.setattr(topology, "PATH_CACHE_CAPACITY", 2)
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        frames = [flow_of_pair(i) for i in range(6)]
        for frame in frames + frames:
            assert [d.frame for d in fast.inject("s1", 0, frame)] == [frame]
            slow.inject("s1", 0, frame)
            assert fast.path_entries <= 2
        assert observables(fast) == observables(slow)
        # Every third store evicts the one record; its class never left.
        assert fast.path_misses == 1
        assert fast.path_shared == len(frames) * 2 - 1

    def test_int_frames_neither_make_nor_take_a_template(self):
        """Every hop stamps an INT frame, so its walk belongs to its own
        bytes — also next to plain flows of the same host pair."""
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        plain = [flow_of_pair(i, size=256) for i in (1, 2)]
        telemetered = [encode_template(flow_of_pair(i, size=256), flow_id=i)
                       for i in (3, 4)]
        for frame in (telemetered[0], plain[0], telemetered[1], plain[1]):
            for net in (fast, slow):
                net.inject("s1", 0, frame, int_seq=1)
        assert observables(fast) == observables(slow)
        assert fast.path_shared == 1  # the second plain flow, nothing else
        assert fast.path_misses == 3

    def test_a_rewritten_walk_is_no_template(self):
        """A lookup may read nothing and still write: its walk's copies
        are not the injected frame, so nobody else's either."""
        class Remarker(SwitchLiteLookup):
            def decide(self, header, tuser):
                decision = super().decide(header, tuser)
                decision.rewrites[15] = b"\xb8"  # DSCP EF
                return decision

        def remarking_fabric() -> Network:
            net = Network()
            net.add_device("x", ReferencePipeline(
                "x", lambda *args: Remarker(*args), QueueConfig()))
            return net

        fast, slow = remarking_fabric(), remarking_fabric()
        slow.set_fastpath(False)
        for sport in (1, 2, 1):
            for net in (fast, slow):
                net.inject("x", 0, flow_of_pair(sport))
        assert observables(fast) == observables(slow)
        assert fast.deliveries[1].frame[15] == 0xB8
        assert (fast.path_shared, fast.path_hits) == (0, 1)

    def test_a_lookup_that_reads_everything_ends_sharing(self):
        net = programmed_fabric()
        net.add_device("r1", ReferenceRouter())
        net.link("s2", 2, "r1", 0)
        for sport in range(4):
            net.inject("s1", 0, flow_of_pair(sport))
        stats = net.fastpath_stats()
        assert stats["path_shared"] == 0
        assert stats["path_misses"] == stats["path_entries"] == 4

    def test_a_cpu_handler_ends_sharing(self):
        """The NIC's lookup reads nothing, so every frame is one class —
        but a walk through host software is never cached, let alone
        shared."""
        net = Network()
        net.add_device("nic", ReferenceNic(),
                       cpu_handler=lambda frame, queue: [(queue, frame)])
        for sport in range(4):
            assert len(net.inject("nic", 1, flow_of_pair(sport))) == 1
        stats = net.fastpath_stats()
        assert stats["path_shared"] == stats["path_entries"] == 0
        assert stats["path_bypasses"] == 4


class TestWalkSharingInTheFabric:
    #: ~10 flows per ordered host pair of fat-tree-4, IMIX sizes.
    MICE = WorkloadSpec(flows=2400, packets_per_flow=2, seed=5,
                        window_ticks=4096)

    def test_fat_tree_mice_one_walk_per_host_pair(self):
        spec = get_topology("fat-tree-4")
        on = run_flows(spec.build(), self.MICE)
        per_packet = run_flows(spec.build(), self.MICE, batch=False)
        off = run_flows(spec.build(), self.MICE, fastpath=False)
        assert len({flow.frame_size for flow in generate_flows(
            spec.build().host_names(), self.MICE)}) > 3
        assert on.fingerprint() == per_packet.fingerprint() \
            == off.fingerprint()
        assert on.records == per_packet.records == off.records
        host_pairs = 16 * 15
        for report in (on, per_packet):
            assert report.fastpath["path_shared"] > 2400
            assert report.fastpath["path_misses"] <= host_pairs
        assert off.fastpath["path_shared"] == 0

    def test_shards_sum_the_shared_walks(self):
        spec = get_topology("fat-tree-4")
        workload = WorkloadSpec(flows=600, packets_per_flow=2, seed=5)
        one = run_sharded(spec, workload, shards=1)
        four = run_sharded(spec, workload, shards=4, parallel=False)
        assert one.fingerprint() == four.fingerprint()
        # Each replica walks its own first frame of a class.
        assert four.fastpath["path_shared"] + four.fastpath["path_misses"] \
            == one.fastpath["path_shared"] + one.fastpath["path_misses"]
        assert 0 < four.fastpath["path_shared"] < one.fastpath["path_shared"]


# ----------------------------------------------------------------------
# Fabric: fingerprints are cache-invariant, under faults and shards
# ----------------------------------------------------------------------
class TestFabricFingerprintInvariance:
    WORKLOAD = WorkloadSpec(flows=60, packets_per_flow=6, seed=11)

    def _pair(self, plan=None):
        spec = get_topology("leaf-spine")
        on = run_flows(spec.build(), self.WORKLOAD, plan)
        off = run_flows(spec.build(), self.WORKLOAD, plan, fastpath=False)
        return on, off

    def test_clean_run(self):
        on, off = self._pair()
        assert on.fingerprint() == off.fingerprint()
        assert [r.signature() for r in on.records] == \
               [r.signature() for r in off.records]
        assert on.fastpath["path_hits"] > 0
        assert sum(off.fastpath.values()) == 0

    def test_under_flaky_fabric_plan(self):
        on, off = self._pair(get_plan("flaky-fabric", seed=3))
        assert on.fingerprint() == off.fingerprint()
        assert on.fault_counters == off.fault_counters

    def test_under_ctrl_chaos_plan(self):
        on, off = self._pair(get_plan("ctrl-chaos", seed=3))
        assert on.fingerprint() == off.fingerprint()
        assert on.fault_counters == off.fault_counters

    def test_shard_invariance_with_and_without_cache(self):
        spec = get_topology("leaf-spine")
        one = run_sharded(spec, self.WORKLOAD, shards=1)
        four = run_sharded(spec, self.WORKLOAD, shards=4, parallel=False)
        four_off = run_sharded(spec, self.WORKLOAD, shards=4,
                               parallel=False, fastpath=False)
        assert one.fingerprint() == four.fingerprint()
        assert one.fingerprint() == four_off.fingerprint()
        # Shard reports carry their summed cache stats along.
        assert four.fastpath["path_misses"] > 0
        assert sum(four_off.fastpath.values()) == 0

    #: The repo benchmark's four flow lists (``bench/workloads.py``),
    #: and the small one this test started with.
    SHAPES = {
        "small": ("leaf-spine", WorkloadSpec(flows=8, seed=2)),
        "elephants": ("leaf-spine", WorkloadSpec(
            flows=192, seed=1, packets_per_flow=1024, window_ticks=1024)),
        "mice": ("fat-tree-4", WorkloadSpec(
            flows=2400, seed=1, packets_per_flow=2, window_ticks=4096)),
        "lossy": ("leaf-spine-wide", WorkloadSpec(
            "bursty", flows=600, seed=1, packets_per_flow=96,
            window_ticks=1024)),
        "churn": ("abilene", WorkloadSpec(
            flows=800, seed=1, packets_per_flow=96, window_ticks=2048)),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_flow_frame_matches_fresh_build(self, shape):
        """Every direction's frame — re-targeted from its (host pair,
        size) template — and its INT template are byte-equal to a
        build of their own."""
        name, workload = self.SHAPES[shape]
        topology = get_topology(name).build()
        flows = generate_flows(topology.host_names(), workload)
        classes = set()
        for flow in flows:
            for is_response in (False, True):
                src = topology.hosts[flow.dst if is_response else flow.src]
                dst = topology.hosts[flow.src if is_response else flow.dst]

                def fresh(size):
                    return make_udp_frame(
                        src.mac, dst.mac, src.ip, dst.ip,
                        _SPORT_BASE + (flow.flow_id % 10000),
                        _DPORT_BASE + (flow.flow_id % 10000),
                        size=size,
                    ).pack()

                assert flow_frame(topology, flow, is_response) \
                    == fresh(flow.frame_size)
                int_size = max(flow.frame_size, INT_MIN_FRAME_SIZE)
                assert int_frame(topology, flow, is_response) \
                    == encode_template(fresh(int_size), flow.flow_id,
                                       response=is_response)
                classes |= {(src.name, dst.name, flow.frame_size),
                            (src.name, dst.name, int_size)}
        assert set(topology.frame_templates) == classes

    def test_the_frame_memo_dies_with_its_topology(self, monkeypatch):
        """One real build per (host pair, size) per ``FabricTopology``:
        nothing outlives a run, so a second run pays for its own."""
        from repro.fabric import scheduler

        builds = []

        def counting(*args, **kwargs):
            builds.append(kwargs["size"])
            return make_udp_frame(*args, **kwargs)

        monkeypatch.setattr(scheduler, "make_udp_frame", counting)
        spec, workload = get_topology("leaf-spine"), self.WORKLOAD
        first = run_sharded(spec, workload)
        once = len(builds)
        directions = sum(1 + bool(flow.response_packets) for flow in
                         generate_flows(spec.build().host_names(), workload))
        assert 0 < once < directions
        assert run_sharded(spec, workload).fingerprint() \
            == first.fingerprint()
        assert len(builds) == 2 * once


# ----------------------------------------------------------------------
# Telemetry: probe_fastpath mirrors the counters, parity-safe
# ----------------------------------------------------------------------
class TestProbeFastpath:
    def test_series_track_cache_activity(self):
        net = two_switch_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        snap = session.registry.snapshot()
        assert snap['fastpath_events_total{device="net",event="hit"}'] == \
            net.path_hits
        assert snap['fastpath_events_total{device="net",event="miss"}'] == \
            net.path_misses
        assert snap['fastpath_entries{device="net"}'] == net.path_entries
        assert snap['fastpath_events_total{device="net",event="shared"}'] == 0
        s1 = net.device("s1").fastpath
        assert snap['fastpath_events_total{device="s1",event="miss"}'] == \
            s1.misses
        assert snap['fastpath_entries{device="s1"}'] == len(s1.entries)

    def test_series_are_in_the_parity_set(self):
        """Cache behaviour is mode-independent, so the series must
        survive a cycle-independent-only snapshot."""
        net = two_switch_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        net.inject("s1", 0, udp_frame(1, 2))
        parity = session.registry.snapshot(cycle_independent_only=True)
        assert any(name.startswith("fastpath_events_total") for name in parity)
        assert any(name.startswith("fastpath_entries") for name in parity)

    def test_shared_walks_have_their_own_series(self):
        net = programmed_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        for sport in range(3):
            net.inject("s1", 0, flow_of_pair(sport))
        snap = session.registry.snapshot()
        assert snap['fastpath_events_total{device="net",event="shared"}'] \
            == net.path_shared == 2
        assert snap['fastpath_events_total{device="net",event="miss"}'] == 1


    def test_dropped_walks_have_their_own_series(self):
        net = programmed_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        for sport in range(2):
            net.inject("s1", 0, flow_of_pair(sport))
        net.device("s2").install_static_mac(mac(2), 2)
        net.inject("s1", 0, flow_of_pair(0))
        snap = session.registry.snapshot()
        # Both flows' walks and the template they shared.
        assert snap['fastpath_events_total{device="net",event="dropped"}'] \
            == net.fastpath_stats()["path_dropped"] == 3
        assert snap['fastpath_events_total{device="net",'
                    'event="invalidation"}'] == 1


# ----------------------------------------------------------------------
# The slow walk itself, without a clock
# ----------------------------------------------------------------------
def test_one_cold_int_walk_stays_under_its_call_ceiling():
    """One recorded Abilene h0 → h9 INT walk (5 hops) with every device
    cache cleared makes 233 Python calls (3.11; measured x 1.1 is the
    ceiling) — it made 457 while a hop parsed addresses into objects,
    read TUSER through the generic ``BitField``, built an attachment
    per output and copied and diffed ``opl.counters`` twice.  Coming
    back over the ceiling means one of those is back."""
    topology = get_topology("abilene").build()
    topology.learn()
    topology.install_backups()
    net, names = topology.network, topology.host_names()
    entry = topology.hosts[names[0]]
    frame = int_frame(topology, Flow(
        flow_id=1, src=names[0], dst=names[9], frame_size=256, packets=1,
        response_packets=0, start_tick=0, gap_ticks=1, int_enabled=True))
    profile = cProfile.Profile()
    for profiled in (False, True):  # once to warm, once to count
        for name in net.device_names():
            net.device(name).fastpath.clear()
        if profiled:
            profile.enable()
        result, walk = net._walk(entry.device, entry.port, frame, record=True)
        profile.disable()
        assert [d.hops for d in result] == [5] and len(walk.ops) == 5
    calls = pstats.Stats(profile).total_calls - 1  # less the disable()
    assert calls < 258, f"{calls} calls for one cold 5-hop INT walk"


# ----------------------------------------------------------------------
# nf-mon: the operator's A/B switch
# ----------------------------------------------------------------------
class TestNfmonFastpath:
    def test_fabric_prints_flow_cache_stats(self, capsys):
        assert nfmon_main(["fabric", "--topo", "leaf-spine",
                           "--workload", "uniform-small"]) == 0
        out = capsys.readouterr().out
        assert "flow-cache stats:" in out
        assert "path_hits" in out
        assert "path_shared" in out
        assert "path_dropped" in out

    def test_no_fastpath_flag_same_fingerprint(self, capsys):
        args = ["fabric", "--topo", "leaf-spine",
                "--workload", "uniform-small", "--format", "json"]
        assert nfmon_main(args) == 0
        with_cache = json.loads(capsys.readouterr().out)
        assert nfmon_main(args + ["--no-fastpath"]) == 0
        without = json.loads(capsys.readouterr().out)
        assert with_cache["fingerprint"] == without["fingerprint"]
        assert with_cache["fastpath"]["path_misses"] > 0
        assert sum(without["fastpath"].values()) == 0
