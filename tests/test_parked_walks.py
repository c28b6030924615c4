"""Each walk once: one walk table and one inline engine.

Two changes keep a run from walking the same (class, read state) twice,
and each is held to the code it replaced:

* a walk that fails its re-check retires into its class (a *parked*
  walk) and serves again once everything it read holds again, while
  the keys of the class stay in the table — held to a
  ``set_fastpath(False)`` network on Abilene with FRR, through cuts,
  repairs back to earlier states and a fault session armed and
  disarmed, on both entry points, and to exact counts on the cut and
  repair TUTORIAL §11 walks through;
* the inline path carries every flow on one engine, so the link
  timeline is replayed once however many shards — held to the 1-shard
  run and to the merge of the worker slices, each on a fresh replica.

``TestNamedMutants`` are the smallest cases on which one plausible
wrong version differs from its oracle.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.testenv.topology as topology_module
from repro.fabric import (
    FlowEngine,
    LinkSchedule,
    WorkloadSpec,
    get_topology,
    run_flows,
    run_sharded,
)
from repro.fabric.shard import merge_reports
from repro.faults import get_plan, inject
from repro.cores.lookups import SwitchLiteLookup
from repro.cores.output_queues import QueueConfig
from repro.packet.generator import make_udp_frame
from repro.projects.base import ReferencePipeline
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import PARK_DEPTH, Network

from .conftest import mac, worker_slices
from .test_fastpath_invalidation import assert_index_whole, class_of, ring
from .test_fastpath_network import flow_of_pair, observables, \
    programmed_fabric
from .test_int_sharing import (
    HOSTS,
    LINKS,
    abilene,
    counters,
    frame_of,
    outcome,
)

pytestmark = pytest.mark.fastpath


def assert_park_apart(net: Network) -> None:
    """A class keeps at most :data:`PARK_DEPTH` retired walks beside the
    one it serves, and no walk it holds is taken on trust: the serving
    walk holds unless a mutation marked it since its last check, and a
    retired walk nothing marked since fails its check."""
    marked = set(net._suspect).union(
        *(net._dependents.get(device, ()) for device in net._dirty))
    for entry in net._path_cache.values():
        cls = class_of(entry)
        assert len(cls.walks) <= PARK_DEPTH + 1
        for walk in cls.walks:
            if walk.deps not in marked:
                assert net._holds(walk.deps) == (walk is cls.serving)


# ----------------------------------------------------------------------
# Parked walks against the walk per packet
# ----------------------------------------------------------------------
#: Few links, so that cuts and repairs keep returning to earlier states.
CUT_LINKS = LINKS[:3]
#: Devices a fault session may be armed on (every one is on some path).
ARMABLE = ("den", "kc", "sea")

flows = st.fixed_dictionaries({
    "src": st.sampled_from(HOSTS),
    "dst": st.sampled_from(HOSTS),
    "flow_id": st.integers(0, 2**32 - 1),
    "response": st.booleans(),
    "size": st.integers(192, 1518),
    "max_hops": st.just(8),
    "kind": st.sampled_from(("int", "plain")),
})
steps = st.one_of(
    st.tuples(st.just("send"), flows, st.integers(0, 9), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("link"), st.integers(0, len(CUT_LINKS) - 1),
              st.booleans()),
    st.tuples(st.just("heal")),
    st.tuples(st.just("fault"), st.sampled_from(ARMABLE)),
)


class TestParkedWalksOracle:
    @settings(max_examples=80, deadline=None)
    @given(script=st.lists(steps, min_size=1, max_size=24))
    def test_abilene_with_frr_equals_the_walk_per_packet(self, script):
        """Cuts, repairs (``heal`` is back to the first state) and a
        fault session armed then disarmed on one device: through
        ``inject(int_seq=...)`` and through ``inject_batch`` every
        delivery's bytes, the drop sites and the device counters equal
        a network that walks every packet."""
        fast, slow = abilene(), abilene(fastpath=False)
        plan = get_plan("oq-pressure")
        armed = None
        for step in script:
            if step[0] == "link":
                a, _, b, _ = CUT_LINKS[step[1]]
                for topology in (fast, slow):
                    topology.network.set_link_state(a, b, step[2])
            elif step[0] == "heal":
                for a, _, b, _ in CUT_LINKS:
                    for topology in (fast, slow):
                        topology.network.set_link_state(a, b, True)
            elif step[0] == "fault":
                if armed is None:
                    armed = [inject(plan, project=topology.network.device(
                        step[1])) for topology in (fast, slow)]
                else:
                    for injector in armed:
                        injector.disarm()
                    armed = None
            else:
                _, flow, seq, count, batched = step
                frame = frame_of(fast, **flow)
                src = fast.hosts[flow["src"]]
                walk = (fast.network.inject_batch(src.device, src.port,
                                                  frame, count)
                        if batched else None)
                if walk is not None:
                    for _ in range(count):
                        want = slow.network.inject(src.device, src.port,
                                                   frame)
                    assert outcome(walk, frame) == outcome(want, frame)
                else:
                    for i in range(count if batched else 1):
                        got, want = (topology.network.inject(
                            src.device, src.port, frame, int_seq=seq + i)
                            for topology in (fast, slow))
                        assert outcome(got, frame) == outcome(want, frame)
            assert counters(fast.network) == counters(slow.network)
            assert_index_whole(fast.network)
            assert_park_apart(fast.network)

    def test_a_repair_walks_nothing(self):
        """Every host pair of a small set, plain and INT, each way: a
        cut re-walks the pairs across it, and the repair revives the
        walks it parked instead of walking them again."""
        fast, slow = abilene(), abilene(fastpath=False)
        net = fast.network
        frames = [(fast.hosts[src], frame_of(fast, src, dst, 7, kind=kind))
                  for src in HOSTS for dst in HOSTS if src != dst
                  for kind in ("int", "plain")]

        def send() -> None:
            for host, frame in frames:
                got, want = (topology.network.inject(host.device, host.port,
                                                     frame, int_seq=3)
                             for topology in (fast, slow))
                assert outcome(got, frame) == outcome(want, frame)

        send()
        first = net.path_misses
        for a, _, b, _ in CUT_LINKS:
            for up in (False, True):
                for topology in (fast, slow):
                    topology.network.set_link_state(a, b, up)
                send()
        assert net.path_revived > 0
        misses = net.path_misses
        for a, _, b, _ in CUT_LINKS:  # the same schedule again: all parked
            for up in (False, True):
                for topology in (fast, slow):
                    topology.network.set_link_state(a, b, up)
                send()
        assert net.path_misses == misses > first
        assert counters(net) == counters(slow.network)


class TestOneWalkTable:
    def test_a_cut_and_its_repair_drop_no_key_and_derive_none(self):
        """TUTORIAL §11's Abilene, all 110 host pairs warm, each with a
        second flow of its class: cutting ``atl~hou`` retires the 29
        walks across it and walks those 29 keys' classes again; the
        repair serves the 29 retired walks again.  Neither enters or
        drops a key, and the repair walks nothing."""
        topology = get_topology("abilene").build()
        topology.learn()
        net = topology.network
        names = topology.host_names()
        keys = []
        for src in names:
            for dst in names:
                if src != dst:
                    a, b = topology.hosts[src], topology.hosts[dst]
                    keys += [(a.device, a.port, frame) for frame in (
                        topology.probe_frame(src, dst),
                        make_udp_frame(a.mac, b.mac, a.ip, b.ip, 9, 9,
                                       size=96).pack())]

        def send_all() -> tuple:
            for key in keys:
                net.inject(*key)
            stats = net.fastpath_stats()
            return tuple(stats[name] for name in (
                "path_misses", "path_shared", "path_invalidations",
                "path_revalidated", "path_revived", "path_dropped",
                "path_entries"))

        assert send_all() == (110, 110, 0, 0, 0, 0, 220)
        net.set_link_state("atl", "hou", False)
        assert send_all() == (139, 110, 29, 30, 0, 0, 220)
        net.set_link_state("atl", "hou", True)
        # The 30 walks that never used the cable pass their check again,
        # and so do the 29 the cut retired.
        assert send_all() == (139, 110, 58, 89, 29, 0, 220)
        assert_index_whole(net)
        assert_park_apart(net)

    def test_an_int_key_follows_its_classs_serving_walk(self):
        """h0 → h9 INT flows share their class's walk; the class serves
        a detour at the cut and the old walk at the repair, and the
        flow that did not walk is spliced from whichever serves: its
        stamps are a fresh uncached network's each time."""
        fast = abilene()
        walked, derived = (frame_of(fast, "h0", "h9", flow_id)
                           for flow_id in (1, 2))
        entry = fast.hosts["h0"]

        def fresh(cut: tuple = ()) -> tuple:
            slow = abilene(fastpath=False)
            if cut:
                slow.network.set_link_state(*cut, False)
            return outcome(slow.network.inject(entry.device, entry.port,
                                               derived), derived)

        home = fresh()
        cut = next((a, b) for a, _, b, _ in LINKS if fresh((a, b)) != home)
        for up, want in ((True, home), (False, fresh(cut)), (True, home)):
            fast.network.set_link_state(*cut, up)
            fast.network.inject(entry.device, entry.port, walked)
            got = fast.network.inject(entry.device, entry.port, derived)
            assert outcome(got, derived) == want
        stats = fast.network.fastpath_stats()
        assert (stats["path_misses"], stats["path_shared"],
                stats["path_revived"]) == (2, 1, 1)

    def test_a_class_keeps_park_depth_retired_walks(self):
        """Every table write at s2 fails every walk the class met for
        good: the class keeps the newest :data:`PARK_DEPTH` retired
        beside the serving one, and a walk it lets go leaves the
        index."""
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        for step in range(PARK_DEPTH + 4):
            for net in (fast, slow):
                net.device("s2").install_static_mac(mac(2), 1 + step % 2)
                net.inject("s1", 0, flow_of_pair(step % 3))
            assert observables(fast) == observables(slow)
        (cls,) = {class_of(entry) for entry in fast._path_cache.values()}
        assert len(cls.walks) == PARK_DEPTH + 1
        assert fast.path_misses == PARK_DEPTH + 4
        assert_index_whole(fast)
        assert_park_apart(fast)

    def test_a_key_whose_walk_rewrites_leaves_its_class(self):
        """A table write at s1 sends host 2's frames through x, which
        rewrites them: the key that walks there takes a class of one,
        and so does its class sibling; the class keeps its other key,
        which replays the class's walk again once s1 points back at s2,
        and so does a new key."""
        class Remarker(SwitchLiteLookup):
            def decide(self, header, tuser):
                decision = super().decide(header, tuser)
                decision.rewrites[15] = b"\xb8"  # DSCP EF
                return decision

        def detour_fabric() -> Network:
            net = programmed_fabric()
            net.add_device("x", ReferencePipeline(
                "x", lambda *args: Remarker(*args), QueueConfig()))
            net.link("s1", 2, "x", 0)
            return net

        fast, slow = detour_fabric(), detour_fabric()
        slow.set_fastpath(False)

        def send(*sports: int) -> None:
            for sport in sports:
                for net in (fast, slow):
                    net.inject("s1", 0, flow_of_pair(sport))
            assert observables(fast) == observables(slow)
            assert_index_whole(fast)

        send(1, 2, 3)
        for net in (fast, slow):
            net.device("s1").install_static_mac(mac(2), 2)
        send(1, 2, 1, 2)
        assert {id(class_of(fast._path_cache[("s1", 0, flow_of_pair(sport))]))
                for sport in (1, 2, 3)} == {id(class_of(entry)) for entry
                                            in fast._path_cache.values()}
        for net in (fast, slow):
            net.device("s1").install_static_mac(mac(2), 3)
        send(1, 4, 3, 5)  # 1 and 4 walk; 3 and 5 replay 4's walk
        assert (fast.path_misses, fast.path_shared) == (5, 3)
        assert fast.deliveries[-1].at.device == "s2"

    def test_an_eviction_is_counted(self, monkeypatch):
        """With the table bounded low and no link moving, every key
        entered and no longer in the table left through an eviction:
        ``path_dropped`` counts them, and the run is the unbounded
        one's."""
        workload = WorkloadSpec(flows=240, packets_per_flow=2, seed=5,
                                window_ticks=4096)
        spec = get_topology("fat-tree-4")
        want = run_flows(spec.build(), workload).fingerprint()
        monkeypatch.setattr(topology_module, "PATH_CACHE_CAPACITY", 16)
        topology = spec.build()
        report = run_flows(topology, workload)
        assert report.fingerprint() == want
        assert 0 < report.fastpath["path_dropped"] \
            == report.batch["compiled"] - report.batch["entries"]
        assert report.batch["entries"] <= 16
        assert_index_whole(topology.network)


# ----------------------------------------------------------------------
# The one-replica inline loop against a fresh replica per partition
# ----------------------------------------------------------------------
def churn_schedule() -> LinkSchedule:
    """Six windows on each of Abilene's first six links, staggered."""
    return LinkSchedule(tuple(
        (a, b, 1 + i + 10 * k, 4 + i + 10 * k)
        for i, (a, _, b, _) in enumerate(LINKS[:6])
        for k in range(6)))


#: ``(topology, workload, options, shards)``: ``churn`` at its quick
#: size, and leaf-spine through one scripted cut.
CASES = {
    "churn-quick": ("abilene", WorkloadSpec(
        flows=100, seed=1, packets_per_flow=96, window_ticks=2048),
        dict(frr=True, int_all=True, link_schedule=churn_schedule()), 4),
    "leaf-spine-cut": ("leaf-spine", WorkloadSpec(
        flows=120, packets_per_flow=12, seed=0),
        dict(link_schedule=LinkSchedule((("spine0", "leaf0", 1, 4),))), 2),
}


@pytest.mark.fabric
class TestOneReplica:
    @pytest.mark.parametrize("case", CASES)
    def test_inline_shards_are_one_engine(self, case, partitions):
        """Inline, an N-shard run is the 1-shard run — one engine, one
        fresh replica, the same cache ledgers — but for ``shards``, and
        the merge of the worker slices signs the same."""
        name, workload, options, shards = CASES[case]
        spec = get_topology(name)
        inline = run_sharded(spec, workload, shards=shards, parallel=False,
                             **options)
        one = run_sharded(spec, workload, **options)
        assert len(partitions) == 2  # one engine per call
        assert inline.shards == shards
        assert replace(inline, shards=1, elapsed_s=0.0) \
            == replace(one, elapsed_s=0.0)
        assert inline.batch["replayed_packets"] <= inline.attempted
        slices = worker_slices(spec, workload, None, shards, **options)
        assert merge_reports(slices, shards).signature() == one.signature()

    @pytest.mark.parametrize("case", CASES)
    def test_on_a_fresh_replica_the_share_is_the_total(self, case):
        """What an engine moved on a replica nothing ran on before is
        the replica's absolute count."""
        name, workload, options, _ = CASES[case]
        topology = get_topology(name).build()
        report = FlowEngine(topology, workload, **options).report()
        network = topology.network
        assert report.fastpath == network.fastpath_stats()
        batch = network.batch_stats()
        assert {key: report.batch[key] for key in batch} == batch

    def test_sharding_takes_no_more_slow_walks(self):
        """Nor re-checks, invalidations or revivals: the timeline's cuts
        are replayed once, whatever the shard count."""
        name, workload, options, _ = CASES["churn-quick"]
        spec = get_topology(name)
        one, two, four = (run_sharded(spec, workload, shards=shards,
                                      parallel=False, **options).fastpath
                          for shards in (1, 2, 4))
        assert one["path_invalidations"] > 0
        assert one == two == four


# ----------------------------------------------------------------------
# Named mutants: the smallest case on which each wrong version differs
# ----------------------------------------------------------------------
class TestNamedMutants:
    def _pair(self):
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        frame = flow_of_pair(1)

        def send() -> None:
            got, want = (net.inject("s1", 0, frame) for net in (fast, slow))
            assert outcome(got, frame) == outcome(want, frame)

        return fast, slow, send

    def test_a_revival_reads_the_port_table_too(self):
        """Mutant: ``_holds`` skips the link bits.  Liveness comes back
        at both ends while the cable stays dark in the port table: the
        walk the cut retired must not serve again."""
        fast, slow, send = self._pair()
        send()
        for net in (fast, slow):
            net.set_link_state("s1", "s2", False)
        send()
        for net in (fast, slow):
            net.device("s1").set_port_state(3, True)
            net.device("s2").set_port_state(0, True)
        send()
        assert fast.path_revived == 0
        assert fast.dropped_link_down == slow.dropped_link_down == 1

    def test_a_revived_walk_is_marked_by_the_next_cut(self):
        """Mutant: a retired walk leaves the index, so the repair never
        marks it suspect and it cannot serve again: each repair walks
        once more."""
        fast, slow, send = self._pair()
        for up in (True, False, True, False):
            for net in (fast, slow):
                net.set_link_state("s1", "s2", up)
            send()
        assert fast.path_revived == 2  # the delivery, then the drop
        assert len(fast.deliveries) == len(slow.deliveries) == 2

    def test_a_graph_change_empties_the_park(self):
        """Mutant: ``_flush`` leaves the class walks standing.  Host 2's
        port is cabled to a new switch while the walk that delivered
        there is retired: after the repair the frame goes on to the new
        switch, it does not exit."""
        fast, slow, send = self._pair()
        send()
        for net in (fast, slow):
            net.set_link_state("s1", "s2", False)
        send()
        for net in (fast, slow):
            net.add_device("s3", ReferenceSwitch(name="s3", learning=False))
            net.link("s2", 1, "s3", 0)
            net.set_link_state("s1", "s2", True)
        send()
        assert fast.path_revived == 0
        assert {d.at.device for d in fast.deliveries[-3:]} == {"s3"}

    def test_a_retired_walk_is_checked_before_it_serves(self):
        """Mutant: a suspect retired walk serves without its check.  A
        table write at s1 marks both of the class's walks; the one the
        cut retired still reads a dark cable and must not serve."""
        fast, slow, send = self._pair()
        send()
        for net in (fast, slow):
            net.set_link_state("s1", "s2", False)
        send()
        for net in (fast, slow):
            net.device("s1").install_static_mac(mac(2), 2)
        send()
        assert (fast.path_revived, fast.path_misses) == (0, 3)
        assert fast.deliveries[-1].at.device == "s1"

    def test_a_failed_walk_waits_for_a_mark(self):
        """Mutant: a walk whose check failed serves though nothing
        marked it since.  On a ring the cut retires h0 → h3's short
        walk; then a table write at s1, which only the detour visits,
        fails the detour — and the short walk, still across the dark
        cable, must not serve: the key is walked again."""
        fast, slow = ring(), ring()
        slow.network.set_fastpath(False)
        h3 = fast.hosts["h3"]
        injection = ("s0", 0, fast.probe_frame("h0", "h3"))

        def send() -> None:
            got, want = (topology.network.inject(*injection)
                         for topology in (fast, slow))
            assert outcome(got, injection[2]) \
                == outcome(want, injection[2])

        send()
        for topology in (fast, slow):
            topology.network.set_link_state("s0", "s3", False)
        send()
        for topology in (fast, slow):
            topology.network.device("s1").install_static_mac(h3.mac, 0)
        send()
        net = fast.network
        assert (net.path_revived, net.path_misses) == (0, 3)
        assert net.deliveries[-1].at.device == "s1"
