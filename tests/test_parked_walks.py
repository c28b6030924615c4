"""Each walk once: parked walks and the one-replica inline loop.

Two changes keep a run from walking the same (class, read state) twice,
and each is held to the code it replaced:

* a walk a re-check dropped is parked and revived once everything it
  read holds again — held to a ``set_fastpath(False)`` network on
  Abilene with FRR, through cuts, repairs back to earlier states and a
  fault session armed and disarmed, on both entry points;
* the inline partitions take turns on one replica under the counter
  sandbox — held to the loop as it stood, a fresh replica per
  partition (:func:`fresh_replica_partitions`).

``TestNamedMutants`` are the smallest cases on which one plausible
wrong version differs from its oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import PARK_DEPTH, Network

from .test_fastpath_invalidation import assert_index_whole
from .test_fastpath_network import flow_of_pair, programmed_fabric
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
    """Parked walks are in no table and not indexed (their class may have
    a walk resident meanwhile), and no class parks more than
    :data:`PARK_DEPTH`."""
    indexed = set().union(*net._dependents.values())
    for class_key, parked in net._park.items():
        assert 0 < len(parked) <= PARK_DEPTH
        for walk in parked:
            deps = walk.deps
            assert net._class_cache.get(class_key) is not walk
            assert deps not in indexed
            assert deps.class_key is None and not deps.keys


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


def fresh_replica_partitions(spec, workload, options, shards) -> list:
    """The inline loop as it stood: each partition on a replica of its
    own, built, learned and prewarmed again."""
    return [
        run_flows(spec.build(), workload, shards=shards,
                  flow_filter=lambda flow, i=index: flow.flow_id % shards == i,
                  **options)
        for index in range(shards)
    ]


@pytest.mark.fabric
class TestOneReplica:
    @pytest.mark.parametrize("case", CASES)
    def test_each_partition_is_a_fresh_replicas_run(self, case, partitions):
        name, workload, options, shards = CASES[case]
        spec = get_topology(name)
        merged = run_sharded(spec, workload, shards=shards, parallel=False,
                             **options)
        assert len(partitions) == shards
        reference = fresh_replica_partitions(spec, workload, options, shards)
        for partition, fresh in zip(partitions, reference):
            # The signature carries the partition's int_summary too.
            assert partition.signature() == fresh.signature()
        assert merged.signature() \
            == merge_reports(reference, shards).signature()
        assert merged.batch["replayed_packets"] <= merged.attempted
        one = run_sharded(spec, workload, **options)
        assert merged.fingerprint() == one.fingerprint()
        assert merged.fastpath["path_misses"] <= one.fastpath["path_misses"]

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
        name, workload, options, _ = CASES["churn-quick"]
        spec = get_topology(name)
        misses = [run_sharded(spec, workload, shards=shards, parallel=False,
                              **options).fastpath["path_misses"]
                  for shards in (1, 2, 4)]
        assert misses[1] <= misses[0] and misses[2] <= misses[0]


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
        walk the cut parked must stay parked."""
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
        """Mutant: a revived walk is not re-entered in the index, so the
        next cut never marks it suspect and it replays over the dark
        cable."""
        fast, slow, send = self._pair()
        for up in (True, False, True, False):
            for net in (fast, slow):
                net.set_link_state("s1", "s2", up)
            send()
        assert fast.path_revived == 2  # the delivery, then the drop
        assert len(fast.deliveries) == len(slow.deliveries) == 2

    def test_a_graph_change_empties_the_park(self):
        """Mutant: ``_flush`` leaves the park standing.  Host 2's port
        is cabled to a new switch while the walk that delivered there
        is parked: after the repair the frame goes on to the new
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
