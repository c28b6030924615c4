"""Flow-cache fast path at the network layer: path cache, batched
injection, fabric fingerprint identity, telemetry and the CLI face."""

from __future__ import annotations

import cProfile
import json
import pstats

import pytest

from bench.workloads import build_case
from repro.cores.lookups import SwitchLiteLookup
from repro.cores.output_queues import QueueConfig
from repro.fabric import get_topology, merge_reports, run_sharded
from repro.fabric.scheduler import flow_frame, int_frame, run_flows
from repro.fabric.workload import Flow, WorkloadSpec, generate_flows
from repro.faults import available_plans, get_plan, inject
from repro.host.nfmon import main as nfmon_main
from repro.int import INT_MIN_FRAME_SIZE, encode_template
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame
from repro.projects.base import ReferencePipeline
from repro.projects.firewall import FirewallProject, SynFloodDetector
from repro.projects.reference_nic import ReferenceNic
from repro.projects.reference_router import ReferenceRouter
from repro.projects.reference_switch import ReferenceSwitch
from repro.telemetry import TelemetrySession, probe_fastpath
from repro.testenv.topology import Network

from .conftest import ip, mac, udp_frame, worker_slices
from .test_projects_firewall import tcp_frame

pytestmark = pytest.mark.fastpath

_SPORT_BASE = 40000
_DPORT_BASE = 50000
#: The reference router's own interface MAC (port 0).
ROUTER_MAC = MacAddr(0x02_53_55_4D_45_00)
#: An address on the router's port-1 subnet.
ROUTED_TO = Ipv4Addr.parse("10.0.1.2")


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
            assert (net.path_hits, net.path_bypasses,
                    net.path_entries) == (0, 2, 0)
        # Disarmed, the next walk is stored and the one after replays it.
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        assert (net.path_hits, net.path_entries) == (1, 1)

    def test_set_fastpath_off_clears_and_stops_counting(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        assert net.path_entries > 0
        net.set_fastpath(False)
        assert net.path_entries == 0
        before = net.fastpath_stats()
        net.inject("s1", 0, frame)
        assert net.fastpath_stats() == before

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

    def test_a_lookup_that_is_not_cacheable_is_a_path_bypass(self):
        """Not what a walk did but what the lookup declares: UDP moves no
        table and no detector, yet ``CACHEABLE = False`` keeps every
        walk through the firewall out of the cache."""
        net = Network()
        net.add_device("fw", FirewallProject())
        assert net.device("fw").opl.CACHEABLE is False
        for _ in range(3):
            assert len(net.inject("fw", 0, udp_frame(1, 2))) == 1
        assert (net.path_hits, net.path_misses, net.path_bypasses,
                net.path_entries) == (0, 3, 3, 0)

    def test_a_bump_inside_decide_replays_exactly(self):
        """The router bumps ``to_cpu`` inside ``decide()``, on top of the
        decision's note: a replayed walk moves it as the decision did."""
        fast, slow = Network(), Network()
        for net in (fast, slow):
            net.add_device("r1", ReferenceRouter())
        slow.set_fastpath(False)
        frame = make_udp_frame(mac(9), ROUTER_MAC, ip(9), ip(2), size=96,
                               ttl=1).pack()
        for _ in range(4):
            for net in (fast, slow):
                assert net.inject("r1", 0, frame) == []
            assert observables(fast) == observables(slow)
        assert (fast.path_hits, fast.path_misses) == (3, 1)
        assert fast.device("r1").opl.counters \
            == {"to_cpu": 4, "ttl_expired": 4}

    def test_a_routed_walk_replays_its_rewrites(self):
        """A routed hop rewrites both MACs, decrements the TTL and
        patches the checksum: every replayed copy carries all three."""
        fast, slow = Network(), Network()
        for net in (fast, slow):
            net.add_device("r1", ReferenceRouter()).tables.add_arp(
                ROUTED_TO, mac(2))
        slow.set_fastpath(False)
        frame = make_udp_frame(mac(9), ROUTER_MAC, ip(9), ROUTED_TO, size=96,
                               ttl=32).pack()
        for _ in range(3):
            got, want = (net.inject("r1", 0, frame) for net in (fast, slow))
            assert [(d.at, d.frame) for d in got] \
                == [(d.at, d.frame) for d in want]
            assert len(got) == 1 and got[0].frame != frame
            assert observables(fast) == observables(slow)
        assert (fast.path_hits, fast.path_misses) == (2, 1)


@pytest.mark.parametrize("plan", available_plans())
def test_a_fault_plan_bars_the_walks_through_its_device_if_it_draws_there(
        plan):
    """Output-queue pressure is the one fault a walk through a project
    draws per packet.  A plan with it keeps every walk through the
    device it is armed on out of the cache, decided afresh per packet;
    any other plan leaves the walk stored and replayed (a control-plane
    write bumps the device's state like any table write).  Either way
    the fabric equals one that caches nothing, and once the plan is
    disarmed the walk is stored and replays."""
    draws = get_plan(plan).oq is not None
    fast, slow = programmed_fabric(), programmed_fabric()
    slow.set_fastpath(False)
    frame = flow_of_pair(1)

    def send() -> None:
        got, want = (net.inject("s1", 0, frame) for net in (fast, slow))
        assert [(d.at, d.frame) for d in got] \
            == [(d.at, d.frame) for d in want]

    with inject(get_plan(plan), project=fast.device("s2")), \
            inject(get_plan(plan), project=slow.device("s2")):
        for _ in range(3):
            send()
        assert (fast.path_hits, fast.path_bypasses, fast.path_entries) \
            == ((0, 3, 0) if draws else (2, 0, 1))
    send()
    send()
    assert (fast.path_hits, fast.path_entries) == (1 if draws else 4, 1)
    assert observables(fast) == observables(slow)


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
        # The counted entry hands back the class's walk: "what you
        # injected", whose bytes nobody can scribble on.
        assert net.inject_batch("s1", 0, first, 2).deliveries[0].frame is None
        assert net.path_shared == 1

    def test_a_class_shares_one_walk_that_names_no_frame(self):
        """Every key of a class holds the class's walk itself, and
        nothing read off it is another flow's bytes."""
        net = programmed_fabric()
        walked, short, long = (flow_of_pair(1), flow_of_pair(2, size=64),
                               flow_of_pair(3, size=1500))
        net.inject("s1", 0, walked)
        shared = net.inject_batch("s1", 0, short, 2)
        assert net.inject_batch("s1", 0, long, 2) is shared
        assert [d.frame for d in shared.deliveries] == [None]
        # The recorded frame's own key names no frame either: its class
        # is its whole entry.
        assert net.inject_batch("s1", 0, walked, 2) is shared
        for frame in (long, short, walked, long):
            assert [d.frame for d in net.inject("s1", 0, frame)] == [frame]
        assert (net.path_misses, net.path_shared) == (1, 2)

    def test_eviction_from_under_a_derivation_keeps_the_class(
            self, monkeypatch):
        """Entering a derived key may evict the oldest key's class, the
        very class the key joins; that class keeps its walks, less the
        keys evicted, and goes to the back of the queue."""
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

    def test_int_frames_of_one_host_pair_share_one_walk(self):
        """Every hop stamps an INT frame, but only in its hop stack: the
        pair's next INT flows take the first one's walk, each with its
        own bytes — flow id, size, direction bit, sequence — and the
        recorded stamps spliced in."""
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        telemetered = [
            encode_template(flow_of_pair(i, size=size), flow_id=i,
                            response=response)
            for i, size, response in ((3, 256, False), (4, 512, True),
                                      (5, 1500, False))]
        for seq, frame in enumerate(telemetered + telemetered[1:2]):
            for net in (fast, slow):
                net.inject("s1", 0, frame, int_seq=seq)
        assert observables(fast) == observables(slow)
        assert fast.path_misses == 1
        assert fast.path_shared == 2  # the second and third INT flows
        walk = fast.inject_batch("s1", 0, telemetered[1], 3)
        assert walk.deliveries[0].frame == slow.inject(
            "s1", 0, telemetered[1])[0].frame

    def test_plain_and_int_frames_keep_their_own_walks(self):
        """A plain frame never takes the pair's INT walk, nor an INT
        frame the plain one, nor one INT geometry another's."""
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        plain = [flow_of_pair(i, size=256) for i in (1, 2)]
        telemetered = [encode_template(flow_of_pair(i, size=256), flow_id=i)
                       for i in (3, 4)]
        short_stack = encode_template(flow_of_pair(6, size=256), flow_id=6,
                                      max_hops=1)
        for frame in (telemetered[0], plain[0], telemetered[1], plain[1],
                      short_stack):
            for net in (fast, slow):
                net.inject("s1", 0, frame, int_seq=1)
        assert observables(fast) == observables(slow)
        # One walk each for plain, 8-slot INT and 1-slot INT frames.
        assert fast.path_misses == 3
        assert fast.path_shared == 2
        assert [d.frame for d in fast.inject("s1", 0, plain[1])] == [plain[1]]

    def test_a_stamped_or_runt_int_frame_keeps_its_own_walk(self):
        """Only an unstamped trailer makes or takes a shared walk: a
        stamped frame, or a runt that merely ends in the magic, walks
        for its own bytes — and neither raises."""
        fast, slow = programmed_fabric(), programmed_fabric()
        slow.set_fastpath(False)
        template = encode_template(flow_of_pair(3, size=256), flow_id=3)
        stamped = fast.inject("s1", 0, template)[0].frame
        slow.inject("s1", 0, template)
        runt = template[:2] + b"INT1"
        for frame in (stamped, runt, stamped, runt):
            for net in (fast, slow):
                net.inject("s1", 0, frame, int_seq=2)
        assert observables(fast) == observables(slow)
        assert (fast.path_misses, fast.path_shared) == (3, 0)

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


# ----------------------------------------------------------------------
# One lookup: the three entry points find the same walks
# ----------------------------------------------------------------------
def lookup_fabric() -> Network:
    """:func:`programmed_fabric` plus host 3 on s1 port 1 (a walk that
    never reaches the cable) and an unlinked NIC with host software."""
    net = programmed_fabric()
    net.device("s1").install_static_mac(mac(3), 1)
    net.add_device("nic", ReferenceNic(),
                   cpu_handler=lambda frame, queue: [(queue, frame)])
    return net


def stamped(frame: bytes) -> bytes:
    """What host 2 receives of ``frame``: every hop's stamp on it."""
    return programmed_fabric().inject("s1", 0, frame)[0].frame


class TestOneLookup:
    """``inject`` (count 1), ``inject_batch`` (count n) and
    ``warm_paths`` (count 0) share one lookup; driven through the same
    keys, cuts and repairs, they must find a valid walk for exactly the
    same keys and leave the same walks resident, kept, dropped, parked
    and revived.  A counted offer that finds none falls back to one
    ``inject``, as the engine's does."""

    PAIR = [flow_of_pair(sport) for sport in (1, 2, 3)]
    #: Host 1 to host 3 and back: walks that never reach the cable.
    LOCAL = make_udp_frame(mac(1), mac(3), ip(1), ip(3), sport=9,
                           dport=7, size=96).pack()
    BACK = [make_udp_frame(mac(3), mac(1), ip(3), ip(1), sport=sport,
                           dport=7, size=96).pack() for sport in (1, 2)]
    #: Host 2 to host 1, across the cable the other way.
    REPLY = [make_udp_frame(mac(2), mac(1), ip(2), ip(1), sport=sport,
                            dport=7, size=96).pack() for sport in (1, 2)]
    INT = [encode_template(flow_of_pair(sport, size=256), flow_id=sport)
           for sport in (4, 5)]
    STAMPED = [stamped(frame) for frame in INT]
    NIC = flow_of_pair(6)

    #: ``(step, argument, found)``: a send's expected outcome, or a cut
    #: (``False``) or repair (``True``) of the s1~s2 cable.
    SCRIPT = (
        ("send", ("s1", 0, PAIR[0]), False),     # cold: walked
        ("send", ("s1", 0, PAIR[0]), True),      # an exact hit
        ("send", ("s1", 0, PAIR[1]), True),      # derived from its class
        ("send", ("s1", 0, LOCAL), False),
        ("send", ("s1", 1, BACK[0]), False),
        ("send", ("s2", 1, REPLY[0]), False),
        ("send", ("s1", 0, STAMPED[0]), False),
        ("send", ("s1", 0, STAMPED[0]), True),   # exact-only, but exact
        ("send", ("s1", 0, STAMPED[1]), False),  # no class to share
        ("send", ("nic", 1, NIC), False),        # host software: never
        ("send", ("nic", 1, NIC), False),        # cached
        ("link", False, None),
        ("send", ("s1", 0, LOCAL), True),        # exact suspect, kept
        ("send", ("s1", 1, BACK[1]), True),      # class suspect, kept
        ("send", ("s1", 0, PAIR[0]), False),     # exact suspect, dropped
        ("send", ("s2", 1, REPLY[1]), False),    # class suspect, dropped
        ("send", ("s1", 0, PAIR[1]), True),      # the dark walk's class
        ("link", True, None),
        ("send", ("s1", 0, PAIR[2]), True),      # revived by the repair
        ("send", ("s1", 0, PAIR[0]), True),
        ("send", ("s2", 1, REPLY[1]), True),     # revived too
        ("send", ("s1", 0, INT[0]), False),
        ("send", ("s1", 0, INT[1]), True),       # the INT class's walk
    )

    @staticmethod
    def _found(entry: str, net: Network, key: tuple) -> bool:
        misses = net.path_misses
        if entry == "inject":
            net.inject(*key)
        elif entry == "inject_batch":
            if net.inject_batch(*key, 3) is None:
                net.inject(*key)
                return False
        else:
            net.warm_paths([key])
        return net.path_misses == misses

    def test_every_entry_point_finds_the_same_walks(self):
        entries = ("inject", "inject_batch", "warm_paths")
        nets = {entry: lookup_fabric() for entry in entries}
        for index, (step, argument, found) in enumerate(self.SCRIPT):
            if step == "link":
                for net in nets.values():
                    net.set_link_state("s1", "s2", argument)
                continue
            got = {entry: self._found(entry, net, argument)
                   for entry, net in nets.items()}
            assert got == dict.fromkeys(entries, found), f"step {index}"
        states = {
            entry: ({name: value for name, value
                     in net.fastpath_stats().items()
                     if name not in ("path_hits", "path_bypasses")},
                    {key: (len(cls.walks), cls.serving is None)
                     for key, cls in net._path_cache.items()
                     if not isinstance(cls, tuple)})
            for entry, net in nets.items()}
        assert states["inject"] == states["inject_batch"] \
            == states["warm_paths"]
        stats = states["inject"][0]
        for name in ("path_shared", "path_revalidated", "path_invalidations",
                     "path_revived"):
            assert stats[name] > 0, name


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
        """Inline, one engine carries every flow, so the run walks each
        class once however many shards; a worker's slice walks its own
        classes on a replica of its own, and the slices' keys sum to
        the run's."""
        spec = get_topology("fat-tree-4")
        workload = WorkloadSpec(flows=600, packets_per_flow=2, seed=5)
        one = run_sharded(spec, workload, shards=1)
        four = run_sharded(spec, workload, shards=4, parallel=False)
        slices = worker_slices(spec, workload, shards=4)
        merged = merge_reports(slices, 4)
        assert one.fingerprint() == four.fingerprint() == merged.fingerprint()
        assert four.fastpath == one.fastpath
        assert merged.fastpath["path_shared"] + merged.fastpath["path_misses"] \
            == one.fastpath["path_shared"] + one.fastpath["path_misses"]
        assert one.fastpath["path_misses"] < merged.fastpath["path_misses"]
        assert all(part.fastpath["path_shared"] > 0 for part in slices)


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
        assert on.fastpath["path_entries"] > 0
        assert sum(off.fastpath.values()) == 0

    def test_batch_on_replays_every_packet_and_batch_off_none(self):
        """With ``batch`` on the engine offers every run to the counted
        entry, single packets included: a clean prewarmed run replays
        all of it and takes no per-packet hit.  ``batch=False`` is the
        per-packet reference and never reaches the counted entry."""
        spec = get_topology("leaf-spine")
        on = run_flows(spec.build(), self.WORKLOAD)
        off = run_flows(spec.build(), self.WORKLOAD, batch=False)
        assert on.fingerprint() == off.fingerprint()
        # Some packets flew alone, outside any coalesced segment.
        assert on.batch["segment_packets"] < on.attempted
        assert on.batch["replayed_packets"] == on.attempted
        assert on.fastpath["path_hits"] == 0
        assert off.batch["replayed_packets"] == off.batch["cold_misses"] == 0
        assert off.fastpath["path_hits"] + off.fastpath["path_misses"] \
            == off.attempted

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
        # The path cache is the only flow cache: no device has a series.
        assert all('device="net"' in name for name in snap
                   if name.startswith("fastpath_"))

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


    def test_dropped_walks_have_their_own_series(self, monkeypatch):
        from repro.testenv import topology

        monkeypatch.setattr(topology, "PATH_CACHE_CAPACITY", 2)
        net = programmed_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        for sport in range(2):
            net.inject("s1", 0, flow_of_pair(sport))
        net.device("s2").install_static_mac(mac(2), 2)
        net.inject("s1", 0, flow_of_pair(0))
        # A third key, of another class: both flows' keys make room.
        net.inject("s2", 1, udp_frame(2, 1))
        snap = session.registry.snapshot()
        assert snap['fastpath_events_total{device="net",event="dropped"}'] \
            == net.fastpath_stats()["path_dropped"] == 2
        # The walk the mutation failed, then the re-walk the class served
        # when it was evicted.
        assert snap['fastpath_events_total{device="net",'
                    'event="invalidation"}'] == net.path_invalidations == 2

    def test_every_path_counter_has_a_series(self):
        """Each ``path_*`` counter of ``fastpath_stats()`` (the
        ``path_entries`` gauge aside) is mirrored by its own ``net``
        event series: give every counter a distinct value and find each
        value among the series."""
        net = programmed_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        counters = [key for key in net.fastpath_stats()
                    if key.startswith("path_") and key != "path_entries"]
        for value, key in enumerate(counters, start=101):
            setattr(net, key, value)
        mirrored = sorted(
            value for series, value in session.registry.snapshot().items()
            if series.startswith('fastpath_events_total{device="net",'))
        assert mirrored == list(range(101, 101 + len(counters)))


# ----------------------------------------------------------------------
# The slow walk itself, without a clock
# ----------------------------------------------------------------------
def test_one_cold_int_walk_stays_under_its_call_ceiling():
    """One recorded Abilene h0 → h9 INT walk (5 hops) makes 177 Python
    calls (measured x 1.1 is the ceiling) — it made 457 while a hop
    parsed addresses into objects, read TUSER through the generic
    ``BitField``, built an attachment per output and copied and diffed
    ``opl.counters`` twice, and 228 while every hop consulted, keyed and
    filled a per-device decision cache.  Coming back over the ceiling
    means one of those is back."""
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
        if profiled:
            profile.enable()
        result, walk = net._walk(entry.device, entry.port, frame, record=True)
        profile.disable()
        assert [d.hops for d in result] == [5] and len(walk.ops) == 5
    calls = pstats.Stats(profile).total_calls - 1  # less the disable()
    assert calls < 195, f"{calls} calls for one cold 5-hop INT walk"


@pytest.mark.parametrize("name", ["elephants", "mice", "lossy", "churn"])
def test_the_retired_device_keys_read_zero_on_every_bench_workload(name):
    """``device_hits`` / ``device_misses`` outlived the per-device
    decision cache only because the benchmark contract still names
    them: on each of its workloads, at quick size, both read 0."""
    case = build_case(name, 1, quick=True)
    report = run_sharded(case.spec, case.workload, case.plan, **case.options)
    assert report.fastpath["device_hits"] == 0
    assert report.fastpath["device_misses"] == 0


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
