"""Pushed invalidation: a cached walk depends on the devices it visited.

Three things are pinned here.  *No mutator may be missed*: every public
mutator that feeds a ``state_generation()`` term drops the walks through
its device (one parametrized test, plus a hypothesis differential that
interleaves them with traffic on random fabrics).  *Only a change
tells*: re-writing the same value drops nothing.  *Selectivity*: a link
cut costs the walks through its two end devices and no others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.testenv.topology as topology_module
from repro.core.metadata import SUME_TUSER, dma_port_bit, phys_port_bit
from repro.cores.lpm import LpmEntry
from repro.cores.output_port_lookup import Decision, OutputPortLookup
from repro.fabric import get_topology
from repro.fabric.topo import FabricTopology, Host
from repro.faults import get_plan, inject
from repro.int import encode_template
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame
from repro.projects.base import OPL_REG_BASE, ReferencePipeline
from repro.projects.blueswitch import (
    ActionOutput,
    BlueSwitchPipeline,
    FlowEntry,
    FlowMatch,
)
from repro.projects.reference_router import ReferenceRouter
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import InjectionResult, Network

from .conftest import ip, mac
from .test_fastpath_network import flow_of_pair, observables, programmed_fabric

pytestmark = pytest.mark.fastpath

TABLE_CLEAR = OPL_REG_BASE + 0x0C
ROUTED_TO = Ipv4Addr.parse("10.0.1.2")


def outcome(result: InjectionResult) -> tuple:
    """One injection's result, field for field."""
    return ([(d.at, d.frame, d.hops) for d in result],
            result.dropped_hop_limit, result.dropped_link_down,
            result.hop_limit_sites, result.link_down_sites)


def assert_index_whole(net: Network) -> None:
    """The inverted index holds exactly the records of the resident
    walks, under exactly the devices they visited — nothing dangling,
    nothing leaked."""
    records = {id(walk.deps): walk.deps for walk in net._path_cache.values()}
    indexed = {device: {id(deps) for deps in dependents}
               for device, dependents in net._dependents.items()}
    assert set().union(*indexed.values()) == set(records)
    for deps in records.values():
        assert all(net._path_cache[key].deps is deps for key in deps.keys)
        assert all(id(deps) in indexed[device] for device in deps.devices)
    assert sum(len(deps.keys) for deps in records.values()) \
        == len(net._path_cache)
    assert {deps.class_key for deps in records.values()} - {None} \
        == set(net._class_cache)


def router_fabric() -> Network:
    net = Network()
    net.add_device("r1", ReferenceRouter()).tables.add_arp(ROUTED_TO, mac(2))
    return net


def routed_frame() -> bytes:
    return make_udp_frame(mac(9), MacAddr(0x02_53_55_4D_45_00), ip(9),
                          ROUTED_TO, size=96, ttl=32).pack()


# ----------------------------------------------------------------------
# No mutator may be missed — stated once
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutator:
    """One public mutator of decision-visible state, on a fabric whose
    warmed walk passes through the device it mutates."""

    name: str
    apply: Callable[[Network], object]
    #: Applying it a second time re-writes the value already there
    #: (``False``: it is a change again; ``None``: not repeatable).
    repeat_is_noop: Optional[bool] = True
    routed: bool = False


def _s2(call: Callable[[ReferenceSwitch], object]) -> Callable:
    return lambda net: call(net.device("s2"))


def _r1(call: Callable[[ReferenceRouter], object]) -> Callable:
    return lambda net: call(net.device("r1"))


def _arm(net: Network) -> None:
    # Kept alive on the network so the session stays attached.
    net.armed = inject(get_plan("oq-pressure"), project=net.device("s2"))


MUTATORS = [
    Mutator("install_static_mac", _s2(
        lambda s: s.install_static_mac(mac(2), 2))),
    Mutator("mac_table.insert", _s2(
        lambda s: s.mac_table.insert(mac(9).value, phys_port_bit(2)))),
    Mutator("mac_table.delete", _s2(
        lambda s: s.mac_table.delete(mac(2).value))),
    Mutator("mac_table.clear", _s2(lambda s: s.mac_table.clear())),
    Mutator("table_clear register", _s2(
        lambda s: s.interconnect.write(TABLE_CLEAR, 1))),
    Mutator("backup_table.insert", _s2(
        lambda s: s.install_backup_mac(mac(2), 3))),
    Mutator("set_vlan_members", _s2(
        lambda s: s.opl.set_vlan_members(0, phys_port_bit(1)))),
    Mutator("set_port_state", _s2(lambda s: s.set_port_state(1, False))),
    Mutator("soft_reset", _s2(lambda s: s.soft_reset()),
            repeat_is_noop=False),
    Mutator("set_link_state",
            lambda net: net.set_link_state("s1", "s2", False)),
    Mutator("fault arm", _arm, repeat_is_noop=None),
    Mutator("add_route", _r1(lambda r: r.tables.add_route(
        LpmEntry(ROUTED_TO, 32, Ipv4Addr(0), phys_port_bit(2)))),
        routed=True),
    Mutator("add_arp", _r1(lambda r: r.tables.add_arp(ROUTED_TO, mac(3))),
            routed=True),
    Mutator("add_filter", _r1(lambda r: r.tables.add_filter(ROUTED_TO)),
            routed=True),
    Mutator("lpm.delete", _r1(lambda r: r.tables.lpm.delete(
        Ipv4Addr.parse("10.0.1.0"), 24)), routed=True),
    Mutator("clear_volatile", _r1(lambda r: r.tables.clear_volatile()),
            repeat_is_noop=False, routed=True),
    Mutator("router soft_reset", _r1(lambda r: r.soft_reset()),
            repeat_is_noop=False, routed=True),
]


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
def test_every_mutator_drops_the_walk_and_only_a_change_does(mutator):
    fabric = router_fabric if mutator.routed else programmed_fabric
    injection = (("r1", 0, routed_frame()) if mutator.routed
                 else ("s1", 0, flow_of_pair(1)))
    fast, slow = fabric(), fabric()
    slow.set_fastpath(False)

    def send() -> None:
        got, want = (net.inject(*injection) for net in (fast, slow))
        assert outcome(got) == outcome(want)
        assert observables(fast) == observables(slow)

    send()
    send()
    assert (fast.path_hits, fast.path_entries) == (1, 1)
    for net in (fast, slow):
        mutator.apply(net)
    send()
    assert fast.path_hits == 1  # the walk was gone: this one re-walked
    assert fast.path_invalidations == 1 and fast.path_dropped >= 1
    if mutator.repeat_is_noop is not None:
        send()
        assert fast.path_hits == 2  # the re-walk is resident
        for net in (fast, slow):
            mutator.apply(net)
        send()
        assert (fast.path_hits, fast.path_invalidations) == (
            (3, 1) if mutator.repeat_is_noop else (2, 2))


def test_blueswitch_writes_and_commits_tell():
    """BlueSwitch is no network device (yet), so its two mutators are
    held to the contract at the cell: the bump that moves
    ``state_generation()`` is the call that tells the watchers."""
    pipe = BlueSwitchPipeline(num_tables=2, slots_per_table=4)
    told = []
    pipe.state.watchers.append(lambda: told.append(pipe.state_generation()))
    entry = FlowEntry(FlowMatch(), (ActionOutput(phys_port_bit(1)),))
    pipe.write_active(0, 0, entry)
    pipe.write_shadow(1, 0, entry)
    pipe.commit()
    assert told == [1, 2, 3] and pipe.commits == 1


def test_set_link_state_marks_both_ends_itself():
    """Repairing a cable whose end ports the lookups already believed
    up flips no liveness bit, so no device tells — the network must,
    for the walks that died on the wire at either end."""
    fast, slow = programmed_fabric(), programmed_fabric()
    slow.set_fastpath(False)
    back = make_udp_frame(mac(2), mac(1), ip(2), ip(1), size=96).pack()

    def send() -> list:
        results = []
        for injection in (("s1", 0, flow_of_pair(1)), ("s2", 1, back)):
            got, want = (net.inject(*injection) for net in (fast, slow))
            assert outcome(got) == outcome(want)
            results.append(got)
        return results

    for net in (fast, slow):
        net.set_link_state("s1", "s2", False)
        assert net.device("s1").set_port_state(3, True)
        assert net.device("s2").set_port_state(0, True)
    send()
    assert [r.link_down_sites for r in send()] == [(("s1", 3),), (("s2", 0),)]
    assert fast.path_hits == 2
    generations = [fast.device(name).state_generation()
                   for name in ("s1", "s2")]
    for net in (fast, slow):
        assert net.set_link_state("s1", "s2", True)
    assert generations == [fast.device(name).state_generation()
                           for name in ("s1", "s2")]
    assert [len(r) for r in send()] == [1, 1]
    assert (fast.path_invalidations, fast.path_dropped) == (1, 4)


def test_a_new_cable_or_device_flushes_everything():
    fast, slow = programmed_fabric(), programmed_fabric()
    slow.set_fastpath(False)

    def send(sport: int) -> InjectionResult:
        got, want = (net.inject("s1", 0, flow_of_pair(sport))
                     for net in (fast, slow))
        assert outcome(got) == outcome(want)
        return got

    send(1)
    for net in (fast, slow):
        net.add_device("s3", ReferenceSwitch(name="s3", learning=False))
        net.device("s3").install_static_mac(mac(2), 1)
    assert [(d.at.device, d.hops) for d in send(1)] == [("s2", 2)]
    for net in (fast, slow):  # host 2's edge port becomes a trunk
        net.link("s2", 1, "s3", 0)
    assert [(d.at.device, d.hops) for d in send(1)] == [("s3", 3)]
    assert fast.path_invalidations == 2
    for net in (fast, slow):  # reads everything: classes end here
        net.add_device("r1", ReferenceRouter())
    send(2)
    assert (fast.path_invalidations, fast.path_shared) == (3, 0)


def test_a_walk_that_teaches_is_not_stored_and_stops_a_warm_up():
    """"Did this walk mutate decision state" is "did anything turn
    dirty while it ran"."""
    net = Network()
    for name in ("s1", "s2"):
        net.add_device(name, ReferenceSwitch(name=name))  # learning
    net.link("s1", 3, "s2", 0)
    first, second = ("s1", 0, flow_of_pair(1)), ("s1", 1, flow_of_pair(2))
    assert net.warm_paths([first, second]) == 0  # first taught both
    assert (net.path_misses, net.path_entries) == (1, 0)
    net.inject(*first)  # learned already: a no-op re-learn, stored
    assert (net.path_entries, net.path_invalidations) == (1, 0)


def test_a_hit_calls_into_no_device(monkeypatch):
    """Validation on a hit is "is anything dirty": no generation is
    polled, on any entry point."""
    net = programmed_fabric()
    injection = ("s1", 0, flow_of_pair(1))
    net.inject(*injection)

    def polled(*args):
        raise AssertionError("a cache hit called into a device")

    for name in net.device_names():
        device = net.device(name)
        monkeypatch.setattr(device, "state_generation", polled)
        monkeypatch.setattr(device, "forward_behavioural", polled)
        monkeypatch.setattr(device.opl, "state_generation", polled)
    assert len(net.inject(*injection)) == 1
    assert len(net.inject_many([injection, injection])) == 2
    assert net.inject_batch(*injection, 5) is not None
    assert net.warm_paths([injection, ("s1", 0, flow_of_pair(2))]) == 1
    assert (net.path_hits, net.path_misses, net.path_shared) == (3, 1, 1)


# ----------------------------------------------------------------------
# Arming data-path faults after the walk is cached
# ----------------------------------------------------------------------
def test_arming_faults_after_warming_stops_the_replays():
    """A walk recorded before a fault session was attached must not
    replay past the armed device's per-packet draws."""
    fast, slow = programmed_fabric(), programmed_fabric()
    slow.set_fastpath(False)
    frame = flow_of_pair(1)

    def send(times: int) -> None:
        for _ in range(times):
            got, want = (net.inject("s1", 0, frame) for net in (fast, slow))
            assert outcome(got) == outcome(want)

    send(2)
    assert fast.path_hits == 1
    plan = get_plan("oq-pressure")
    with inject(plan, project=fast.device("s2")), \
            inject(plan, project=slow.device("s2")):
        send(2)
        stats = fast.fastpath_stats()
        assert (stats["path_hits"], stats["path_bypasses"]) == (1, 2)
        assert stats["device_bypasses"] == 2  # s2 stepped aside per packet
        assert stats["path_dropped"] == 2     # the walk and its template
    send(2)  # disarmed: the first walks and is stored, the second replays
    assert (fast.path_hits, fast.path_bypasses) == (2, 2)
    assert observables(fast) == observables(slow)


# ----------------------------------------------------------------------
# Selectivity: a link cut drops the walks through its ends, no others
# ----------------------------------------------------------------------
def _abilene() -> FabricTopology:
    topology = get_topology("abilene").build()
    topology.learn()
    topology.install_backups()
    return topology


def test_a_link_cut_drops_only_the_walks_through_its_end_devices():
    fast, slow = _abilene(), _abilene()
    slow.network.set_fastpath(False)
    net = fast.network
    names = fast.host_names()
    injections = {
        (src, dst): (fast.hosts[src].device, fast.hosts[src].port,
                     fast.probe_frame(src, dst))
        for src in names for dst in names if src != dst}

    def visited(injection: tuple) -> frozenset[str]:
        """Carry one packet on both fabrics; the devices it touched."""
        before = {d: net.device(d).opl.packets for d in net.device_names()}
        slow.network.inject(*injection)
        net.inject(*injection)
        return frozenset(d for d, packets in before.items()
                         if net.device(d).opl.packets != packets)

    paths = {pair: visited(inj) for pair, inj in injections.items()}
    assert net.path_entries == net.path_misses == len(injections) == 110
    a, _, b, _ = fast.links()[0]
    through = {pair for pair, path in paths.items() if {a, b} & path}
    assert 0 < len(through) < len(injections)  # 59 of the 110

    def cut_or_repair(up: bool, invalidations: int) -> None:
        dropped, misses = net.path_dropped, net.path_misses
        for fabric in (fast, slow):
            fabric.network.set_link_state(a, b, up)
        # The counted entry declines exactly for the dropped keys...
        for pair, injection in injections.items():
            walk = net.inject_batch(*injection, 3)
            assert (walk is None) == (pair in through), pair
            for _ in range(3 if walk is not None else 0):
                slow.network.inject(*injection)
        assert net.path_invalidations == invalidations
        # ... one exact and one class entry for each walk through a or b.
        assert net.path_dropped - dropped == 2 * len(through)
        assert net.path_entries == len(injections) - len(through)
        # The others stayed resident and replay; these are re-walked.
        hits = net.path_hits
        for pair in sorted(set(injections) - through):
            assert visited(injections[pair]) == paths[pair]
        assert net.path_hits - hits == len(injections) - len(through)
        assert net.path_misses == misses
        for pair in sorted(through):
            assert {a, b} & visited(injections[pair])
        assert net.path_misses - misses == len(through)
        assert observables(net)[1:] == observables(slow.network)[1:]

    cut_or_repair(False, invalidations=1)
    assert net.dropped_link_down == 0  # FRR rerouted every re-walk
    cut_or_repair(True, invalidations=2)  # the same set goes again


def test_a_rewalked_key_forgets_the_devices_of_its_old_path():
    """The index holds walk records, not keys: once h0→h3 is back on its
    short path, a mutation on a device only the detour visited must
    leave the walk alone."""
    topology = ring()
    net = topology.network
    injection = ("s0", 0, topology.probe_frame("h0", "h3"))
    assert [d.hops for d in net.inject(*injection)] == [2]  # s0 → s3
    net.set_link_state("s0", "s3", False)
    assert [d.hops for d in net.inject(*injection)] == [4]  # via s1, s2
    net.set_link_state("s0", "s3", True)
    assert [d.hops for d in net.inject(*injection)] == [2]
    assert (net.path_invalidations, net.path_dropped) == (2, 4)
    assert_index_whole(net)
    for detour in ("s1", "s2"):
        net.device(detour).install_backup_mac(mac(9), 1)
    assert net.inject_batch(*injection, 2) is not None
    assert (net.path_invalidations, net.path_dropped) == (2, 4)


def test_eviction_from_under_a_derivation_keeps_the_index_whole(monkeypatch):
    """At capacity the oldest record goes — even when it is the template
    the incoming walk was just derived from; the derived walk must still
    be reachable from the index or no mutation could drop it."""
    monkeypatch.setattr(topology_module, "PATH_CACHE_CAPACITY", 2)
    fast, slow = programmed_fabric(), programmed_fabric()
    slow.set_fastpath(False)
    for sport in (1, 2, 3, 3):
        for net in (fast, slow):
            net.inject("s1", 0, flow_of_pair(sport))
    assert (fast.path_shared, fast.path_entries, fast.path_hits) == (2, 1, 3)
    assert_index_whole(fast)
    for net in (fast, slow):
        net.device("s2").install_static_mac(mac(2), 2)  # host 2 moved
        net.inject("s1", 0, flow_of_pair(3))
    assert fast.path_hits == 3
    assert observables(fast) == observables(slow)


# ----------------------------------------------------------------------
# A walk's counter effect: the hop journal == the snapshot-and-diff it
# replaced
# ----------------------------------------------------------------------
def snapshot_and_diff_ops(snapshots: dict) -> list:
    """``_walk``'s ``ops`` derivation as it stood before the journal —
    each device's books copied on arrival, diffed at the end — kept
    verbatim as the oracle."""
    ops = []
    for opl, packets, drops, counters in snapshots.values():
        d_packets = opl.packets - packets
        d_drops = opl.drops - drops
        deltas = tuple(
            (name, count - counters.get(name, 0))
            for name, count in opl.counters.items()
            if count != counters.get(name, 0)
        )
        if d_packets or d_drops or deltas:
            ops.append((opl, d_packets, d_drops, deltas))
    return ops


def per_device(ops) -> dict:
    """``ops`` as a multiset per device (each device once)."""
    books = {id(opl): (packets, drops, dict(deltas))
             for opl, packets, drops, deltas in ops}
    assert len(books) == len(ops)
    return books


def hold_walks_to_the_oracle(net: Network) -> list:
    """Check every walk ``net`` records from here on against the
    oracle; returns the (growing) list of the walks checked."""
    slow_walk, checked = net._walk, []

    def walk_and_check(device, port, frame, record):
        # Copied up front for every device: one not visited diffs to
        # nothing, one visited did not move before its first hop.
        snapshots = {
            name: (project.opl, project.opl.packets, project.opl.drops,
                   dict(project.opl.counters))
            for name, project in net._devices.items()}
        result, walk = slow_walk(device, port, frame, record)
        assert all(project.opl.journal is None
                   for project in net._devices.values())
        if walk is not None:
            oracle = snapshot_and_diff_ops(snapshots)
            assert per_device(walk.ops) == per_device(oracle)
            assert {id(net.device(name).opl) for name in walk.deps.devices} \
                == set(per_device(oracle))
            checked.append(walk)
        return result, walk

    net._walk = walk_and_check
    return checked


def test_ops_of_a_walk_that_mixes_device_cache_hits_and_misses():
    """s2 changes, s1 does not: the re-walk replays s1's frozen
    decision and decides afresh at s2 — both must reach the journal."""
    net = programmed_fabric()
    checked = hold_walks_to_the_oracle(net)
    injection = ("s1", 0, encode_template(flow_of_pair(1, size=256), 1))
    net.inject(*injection)
    net.device("s2").install_backup_mac(mac(2), 2)
    net.inject(*injection)
    stats = net.fastpath_stats()
    assert (stats["device_hits"], stats["device_misses"]) == (1, 3)
    assert [per_device(walk.ops) for walk in checked] == [
        {id(net.device(name).opl): (1, 0, {"hit": 1})
         for name in ("s1", "s2")}] * 2


def test_ops_carry_the_bump_inside_decide():
    """The router bumps ``to_cpu`` itself, on top of the decision's
    note — on the deciding hop and on its device-cache replay."""
    net = router_fabric()
    checked = hold_walks_to_the_oracle(net)
    frame = make_udp_frame(mac(9), MacAddr(0x02_53_55_4D_45_00), ip(9),
                           ROUTED_TO, size=96, ttl=1).pack()
    net.inject("r1", 0, frame)
    net.device("r1").attach_datapath_faults(None)  # tells, bumps nothing:
    # the walk goes, r1's own cache stays
    net.inject("r1", 0, frame)
    assert net.fastpath_stats()["device_hits"] == 1
    assert [per_device(walk.ops) for walk in checked] == [
        {id(net.device("r1").opl): (1, 0, {"to_cpu": 1, "ttl_expired": 1})}
    ] * 2
    assert net.device("r1").opl.counters == {"to_cpu": 2, "ttl_expired": 2}


def test_ops_of_a_flood_that_visits_a_device_twice():
    topology = ring()
    net = topology.network
    checked = hold_walks_to_the_oracle(net)
    for name in net.device_names():
        net.device(name).mac_table.clear()
    result = net.inject("s0", 0, topology.probe_frame("h0", "h2"))
    (walk,) = checked
    assert result.dropped_hop_limit == 2  # both directions, all the way
    assert all(packets > 1 and deltas == {"flood": packets}
               for packets, _, deltas in per_device(walk.ops).values())


class PuntAndForward(OutputPortLookup):
    """From the wire: out ports 1 and 3 *and* up DMA queues 0 and 2.
    From DMA queue ``q``: out port ``q``."""

    def __init__(self, name, s_axis, m_axis, log):
        super().__init__(name, s_axis, m_axis)
        self.log = log

    def decide(self, header, tuser):
        src = SUME_TUSER.extract(tuser, "src_port")
        self.log.append(("decide", src))
        dst = (src >> 1 if src & 0xAA else
               phys_port_bit(1) | phys_port_bit(3)
               | dma_port_bit(0) | dma_port_bit(2))
        return Decision(SUME_TUSER.insert(tuser, "dst_port", dst), note="ok")


def test_a_cpu_handler_hop_is_uncacheable_and_keeps_its_order():
    """Software sees every DMA copy before any reply is forwarded, and
    each reply's outputs stand where its copy stood — after the
    device's own wire copies, in queue order."""
    log: list = []

    def software(frame: bytes, queue: int) -> list:
        log.append(("cpu", queue))
        return [(queue, b"reply %d a" % queue),
                (queue + 1, b"reply %d b" % queue)]

    net = Network()
    net.add_device("d", ReferencePipeline(
        "d", lambda name, s, m: PuntAndForward(name, s, m, log)),
        cpu_handler=software)
    checked = hold_walks_to_the_oracle(net)
    decides = [("decide", phys_port_bit(0)), ("cpu", 0), ("cpu", 2),
               *[("decide", dma_port_bit(q)) for q in range(4)]]
    # The second time round the device cache replays all five decisions.
    for expected in (decides, [("cpu", 0), ("cpu", 2)]):
        del log[:]
        result = net.inject("d", 0, b"frame")
        assert [(d.at.port.index, d.frame) for d in result] == [
            (1, b"frame"), (3, b"frame"),
            (0, b"reply 0 a"), (1, b"reply 0 b"),
            (2, b"reply 2 a"), (3, b"reply 2 b")]
        assert log == expected
    assert not checked and net.path_bypasses == 2 and net.path_entries == 0
    assert (net.device("d").opl.packets, net.forwarded_hops) == (10, 12)


def test_software_that_is_never_punted_to_does_not_cost_the_walk():
    """Uncacheable only if a DMA copy actually went up."""
    net = programmed_fabric()
    net._cpu["s1"] = lambda frame, queue: []
    net.inject("s1", 0, flow_of_pair(1))
    assert (net.path_entries, net.path_bypasses) == (1, 0)


# ----------------------------------------------------------------------
# The differential: cached network == uncached twin, whatever happens
# ----------------------------------------------------------------------
def _loop(length: int, learning: bool, hop_limit: int) -> FabricTopology:
    """``s0—s1—…—s0`` with one host per switch."""
    net = Network(hop_limit=hop_limit)
    for i in range(length):
        net.add_device(f"s{i}", ReferenceSwitch(name=f"s{i}",
                                                learning=learning))
    for i in range(length):
        net.link(f"s{i}", 3, f"s{(i + 1) % length}", 2)
    return FabricTopology("loop", {"length": length}, net, [
        Host(f"h{i}", f"s{i}", 0, mac(i + 1), ip(i + 1))
        for i in range(length)])


def ring() -> FabricTopology:
    """Four programmed switches in a loop, with FRR backups."""
    topology = _loop(4, learning=False, hop_limit=16)
    topology.learn()
    topology.install_backups()
    return topology


def line() -> FabricTopology:
    topology = get_topology("linear-4").build()
    topology.learn()
    return topology


def learning_triangle() -> FabricTopology:
    """Three *learning* switches in a loop: floods storm until the hop
    limit, and walks teach the tables they are being recorded from."""
    return _loop(3, learning=True, hop_limit=6)


FABRICS = {"line": line, "ring": ring, "abilene": _abilene,
           "learning-triangle": learning_triangle}
STEPS = ("send", "send", "send", "burst", "link", "static_mac", "delete",
         "clear", "table_clear", "backup", "vlan", "port", "reset", "arm")


class _Twin:
    """One fabric of the pair, with the fault sessions armed on it."""

    def __init__(self, build: Callable[[], FabricTopology], fastpath: bool):
        self.topology = build()
        self.net = self.topology.network
        self.net.set_fastpath(fastpath)
        if fastpath:
            hold_walks_to_the_oracle(self.net)
        self.armed: dict[str, object] = {}

    def mutate(self, step: str, x: int, y: int) -> None:
        net, topology = self.net, self.topology
        names = net.device_names()
        name = names[x % len(names)]
        device = net.device(name)
        hosts = topology.host_names()
        host = topology.hosts[hosts[y % len(hosts)]]
        if step == "link":
            links = topology.links()
            a, _, b, _ = links[x % len(links)]
            net.set_link_state(a, b, bool(y % 2))
        elif step == "static_mac":
            device.install_static_mac(host.mac, (x + y) % 4)
        elif step == "delete":
            device.mac_table.delete(host.mac.value)
        elif step == "clear":
            device.mac_table.clear()
        elif step == "table_clear":
            device.interconnect.write(TABLE_CLEAR, 1)
        elif step == "backup":
            device.install_backup_mac(host.mac, (x + y) % 4)
        elif step == "vlan":
            device.opl.set_vlan_members(
                0, sum(phys_port_bit(i) for i in range(4) if y >> i & 1))
        elif step == "port":
            device.set_port_state(y % 4, bool(y >> 2 & 1))
        elif step == "reset":
            device.soft_reset()
        elif name in self.armed:  # "arm" toggles
            self.armed.pop(name).disarm()
        else:
            self.armed[name] = inject(get_plan("oq-pressure"), project=device)

    def injection(self, x: int, y: int) -> tuple[str, int, bytes]:
        hosts = self.topology.host_names()
        src = self.topology.hosts[hosts[x % len(hosts)]]
        dst = self.topology.hosts[hosts[y % len(hosts)]]
        frame = make_udp_frame(src.mac, dst.mac, src.ip, dst.ip,
                               sport=1 + (x >> 4) % 2, dport=7,
                               size=192 + 64 * ((y >> 4) % 3)).pack()
        if (x >> 5) % 3 == 0:  # every hop stamps it: no template
            frame = encode_template(frame, flow_id=x % 7)
        return src.device, src.port, frame


@settings(max_examples=60, deadline=None)
@given(fabric=st.sampled_from(sorted(FABRICS)),
       schedule=st.lists(st.tuples(st.sampled_from(STEPS),
                                   st.integers(0, 255), st.integers(0, 255)),
                         min_size=1, max_size=40))
def test_cached_network_equals_uncached_twin_under_any_schedule(
        fabric, schedule):
    fast, slow = _Twin(FABRICS[fabric], True), _Twin(FABRICS[fabric], False)
    for step, x, y in schedule:
        if step == "send":
            got, want = (twin.net.inject(*twin.injection(x, y))
                         for twin in (fast, slow))
            assert outcome(got) == outcome(want)
        elif step == "burst":
            count = 2 + y % 3
            injection = fast.injection(x, y)
            if fast.net.inject_batch(*injection, count) is None:
                for _ in range(count):
                    fast.net.inject(*injection)
            for _ in range(count):
                slow.net.inject(*injection)
        else:
            for twin in (fast, slow):
                twin.mutate(step, x, y)
        # Counted replays skip the delivery log; everything else — loss
        # accounting and every per-device counter — must agree.
        assert observables(fast.net)[1:] == observables(slow.net)[1:]
    assert_index_whole(fast.net)
    assert slow.net.fastpath_stats()["path_entries"] == 0
    assert not slow.net._dependents  # the reference builds no index
