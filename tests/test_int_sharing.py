"""Telemetry at per-walk cost, held to the per-walk and per-packet code.

Three things make an INT packet cheap, and each has an oracle here:

* the INT flows of one host pair share one walk — held to a
  ``set_fastpath(False)`` network on Abilene with FRR, through cuts,
  over drawn flow ids, directions, sizes and stack depths;
* the collector folds each distinct stamp stack once — held to
  :class:`ReferenceCollector`, the collector as it stood while it parsed
  every delivery and booked every sequence in a dict, kept verbatim;
* the collector's ledger holds runs — held to the same reference.

``TestNamedMutants`` are the smallest cases on which one plausible
wrong version of the three differs from its oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import get_topology
from repro.int import IntCollector, IntError, encode_template, parse, stamp
from repro.packet.generator import make_udp_frame

pytestmark = pytest.mark.fastpath

ABILENE = get_topology("abilene")
#: Few hosts, so that drawn flows keep meeting in one host pair's class.
HOSTS = ("h0", "h4", "h9")
LINKS = ABILENE.build().links()


def abilene(fastpath: bool = True):
    topology = ABILENE.build()
    topology.learn()
    topology.install_backups()
    topology.network.set_fastpath(fastpath)
    return topology


#: Host addresses for frames built outside a running network.
LAYOUT = abilene()


def frame_of(topology, src: str, dst: str, flow_id: int, *,
             response: bool = False, size: int = 256, max_hops: int = 8,
             kind: str = "int") -> bytes:
    """A frame from host ``src`` to host ``dst``: an unstamped INT
    template, a plain frame, a template stamped once already (as if a
    hop upstream had), or a six-byte runt that ends in the magic."""
    a, b = topology.hosts[src], topology.hosts[dst]
    plain = make_udp_frame(a.mac, b.mac, a.ip, b.ip, 40000 + flow_id % 9973,
                           50000 + flow_id % 9973, size=size).pack()
    if kind == "plain":
        return plain
    if kind == "runt":
        return plain[:2] + b"INT1"
    template = encode_template(plain, flow_id, response=response,
                               max_hops=max_hops)
    if kind == "stamped":
        return stamp(template, 7, 1, 2, latency=5)
    return template


def counters(network) -> tuple:
    return (network.dropped_hop_limit, network.dropped_link_down,
            network.forwarded_hops,
            {name: (network.device(name).opl.packets,
                    network.device(name).opl.drops,
                    dict(network.device(name).opl.counters))
             for name in network.device_names()})


def outcome(result, frame: bytes) -> tuple:
    """What one packet's injection shows — an :class:`InjectionResult`
    or the walk ``inject_batch`` replayed, whose ``None`` frames read
    as what went in."""
    deliveries = getattr(result, "deliveries", result)
    return ([(d.at, d.frame or frame, d.hops) for d in deliveries],
            result.dropped_hop_limit, result.dropped_link_down,
            tuple(result.link_down_sites), tuple(result.hop_limit_sites))


flows = st.fixed_dictionaries({
    "src": st.sampled_from(HOSTS),
    "dst": st.sampled_from(HOSTS),
    "flow_id": st.integers(0, 2**32 - 1),
    "response": st.booleans(),
    "size": st.integers(192, 1518),
    "max_hops": st.integers(1, 8),
    "kind": st.sampled_from(("int", "int", "int", "plain", "stamped",
                             "runt")),
})
steps = st.one_of(
    st.tuples(st.just("send"), flows, st.integers(0, 9), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("link"), st.integers(0, len(LINKS) - 1), st.booleans()),
)


class TestSharedIntWalks:
    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(steps, min_size=1, max_size=16))
    def test_abilene_with_frr_equals_the_walk_per_packet(self, script):
        """Through ``inject(int_seq=...)`` and through ``inject_batch``
        every delivery's bytes, the drop sites and the device counters
        equal a network that walks every packet."""
        fast, slow = abilene(), abilene(fastpath=False)
        for step in script:
            if step[0] == "link":
                a, _, b, _ = LINKS[step[1]]
                for topology in (fast, slow):
                    topology.network.set_link_state(a, b, step[2])
                continue
            _, flow, seq, count, batched = step
            frame = frame_of(fast, **flow)
            src = fast.hosts[flow["src"]]
            walk = (fast.network.inject_batch(src.device, src.port, frame,
                                              count) if batched else None)
            if walk is not None:
                for _ in range(count):
                    want = slow.network.inject(src.device, src.port, frame)
                assert outcome(walk, frame) == outcome(want, frame)
            else:
                got = fast.network.inject(src.device, src.port, frame,
                                          int_seq=seq)
                want = slow.network.inject(src.device, src.port, frame,
                                           int_seq=seq)
                assert outcome(got, frame) == outcome(want, frame)
            assert counters(fast.network) == counters(slow.network)

    def test_one_walk_per_host_pair_class(self):
        """Twenty INT flows of one pair in each direction: one walk
        each way, the rest derived."""
        fast, slow = abilene(), abilene(fastpath=False)
        src, dst = fast.hosts["h0"], fast.hosts["h9"]
        for flow_id in range(20):
            for entry, pair, response in ((src, ("h0", "h9"), False),
                                          (dst, ("h9", "h0"), True)):
                frame = frame_of(fast, *pair, flow_id, response=response,
                                 size=192 + 13 * flow_id)
                got = fast.network.inject(entry.device, entry.port, frame,
                                          int_seq=flow_id)
                want = slow.network.inject(entry.device, entry.port, frame,
                                           int_seq=flow_id)
                assert outcome(got, frame) == outcome(want, frame)
        assert counters(fast.network) == counters(slow.network)
        stats = fast.network.fastpath_stats()
        assert (stats["path_misses"], stats["path_shared"]) == (2, 38)


# ----------------------------------------------------------------------
# The collector, against the code it replaced
# ----------------------------------------------------------------------
class _ReferenceFlowDirState:
    """TX/RX ledger for one (flow_id, direction) stream."""

    __slots__ = ("sent", "received", "last_path", "last_seq")

    def __init__(self) -> None:
        #: seq -> (epoch, link_down_sites, hop_limit_sites)
        self.sent: dict[int, tuple[int, tuple, tuple]] = {}
        self.received: set[int] = set()
        #: device-name path of the highest delivered seq so far
        self.last_path: tuple[str, ...] = ()
        self.last_seq = -1


class ReferenceCollector(IntCollector):
    """The collector as it stood while every delivery was parsed and
    folded hop by hop and every sequence was a ledger entry, kept
    verbatim (its topology directory is the collector's own)."""

    def _state(self, flow_id: int, response: bool) -> _ReferenceFlowDirState:
        key = (flow_id, response)
        state = self._flows.get(key)
        if state is None:
            state = self._flows[key] = _ReferenceFlowDirState()
        return state

    def sent_batch(self, flow_id: int, response: bool, seqs,
                   epochs, result: Any) -> None:
        down_sites = tuple(getattr(result, "link_down_sites", ()))
        limit_sites = tuple(getattr(result, "hop_limit_sites", ()))
        sent = self._state(flow_id, response).sent
        for seq, epoch in zip(seqs, epochs):
            sent[seq] = (epoch, down_sites, limit_sites)

    def deliver(self, frame: bytes) -> None:
        stack = parse(frame)
        self._fold(stack, (stack.seq,))

    def deliver_batch(self, frame: bytes, seqs) -> None:
        if seqs:
            self._fold(parse(frame), seqs)

    def _fold(self, stack, seqs) -> None:
        n = len(seqs)
        state = self._state(stack.flow_id, stack.response)
        if stack.overflow:
            self.overflows += n
        self.stamps += len(stack.hops) * n
        path = []
        prev_ts = 0
        for hop in stack.hops:
            name = self._device_name(hop.device_id)
            path.append(name)
            self.hop_latency[f"{name}:{hop.timestamp - prev_ts}"] += n
            prev_ts = hop.timestamp
            if hop.rerouted:
                self.reroutes[name] += n
                for index in range(8):
                    if hop.dead_ports & (1 << index):
                        label = self._cables.get((name, index))
                        if label is not None:
                            self.reroute_links[label] += n
        self.paths[">".join(path)] += n
        top = max(seqs)
        if top >= state.last_seq:
            state.last_seq = top
            state.last_path = tuple(path)
        state.received.update(seqs)

    def summary(self) -> dict:
        lost = lost_link_down = lost_hop_limit = blackholes = 0
        drop_sites: Counter = Counter()
        blackhole_paths: Counter = Counter()
        loss_by_epoch: Counter = Counter()
        packets = delivered = 0
        for state in self._flows.values():
            packets += len(state.sent)
            delivered += len(state.received & set(state.sent))
            for seq, (epoch, down_sites, limit_sites) in state.sent.items():
                if seq in state.received:
                    continue
                lost += 1
                loss_by_epoch[str(epoch)] += 1
                if down_sites:
                    lost_link_down += 1
                    for device, port in down_sites:
                        drop_sites[f"{device}:{port}"] += 1
                elif limit_sites:
                    lost_hop_limit += 1
                    for device, port in limit_sites:
                        drop_sites[f"{device}:{port}"] += 1
                else:
                    blackholes += 1
                    blackhole_paths[">".join(state.last_path) or "?"] += 1
        return {
            "flows": len({flow_id for flow_id, _ in self._flows}),
            "packets": packets,
            "delivered": delivered,
            "stamps": self.stamps,
            "overflows": self.overflows,
            "lost": lost,
            "lost_link_down": lost_link_down,
            "lost_hop_limit": lost_hop_limit,
            "blackholes": blackholes,
            "reroutes": dict(sorted(self.reroutes.items())),
            "reroute_links": dict(sorted(self.reroute_links.items())),
            "paths": dict(sorted(self.paths.items())),
            "hop_latency": dict(sorted(self.hop_latency.items())),
            "drop_sites": dict(sorted(drop_sites.items())),
            "blackhole_paths": dict(sorted(blackhole_paths.items())),
            "loss_by_epoch": dict(sorted(loss_by_epoch.items())),
        }


class Sites:
    """An injection outcome's drop-site evidence, as the collector reads
    it off whatever it is handed."""

    def __init__(self, down=(), limit=()):
        self.link_down_sites, self.hop_limit_sites = down, limit


#: (device id, ingress, egress, latency, rerouted, dead ports) per hop.
hops = st.lists(st.tuples(
    st.integers(0, 12), st.integers(0, 3), st.integers(0, 3),
    st.integers(1, 40), st.booleans(), st.integers(0, 255)), max_size=10)


@st.composite
def stacks(draw) -> bytes:
    """A delivered INT frame: a template stamped hop by hop (a long
    path overflows a short stack)."""
    frame = frame_of(LAYOUT, "h0", "h9", draw(st.integers(0, 3)),
                     response=draw(st.booleans()),
                     max_hops=draw(st.integers(1, 8)))
    for device, ingress, egress, latency, rerouted, dead in draw(hops):
        frame = stamp(frame, device, ingress, egress, latency=latency,
                      rerouted=rerouted, dead_ports=dead)
    seq = draw(st.integers(0, 40))
    return frame[:-12] + seq.to_bytes(4, "big") + frame[-8:]


def turned_down(frame: bytes) -> list[bytes]:
    """The frame, and the frame with its hop count one lower over slots
    that stay filled (a stack no walk writes, but one that parses)."""
    if not frame[-8]:
        return [frame]
    return [frame, frame[:-8] + bytes((frame[-8] - 1,)) + frame[-7:]]


#: Runs of ascending sequences, gapless or not (the engine hands over
#: a ``range``, or a list once the wire lost some), that may overlap an
#: earlier run (a sequence sent twice) or be empty (the direction opens
#: and sends nothing), each with an epoch and drop sites.
runs = st.lists(st.tuples(
    st.integers(0, 3),                  # flow id
    st.booleans(),                      # response
    st.one_of(
        st.builds(range, st.integers(0, 30), st.integers(0, 36)),
        st.lists(st.integers(0, 36), unique=True, max_size=6).map(sorted)),
    st.integers(0, 3),                  # epoch at sequence 0 (one per 12)
    st.sampled_from((Sites(), Sites(down=(("atl", 0),)),
                     Sites(limit=(("dc", 1), ("dc", 2))))),
), max_size=12)


def ledgers(collector) -> dict:
    """Everything the collector books besides its summary."""
    return {
        "counters": (collector.stamps, collector.overflows,
                     collector.reroutes, collector.reroute_links,
                     collector.paths, collector.hop_latency),
        "flows": {key: (state.received, state.last_seq, state.last_path)
                  for key, state in collector._flows.items()},
    }


class TestCollectorOracle:
    @settings(max_examples=150, deadline=None)
    @given(deliveries=st.lists(st.tuples(stacks(), st.lists(
        st.integers(0, 40), max_size=5)), max_size=10))
    def test_each_stack_folds_as_it_parsed(self, deliveries):
        """``deliver_batch`` (and ``deliver``) along a memoized fold
        plan book what the per-delivery parse and fold booked."""
        got, want = IntCollector(LAYOUT.network), ReferenceCollector(
            LAYOUT.network)
        for stamped, seqs in deliveries:
            for frame in turned_down(stamped):
                for collector in (got, want):
                    collector.deliver_batch(frame, seqs)
                    collector.deliver(frame)
                assert ledgers(got) == ledgers(want)
        assert got.summary() == want.summary()

    @settings(max_examples=150, deadline=None)
    @given(sends=runs, delivered=st.lists(st.tuples(
        st.integers(0, 3), st.booleans(), st.integers(0, 36)), max_size=40))
    def test_the_run_ledger_sums_up_as_the_sequence_ledger(self, sends,
                                                           delivered):
        """Fully, partly and never received runs, sequences sent twice
        and flow directions that sent nothing all close as before."""
        got, want = IntCollector(LAYOUT.network), ReferenceCollector(
            LAYOUT.network)
        template = {(flow_id, response): frame_of(
            LAYOUT, "h0", "h9", flow_id, response=response)
            for flow_id in range(4) for response in (False, True)}
        for flow_id, response, seqs, epoch, sites in sends:
            for collector in (got, want):
                collector.sent_batch(flow_id, response, seqs,
                                     [epoch + i // 12 for i in seqs], sites)
        for flow_id, response, seq in delivered:
            frame = template[flow_id, response]
            for collector in (got, want):
                collector.deliver_batch(frame, (seq,))
        assert got.summary() == want.summary()

    def test_bad_frames_still_raise(self):
        collector = IntCollector(LAYOUT.network)
        good = frame_of(LAYOUT, "h0", "h9", 1)
        collector.deliver(good)  # a plan in the memo
        for bad in (b"", b"INT1", good[:-1], good[:40] + good[-16:],
                    good[:-6] + b"\x00" + good[-5:]):
            with pytest.raises(IntError):
                collector.deliver(bad)
            with pytest.raises(IntError):
                collector.deliver_batch(bad, (1, 2))
        collector.deliver_batch(b"not int", ())  # nothing to fold


# ----------------------------------------------------------------------
# Named mutants: the smallest case on which each wrong version differs
# ----------------------------------------------------------------------
class TestNamedMutants:
    def _both(self, frames, entry="h0"):
        fast, slow = abilene(), abilene(fastpath=False)
        src = fast.hosts[entry]
        for frame in frames:
            got = fast.network.inject(src.device, src.port, frame)
            want = slow.network.inject(src.device, src.port, frame)
            assert outcome(got, frame) == outcome(want, frame)
        return fast.network

    def test_a_response_keeps_its_own_direction_bit(self):
        """Mutant: the splice copies the recorded flags byte whole."""
        net = self._both([frame_of(LAYOUT, "h0", "h9", 1),
                          frame_of(LAYOUT, "h0", "h9", 2,
                                   response=True)])
        assert net.path_shared == 1

    def test_a_stamped_frame_takes_no_unstamped_walk(self):
        """Mutant: ``_int_region`` accepts ``hop_count > 0``."""
        template = frame_of(LAYOUT, "h0", "h9", 1)
        self._both([template, frame_of(LAYOUT, "h0", "h9", 2,
                                       kind="stamped"), template])

    def test_stack_depths_and_plain_frames_keep_their_own_classes(self):
        """Mutant: the INT class key omits ``max_hops``."""
        self._both([frame_of(LAYOUT, "h0", "h9", 1, max_hops=8),
                    frame_of(LAYOUT, "h0", "h9", 2, max_hops=1),
                    frame_of(LAYOUT, "h0", "h9", 3, kind="plain")])

    def test_a_plan_is_keyed_by_the_hop_count(self):
        """Mutant: the fold-plan key omits the hop-count byte."""
        frame = frame_of(LAYOUT, "h0", "h9", 1)
        for device in (1, 2):
            frame = stamp(frame, device, 0, 1, latency=3)
        shorter = frame[:-8] + b"\x01" + frame[-7:]  # slot 1 stays filled
        got, want = IntCollector(LAYOUT.network), ReferenceCollector(
            LAYOUT.network)
        for collector in (got, want):
            collector.deliver(frame)
            collector.deliver(shorter)
        assert got.summary() == want.summary()

    def test_a_partly_received_run_is_walked(self):
        """Mutant: the ledger's fast path compares lengths instead of
        testing for a superset."""
        got, want = IntCollector(LAYOUT.network), ReferenceCollector(
            LAYOUT.network)
        frame = frame_of(LAYOUT, "h0", "h9", 1)
        for collector in (got, want):
            collector.sent_batch(1, False, range(0, 4), [0] * 4, Sites())
            collector.sent_batch(1, False, range(4, 8), [1] * 4, Sites())
            collector.deliver_batch(frame, range(0, 6))
        assert got.summary() == want.summary()
        assert got.summary()["lost"] == 2
