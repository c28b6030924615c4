"""Receiver-side INT collection: paths, reroutes, blackholes, latency.

The :class:`IntCollector` is the *receiver-centric* half of S24 — it
never reads a device counter.  The scheduler shows it two things per
run of INT packets: the transmit record (flow, direction, sequences,
the run's clock and the injection's drop-site evidence) and every
delivered frame.  From the stamps alone it reconstructs per-flow paths,
attributes reroutes to the failed link (the FRR-flagged hop names the
rerouting device; its ``dead_ports`` mask names the dead cable),
measures per-hop latency from the timestamp deltas, and detects loss
from sequence gaps — packets that were sent but whose stamps never
arrived.

Missing sequences split three ways: drops the network localized on the
wire (``link_down`` / hop-limit drop sites, satellite of this PR) are
counted at their ``device:port`` site; everything else is a
**blackhole** — the packet entered the fabric and no edge ever saw it.
Blackholes are localized only with flow-local evidence (the flow's own
last delivered stamp path), never with run-global state: per-flow
results must not depend on which other flows shared the shard, or the
shard-count fingerprint identity would break.

Every summary field is an integer or a string-keyed counter dict, so
shard summaries Counter-merge (:func:`merge_int_summaries`) into
exactly the single-shard summary — the same merge contract as the rest
of the :class:`~repro.fabric.scheduler.FabricReport`.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from typing import Any, Optional

from repro.int.codec import HEADER_BYTES, HOP_BYTES, IntError, parse

#: Ticks per link-flap epoch: a flapped (host, epoch) pair is down for
#: this whole window, mirroring the soak harness's epoch granularity.
#: Loss is booked by epoch here and in the fabric scheduler.
FLAP_EPOCH_TICKS = 32


def epoch_chunks(clock: tuple, seqs) -> list[tuple[int, int]]:
    """``[(epoch, count)]``, epochs ascending, of the ascending
    sequences ``seqs`` of a run whose ``clock`` is ``(tick, seq, gap)``:
    sequence ``s`` leaves at ``tick + (s - seq) * gap``.  A ``range`` is
    cut by arithmetic, one step per epoch chunk; a list is counted."""
    tick, seq, gap = clock
    if type(seqs) is not range or seqs.step != 1:
        return list(Counter([(tick + (s - seq) * gap) // FLAP_EPOCH_TICKS
                             for s in seqs]).items())
    chunks, s, stop = [], seqs.start, seqs.stop
    while s < stop:
        epoch = (tick + (s - seq) * gap) // FLAP_EPOCH_TICKS
        # The first sequence past this epoch, clamped without a min()
        # call per chunk.
        end = (seq + ((epoch + 1) * FLAP_EPOCH_TICKS - tick - 1) // gap + 1
               if gap else stop)
        chunks.append((epoch, (end if end < stop else stop) - s))
        s = end
    return chunks


def merge_int_summaries(parts: list[Optional[dict]]) -> Optional[dict]:
    """Fold per-shard INT summaries; ``None`` parts are empty shards.

    Pure integer/Counter sums over disjoint flow sets, so merging N
    shard summaries reproduces the 1-shard summary byte-for-byte.
    """
    present = [part for part in parts if part is not None]
    if not present:
        return None
    ints: Counter = Counter()
    dicts: dict[str, Counter] = {}
    for part in present:
        for key, value in part.items():
            if isinstance(value, dict):
                dicts.setdefault(key, Counter()).update(value)
            else:
                ints[key] += value
    out: dict[str, Any] = {key: ints[key] for key in ints}
    for key, counter in dicts.items():
        out[key] = dict(sorted(counter.items()))
    # A key absent from every part stays absent; a key present anywhere
    # must appear (possibly zero-summed) so merges are shape-stable.
    return dict(sorted(out.items()))


class _FlowDirState:
    """TX/RX ledger for one (flow_id, direction) stream.

    The TX side is kept by run, as the engine sends: one ``(seqs,
    clock, sites)`` entry per :meth:`IntCollector.sent_run` call, the
    ``clock`` the run's ``(tick, seq, gap)`` (see :func:`epoch_chunks`)
    and ``sites`` its shared ``(link_down_sites, hop_limit_sites)``.
    While every run starts above the high-water mark ``top``, no
    sequence was sent twice and ``count`` is the sequences sent;
    ``count`` is ``None`` once a run went back, and the summary then
    keeps each sequence's last send.
    """

    __slots__ = ("runs", "count", "top", "received", "last_path",
                 "last_seq")

    def __init__(self) -> None:
        self.runs: list[tuple] = []
        self.count: Optional[int] = 0
        self.top = -1
        self.received: set[int] = set()
        #: device-name path of the highest delivered seq so far
        self.last_path: tuple[str, ...] = ()
        self.last_seq = -1


class IntCollector:
    """Parses stamps on delivery and folds them into a mergeable summary.

    ``network`` supplies the device directory (INT device id → name) and
    the cable map used to turn a rerouting device's dead-port mask into
    a failed-link label.  Both are pure functions of the topology, so
    every shard replica resolves identically.

    A stamp stack is parsed once: everything a delivery books that the
    stamps decide is a *fold plan*, memoized on the trailer less its
    flow id and sequence (the slots, the hop-count, flags and
    ``max_hops`` bytes and the magic), so one plan serves every flow
    and packet that took the same path.
    """

    def __init__(self, network: Any):
        self._names: dict[int, str] = network.int_directory()
        #: (device, port) -> "a~b" failed-cable label
        self._cables: dict[tuple[str, int], str] = {}
        for device in network.device_names():
            for port, (peer, _) in network.neighbors(device).items():
                self._cables[(device, port)] = "~".join(sorted((device, peer)))
        self._flows: dict[tuple[int, bool], _FlowDirState] = {}
        #: What :meth:`close` folded: the summary's loss books and the
        #: count of flows they came from.
        self._closed = _books()
        #: stack bytes -> (path label, path, latency labels, rerouting
        #: devices, rerouted links, stamps, overflow, response)
        self._plans: dict[tuple[bytes, bytes], tuple] = {}
        self.stamps = 0
        self.overflows = 0
        self.reroutes: Counter = Counter()        # device name
        self.reroute_links: Counter = Counter()   # "a~b"
        self.paths: Counter = Counter()           # "s0>s1>s2"
        self.hop_latency: Counter = Counter()     # "device:cycles"

    # ------------------------------------------------------------------
    def _device_name(self, device_id: int) -> str:
        return self._names.get(device_id, f"dev{device_id}")

    def _state(self, flow_id: int, response: bool) -> _FlowDirState:
        key = (flow_id, response)
        state = self._flows.get(key)
        if state is None:
            state = self._flows[key] = _FlowDirState()
        return state

    def _plan(self, frame: bytes, key: tuple[bytes, bytes]) -> tuple:
        """Parse a stamp stack not seen before into its fold plan."""
        stack = parse(frame)  # a frame with no (sound) trailer raises
        path, labels, reroutes, links = [], [], [], []
        prev_ts = 0
        for hop in stack.hops:
            name = self._device_name(hop.device_id)
            path.append(name)
            labels.append(f"{name}:{hop.timestamp - prev_ts}")
            prev_ts = hop.timestamp
            if hop.rerouted:
                reroutes.append(name)
                for index in range(8):
                    if hop.dead_ports & (1 << index):
                        label = self._cables.get((name, index))
                        if label is not None:
                            links.append(label)
        plan = self._plans[key] = (
            ">".join(path), tuple(path), labels, reroutes, links,
            len(stack.hops), stack.overflow, stack.response)
        return plan

    # ------------------------------------------------------------------
    # Observation points (the scheduler's two calls per INT packet)
    # ------------------------------------------------------------------
    def sent(self, flow_id: int, response: bool, seq: int, epoch: int,
             result: Any) -> None:
        """Record one transmitted packet and its injection's drop sites."""
        self.sent_batch(flow_id, response, (seq,), (epoch,), result)

    def sent_batch(self, flow_id: int, response: bool, seqs,
                   epochs, result: Any) -> None:
        """Record ascending ``seqs`` sharing ``result``'s drop sites,
        sequence ``seqs[i]`` sent in epoch ``epochs[i]``: one
        :meth:`sent_run` per stretch of one epoch."""
        sites = (tuple(getattr(result, "link_down_sites", ())),
                 tuple(getattr(result, "hop_limit_sites", ())))
        self._state(flow_id, response)  # a direction that sent nothing
        for epoch, run in groupby(zip(seqs, epochs), lambda pair: pair[1]):
            self.sent_run(flow_id, response, [seq for seq, _ in run],
                          (epoch * FLAP_EPOCH_TICKS, 0, 0), *sites)

    def sent_run(self, flow_id: int, response: bool, seqs, clock: tuple,
                 link_down_sites: tuple, hop_limit_sites: tuple) -> None:
        """Record a coalesced run of transmitted packets (S27).

        All ``seqs`` (ascending, as a flow direction sends them) share
        one injection outcome (the coalescing eligibility contract), so
        each gets the same drop-site evidence; a run may span flap
        epochs, which its ``clock`` ``(tick, seq, gap)`` tells per
        sequence (:func:`epoch_chunks`).  The run is one ledger entry.
        """
        state = self._state(flow_id, response)
        if not seqs:
            return
        state.runs.append((seqs, clock, (link_down_sites, hop_limit_sites)))
        if state.count is not None:
            if seqs[0] > state.top:
                state.count += len(seqs)
                state.top = seqs[-1]
            else:
                state.count = None  # sent again: the last send stands

    def deliver(self, frame: bytes) -> None:
        """Parse one delivered frame's stamps into the ledgers."""
        self.deliver_batch(frame, (int.from_bytes(frame[-12:-8], "big"),))

    def deliver_batch(self, frame: bytes, seqs) -> None:
        """Fold a coalesced run of deliveries of one stamped template.

        A run delivers ``len(seqs)`` packets that differ only in the
        4-byte sequence field, and no counter here is
        sequence-dependent, so every stamp-derived counter moves by
        ``len(seqs)`` at once along the stack's fold plan — parsed the
        first time the stack is seen — byte-identical to
        :meth:`deliver` per packet with the sequence substituted.  The
        flow id and direction come from the trailer header.
        """
        if not seqs:
            return
        try:
            key = (frame[-HEADER_BYTES - HOP_BYTES * frame[-6]:-HEADER_BYTES],
                   frame[-8:])
        except IndexError:
            raise IntError("frame carries no INT trailer") from None
        plan = self._plans.get(key) or self._plan(frame, key)
        n = len(seqs)
        path, hops, labels, reroutes, links, stamps, overflow, response = plan
        state = self._state(int.from_bytes(frame[-16:-12], "big"), response)
        self.stamps += stamps * n
        if overflow:
            self.overflows += n
        hop_latency = self.hop_latency
        for label in labels:
            hop_latency[label] += n
        for name in reroutes:
            self.reroutes[name] += n
        for label in links:
            self.reroute_links[label] += n
        self.paths[path] += n
        top = max(seqs)
        if top >= state.last_seq:
            state.last_seq = top
            state.last_path = hops
        state.received.update(seqs)

    # ------------------------------------------------------------------
    def close(self, flow_id: int) -> None:
        """Fold a finished flow's two ledgers into the closed books and
        free them.  The flow must send and receive nothing more: a
        ledger closed is booked as it stands, so :meth:`summary` reads
        the same whether, and in which order, flows were closed."""
        flows = self._flows
        request = flows.pop((flow_id, False), None)
        response = flows.pop((flow_id, True), None)
        if request is not None or response is not None:
            self._closed["flows"] += 1
            _fold((request, response), self._closed)

    def summary(self) -> dict:
        """The closed books plus every ledger still open, each missing
        sequence attributed.

        Returns the flat, Counter-mergeable summary dict the
        :class:`~repro.fabric.scheduler.FabricReport` carries; open
        ledgers stay open, so a mid-run summary changes nothing.
        """
        books = {key: value.copy() if isinstance(value, Counter) else value
                 for key, value in self._closed.items()}
        books["flows"] += len({flow_id for flow_id, _ in self._flows})
        _fold(self._flows.values(), books)
        return {
            "flows": books["flows"],
            "packets": books["packets"],
            "delivered": books["delivered"],
            "stamps": self.stamps,
            "overflows": self.overflows,
            "lost": books["lost"],
            "lost_link_down": books["lost_link_down"],
            "lost_hop_limit": books["lost_hop_limit"],
            "blackholes": books["blackholes"],
            "reroutes": dict(sorted(self.reroutes.items())),
            "reroute_links": dict(sorted(self.reroute_links.items())),
            "paths": dict(sorted(self.paths.items())),
            "hop_latency": dict(sorted(self.hop_latency.items())),
            "drop_sites": dict(sorted(books["drop_sites"].items())),
            "blackhole_paths": dict(sorted(books["blackhole_paths"].items())),
            "loss_by_epoch": dict(sorted(books["loss_by_epoch"].items())),
        }


def _books() -> dict:
    """Empty books for :func:`_fold`: the summary's per-ledger counts
    and attribution counters."""
    return {"flows": 0, "packets": 0, "delivered": 0, "lost": 0,
            "lost_link_down": 0, "lost_hop_limit": 0, "blackholes": 0,
            "drop_sites": Counter(), "blackhole_paths": Counter(),
            "loss_by_epoch": Counter()}


def _fold(states, books: dict) -> None:
    """Book ``states``' ledgers (``None`` entries skipped) into
    ``books``: packets sent, delivered, and every missing sequence
    attributed to its drop sites or as a blackhole."""
    lost = lost_link_down = lost_hop_limit = blackholes = 0
    drop_sites = books["drop_sites"]
    blackhole_paths = books["blackhole_paths"]
    loss_by_epoch = books["loss_by_epoch"]
    packets = delivered = 0
    for state in states:
        if state is None:
            continue
        received, runs = state.received, state.runs
        if state.count is None:  # a sequence sent twice: its last send
            last = {}
            for seqs, clock, sites in runs:
                for seq in seqs:
                    last[seq] = (clock, sites)
            runs = [((seq,), clock, sites)
                    for seq, (clock, sites) in last.items()]
            packets += len(last)
        else:
            packets += state.count
        for seqs, clock, (down_sites, limit_sites) in runs:
            n = len(seqs)
            if received.issuperset(seqs):
                delivered += n
                continue
            if not received.isdisjoint(seqs):
                seqs = [seq for seq in seqs if seq not in received]
                delivered += n - len(seqs)
                n = len(seqs)
            lost += n
            for epoch, count in epoch_chunks(clock, seqs):
                loss_by_epoch[str(epoch)] += count
            if down_sites:
                lost_link_down += n
                for device, port in down_sites:
                    drop_sites[f"{device}:{port}"] += n
            elif limit_sites:
                lost_hop_limit += n
                for device, port in limit_sites:
                    drop_sites[f"{device}:{port}"] += n
            else:
                blackholes += n
                blackhole_paths[">".join(state.last_path) or "?"] += n
    books["packets"] += packets
    books["delivered"] += delivered
    books["lost"] += lost
    books["lost_link_down"] += lost_link_down
    books["lost_hop_limit"] += lost_hop_limit
    books["blackholes"] += blackholes
