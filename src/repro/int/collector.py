"""Receiver-side INT collection: paths, reroutes, blackholes, latency.

The :class:`IntCollector` is the *receiver-centric* half of S24 — it
never reads a device counter.  The scheduler shows it two things per
INT packet: the transmit record (flow, direction, sequence, epoch, and
the injection's drop-site evidence) and every delivered frame.  From
the stamps alone it reconstructs per-flow paths, attributes reroutes to
the failed link (the FRR-flagged hop names the rerouting device; its
``dead_ports`` mask names the dead cable), measures per-hop latency
from the timestamp deltas, and detects loss from sequence gaps —
packets that were sent but whose stamps never arrived.

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
from typing import Any, Optional

from repro.int.codec import parse


def _merge_counter(total: Counter, part: dict) -> None:
    for key, value in part.items():
        total[key] += value


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
                _merge_counter(dicts.setdefault(key, Counter()), value)
            else:
                ints[key] += value
    out: dict[str, Any] = {key: ints[key] for key in ints}
    for key, counter in dicts.items():
        out[key] = dict(sorted(counter.items()))
    # A key absent from every part stays absent; a key present anywhere
    # must appear (possibly zero-summed) so merges are shape-stable.
    return dict(sorted(out.items()))


class _FlowDirState:
    """TX/RX ledger for one (flow_id, direction) stream."""

    __slots__ = ("sent", "received", "last_path", "last_seq")

    def __init__(self) -> None:
        #: seq -> (epoch, link_down_sites, hop_limit_sites)
        self.sent: dict[int, tuple[int, tuple, tuple]] = {}
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
    """

    def __init__(self, network: Any):
        self._names: dict[int, str] = network.int_directory()
        #: (device, port) -> "a~b" failed-cable label
        self._cables: dict[tuple[str, int], str] = {}
        for device in network.device_names():
            for port, (peer, _) in network.neighbors(device).items():
                self._cables[(device, port)] = "~".join(sorted((device, peer)))
        self._flows: dict[tuple[int, bool], _FlowDirState] = {}
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

    # ------------------------------------------------------------------
    # Observation points (the scheduler's two calls per INT packet)
    # ------------------------------------------------------------------
    def sent(self, flow_id: int, response: bool, seq: int, epoch: int,
             result: Any) -> None:
        """Record one transmitted packet and its injection's drop sites."""
        self.sent_batch(flow_id, response, (seq,), (epoch,), result)

    def sent_batch(self, flow_id: int, response: bool, seqs,
                   epochs, result: Any) -> None:
        """Record a coalesced run of transmitted packets (S27).

        All ``seqs`` share one injection outcome (the coalescing
        eligibility contract), so each gets the same drop-site evidence
        — but a run may span flap epochs, so ``epochs`` carries one
        entry per sequence.
        """
        down_sites = tuple(getattr(result, "link_down_sites", ()))
        limit_sites = tuple(getattr(result, "hop_limit_sites", ()))
        sent = self._state(flow_id, response).sent
        for seq, epoch in zip(seqs, epochs):
            sent[seq] = (epoch, down_sites, limit_sites)

    def deliver(self, frame: bytes) -> None:
        """Parse one delivered frame's stamps into the ledgers."""
        stack = parse(frame)
        self._fold(stack, (stack.seq,))

    def deliver_batch(self, frame: bytes, seqs) -> None:
        """Fold a coalesced run of deliveries of one stamped template.

        A run delivers ``len(seqs)`` packets that differ only in the
        4-byte sequence field, so the stamps parse once and every
        stamp-derived counter moves by ``len(seqs)`` — byte-identical
        to :meth:`deliver` per packet with the sequence substituted,
        since no counter here is sequence-dependent.
        """
        if seqs:
            self._fold(parse(frame), seqs)

    def _fold(self, stack, seqs) -> None:
        """Book one parsed stamp stack as delivered once per sequence."""
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

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Close the ledgers: attribute every missing sequence.

        Returns the flat, Counter-mergeable summary dict the
        :class:`~repro.fabric.scheduler.FabricReport` carries.
        """
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
