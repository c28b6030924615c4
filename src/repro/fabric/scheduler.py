"""Deterministic concurrent flow scheduler and the fabric run report.

:func:`run_flows` carries a workload's flows across a built fabric with
thousands of flows in flight at once, interleaved in seeded round-robin
order — and yet every per-flow outcome is a *pure function* of
``(topology, workload, seed)``, independent of the interleaving.  Three
ingredients make that true:

* the fabric's switches are statically programmed (``learning=False``
  plus :meth:`FabricTopology.learn`), so forwarding one flow's frames
  never changes the state another flow's frames see;
* every flow opens its own fault session, the one
  ``plan.derived("fabric", flow_id)`` opens — independent decision
  streams, not a shared sequential RNG that interleaving would reorder;
* link state is a pure function of the epoch, not a stateful
  schedule: edge flaps are drawn per ``(host, epoch)`` and cable cuts
  per ``(link, epoch)`` from derived seeds, beside the scripted
  windows, and one timeline answers all three.

Because outcomes are order-independent, the *same* code path can run a
subset of flows (``flow_filter``) in a worker process and the merged
results are byte-identical to the single-process run — the contract the
sharded executor (:mod:`repro.fabric.shard`) and its fingerprint test
rest on.

The interleaving itself is still real: per-packet events are ordered
``(tick, rr, flow_id, …)`` where ``rr`` is a seeded per-flow hash, so
packets of concurrent flows alternate rather than running flow-by-flow.
Each flow's own events are already sorted by that key, so the stepping
heap holds one entry per live flow — a k-way merge over per-flow
cursors.  :meth:`FlowEngine.run` needs no heap: it walks the link
timeline's steady intervals in order and carries every cursor due in
one before the timeline moves on, which no packet's tick can tell.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha256
from itertools import chain
from typing import Callable, Optional

from repro.fabric.topo import FabricTopology
from repro.fabric.workload import Flow, WorkloadSpec, generate_flows
from repro.faults import FaultPlan, FaultSession, seed_stream
from repro.int import (
    FLAP_EPOCH_TICKS, INT_MIN_FRAME_SIZE, IntCollector, encode_template,
    epoch_chunks)
from repro.packet.generator import make_udp_frame, retarget_udp_frame

#: Base UDP ports; the flow id is folded in so captures stay tellable.
_SPORT_BASE = 40000
_DPORT_BASE = 50000


#: The :class:`FlowRecord` fields that count an attempted packet lost —
#: the one list every total, table and telemetry series is derived from.
LOSS_FIELDS = ("lost_wire", "lost_flap", "lost_link", "blackholed",
               "dropped_hop_limit")


@dataclass
class FlowRecord:
    """Everything one flow did, in merge-friendly integer form."""

    flow_id: int
    src: str
    dst: str
    attempted: int = 0
    delivered: int = 0
    lost_wire: int = 0
    lost_flap: int = 0
    lost_link: int = 0
    blackholed: int = 0
    dropped_hop_limit: int = 0
    misdelivered: int = 0
    retransmits: int = 0
    bytes_delivered: int = 0
    hops_total: int = 0
    hops_max: int = 0

    def signature(self) -> tuple:
        """The flow's contribution to the run fingerprint."""
        return (
            self.flow_id, self.src, self.dst, self.attempted,
            self.delivered, self.lost_wire, self.lost_flap,
            self.lost_link, self.blackholed, self.dropped_hop_limit,
            self.misdelivered, self.retransmits, self.bytes_delivered,
            self.hops_total, self.hops_max,
        )

    def as_dict(self) -> dict:
        """Every field by name: ``FlowRecord(**record.as_dict())`` is
        the round trip checkpoints rely on."""
        return dict(vars(self))


@dataclass
class FabricReport:
    """The outcome of one fabric run (or one shard of it).

    The :meth:`fingerprint` covers only order-independent observables —
    per-flow records, per-device forwarded totals, fault counters and
    the hop histogram — never ``shards``, the execution options or
    wall-clock time, so the same ``(topology, workload, seed)``
    fingerprints identically no matter how the run was parallelised.
    """

    topology: str
    workload: str
    seed: int
    plan: Optional[str] = None
    records: list[FlowRecord] = field(default_factory=list)
    device_forwarded: dict[str, int] = field(default_factory=dict)
    fault_counters: dict[str, int] = field(default_factory=dict)
    hops_hist: dict[int, int] = field(default_factory=dict)
    #: Fast-reroute observables: failure-attributable losses per
    #: scheduler epoch and per-device reroute/blackhole counts.  All
    #: order-independent, so all part of the signature.
    loss_by_epoch: dict[int, int] = field(default_factory=dict)
    device_reroutes: dict[str, int] = field(default_factory=dict)
    device_blackholed: dict[str, int] = field(default_factory=dict)
    shards: int = 1
    elapsed_s: float = 0.0
    #: Flow-cache statistics (hits/misses/... per cache layer): what
    #: this run's engines moved on their replicas.  Like ``shards`` and
    #: ``elapsed_s`` these are *operational* data, not observables: hit
    #: counts depend on how the run was partitioned across workers
    #: (each worker's replica starts cold), so they stay out of
    #: :meth:`signature` and the fingerprint.
    fastpath: dict[str, int] = field(default_factory=dict)
    #: Receiver-side INT summary (:meth:`repro.int.IntCollector.summary`)
    #: when any carried flow was INT-enabled, else ``None``.  Pure
    #: Counter sums over disjoint flows, so it IS an observable: it
    #: joins the signature, and shard merges reproduce it exactly.
    int_summary: Optional[dict] = None
    #: The :class:`RunConfig` the run executed under.  Carried whole and
    #: outside :meth:`signature` (which reads only its two outcome-moving
    #: members, ``frr`` and the link schedule's key — the fingerprint
    #: must stay invariant to *how* a run was executed), but
    #: ``merge_reports`` head-checks it so shards of different
    #: invocations can never silently merge.
    config: RunConfig = field(default_factory=lambda: RunConfig())
    #: Counted-replay statistics (walks stored, packets replayed,
    #: invalidation splits, coalesced segments), again what this run's
    #: engines moved.  Operational like ``fastpath`` — segment shapes
    #: and warm starts depend on partitioning — so they are
    #: Counter-merged across shards and stay out of the signature.
    batch: dict[str, int] = field(default_factory=dict)
    #: The supervised executor's ledger (attempts, retries, inline
    #: fallbacks, checkpoint hits …) for the merged run.  Operational
    #: data like ``fastpath``: it describes how the run survived, not
    #: what it computed, so it stays out of :meth:`signature`.
    supervision: dict[str, int] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------
    def _total(self, name: str) -> int:
        return sum(getattr(r, name) for r in self.records)

    @property
    def attempted(self) -> int:
        return self._total("attempted")

    @property
    def delivered(self) -> int:
        return self._total("delivered")

    @property
    def lost(self) -> int:
        return sum(self._total(name) for name in LOSS_FIELDS)

    @property
    def misdelivered(self) -> int:
        return self._total("misdelivered")

    @property
    def packets_per_second(self) -> float:
        return self.attempted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def healthy(self) -> bool:
        """No silent failures: nothing blackholed or misdelivered.

        Fault-plan losses (wire, flap, hop limit) are *accounted*
        losses, not health failures.
        """
        return self._total("blackholed") == 0 and self.misdelivered == 0

    # -- the determinism contract --------------------------------------
    def signature(self) -> dict:
        schedule = self.config.link_schedule
        return {
            "topology": self.topology,
            "workload": self.workload,
            "seed": self.seed,
            "plan": self.plan,
            "flows": [r.signature() for r in
                      sorted(self.records, key=lambda r: r.flow_id)],
            "device_forwarded": dict(sorted(self.device_forwarded.items())),
            "fault_counters": dict(sorted(self.fault_counters.items())),
            "hops_hist": {str(k): v for k, v in
                          sorted(self.hops_hist.items())},
            "frr": self.config.frr,
            "link_schedule": schedule.key if schedule is not None else None,
            "loss_by_epoch": {str(k): v for k, v in
                              sorted(self.loss_by_epoch.items())},
            "device_reroutes": dict(sorted(self.device_reroutes.items())),
            "device_blackholed": dict(sorted(self.device_blackholed.items())),
            "int": self.int_summary,
        }

    def fingerprint(self) -> str:
        canon = json.dumps(self.signature(), sort_keys=True,
                           separators=(",", ":"))
        return sha256(canon.encode()).hexdigest()

    def as_dict(self, per_flow: bool = False) -> dict:
        observables = self.signature()
        del observables["flows"]  # reported as a count; per_flow lists them
        out = {
            **observables,
            "shards": self.shards,
            "flows": len(self.records),
            "attempted": self.attempted,
            "delivered": self.delivered,
            **{name: self._total(name) for name in LOSS_FIELDS},
            "misdelivered": self.misdelivered,
            "retransmits": self._total("retransmits"),
            "bytes_delivered": self._total("bytes_delivered"),
            "elapsed_s": round(self.elapsed_s, 6),
            "packets_per_second": round(self.packets_per_second, 1),
            "healthy": self.healthy(),
            "fingerprint": self.fingerprint(),
            "fastpath": dict(sorted(self.fastpath.items())),
            "batch": dict(sorted(self.batch.items())),
            "supervision": dict(sorted(self.supervision.items())),
        }
        if per_flow:
            out["per_flow"] = [r.as_dict() for r in
                               sorted(self.records, key=lambda r: r.flow_id)]
        return out


# ----------------------------------------------------------------------
# Fabric link state: scripted windows and seeded cuts, both pure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkSchedule:
    """Scripted switch-switch link failures, in scheduler epochs.

    Each event is ``(device_a, device_b, down_epoch, up_epoch)``: the
    cable between the devices is dark for epochs in
    ``[down_epoch, up_epoch)``.  A pure description — the E19 sweep
    scripts exactly one failure window per swept link.
    """

    events: tuple[tuple[str, str, int, int], ...] = ()

    @property
    def key(self) -> str:
        """Canonical identity string, part of the run fingerprint."""
        return ";".join(f"{a}~{b}[{d},{u})" for a, b, d, u in self.events)


@dataclass(frozen=True)
class RunConfig:
    """The options of one fabric run — the only form they travel in.

    Everything here is picklable and decided by the caller; whoever
    carries a run onward (shard jobs, the supervisor, the checkpoint
    identity, the report) hands over the config whole, and
    :class:`FlowEngine` is the one place its fields are read.  Not
    options: ``plan``, ``flows`` and ``shards`` travel beside
    ``(spec, workload)`` as the run's *identity*; ``flow_filter`` is
    per-engine and unpicklable.

    Only ``frr``, ``link_schedule`` and ``int_all`` can move an outcome;
    ``fastpath`` and ``batch`` never do — with ``fastpath=False,
    batch=False`` a run is the per-packet reference every other
    combination must fingerprint identically to.
    """

    #: ``False`` turns the network's path cache off — the A/B switch;
    #: only ``report.fastpath`` and the wall clock move.
    fastpath: bool = True
    #: ``False`` turns coalesced dispatch (a flow's consecutive packets
    #: carried as one run: wire outcomes pre-drawn, survivors replayed
    #: through ``inject_batch``) off — the per-packet reference, set
    #: only by tests and the benchmark's reference runs (no CLI option);
    #: only ``report.batch`` and the wall clock move.
    batch: bool = True
    #: Install the precomputed loop-free backup next-hops after
    #: :meth:`~repro.fabric.topo.FabricTopology.learn`.
    frr: bool = False
    #: Scripted switch-switch link-failure windows; the seeded
    #: ``link_down`` fault sites (``plan.link_state``) cut cables the
    #: same way, drawn per (link, epoch).
    link_schedule: Optional[LinkSchedule] = None
    #: Upgrade every carried flow to INT whatever the workload's
    #: ``int_ratio`` (the ``nf-mon int`` switch).  Whenever any carried
    #: flow is INT-enabled an :class:`~repro.int.IntCollector` rides
    #: the run and the report carries its receiver-side summary.
    int_all: bool = False

    def as_dict(self) -> dict:
        """The canonical JSON-safe form (the link schedule as its
        events) that :meth:`from_dict` inverts exactly."""
        schedule = self.link_schedule
        events = (None if schedule is None
                  else [list(event) for event in schedule.events])
        return {**vars(self), "link_schedule": events}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        events = data["link_schedule"]
        schedule = (None if events is None
                    else LinkSchedule(tuple(tuple(e) for e in events)))
        return cls(**{**data, "link_schedule": schedule})


class _LinkTimeline:
    """A run's link state over time: edge flaps, scripted windows and
    seeded cable cuts, each a pure function of the epoch.

    Edge flaps are drawn once per ``(host, epoch)`` (:meth:`flap`, the
    sender's question) and seeded cuts once per ``(link, epoch)`` from
    the ``link_down``/``link_up`` fault sites, a firing cut staying
    dark for a drawn number of epochs — each from its own derived seed,
    so no answer depends on which flow asked first or how the run was
    sharded.  The schedule's windows are folded once, per canonical
    cable pair and for the whole schedule, into sorted *flips*: the
    epochs where a window opens or closes.  Nothing is expanded per
    epoch.  Every scheduled pair must be cabled: a bad schedule is a
    :class:`~repro.testenv.topology.TopologyError` here, before any
    packet moves.

    A walk's outcome holds until a cable it read flips, so under a
    schedule alone a span ends at :meth:`reach`, the walk's own next
    edge, not at the next flip on any scheduled cable.
    """

    def __init__(self, plan: Optional[FaultPlan],
                 schedule: Optional[LinkSchedule], network):
        self._plan = plan
        self._net = network
        ctrl, cuts = ((plan.ctrl, plan.link_state) if plan is not None
                      else (None, None))
        #: Whether :meth:`flap` may answer True.
        self.flapping = ctrl is not None and ctrl.flap_rate > 0
        self._cut_spec = (cuts if cuts is not None and cuts.down_rate > 0
                          else None)
        self._flaps: dict[tuple[str, int], bool] = {}
        self._cuts: dict[tuple[str, str, int], int] = {}
        #: Per set of cables :meth:`reach` was asked about, their flips.
        self._edges: dict[frozenset, list[int]] = {}
        #: The cable pairs this run may move (empty: none), each with
        #: its windows' sorted starts and sorted ends: the windows that
        #: hold the cable dark at an epoch are the starts at or before
        #: it less the ends at or before it.
        self.pairs: dict[tuple[str, str], tuple[list, list]] = {}
        flips = set()
        for a, b, start, end in schedule.events if schedule else ():
            network.link_is_up(a, b)  # TopologyError unless a cable joins them
            starts, ends = self.pairs.setdefault(
                tuple(sorted((a, b))), ([], []))
            if start < end:  # an empty window never opens
                insort(starts, start)
                insort(ends, end)
                flips.update((start, end))
        self._flips = sorted(flips)
        for a, b in network.links() if self._cut_spec is not None else ():
            # A cable's ends come ordered by device: the pair is canonical.
            self.pairs.setdefault((a.device, b.device), ([], []))
        #: Whether an armed flap or cut oracle holds every answer to
        #: one epoch (else only the schedule's flips move anything).
        self.per_epoch = self.flapping or self._cut_spec is not None
        #: The interval held before the first :meth:`apply`: all time
        #: when nothing can move, else none — the first event applies.
        self.before = ((0, 0) if self.pairs or self.per_epoch
                       else (-math.inf, math.inf))

    def flap(self, host: str, epoch: int) -> bool:
        """Whether ``host``'s edge link is down during ``epoch``."""
        key = (host, epoch)
        if key not in self._flaps:
            session = self._plan.derived("fabric-flap", host, epoch).session()
            self._flaps[key] = session.link_flap_faults()
        return self._flaps[key]

    def _cut(self, a: str, b: str, epoch: int) -> bool:
        """Whether a seeded cut starting at most ``max_down_epochs``
        back still holds the canonical pair's cable dark at ``epoch``."""
        lookback = self._cut_spec.max_down_epochs
        for e0 in range(max(0, epoch - lookback + 1), epoch + 1):
            length = self._cuts.get((a, b, e0))
            if length is None:
                session = self._plan.derived("fabric-link", a, b, e0).session()
                length = self._cuts[a, b, e0] = (
                    max(1, session.link_down_epochs())
                    if session.link_down_faults() else 0)
            if length > epoch - e0:
                return True
        return False

    def apply(self, tick: int) -> tuple[float, float]:
        """Set every cable the run may move to its state at ``tick``'s
        epoch, and return the half-open tick interval around ``tick``
        over which no answer of this timeline can change.

        An absolute, idempotent assignment, never a relative toggle, so
        a tick sees exactly its own epoch's state whatever was applied
        before it, in any shard.  The interval
        is one epoch while a flap or cut oracle is armed, else the
        stretch between the flips around ``tick`` — all time when
        nothing can move.
        """
        epoch = tick // FLAP_EPOCH_TICKS
        for (a, b), (starts, ends) in self.pairs.items():
            dark = bisect_right(starts, epoch) > bisect_right(ends, epoch) or (
                self._cut_spec is not None and self._cut(a, b, epoch))
            self._net.set_link_state(a, b, not dark)
        if self.per_epoch:
            start = epoch * FLAP_EPOCH_TICKS
            return start, start + FLAP_EPOCH_TICKS
        flips = self._flips
        i = bisect_right(flips, epoch)
        return (flips[i - 1] * FLAP_EPOCH_TICKS if i else -math.inf,
                flips[i] * FLAP_EPOCH_TICKS if i < len(flips) else math.inf)

    def reach(self, cables: frozenset, tick: int) -> float:
        """The first tick after ``tick``'s epoch at which a scripted
        window opens or closes on one of ``cables`` (canonical pairs),
        or ``inf`` if none ever does: a walk that read only those
        cables answers the same until then.  Under a schedule alone."""
        edges = self._edges.get(cables)
        if edges is None:
            edges = self._edges[cables] = sorted({
                edge for pair in cables for edge in chain(*self.pairs.get(pair, ()))})
        i = bisect_right(edges, tick // FLAP_EPOCH_TICKS)
        return edges[i] * FLAP_EPOCH_TICKS if i < len(edges) else math.inf

    def restore(self) -> None:
        """Bring every touched link back up (end-of-run tidiness)."""
        for a, b in self.pairs:
            self._net.set_link_state(a, b, True)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class _Cursor:
    """One flow's next packet send; advancing walks its event stream.

    The stream is the requests at ``start_tick + i * gap_ticks``, then
    the responses from one tick past the last request slot — so by heap
    order every request outcome is on the record before the first
    response is considered.  ``gap_ticks >= 0`` keeps the stream sorted
    by :attr:`key`, which is what lets the engine's heap hold only the
    head of every live flow.
    """

    __slots__ = ("flow", "record", "session", "rr", "tick", "is_response",
                 "pkt_index", "left")

    def __init__(self, flow: Flow, record: FlowRecord,
                 session: FaultSession, rr: int):
        self.flow = flow
        self.record = record
        self.session = session
        self.rr = rr  # seeded per-flow hash: the round-robin tie-break
        self.tick = flow.start_tick
        self.is_response = False
        self.pkt_index = 0
        self.left = flow.packets  # events left in this direction

    @property
    def key(self) -> tuple:
        """The heap entry: event order, then the cursor as payload."""
        return (self.tick, self.rr, self.flow.flow_id, self.is_response,
                self.pkt_index, self)

    def advance(self, n: int) -> bool:
        """Step past ``n`` carried events of the current direction;
        False once the flow has nothing left to send."""
        flow = self.flow
        self.left -= n
        if self.left:
            self.pkt_index += n
            self.tick += n * flow.gap_ticks
        elif self.is_response or not flow.response_packets:
            return False
        else:
            self.is_response, self.pkt_index = True, 0
            self.left = flow.response_packets
            self.tick = flow.start_tick + flow.packets * flow.gap_ticks + 1
        return True


def flow_frame(
    topology: FabricTopology, flow: Flow, is_response: bool = False,
    frame_size: Optional[int] = None,
) -> bytes:
    """The wire frame for one direction of a flow.

    A pure function of (topology hosts, flow, direction): every packet
    of a direction is byte-identical, which is what lets the scheduler
    build it once per flow instead of per packet (held to a fresh
    ``make_udp_frame`` build by ``test_flow_frame_matches_fresh_build``).
    Frames of one (src host, dst host, size) differ in two ports and
    the checksum: ``make_udp_frame`` runs once per such class and
    topology instance, and each flow's frame is that one re-targeted.
    ``frame_size`` overrides the flow's own size (the INT builder uses
    it to guarantee trailer room).
    """
    src = topology.hosts[flow.dst if is_response else flow.src]
    dst = topology.hosts[flow.src if is_response else flow.dst]
    size = flow.frame_size if frame_size is None else frame_size
    key = (src.name, dst.name, size)
    template = topology.frame_templates.get(key)
    if template is None:
        template = topology.frame_templates[key] = make_udp_frame(
            src.mac, dst.mac, src.ip, dst.ip, size=size).pack()
    return retarget_udp_frame(
        template, _SPORT_BASE + (flow.flow_id % 10000),
        _DPORT_BASE + (flow.flow_id % 10000))


def int_frame(
    topology: FabricTopology, flow: Flow, is_response: bool = False
) -> bytes:
    """The sequence-zero INT *template* frame for one flow direction.

    The flow's frame size is raised to :data:`INT_MIN_FRAME_SIZE` when
    needed so the trailer sits clear of the 64-byte header window.
    Every packet of the flow sends this one template, so the whole flow
    shares one path-cache key.
    """
    base = flow_frame(
        topology, flow, is_response,
        frame_size=max(flow.frame_size, INT_MIN_FRAME_SIZE),
    )
    return encode_template(base, flow.flow_id, response=is_response)


class FlowEngine:
    """The fabric scheduler as a steppable machine.

    This is :func:`run_flows` opened up: the same setup and the same
    dispatch, with :meth:`step` (one event) beside :meth:`run` (every
    event due by a tick, all by default), and :attr:`next_tick` saying
    when the next event is due.  The engine keeps no time of its own:
    the shell's :meth:`VirtualClock.pace
    <repro.shell.clock.VirtualClock.pace>` advances its clock to
    ``next_tick``, has :meth:`run` carry a span capped at its stop tick
    (at that one tick on a walked clock) and advances to
    :attr:`last_tick`, while ``run_flows`` runs the engine uncapped —
    so the shell's interactive path and the sharded/fastpath batch
    path are *one code path* and the :class:`FabricReport` fingerprint
    is identical by construction.

    :meth:`step` pops a heap, a k-way merge: one ``(tick, rr, flow_id,
    is_response, pkt_index, cursor)`` tuple per live flow, re-pushed at
    the flow's next event after each dispatch.  Every flow's stream is
    sorted by that key, so events pop in exactly the order one heap
    entry per packet would give.  The heap fills, with every flow at
    once, only when the stepping surface (:meth:`step`,
    :attr:`next_tick`, :attr:`finished`, :attr:`pending_events`,
    :attr:`flows_admitted`) or a capped :meth:`run` first asks.

    :meth:`run` takes the heap's due cursors off it and keeps no heap
    while it carries.  It walks the link timeline's steady intervals in
    order — one interval when nothing can move — and carries every
    cursor due in an interval up to its end before the timeline moves
    on: with coalescing on, whole directions where they fit and
    read-bounded spans where they do not.  That order is not the
    heap's, and no observable reads it; the cursors a capped run
    leaves go back on the heap.

    Control never changes outcomes.  Pausing, stepping one event at a
    time, or warping over idle cycles only decides *when* the next heap
    event dispatches; every fingerprinted observable is fixed by
    ``(topology, workload, seed, plan)`` alone.

    ``flow_filter`` selects the subset of generated flows this engine
    carries (the sharded executor passes ``flow_id % shards == index``);
    the report then covers just that subset, and merging subset reports
    reproduces the full-run report exactly.  ``flows`` overrides the
    workload's generated flow list entirely (the E19 sweep passes the
    crossing flows it constructed for one link); the filter still
    applies on top.  Every other keyword is a :class:`RunConfig` field.
    """

    def __init__(
        self,
        topology: FabricTopology,
        spec: WorkloadSpec,
        plan: Optional[FaultPlan] = None,
        *,
        flow_filter: Optional[Callable[[Flow], bool]] = None,
        flows: Optional[list[Flow]] = None,
        shards: int = 1,
        **options,
    ):
        config = RunConfig(**options)
        network = topology.network
        #: The replica's cache statistics before this engine touched it:
        #: the report carries what this engine's run moved.
        self._stats_base = (network.fastpath_stats(), network.batch_stats())
        if not config.fastpath:
            network.set_fastpath(False)
        topology.learn()
        if config.frr:
            topology.install_backups()
        flows = (generate_flows(topology.host_names(), spec) if flows is None
                 else list(flows))
        if flow_filter is not None:
            flows = [f for f in flows if flow_filter(f)]
        if config.int_all:
            flows = [Flow(f.flow_id, f.src, f.dst, f.frame_size, f.packets,
                          f.response_packets, f.start_tick, f.gap_ticks, True)
                     for f in flows]
        for flow in flows:
            if flow.gap_ticks < 0 or flow.packets < 1:
                raise ValueError(
                    f"flow {flow.flow_id}: needs packets >= 1 and "
                    f"gap_ticks >= 0 (got packets={flow.packets}, "
                    f"gap_ticks={flow.gap_ticks})")

        self.topology = topology
        self.spec = spec
        self.config = config
        self._plan = plan
        self._shards = shards
        self._wire_faults = plan is not None and plan.link is not None
        # Coalescing eligibility: the fast path must exist (no cache,
        # nothing to replay).  Wire faults do not bar it: a run's draws
        # all come from its own flow's session (see :meth:`_send`).
        self._batch = config.batch and config.fastpath
        #: The engine's share of ``report.batch`` (see :meth:`_batch_stats`).
        self._coalesced = dict.fromkeys(
            ("segments", "segment_packets", "splits", "wire_lost"), 0)
        self._links = _LinkTimeline(plan, config.link_schedule, network)
        #: The tick interval over which the timeline's answers hold: a
        #: tick at or past its end applies the timeline, a span ends there.
        self._steady = self._links.before
        self.collector = (IntCollector(topology.network)
                          if any(f.int_enabled for f in flows) else None)

        self._rr = seed_stream(spec.seed, "rr")  # the cursors' tie-break
        #: Opens flow ``i``'s ``plan.derived("fabric", i).session()``.
        self._sessions = plan.sessions("fabric") if plan is not None else None
        #: With no plan no flow draws or counts a fault: all share this.
        self._null_session = FaultPlan("none").session()
        self._fault_counters: Counter[str] = Counter()
        self._records: list[FlowRecord] = []
        self._hops_hist: Counter[int] = Counter()
        self._loss_by_epoch: Counter[int] = Counter()
        self._frames: dict[tuple[int, bool], bytes] = {}

        # Flows open in start order: run() opens those due in each
        # interval, the stepping heap (see _live) all at once.
        self._pending = sorted(flows, key=lambda f: (f.start_tick, f.flow_id))
        self._starts = [flow.start_tick for flow in self._pending]
        self._heap: list[tuple] = []  # one _Cursor.key per live flow
        # A list, not a generator: each generator step is a profiled call.
        self._events = sum([f.packets + f.response_packets for f in flows])
        self._dispatched = 0
        #: The latest tick :meth:`run` carried.
        self.last_tick = 0
        self._report: Optional[FabricReport] = None
        # Under wire faults a direction whose request is lost is never
        # sent: its walk is paid for when (and if) its first run flies.
        if self._batch and not self._wire_faults:
            self._prewarm()
        self._started = time.perf_counter()

    def _prewarm(self) -> None:
        """Dry-walk every flow direction's template at setup time.

        :meth:`~repro.testenv.topology.Network.warm_paths` walks each
        template once inside the counter sandbox, so the dispatch loop
        never takes a cold walk: the first ``inject_batch`` of a flow
        finds the prewarmed walk and the whole segment replays.  Purely
        an optimisation — carries no packet, moves no fingerprinted
        counter, and a stale or uncacheable walk still falls back to
        the per-packet path mid-run.
        """
        injections = []
        for flow in self._pending:
            for is_response in (False, True):
                if is_response and not flow.response_packets:
                    continue
                src = self.topology.hosts[
                    flow.dst if is_response else flow.src]
                injections.append(
                    (src.device, src.port, self._frame(flow, is_response)))
        self.topology.network.warm_paths(injections)

    def _frame(self, flow: Flow, is_response: bool) -> bytes:
        """One flow direction's wire frame (the INT template for an INT
        flow), built on first use and dropped when the flow finishes."""
        key = (flow.flow_id, is_response)
        frame = self._frames.get(key)
        if frame is None:
            builder = int_frame if flow.int_enabled else flow_frame
            frame = self._frames[key] = builder(
                self.topology, flow, is_response)
        return frame

    # -- heap plumbing -------------------------------------------------
    def _open(self, flow: Flow, rr: int = 0) -> _Cursor:
        """Admit one flow: its record and its fault session on the
        books, behind a cursor at its first event (``rr`` matters only
        to a cursor the heap keys)."""
        record = FlowRecord(flow.flow_id, flow.src, flow.dst)
        self._records.append(record)
        session = (self._sessions(flow.flow_id) if self._sessions is not None
                   else self._null_session)
        return _Cursor(flow, record, session, rr)

    def _finish(self, cursor: _Cursor) -> None:
        """Drop a carried flow's frames and fold its fault counters and
        INT ledgers."""
        flow_id = cursor.flow.flow_id
        self._frames.pop((flow_id, False), None)
        self._frames.pop((flow_id, True), None)
        if cursor.session.counters:
            self._fault_counters.update(cursor.session.counters)
        if self.collector is not None:
            self.collector.close(flow_id)

    def _live(self) -> list:
        """The stepping heap: every flow not yet opened goes on it, in
        one ``heapify``, the first time the stepping surface asks."""
        if len(self._records) < len(self._pending):
            self._heap += [self._open(f, self._rr(f.flow_id) & 0xFFFFFFFF).key
                           for f in self._pending[len(self._records):]]
            heapq.heapify(self._heap)
        return self._heap

    def _end(self, tick: int, limit: float = math.inf) -> float:
        """The end of the steady interval holding ``tick``, capped at
        ``limit``.  :meth:`step` pops in tick order and :meth:`run` takes
        its intervals in order, so no tick falls before the interval
        held: the link timeline is applied again only once one reaches
        its end."""
        if tick >= self._steady[1]:
            self._steady = self._links.apply(tick)
        return self._steady[1] if self._steady[1] < limit else limit

    def _send(self, event: _Cursor, n: int) -> None:
        """Carry the run of ``n`` consecutive packets the event heads
        (``n == 1``: the event's own packet) until every one is settled.

        A run is only offered where the link timeline answers the same
        for all ``n`` packets (:meth:`_segment_span`).  Its wire
        outcomes are drawn first, in one ``link_transfers(n)`` on the
        flow's own session — the stream ``n`` single sends would draw,
        since nothing else draws from it in between — and never again:
        each loss is booked at its own epoch, and the survivors are
        carried.  With ``batch`` on they replay through
        :meth:`~repro.testenv.topology.Network.inject_batch`, a lone
        packet too; when that declines (no walk yet, or a mutation
        dropped it) the run is *split*: the head goes through
        ``inject``, which walks and stores, and the rest is offered
        again at once — it replays the walk the head just stored, or
        (an uncacheable walk) the run goes on packet by packet.  The
        per-packet reference (``batch=False``) only ever ``inject``s.
        A lost or stamped run is booked by its clock ``(tick, seq,
        gap)``, once per epoch it spans (:func:`~repro.int.epoch_chunks`,
        :meth:`~repro.int.IntCollector.sent_run`).
        """
        self._dispatched += n
        if n > 1:
            self._coalesced["segments"] += 1
            self._coalesced["segment_packets"] += n
        flow, record = event.flow, event.record
        if event.is_response and record.delivered == 0:
            return  # the request never arrived: there is no RPC to answer
        hosts = self.topology.hosts
        src = hosts[flow.dst if event.is_response else flow.src]
        dst = hosts[flow.src if event.is_response else flow.dst]
        tick = event.tick
        epoch = tick // FLAP_EPOCH_TICKS
        if self._links.flapping and self._links.flap(src.name, epoch):
            # An armed flap oracle caps a run to one epoch, so booking
            # the whole run at its head's epoch is exact.
            record.attempted += n
            record.lost_flap += n
            event.session.counters["flap_lost_frames"] += n
            self._loss_by_epoch[epoch] += n
            return
        seq = event.pkt_index
        left = range(seq, seq + n)  # the sequences still to carry
        if self._wire_faults:
            counters = event.session.counters
            retransmits = counters.get("link_retransmits", 0)
            wire_lost = event.session.link_transfers(n)
            record.retransmits += (
                counters.get("link_retransmits", 0) - retransmits)
            if wire_lost:
                for j in wire_lost:
                    self._loss_by_epoch[
                        (tick + j * flow.gap_ticks) // FLAP_EPOCH_TICKS] += 1
                record.attempted += len(wire_lost)
                record.lost_wire += len(wire_lost)
                self._coalesced["wire_lost"] += len(wire_lost)
                n -= len(wire_lost)
                if not n:
                    return
                gone = {seq + j for j in wire_lost}
                left = [s for s in left if s not in gone]
        frame = self._frame(flow, event.is_response)
        network = self.topology.network
        telemetered = flow.int_enabled  # the collector exists iff any is
        walk = None
        if self._batch:
            walk = network.inject_batch(src.device, src.port, frame, n)
            if walk is None:
                self._coalesced["splits"] += 1
        while True:
            if walk is not None:
                outcome, deliveries, m = walk, walk.deliveries, n
            else:
                outcome = deliveries = network.inject(
                    src.device, src.port, frame)
                # The rest replays the walk the head stored: one outcome.
                m = n if n > 1 and network.inject_batch(
                    src.device, src.port, frame, n - 1) is not None else 1
            # One packet's outcome, counted m times.
            record.attempted += m
            lost = outcome.dropped_hop_limit + outcome.dropped_link_down
            if lost:
                record.dropped_hop_limit += outcome.dropped_hop_limit * m
                record.lost_link += outcome.dropped_link_down * m
            hit = False
            for delivery in deliveries:
                at, hops = delivery.at, delivery.hops
                if at.device == dst.device and at.port.index == dst.port:
                    hit = True
                    record.delivered += m
                    # A walk the class shares names no frame: ours went through.
                    record.bytes_delivered += len(delivery.frame or frame) * m
                    record.hops_total += hops * m
                    if hops > record.hops_max:
                        record.hops_max = hops
                    self._hops_hist[hops] += m
                else:
                    record.misdelivered += m
            if not hit and not lost:
                record.blackholed += m
                lost = 1
            if lost or telemetered:
                # A run may span epochs where nothing flips: its clock
                # books loss and INT evidence at each packet's own epoch.
                seqs, clock = left[:m], (tick, seq, flow.gap_ticks)
                if lost:
                    for epoch, count in epoch_chunks(clock, seqs):
                        self._loss_by_epoch[epoch] += lost * count
                if telemetered:
                    self.collector.sent_run(
                        flow.flow_id, event.is_response, seqs, clock,
                        outcome.link_down_sites, outcome.hop_limit_sites)
                    for delivery in deliveries:
                        self.collector.deliver_batch(delivery.frame, seqs)
            if m == n:
                return
            n -= 1
            left = left[1:]

    def _segment_span(self, event: _Cursor, end: float, until: float) -> int:
        """How many consecutive packets this event may coalesce.

        The remaining packets of the event's flow direction that fall
        before ``end``, the steady interval's: packet ``i`` of the
        segment sits at ``tick + i * gap_ticks``, and the link timeline
        must answer the same for all of them.  The interval is one
        epoch under an armed flap or cut oracle, runs to the next window
        flip under a schedule alone, and is all time when nothing can
        move (an empty schedule or a zero cut rate moves nothing) — then
        the span covers the whole remaining burst.

        A burst that crosses a flip under a schedule alone asks the
        walk it will replay (looked up after :meth:`_LinkTimeline.apply`)
        which cables it read, and runs on to the walk's own next edge
        (:meth:`_LinkTimeline.reach`): a flip on a cable the walk never
        read cannot change its outcome.  A cold miss keeps the flip, and
        so does a run capped at ``until``: that edge may lie past it.
        """
        flow, tick = event.flow, event.tick
        last = (event.left - 1) * flow.gap_ticks  # head to last packet, in ticks
        room = end - tick
        if room <= last and until == math.inf and not self._links.per_epoch:
            src = self.topology.hosts[flow.dst if event.is_response else flow.src]
            cables = self.topology.network.cables_read(
                src.device, src.port, self._frame(flow, event.is_response))
            if cables is not None:
                room = self._links.reach(cables, tick) - tick
        if room > last:
            return event.left  # gap 0 too: the whole direction shares a tick
        return (room - 1) // flow.gap_ticks + 1

    # -- introspection -------------------------------------------------
    @property
    def finished(self) -> bool:
        """All flows carried (the heap holds every flow once filled)."""
        return not self._live()

    @property
    def next_tick(self) -> Optional[int]:
        """The tick of the next event, or ``None`` when finished."""
        heap = self._live()
        return heap[0][0] if heap else None

    @property
    def pending_events(self) -> int:
        """Undispatched packet events of the workload."""
        self._live()
        return self._events - self._dispatched

    @property
    def flows_admitted(self) -> int:
        self._live()
        return len(self._records)

    @property
    def flows_total(self) -> int:
        return len(self._pending)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    # -- stepping surface ----------------------------------------------
    def step(self) -> int:
        """Dispatch the next heap event alone; returns how many ran (0
        once finished)."""
        if not self._live():
            return 0
        event = heapq.heappop(self._heap)[-1]
        self._end(event.tick)
        self._send(event, 1)
        if event.advance(1):
            heapq.heappush(self._heap, event.key)
        else:
            self._finish(event)
        return 1

    def run(self, until: float = math.inf) -> int:
        """Dispatch every event due by ``until`` (all of them by
        default); returns events dispatched.

        This is the batch loop, one steady interval of the link
        timeline at a time (see the class docstring).  Each turn takes
        the earliest due tick — of a cursor waiting from an earlier
        interval, the ones steps left on the heap first, or of the next
        unopened flow — applies the timeline there if it must, opens the
        flows starting before the interval's end and carries every
        cursor up to that end, capped one tick past ``until``.  Where
        coalescing is eligible a carry is a whole direction or a
        read-bounded span (:meth:`_segment_span`), else one packet.  A
        cursor whose next packet falls past the end waits for that
        packet's interval, or, past ``until``, goes back on the
        stepping heap — which a capped run fills first, so every cursor
        it leaves carries its tie-break.  :attr:`last_tick` ends on the
        latest tick carried.
        """
        if until < math.inf:
            self._live()
        before, opened, top = self._dispatched, len(self._records), self.last_tick
        heap, due = self._heap, []
        while heap and heap[0][0] <= until:
            due.append(heapq.heappop(heap)[-1])
        while due or opened < len(self._pending):
            end = self._end(min([cursor.tick for cursor in due]
                                + self._starts[opened:opened + 1]), until + 1)
            upto, waiting = bisect_left(self._starts, end, opened), []
            # Flows open as the loop reaches them, so a finished one's
            # cursor and session are freed at once.
            for cursor in chain(due, map(self._open,
                                         self._pending[opened:upto])):
                while cursor.tick < end:
                    n = cursor.left if self._batch else 1
                    if cursor.tick + (n - 1) * cursor.flow.gap_ticks >= end:
                        n = self._segment_span(cursor, end, until)
                    last = cursor.tick + (n - 1) * cursor.flow.gap_ticks
                    top = last if last > top else top
                    self._send(cursor, n)
                    if not cursor.advance(n):
                        self._finish(cursor)
                        break
                else:
                    if cursor.tick > until:
                        heapq.heappush(heap, cursor.key)
                    else:
                        waiting.append(cursor)
            due, opened = waiting, upto
        self.last_tick = top
        return self._dispatched - before

    # -- the report ----------------------------------------------------
    def report(self) -> FabricReport:
        """Finish the run and build its :class:`FabricReport`.

        Any undispatched events are drained first (:meth:`run`), touched
        links are restored, and the result is memoized: asking twice
        returns the same object.
        """
        if self._report is not None:
            return self._report
        self.run()
        self._links.restore()
        self._report = FabricReport(
            topology=self.topology.key,
            workload=self.spec.key,
            seed=self.spec.seed,
            plan=self._plan.name if self._plan is not None else None,
            records=sorted(self._records, key=lambda r: r.flow_id),
            device_forwarded=self.topology.device_forwarded(),
            fault_counters=dict(sorted(self._fault_counters.items())),
            hops_hist=dict(sorted(self._hops_hist.items())),
            loss_by_epoch=dict(sorted(self._loss_by_epoch.items())),
            device_reroutes=self.topology.device_counters("frr_reroute"),
            device_blackholed=self.topology.device_counters("frr_blackhole"),
            shards=self._shards,
            elapsed_s=time.perf_counter() - self._started,
            fastpath=_moved(self.topology.network.fastpath_stats(),
                            self._stats_base[0]),
            int_summary=(self.collector.summary()
                         if self.collector is not None else None),
            config=self.config,
            batch=self._batch_stats(),
        )
        return self._report

    def _batch_stats(self) -> dict[str, int]:
        """``report.batch``: the network's
        :meth:`~repro.testenv.topology.Network.batch_stats` plus the
        engine's own four.  ``segments`` / ``segment_packets`` —
        dispatches that settled more than one event, and the events
        they settled; ``splits`` — runs (one packet or more)
        ``inject_batch`` declined: runs an invalidation cut short and,
        under wire faults (no prewarm), the first of each walk;
        ``wire_lost`` — packets a wire fault settled before injection,
        which with ``replayed_packets``, the path cache's misses (and
        hits: none with ``batch`` on) and flap losses accounts for
        every packet attempted.  The network's share is what this
        engine moved (see :func:`_moved`)."""
        return {**_moved(self.topology.network.batch_stats(),
                         self._stats_base[1]), **self._coalesced}

    def snapshot(self) -> dict:
        """A live mid-run view: totals so far, never memoized.

        Unlike :meth:`report` this does not drain the heap — it sums
        the records as they stand, for the shell's ``status`` and
        ``metrics`` commands.  Fault counters of still-resident flows
        haven't folded in yet, so this is a progress view, not the
        determinism contract.
        """
        totals = Counter()
        for r in self._records:
            totals["attempted"] += r.attempted
            totals["delivered"] += r.delivered
            totals["blackholed"] += r.blackholed
            totals["misdelivered"] += r.misdelivered
            totals["lost"] += sum(getattr(r, name) for name in LOSS_FIELDS)
        return {
            "finished": self.finished,
            "next_tick": self.next_tick,
            "events_dispatched": self._dispatched,
            "pending_events": self.pending_events,
            "flows_admitted": len(self._records),
            "flows_total": len(self._pending),
            **totals,
        }


def _moved(stats: dict[str, int], base: dict[str, int]) -> dict[str, int]:
    """What a replica's cache statistics moved since ``base``.

    On a fresh replica that is the absolute count.  On a replica that
    carries several engines in turn their shares sum to the replica's
    totals — the resident gauges (``path_entries``, ``entries``)
    telescope to the end-of-run count.
    """
    return {name: value - base[name] for name, value in stats.items()}


def run_flows(
    topology: FabricTopology,
    spec: WorkloadSpec,
    plan: Optional[FaultPlan] = None,
    **engine_options,
) -> FabricReport:
    """Run a workload over a fabric; returns the :class:`FabricReport`.

    A thin veneer: construct a :class:`FlowEngine` (same keywords) and
    drain it — so batch runs and the interactive shell share
    one code path and fingerprint identically.
    """
    return FlowEngine(topology, spec, plan, **engine_options).report()
