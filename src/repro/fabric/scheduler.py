"""Deterministic concurrent flow scheduler and the fabric run report.

:func:`run_flows` carries a workload's flows across a built fabric with
thousands of flows in flight at once, interleaved in seeded round-robin
order — and yet every per-flow outcome is a *pure function* of
``(topology, workload, seed)``, independent of the interleaving.  Three
ingredients make that true:

* the fabric's switches are statically programmed (``learning=False``
  plus :meth:`FabricTopology.learn`), so forwarding one flow's frames
  never changes the state another flow's frames see;
* every flow opens its own fault session via
  ``plan.derived("fabric", flow_id)`` — independent decision streams,
  not a shared sequential RNG that interleaving would reorder;
* link-flap state is drawn per ``(host, epoch)`` from a derived seed —
  a pure function, not a stateful schedule.

Because outcomes are order-independent, the *same* code path can run a
subset of flows (``flow_filter``) in a worker process and the merged
results are byte-identical to the single-process run — the contract the
sharded executor (:mod:`repro.fabric.shard`) and its fingerprint test
rest on.

The interleaving itself is still real: per-packet events are ordered
``(tick, rr, flow_id, …)`` where ``rr`` is a seeded per-flow hash, so
packets of concurrent flows alternate rather than running flow-by-flow.
Each flow's own events are already sorted by that key, so the heap
holds one entry per live flow — a k-way merge over per-flow cursors —
and ``max_inflight`` bounds how many flows are resident at once (a
memory bound only — it never shifts a packet's tick, which would leak
scheduling into the flap-epoch draws).
"""

from __future__ import annotations

import heapq
import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Callable, Optional

from repro.fabric.topo import FabricTopology
from repro.fabric.workload import Flow, WorkloadSpec, generate_flows
from repro.faults import FaultPlan, FaultSession, seed_stream
from repro.int import INT_MIN_FRAME_SIZE, IntCollector, encode_template
from repro.packet.generator import make_udp_frame, retarget_udp_frame

#: Ticks per link-flap epoch: a flapped (host, epoch) pair is down for
#: this whole window, mirroring the soak harness's epoch granularity.
FLAP_EPOCH_TICKS = 32

#: Default bound on flows with resident scheduler events.
DEFAULT_MAX_INFLIGHT = 1024

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
    #: Flow-cache statistics (hits/misses/... per cache layer).  Like
    #: ``shards`` and ``elapsed_s`` these are *operational* data, not
    #: observables: hit counts depend on how the run was partitioned
    #: (each shard's caches start cold), so they stay out of
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
    #: invalidation splits, coalesced segments).  Operational like
    #: ``fastpath`` — segment shapes depend on partitioning — so they
    #: are Counter-merged across shards and stay out of the signature.
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

    # -- telemetry -----------------------------------------------------
    def feed(self, registry) -> None:
        """Publish the run's stats into a telemetry MetricsRegistry.

        All fabric series are cycle-independent (they describe delivered
        work, not pipeline timing), so they join the sim/hw parity set.
        """
        outcomes = registry.counter(
            "fabric_packets_total",
            "Fabric packets by final outcome",
            labelnames=("outcome",),
        )
        for name in ("delivered", *LOSS_FIELDS, "misdelivered"):
            count = self._total(name)
            if count:
                outcomes.labels(name).inc(count)
        registry.counter(
            "fabric_bytes_delivered_total", "Payload bytes delivered",
        ).inc(self._total("bytes_delivered"))
        registry.counter(
            "fabric_flows_total", "Flows carried by fabric runs",
        ).inc(len(self.records))
        forwarded = registry.counter(
            "fabric_device_forwarded_total",
            "Packets each fabric device forwarded",
            labelnames=("device",),
        )
        for device, count in sorted(self.device_forwarded.items()):
            if count:
                forwarded.labels(device).inc(count)
        hops = registry.histogram(
            "fabric_delivery_hops",
            "Device hops per delivered packet",
            buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0),
            cycle_dependent=False,
        )
        for hop, count in sorted(self.hops_hist.items()):
            hops.observe(float(hop), count)


# ----------------------------------------------------------------------
# Flap state: a pure function of (plan.seed, host, epoch)
# ----------------------------------------------------------------------
class _FlapOracle:
    """Answers "is this host's edge link down during this epoch?".

    Each distinct ``(host, epoch)`` pair draws once from its own derived
    seed, so the answer never depends on which flow asked first — the
    property that keeps flap loss identical across shard counts.
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self._plan = plan
        self._cache: dict[tuple[str, int], bool] = {}
        self.enabled = (plan is not None and plan.ctrl is not None
                        and plan.ctrl.flap_rate > 0)

    def down(self, host: str, epoch: int) -> bool:
        if not self.enabled:
            return False
        key = (host, epoch)
        if key not in self._cache:
            session = self._plan.derived("fabric-flap", host, epoch).session()
            self._cache[key] = session.link_flap_faults()
        return self._cache[key]


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

    def pairs(self) -> list[tuple[str, str]]:
        """The device pairs this schedule touches, canonically ordered."""
        return sorted({tuple(sorted((a, b))) for a, b, _, _ in self.events})


@dataclass(frozen=True)
class RunConfig:
    """The options of one fabric run — the only form they travel in.

    Everything here is picklable and decided by the caller; whoever
    carries a run onward (shard jobs, the supervisor, the checkpoint
    identity, the report) hands over the config whole, and
    :class:`FlowEngine` is the one place its fields are read.  Not
    options: ``plan``, ``flows`` and ``shards`` travel beside
    ``(spec, workload)`` as the run's *identity*; ``clock`` and
    ``flow_filter`` are per-engine and unpicklable.

    Only ``frr``, ``link_schedule`` and ``int_all`` can move an outcome;
    ``max_inflight``, ``fastpath`` and ``batch`` never do — with
    ``fastpath=False, batch=False`` a run is the per-packet reference
    every other combination must fingerprint identically to.
    """

    #: Bound on flows with resident scheduler events.  A memory bound
    #: only: it never shifts a packet's tick.
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: ``False`` turns the flow caches (path cache + per-device
    #: microflow caches) off — the A/B switch; only ``report.fastpath``
    #: and the wall clock move.
    fastpath: bool = True
    #: ``False`` turns coalesced dispatch (a flow's consecutive packets
    #: carried as one run: wire outcomes pre-drawn, survivors replayed
    #: through ``inject_batch``) off — ``nf-mon fabric --no-batch``;
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

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")

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


class _LinkStateOracle:
    """Answers "is this cable dark during this epoch?" from the seeded
    ``link_down``/``link_up`` fault sites.

    Each distinct ``(link, epoch)`` cut decision draws once from its own
    derived seed (like :class:`_FlapOracle`), and a firing link stays
    dark for a drawn number of epochs — so the answer for any epoch is a
    pure function of ``(plan.seed, link, epoch)``, independent of which
    flow asked first or how the run was sharded.
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self._plan = plan
        spec = plan.link_state if plan is not None else None
        self._spec = spec
        self.enabled = spec is not None and spec.down_rate > 0
        self._cuts: dict[tuple[str, str, int], int] = {}

    def _cut_epochs(self, a: str, b: str, e0: int) -> int:
        """How many epochs the cut starting at ``e0`` lasts (0 = none)."""
        key = (a, b, e0)
        if key not in self._cuts:
            session = self._plan.derived("fabric-link", a, b, e0).session()
            if session.link_down_faults():
                self._cuts[key] = max(1, session.link_down_epochs())
            else:
                self._cuts[key] = 0
        return self._cuts[key]

    def down(self, a: str, b: str, epoch: int) -> bool:
        if not self.enabled:
            return False
        a, b = sorted((a, b))
        lookback = self._spec.max_down_epochs
        return any(
            self._cut_epochs(a, b, e0) > epoch - e0
            for e0 in range(max(0, epoch - lookback + 1), epoch + 1)
        )


class _LinkStateController:
    """Keeps the network's link state in step with the packet's epoch.

    Applied per event from the event's *own* epoch — an absolute,
    idempotent assignment, never a relative toggle — so late-admitted
    flows whose ticks sit before the current heap front still see
    exactly the state their epoch prescribes, in any shard.
    """

    def __init__(
        self,
        topology: FabricTopology,
        schedule: Optional["LinkSchedule"],
        plan: Optional[FaultPlan],
    ):
        self._net = topology.network
        self._oracle = _LinkStateOracle(plan)
        #: The schedule's dark windows by canonical pair, indexed once:
        #: :meth:`apply` asks for every pair at every epoch change.
        self._windows: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for a, b, start, end in schedule.events if schedule else ():
            self._windows.setdefault(
                tuple(sorted((a, b))), []).append((start, end))
        pairs = set(self._windows)
        if self._oracle.enabled:
            pairs.update(
                tuple(sorted((a.device, b.device)))
                for a, b in self._net.links()
            )
        self._pairs = sorted(pairs)
        self._last: Optional[int] = None

    @property
    def active(self) -> bool:
        return bool(self._pairs)

    def apply(self, epoch: int) -> None:
        if not self._pairs or epoch == self._last:
            return
        self._last = epoch
        for pair in self._pairs:
            down = self._oracle.down(*pair, epoch) or any(
                start <= epoch < end
                for start, end in self._windows.get(pair, ()))
            self._net.set_link_state(*pair, not down)

    def restore(self) -> None:
        """Bring every touched link back up (end-of-run tidiness)."""
        for a, b in self._pairs:
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
    needed so the trailer sits clear of the 64-byte header window; the
    per-packet sequence number is substituted into deliveries by
    ``inject(int_seq=...)``, never into this template, so the whole
    flow shares one path-cache key.
    """
    base = flow_frame(
        topology, flow, is_response,
        frame_size=max(flow.frame_size, INT_MIN_FRAME_SIZE),
    )
    return encode_template(base, flow.flow_id, response=is_response)


class FlowEngine:
    """The fabric scheduler as a steppable machine.

    This is :func:`run_flows` opened up: the same setup, the same event
    order, the same dispatch — but instead of one closed ``while heap``
    loop the engine exposes :meth:`step` / :meth:`run_until` /
    :meth:`run`, and an optional :class:`~repro.shell.clock.VirtualClock`
    owns how virtual time passes between events.  Batch callers never
    see the difference: ``run_flows`` constructs an engine with no clock
    and immediately drains it, so the shell's interactive path and the
    sharded/fastpath batch path are *one code path* and the
    :class:`FabricReport` fingerprint is identical by construction.

    The heap is a k-way merge: one ``(tick, rr, flow_id, is_response,
    pkt_index, cursor)`` tuple per live flow, re-pushed at the flow's
    next event after each dispatch.  Every flow's stream is sorted by
    that key, so events pop in exactly the order one heap entry per
    packet would give, at a depth of flows — not packets — in flight.

    Control never changes outcomes.  Pausing, stepping one event at a
    time, or warping over idle cycles only decides *when* the next heap
    event dispatches relative to wall clock; the heap order — and with
    it every fingerprinted observable — is fixed by
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
        clock=None,
        **options,
    ):
        config = RunConfig(**options)
        if not config.fastpath:
            topology.network.set_fastpath(False)
        topology.learn()
        if config.frr:
            topology.install_backups()
        if flows is None:
            flows = generate_flows(topology.host_names(), spec)
        else:
            flows = list(flows)
        if flow_filter is not None:
            flows = [f for f in flows if flow_filter(f)]
        if config.int_all:
            flows = [replace(f, int_enabled=True) for f in flows]
        for flow in flows:
            if flow.gap_ticks < 0 or flow.packets < 1:
                raise ValueError(
                    f"flow {flow.flow_id}: needs packets >= 1 and "
                    f"gap_ticks >= 0 (got packets={flow.packets}, "
                    f"gap_ticks={flow.gap_ticks})")

        self.topology = topology
        self.spec = spec
        self.clock = clock
        self.config = config
        self._plan = plan
        self._max_inflight = config.max_inflight
        self._shards = shards
        self._wire_faults = plan is not None and plan.link is not None
        # Coalescing eligibility: the fast path must exist (no cache,
        # nothing to replay), and an attached clock means an interactive
        # observer who expects per-event time — coalescing is for the
        # drain loops only.  Wire faults do not bar it: a run's draws
        # all come from its own flow's session (see :meth:`_send`).
        self._batch = bool(config.batch and config.fastpath and clock is None)
        #: The engine's share of ``report.batch`` (see :meth:`_batch_stats`).
        self._coalesced = dict.fromkeys(
            ("segments", "segment_packets", "splits", "wire_lost"), 0)
        # Span cap: with the flap oracle disarmed and link state static
        # for the whole run, no per-epoch oracle can change its answer
        # mid-segment — segments may span flap epochs and cover a flow
        # direction's whole remaining burst.  (Loss and INT epoch
        # attribution stay per-packet either way.)
        self._flap = _FlapOracle(plan)
        self._epoch_free = (
            not self._flap.enabled and config.link_schedule is None
            and (plan is None or plan.link_state is None)
        )
        self.collector = (IntCollector(topology.network)
                          if any(f.int_enabled for f in flows) else None)

        self._link_ctl = _LinkStateController(
            topology, config.link_schedule, plan)
        self._rr = seed_stream(spec.seed, "rr")  # the cursors' tie-break
        #: With no plan no flow draws or counts a fault: all share this.
        self._null_session = FaultPlan("none").session()
        self._fault_counters: Counter[str] = Counter()
        self._records: list[FlowRecord] = []
        self._hops_hist: Counter[int] = Counter()
        self._loss_by_epoch: Counter[int] = Counter()
        self._frames: dict[tuple[int, bool], bytes] = {}

        # Admit flows to the heap in start order, at most max_inflight
        # at a time.
        self._pending = sorted(flows, key=lambda f: (f.start_tick, f.flow_id))
        self._heap: list[tuple] = []  # one _Cursor.key per live flow
        self._admitted_events = 0
        self._dispatched = 0
        self._report: Optional[FabricReport] = None
        self._admit()
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
    def _admit(self) -> None:
        while (len(self._records) < len(self._pending)
               and len(self._heap) < self._max_inflight):
            flow = self._pending[len(self._records)]
            record = FlowRecord(flow.flow_id, flow.src, flow.dst)
            self._records.append(record)
            session = (self._plan.derived("fabric", flow.flow_id).session()
                       if self._plan is not None else self._null_session)
            self._admitted_events += flow.packets + flow.response_packets
            heapq.heappush(self._heap, _Cursor(
                flow, record, session,
                self._rr(flow.flow_id) & 0xFFFFFFFF).key)

    def _dispatch(self, coalesce: bool = False) -> int:
        """Pop the next event and carry it — with ``coalesce``, together
        with the rest of its segment; returns the events carried.

        Pull-forward is safe because per-flow outcomes are pure
        functions of ``(topology, workload, seed, plan)`` independent
        of event interleaving — the same contract that lets sharding
        reorder arbitrarily.  The flow's cursor then skips everything
        carried, so a coalesced event never reaches the heap.
        """
        event = heapq.heappop(self._heap)[-1]
        n = self._segment_span(event) if coalesce else 1
        if self.clock is not None:
            self.clock.advance_to(event.tick)
        self._link_ctl.apply(event.tick // FLAP_EPOCH_TICKS)
        self._send(event, n)
        if n > 1:
            self._coalesced["segments"] += 1
            self._coalesced["segment_packets"] += n
        self._dispatched += n
        if event.advance(n):
            heapq.heappush(self._heap, event.key)
        else:
            flow_id = event.flow.flow_id
            self._frames.pop((flow_id, False), None)
            self._frames.pop((flow_id, True), None)
            if event.session.counters:
                self._fault_counters.update(event.session.counters)
            self._admit()
        return n

    def _send(self, event: _Cursor, n: int) -> None:
        """Carry the run of ``n`` consecutive packets the event heads
        (``n == 1``: the event's own packet) until every one is settled.

        A run is only offered where every per-epoch oracle answers the
        same for all ``n`` packets (:meth:`_segment_span`).  Its wire
        outcomes are drawn first, in one ``link_transfers(n)`` on the
        flow's own session — the stream ``n`` single sends would draw,
        since nothing else draws from it in between — and never again:
        each loss is booked at its own epoch, and the survivors are
        carried.  They replay through
        :meth:`~repro.testenv.topology.Network.inject_batch`; when that
        declines (no walk yet, or a mutation dropped it) the run is
        *split*: the head goes through ``inject``, which walks and
        stores, and the rest is offered again at once — it replays the
        walk the head just stored, or (an uncacheable walk) the run
        goes on packet by packet.
        """
        flow, record = event.flow, event.record
        if event.is_response and record.delivered == 0:
            return  # the request never arrived: there is no RPC to answer
        hosts = self.topology.hosts
        src = hosts[flow.dst if event.is_response else flow.src]
        dst = hosts[flow.src if event.is_response else flow.dst]
        tick = event.tick
        epoch = tick // FLAP_EPOCH_TICKS
        if self._flap.enabled and self._flap.down(src.name, epoch):
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
        if n > 1:
            walk = network.inject_batch(src.device, src.port, frame, n)
            if walk is None:
                self._coalesced["splits"] += 1
        while True:
            if walk is not None:
                outcome, deliveries, m = walk, walk.deliveries, n
            else:
                outcome = deliveries = network.inject(
                    src.device, src.port, frame,
                    int_seq=left[0] if telemetered else None,
                )
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
                # A run may span flap epochs (the epoch-free case): loss and
                # INT evidence are booked at each packet's own epoch.
                seqs, gap = left[:m], flow.gap_ticks
                epochs = [(tick + (s - seq) * gap) // FLAP_EPOCH_TICKS
                          for s in seqs]
                if lost:
                    for packet_epoch in epochs:
                        self._loss_by_epoch[packet_epoch] += lost
                if telemetered:
                    self.collector.sent_batch(
                        flow.flow_id, event.is_response, seqs, epochs, outcome)
                    for delivery in deliveries:
                        self.collector.deliver_batch(delivery.frame, seqs)
            if m == n:
                return
            n -= 1
            left = left[1:]

    def _segment_span(self, event: _Cursor) -> int:
        """How many consecutive packets this event may coalesce.

        The remaining packets of the event's flow direction.  With an
        armed flap oracle or non-static link state the span is capped
        at the flap-epoch boundary: packet ``i`` of the segment sits at
        ``tick + i * gap_ticks``, and every per-epoch oracle must
        answer the same for all of them.  In the epoch-free case
        (no flap, links static) nothing can change mid-segment and the
        span covers the whole remaining burst.
        """
        gap = event.flow.gap_ticks
        if self._epoch_free or not gap:
            return event.left  # gap 0: the whole direction shares a tick
        epoch_end = (event.tick // FLAP_EPOCH_TICKS + 1) * FLAP_EPOCH_TICKS
        return min(event.left, (epoch_end - 1 - event.tick) // gap + 1)

    # -- introspection -------------------------------------------------
    @property
    def finished(self) -> bool:
        """All flows carried (the heap only empties once nothing is
        pending — :meth:`_admit` refills it after every completion)."""
        return not self._heap

    @property
    def now(self) -> int:
        """The engine's virtual time: the clock's if one is attached,
        else the tick of the next undispatched event."""
        if self.clock is not None:
            return self.clock.now
        return self.next_tick or 0

    @property
    def next_tick(self) -> Optional[int]:
        """The tick of the next event, or ``None`` when finished."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending_events(self) -> int:
        """Undispatched packet events of the admitted flows."""
        return self._admitted_events - self._dispatched

    @property
    def flows_admitted(self) -> int:
        return len(self._records)

    @property
    def flows_total(self) -> int:
        return len(self._pending)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    # -- stepping surface ----------------------------------------------
    def step(self, events: int = 1) -> int:
        """Dispatch up to ``events`` heap events; returns how many ran."""
        if events < 1:
            raise ValueError("step count must be >= 1")
        done = 0
        while done < events and self._heap:
            done += self._dispatch()
        return done

    def run_until(
        self,
        tick: Optional[int] = None,
        predicate: Optional[Callable[["FlowEngine"], bool]] = None,
    ) -> int:
        """Dispatch until virtual time reaches ``tick`` and/or
        ``predicate(engine)`` holds; returns events dispatched.

        With a ``tick`` bound, every event scheduled at or before it is
        carried and the attached clock (if any) is advanced to exactly
        ``tick`` afterwards, so idle tail cycles pass too.  A predicate
        is re-checked after every event; it stops the run early.
        """
        if tick is None and predicate is None:
            raise ValueError("run_until needs a tick or a predicate")
        done = 0
        while self._heap:
            if predicate is not None and predicate(self):
                break
            if tick is not None and self._heap[0][0] > tick:
                break
            done += self._dispatch()
        if (tick is not None and self.clock is not None
                and (predicate is None or not predicate(self))):
            self.clock.advance_to(tick)
        return done

    def run(self) -> int:
        """Dispatch until finished — or until the clock is paused.

        This is the batch loop: with no clock (or an unpaused one) it
        drains the heap exactly as :func:`run_flows` always did — and
        where coalescing is eligible, consecutive same-flow events
        replay as one counted segment.
        """
        done = 0
        while self._heap:
            if self.clock is not None and self.clock.paused:
                break
            done += self._dispatch(self._batch)
        return done

    # -- the report ----------------------------------------------------
    def report(self) -> FabricReport:
        """Finish the run and build its :class:`FabricReport`.

        Any undispatched events are drained first (ignoring pause — the
        report is total by definition), touched links are restored, and
        the result is memoized: asking twice returns the same object.
        """
        if self._report is not None:
            return self._report
        while self._heap:
            self._dispatch(self._batch)
        self._link_ctl.restore()
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
            fastpath=self.topology.network.fastpath_stats(),
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
        they settled; ``splits`` — coalesced runs ``inject_batch``
        declined: runs an invalidation cut short and, under wire faults
        (no prewarm), the first of each walk; ``wire_lost`` — packets a
        wire fault settled before injection, which with
        ``replayed_packets`` and the path cache's hits and misses (and
        flap losses) accounts for every packet attempted."""
        return {**self.topology.network.batch_stats(), **self._coalesced}

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
            "now": self.now,
            "next_tick": self.next_tick,
            "events_dispatched": self._dispatched,
            "pending_events": self.pending_events,
            "flows_admitted": len(self._records),
            "flows_total": len(self._pending),
            **totals,
        }


def run_flows(
    topology: FabricTopology,
    spec: WorkloadSpec,
    plan: Optional[FaultPlan] = None,
    **engine_options,
) -> FabricReport:
    """Run a workload over a fabric; returns the :class:`FabricReport`.

    A thin veneer: construct a :class:`FlowEngine` (same keywords, no
    clock) and drain it — so batch runs and the interactive shell share
    one code path and fingerprint identically.
    """
    return FlowEngine(topology, spec, plan, **engine_options).report()
