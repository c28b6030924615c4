"""Latency/occupancy probes: wiring a live design into a telemetry session.

Design rule: probes are *passive* and *interface-preserving* (claim C3).
Nothing here changes a module's ports or behaviour; the kernel-side
probes watch the lifetime counters the channels and cores already
maintain (``beats_transferred``, ``packets_in``, ``enqueued`` …) and the
event-driven side uses the same optional hook-attribute pattern the
fault layer established (``DmaEngine.telemetry_hook``,
``NetFpgaDriver.event_hook``, ``FaultSession.on_fault``).

Every series is declared one of two ways: :func:`_mirror` binds a live
counter a module already keeps, :func:`_tally` publishes a finished
run's post-hoc count (the histograms and the fault-hook counter are the
only series observed by hand).

Cost discipline: the registry mirrors live counters through snapshot-time
callbacks (:meth:`~repro.telemetry.registry.Counter.bind`), so arming
telemetry adds **zero** per-cycle cost for plain counting.  The only
hot-loop work is the per-cycle delta scan in
:meth:`PipelineProbes.on_cycle` — a flat loop of integer compares that
fires trace events and latency observations only on change — measured at
≤10% kernel slowdown by ``benchmarks/test_bench_telemetry.py``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.session import TelemetrySession

#: Cycles between occupancy gauge samples on the Chrome counter track.
OCCUPANCY_SAMPLE_CYCLES = 64

#: OPL-stage latency histogram buckets (cycles).
LATENCY_BUCKETS = (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512)


def _mirror(registry: "MetricsRegistry", kind: str, name: str, help: str,
            read: Callable[[Any], float], over: Iterable[tuple[tuple, Any]],
            labelnames: tuple[str, ...] = (),
            cycle_dependent: bool = True) -> None:
    """Register one family and bind each child to ``read(source)``.

    ``over`` yields ``(label values, source)`` pairs; every child reads
    its own source at snapshot time, never per cycle.
    """
    family = getattr(registry, kind)(name, help, labelnames=labelnames,
                                     cycle_dependent=cycle_dependent)
    for values, source in over:
        family.labels(*values).bind(partial(read, source))


def _tally(registry: "MetricsRegistry", name: str, help: str,
           label: Optional[str], counts: dict,
           keep_zero: bool = False) -> None:
    """Publish a finished run's ``{label value: count}`` tally.

    A tally describes delivered work, not pipeline timing, so it is
    cycle-independent and joins the sim/hw parity set.  A zero count
    publishes no child unless ``keep_zero``; with ``label=None`` the
    family is unlabelled and ``counts`` holds its one value under
    ``None``.
    """
    labelnames = (label,) if label else ()
    family = registry.counter(name, help, labelnames=labelnames,
                              cycle_dependent=False)
    for value, count in counts.items():
        if count or keep_zero:
            (family.labels(value) if label else family).inc(count)


class PipelineProbes:
    """All kernel-side probes for one :class:`ReferencePipeline` run.

    Arms: per-port packet-in/out watchers, arbiter grant attribution, an
    OPL-stage latency probe (arbiter egress → output-queue ingress),
    output-queue enqueue/drop/wait accounting and periodic occupancy
    sampling.  Attach with ``sim.add_cycle_hook(probes.on_cycle)`` — one
    callback per cycle, not one module per probe, so the combinational
    settle loop never sees the probes at all.
    """

    def __init__(self, project: Any, session: "TelemetrySession",
                 occupancy_sample_cycles: int = OCCUPANCY_SAMPLE_CYCLES):
        self.session = session
        self.project = project
        self.trace = session.trace
        self.occupancy_sample_cycles = occupancy_sample_cycles
        registry = session.registry

        # Every probed channel by name: rx_/tx_ prefixes match the
        # StatsCollector's channel labels and keep the per-direction
        # registry children distinct.
        rx = [(f"rx_{p}", project.rx[p]) for p in project.ports]
        tx = [(f"tx_{p}", project.tx[p]) for p in project.ports]
        self._arb_chan = project.opl.s_axis
        self._oplout_chan = project.oq.s_axis
        channels = [*rx, *tx, ("arb_to_opl", self._arb_chan),
                    ("opl_to_oq", self._oplout_chan)]
        for name, help, attr in (
            ("chan_packets_total", "packets across a probed channel",
             "packets_transferred"),
            ("chan_beats_total", "beats across a probed channel",
             "beats_transferred"),
            ("chan_stall_cycles_total", "valid-but-not-ready cycles",
             "stall_cycles"),
        ):
            _mirror(registry, "counter", name, help, attrgetter(attr),
                    [((n,), c) for n, c in channels], ("chan",))
        # Hot-path scan records over the same channels: mutable
        # ``[channel, last_packets, name, oq_index]`` so the per-cycle
        # scan is plain attribute compares — no per-channel method calls,
        # no enumerate tuples.
        self._rx_scan = [[c, c.packets_transferred, n] for n, c in rx]
        self._tx_scan = [
            [c, c.packets_transferred, n, i] for i, (n, c) in enumerate(tx)
        ]
        self._arb_last = self._arb_chan.packets_transferred
        self._oplout_last = self._oplout_chan.packets_transferred

        # Arbiter grant attribution: which input won the last packet.
        arbiter = project.arbiter
        self._arbiter = arbiter
        self._grants_last = list(arbiter.packets_in)
        _mirror(registry, "counter", "arbiter_grants_total",
                "packet grants per ingress port",
                lambda i: arbiter.packets_in[i],
                [((p,), i) for i, p in enumerate(project.ports)], ("port",))

        # Output queues: per-port admission ledger + occupancy gauges.
        oq = project.oq
        self._oq_ports = oq.ports
        self._port_names = [str(p) for p in project.ports]
        self._oq_enq_last = [ps.enqueued for ps in oq.ports]
        self._oq_drop_last = [ps.dropped for ps in oq.ports]
        ports = [((n,), ps) for n, ps in zip(self._port_names, oq.ports)]
        for attr in ("enqueued", "dequeued", "dropped", "ecn_marked"):
            _mirror(registry, "counter", f"oq_{attr}_total",
                    f"output-queue {attr} packets per port",
                    attrgetter(attr), ports, ("port",))
        _mirror(registry, "gauge", "oq_occupancy_bytes",
                "buffered bytes per egress port",
                lambda p: sum(p.occupancy), ports, ("port",))
        _mirror(registry, "gauge", "oq_high_watermark_bytes",
                "peak buffered bytes per egress port",
                attrgetter("high_watermark"), ports, ("port",))

        # OPL decision ledger mirrored from the core's own counters.
        opl = [((), project.opl)]
        _mirror(registry, "counter", "opl_packets_total",
                "packets through the output-port lookup",
                attrgetter("packets"), opl)
        _mirror(registry, "counter", "opl_drops_total",
                "packets dropped by the lookup decision",
                attrgetter("drops"), opl)

        # Latency probes: OPL transit and per-port queue wait.
        self._opl_latency = registry.histogram(
            "opl_latency_cycles",
            "arbiter-egress to OQ-ingress packet latency",
            buckets=LATENCY_BUCKETS, cycle_dependent=True,
        ).labels()
        self._opl_inflight: deque[int] = deque()
        wait = registry.histogram(
            "oq_wait_cycles", "enqueue-to-egress wait per port",
            labelnames=("port",), buckets=LATENCY_BUCKETS,
            cycle_dependent=True,
        )
        self._oq_wait = [wait.labels(name) for name in self._port_names]
        self._oq_entered: list[deque[int]] = [deque() for _ in oq.ports]
        self._opl_drops_last = project.opl.drops

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        """Observe one settled cycle; called via ``Simulator.add_cycle_hook``.

        The common case — no packet boundary anywhere this cycle — must
        stay a flat loop of integer compares over the scan records; the
        channels' registry series are snapshot-time bindings, never read
        here.
        """
        emit = self.trace.emit

        for entry in self._rx_scan:
            n = entry[0].packets_transferred
            if n != entry[1]:
                entry[1] = n
                emit("packet_in", entry[2], ts=cycle)

        n = self._arb_chan.packets_transferred
        if n != self._arb_last:
            self._arb_last = n
            # A packet left the arbiter: attribute the grant and open an
            # OPL transit measurement.
            emit("arbiter_grant", "arb_to_opl", ts=cycle)
            grants = self._arbiter.packets_in
            glast = self._grants_last
            for i, g in enumerate(grants):
                if g != glast[i]:
                    glast[i] = g
                    emit("arbiter_grant", self._port_names[i], ts=cycle)
            self._opl_inflight.append(cycle)

        n = self._oplout_chan.packets_transferred
        if n != self._oplout_last:
            self._oplout_last = n
            emit("queue_enq", "opl_to_oq", ts=cycle)
            # A packet reached the output queues: close the OPL transit.
            # Packets dropped inside the OPL never arrive — their entries
            # are older than this arrival (decisions are strictly
            # ordered), so discard one stale entry per drop seen since.
            inflight = self._opl_inflight
            drops = self.project.opl.drops
            while drops != self._opl_drops_last and inflight:
                inflight.popleft()
                self._opl_drops_last += 1
            self._opl_drops_last = drops
            if inflight:
                self._opl_latency.observe(cycle - inflight.popleft())
            enq_last = self._oq_enq_last
            drop_last = self._oq_drop_last
            for i, ps in enumerate(self._oq_ports):
                enq = ps.enqueued
                if enq != enq_last[i]:
                    enq_last[i] = enq
                    self._oq_entered[i].append(cycle)
                    emit("queue_enq", self._port_names[i], ts=cycle)
                dropped = ps.dropped
                if dropped != drop_last[i]:
                    drop_last[i] = dropped
                    emit("queue_drop", self._port_names[i], ts=cycle)

        for entry in self._tx_scan:
            n = entry[0].packets_transferred
            if n != entry[1]:
                entry[1] = n
                emit("packet_out", entry[2], ts=cycle)
                i = entry[3]
                entered = self._oq_entered[i]
                if entered:
                    self._oq_wait[i].observe(cycle - entered.popleft())
                emit("queue_deq", self._port_names[i], ts=cycle)

        if cycle % self.occupancy_sample_cycles == 0:
            trace = self.trace
            for i, ps in enumerate(self._oq_ports):
                occupancy = 0
                for occ in ps.occupancy:
                    occupancy += occ
                trace.sample(f"oq_occupancy:{self._port_names[i]}", occupancy,
                             ts=cycle)

        callback = self.session.cycle_callback
        if callback is not None:
            callback(cycle)




# ----------------------------------------------------------------------
# Event-driven ("hw"-domain) probes: board, driver, faults
# ----------------------------------------------------------------------
def probe_dma(dma: Any, session: "TelemetrySession") -> None:
    """Arm a :class:`~repro.board.pcie.DmaEngine`'s telemetry hook.

    Doorbells, completion write-backs and MSI fires become trace events
    (stamped with the engine's simulated event time); ring depth and
    frame totals become registry series, snapshot-backed as always.
    """
    for kind, name, help, attr in (
        ("counter", "dma_tx_frames_total", "frames the engine transmitted",
         "tx_frames"),
        ("counter", "dma_rx_frames_total", "frames the engine received",
         "rx_frames"),
        ("counter", "dma_msi_total", "MSI interrupts fired", "msi_fired"),
        ("gauge", "dma_tx_ring_occupancy", "posted TX descriptors pending",
         "tx_ring.occupancy"),
        ("gauge", "dma_rx_ring_space", "free RX descriptors posted",
         "rx_ring.occupancy"),
    ):
        _mirror(session.registry, kind, name, help, attrgetter(attr),
                [((), dma)])
    trace = session.trace
    event_for = {
        "doorbell": "dma_doorbell",
        "rx_completion": "dma_completion",
        "tx_completion": "dma_completion",
        "msi": "irq",
    }

    def hook(site: str) -> None:
        trace.emit(event_for.get(site, site), site, ts=dma.sim.now_ns)

    dma.telemetry_hook = hook


def probe_driver(driver: Any, session: "TelemetrySession") -> None:
    """Mirror a host driver's self-healing ledger and recovery events."""
    registry = session.registry
    _mirror(registry, "counter", "driver_recovery_total",
            "driver self-healing repairs by kind",
            lambda n: getattr(driver.recovery, n),
            [((n,), n) for n in driver.recovery.as_dict()], ("kind",))
    for name, help, attr in (
        ("driver_mmio_reads_total", "MMIO register reads", "mmio_reads"),
        ("driver_mmio_writes_total", "MMIO register writes", "mmio_writes"),
        ("driver_tx_frames_total", "frames handed to the TX ring",
         "tx_sent"),
        ("driver_rx_frames_total", "frames harvested from the RX ring",
         "rx_received"),
    ):
        _mirror(registry, "counter", name, help, attrgetter(attr),
                [((), driver)])
    trace = session.trace

    def hook(event: str) -> None:
        trace.emit("fault_recovered", event, ts=driver.board.sim.now_ns)

    driver.event_hook = hook


def probe_faults(fault_session: Any, session: "TelemetrySession") -> None:
    """Turn a fault session's injections into trace events + counters."""
    registry = session.registry
    injected = registry.counter(
        "faults_injected_total", "fault-site decisions that fired",
        labelnames=("site",), cycle_dependent=True,
    )
    trace = session.trace
    clock = trace.clock

    def hook(site: str, outcome: str) -> None:
        injected.labels(site).inc()
        trace.emit("fault_injected", f"{site}:{outcome}", ts=clock())

    fault_session.on_fault = hook


def probe_fabric(report: Any, session: "TelemetrySession") -> None:
    """Publish a finished fabric run into a telemetry session.

    Fabric runs are transaction-level and post-hoc: there is no hot loop
    to hook, so the probe tallies the
    :class:`~repro.fabric.FabricReport`'s order-independent aggregates
    (per-outcome packets, payload bytes, flows, per-device forwarding
    and the delivery-hop histogram — all ``cycle_dependent=False``: they
    describe delivered work, so they join the sim/hw parity set) and
    emits one trace span per run for the timeline view.
    """
    from repro.fabric.scheduler import LOSS_FIELDS

    registry = session.registry
    records = report.records

    def total(field: str) -> int:
        return sum(getattr(r, field) for r in records)

    _tally(registry, "fabric_packets_total", "Fabric packets by final outcome",
           "outcome", {name: total(name) for name in
                       ("delivered", *LOSS_FIELDS, "misdelivered")})
    _tally(registry, "fabric_bytes_delivered_total", "Payload bytes delivered",
           None, {None: total("bytes_delivered")}, keep_zero=True)
    _tally(registry, "fabric_flows_total", "Flows carried by fabric runs",
           None, {None: len(records)}, keep_zero=True)
    _tally(registry, "fabric_device_forwarded_total",
           "Packets each fabric device forwarded", "device",
           report.device_forwarded)
    hops = registry.histogram(
        "fabric_delivery_hops", "Device hops per delivered packet",
        buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0), cycle_dependent=False,
    )
    for hop, count in sorted(report.hops_hist.items()):
        hops.observe(float(hop), count)
    session.trace.emit(
        "fabric_run",
        f"{report.topology}:{report.workload}@{report.shards}",
        ts=session.trace.clock(),
    )


def probe_int(report: Any, session: "TelemetrySession") -> None:
    """Publish a fabric run's receiver-side INT summary into a session.

    Like :func:`probe_fabric` this is post-hoc: the summary's outcome
    totals, per-device reroute counts, per-link reroute attribution and
    per-hop latency distribution become registry series.  All
    ``cycle_dependent=False`` — the summary is a pure function of
    (topology, workload, seed), so it joins the sim/hw parity set.
    Reports without a summary (no INT flows) publish nothing.
    """
    summary = getattr(report, "int_summary", None) or report
    if not isinstance(summary, dict):
        return
    registry = session.registry
    _tally(registry, "int_packets_total",
           "INT packets by receiver-observed outcome", "outcome",
           {outcome: summary.get(outcome, 0) for outcome in
            ("packets", "delivered", "lost", "blackholes", "overflows")})
    _tally(registry, "int_reroutes_total",
           "FRR-flagged stamps per rerouting device", "device",
           summary.get("reroutes", {}), keep_zero=True)
    _tally(registry, "int_reroute_links_total",
           "reroutes attributed to a failed link", "link",
           summary.get("reroute_links", {}), keep_zero=True)
    latency = registry.histogram(
        "int_hop_latency_cycles", "per-hop latency from stamp deltas",
        labelnames=("device",),
        buckets=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        cycle_dependent=False,
    )
    for key, count in summary.get("hop_latency", {}).items():
        device, _, cycles = key.rpartition(":")
        latency.labels(device).observe(float(cycles), count)


def probe_fastpath(network: Any, session: "TelemetrySession") -> None:
    """Mirror a test network's path-cache counters into the registry.

    One ``fastpath_events_total`` series per event, under the
    pseudo-device ``net`` (the network-wide path cache); the
    ``fastpath_entries`` gauge tracks its occupancy.  All
    ``cycle_dependent=False``: cache behaviour is a pure function of
    the traffic and table mutations, so sim and hw runs of the same
    scenario must agree — the counters join the parity set rather than
    being waived from it.
    """
    registry = session.registry
    events = [(("net", event), attr) for event, attr in (
        ("hit", "path_hits"), ("miss", "path_misses"),
        ("invalidation", "path_invalidations"), ("dropped", "path_dropped"),
        ("revalidated", "path_revalidated"), ("revived", "path_revived"),
        ("bypass", "path_bypasses"), ("shared", "path_shared"))]
    _mirror(registry, "counter", "fastpath_events_total",
            "flow-cache lookups by outcome", partial(getattr, network),
            events, ("device", "event"), cycle_dependent=False)
    _mirror(registry, "gauge", "fastpath_entries",
            "entries resident per flow cache",
            lambda net: net.path_entries,
            [(("net",), network)], ("device",), cycle_dependent=False)


def probe_shard(report: Any, session: "TelemetrySession") -> None:
    """Publish a supervised shard run's supervision ledger.

    Post-hoc like :func:`probe_fabric`: the report's ``supervision``
    dict (attempts, retries, worker crashes, heartbeat gaps, deadline
    kills, corrupt results, inline fallbacks, checkpoint hits/writes)
    becomes one ``shard_events_total`` series per event.  All
    ``cycle_dependent=False`` — the ledger is a pure function of the
    (chaos plan, seed, shard count) and joins the parity set, so a run
    that degraded to inline fallback is *visible* in telemetry even
    though its fingerprint is identical to the clean run.  Reports from
    unsupervised paths (empty ledger) publish nothing.
    """
    supervision = getattr(report, "supervision", None)
    if not supervision:
        return
    _tally(session.registry, "shard_events_total",
           "shard supervisor events by kind", "event", supervision)
    session.trace.emit(
        "shard_supervised",
        f"{report.topology}:{report.workload}@{report.shards}",
        ts=session.trace.clock(),
    )


def probe_frr(network: Any, session: "TelemetrySession") -> None:
    """Mirror a network's fast-reroute ledger into the registry.

    One ``frr_reroutes_total`` / ``frr_blackholed_total`` series per
    device (from the lookup cores' own decision counters) plus a
    ``frr_port_liveness`` gauge holding each device's one-hot live-port
    bitmap.  All ``cycle_dependent=False``: reroute decisions are a pure
    function of (traffic, tables, link state), so sim and hw runs of the
    same scenario must agree — the FRR ledger joins the parity set.
    """
    opls = [((name,), opl) for name in network.device_names()
            if (opl := getattr(network.device(name), "opl", None))
            is not None]
    for kind, name, help, read in (
        ("counter", "frr_reroutes_total",
         "packets forwarded via the backup next-hop",
         lambda o: o.counters.get("frr_reroute", 0)),
        ("counter", "frr_blackholed_total",
         "packets dropped with primary down, no backup",
         lambda o: o.counters.get("frr_blackhole", 0)),
        ("gauge", "frr_port_liveness", "one-hot bitmap of live physical ports",
         attrgetter("port_liveness")),
    ):
        _mirror(session.registry, kind, name, help, read, opls, ("device",),
                cycle_dependent=False)


#: The control plane's reconciliation/supervision ledger, mirrored into
#: the registry.  Deliberately ``cycle_dependent=False``: these counters
#: are pure functions of the (plan, seed, tick sequence), so they join
#: the parity set the sim and hw soak runs must agree on.
RESILIENCE_COUNTERS = (
    "audits",
    "drift_entries",
    "repair_writes",
    "repair_retries",
    "repair_failures",
    "heartbeat_failures",
    "manager_restarts",
    "degraded_entries",
    "degraded_exits",
    "mutations_applied",
    "mutations_queued",
    "mutations_replayed",
)


def probe_resilience(plane: Any, session: "TelemetrySession") -> None:
    """Mirror a :class:`~repro.resilience.control.ControlPlane`'s ledger.

    Reconciliation/supervision counters become snapshot-backed registry
    series (in the sim/hw parity set), the degraded flag and mutation
    queue depth become gauges, and every resilience event (drift found,
    manager restarted, degraded entered/left, queue replayed) becomes a
    trace event — all through the plane's ``event_hook``, same
    hook-attribute pattern as the driver and fault probes.
    """
    registry = session.registry
    _mirror(registry, "counter", "resilience_total",
            "control-plane reconciliation/supervision events",
            lambda n: plane.counters.get(n, 0),
            [((n,), n) for n in RESILIENCE_COUNTERS], ("event",),
            cycle_dependent=False)
    _mirror(registry, "gauge", "resilience_degraded",
            "1 while the breaker holds the plane degraded",
            lambda p: 1 if p.degraded else 0, [((), plane)])
    _mirror(registry, "gauge", "resilience_queued_mutations",
            "mutations parked awaiting recovery",
            lambda p: len(p.queue), [((), plane)])
    trace = session.trace
    clock = trace.clock

    def hook(kind: str, detail: str) -> None:
        trace.emit("resilience", f"{kind}:{detail}", ts=clock())

    plane.event_hook = hook
