"""Latency/occupancy probes: wiring a live design into a telemetry session.

Design rule: probes are *passive* and *interface-preserving* (claim C3).
Nothing here changes a module's ports or behaviour; the kernel-side
probes watch the lifetime counters the channels and cores already
maintain (``beats_transferred``, ``packets_in``, ``enqueued`` …) and the
event-driven side uses the same optional hook-attribute pattern the
fault layer established (``DmaEngine.telemetry_hook``,
``NetFpgaDriver.event_hook``, ``FaultSession.on_fault``).

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
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.session import TelemetrySession

#: Cycles between occupancy gauge samples on the Chrome counter track.
OCCUPANCY_SAMPLE_CYCLES = 64

#: OPL-stage latency histogram buckets (cycles).
LATENCY_BUCKETS = (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512)


class ProbedChannel:
    """A passive per-cycle watcher over one AXI4-Stream channel.

    Wraps (without replacing) a channel: packet-boundary transfers become
    trace events and the channel's lifetime counters become registry
    series.  ``observe(cycle)`` is the hot path; everything else is
    arm-time setup.
    """

    __slots__ = ("channel", "name", "event_kind", "_trace", "_last_packets")

    def __init__(self, channel: Any, name: str, event_kind: str, session):
        self.channel = channel
        self.name = name
        self.event_kind = event_kind
        self._trace = session.trace
        self._last_packets = channel.packets_transferred
        counters = session.registry.counter(
            "chan_packets_total", "packets across a probed channel",
            labelnames=("chan",), cycle_dependent=True,
        )
        counters.labels(name).bind(lambda c=channel: c.packets_transferred)
        session.registry.counter(
            "chan_beats_total", "beats across a probed channel",
            labelnames=("chan",), cycle_dependent=True,
        ).labels(name).bind(lambda c=channel: c.beats_transferred)
        session.registry.counter(
            "chan_stall_cycles_total", "valid-but-not-ready cycles",
            labelnames=("chan",), cycle_dependent=True,
        ).labels(name).bind(lambda c=channel: c.stall_cycles)

    def observe(self, cycle: int) -> bool:
        """True when a packet completed on this channel this cycle."""
        packets = self.channel.packets_transferred
        if packets == self._last_packets:
            return False
        self._last_packets = packets
        self._trace.emit(self.event_kind, self.name, ts=cycle)
        return True


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

        # rx_/tx_ prefixes match the StatsCollector's channel labels and
        # keep the per-direction registry children distinct.
        self._rx = [
            ProbedChannel(project.rx[p], f"rx_{p}", "packet_in", session)
            for p in project.ports
        ]
        self._tx = [
            ProbedChannel(project.tx[p], f"tx_{p}", "packet_out", session)
            for p in project.ports
        ]
        self._arb_out = ProbedChannel(
            project.opl.s_axis, "arb_to_opl", "arbiter_grant", session
        )
        self._opl_out = ProbedChannel(
            project.oq.s_axis, "opl_to_oq", "queue_enq", session
        )
        # Hot-path mirrors of the probes above: mutable scan records
        # ``[channel, last_packets, name, oq_index]`` so the per-cycle
        # scan is plain attribute compares — no per-channel method calls,
        # no enumerate tuples.
        self._rx_scan = [
            [p.channel, p.channel.packets_transferred, p.name] for p in self._rx
        ]
        self._tx_scan = [
            [p.channel, p.channel.packets_transferred, p.name, i]
            for i, p in enumerate(self._tx)
        ]
        self._arb_chan = self._arb_out.channel
        self._arb_last = self._arb_chan.packets_transferred
        self._oplout_chan = self._opl_out.channel
        self._oplout_last = self._oplout_chan.packets_transferred

        # Arbiter grant attribution: which input won the last packet.
        arbiter = project.arbiter
        self._arbiter = arbiter
        self._grants_last = list(arbiter.packets_in)
        grant_counter = registry.counter(
            "arbiter_grants_total", "packet grants per ingress port",
            labelnames=("port",), cycle_dependent=True,
        )
        for i, port in enumerate(project.ports):
            grant_counter.labels(str(port)).bind(
                lambda a=arbiter, i=i: a.packets_in[i]
            )

        # Output queues: per-port admission ledger + occupancy gauges.
        oq = project.oq
        self._oq_ports = oq.ports
        self._port_names = [str(p) for p in project.ports]
        self._oq_enq_last = [ps.enqueued for ps in oq.ports]
        self._oq_drop_last = [ps.dropped for ps in oq.ports]
        for label, attr in (
            ("oq_enqueued_total", "enqueued"),
            ("oq_dequeued_total", "dequeued"),
            ("oq_dropped_total", "dropped"),
            ("oq_ecn_marked_total", "ecn_marked"),
        ):
            fam = registry.counter(
                label, f"output-queue {attr} packets per port",
                labelnames=("port",), cycle_dependent=True,
            )
            for name, ps in zip(self._port_names, oq.ports):
                fam.labels(name).bind(lambda p=ps, a=attr: getattr(p, a))
        occupancy = registry.gauge(
            "oq_occupancy_bytes", "buffered bytes per egress port",
            labelnames=("port",), cycle_dependent=True,
        )
        watermark = registry.gauge(
            "oq_high_watermark_bytes", "peak buffered bytes per egress port",
            labelnames=("port",), cycle_dependent=True,
        )
        for name, ps in zip(self._port_names, oq.ports):
            occupancy.labels(name).bind(lambda p=ps: sum(p.occupancy))
            watermark.labels(name).bind(lambda p=ps: p.high_watermark)

        # OPL decision ledger mirrored from the core's own counters.
        registry.counter(
            "opl_packets_total", "packets through the output-port lookup",
            cycle_dependent=True,
        ).bind(lambda o=project.opl: o.packets)
        registry.counter(
            "opl_drops_total", "packets dropped by the lookup decision",
            cycle_dependent=True,
        ).bind(lambda o=project.opl: o.drops)

        # Latency probes: OPL transit and per-port queue wait.
        self._opl_latency = registry.histogram(
            "opl_latency_cycles", "arbiter-egress to OQ-ingress packet latency",
            buckets=LATENCY_BUCKETS, cycle_dependent=True,
        ).labels()
        self._opl_inflight: deque[int] = deque()
        wait = registry.histogram(
            "oq_wait_cycles", "enqueue-to-egress wait per port",
            labelnames=("port",), buckets=LATENCY_BUCKETS, cycle_dependent=True,
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
        stay a flat loop of integer compares over the hot-path mirrors,
        which is why the :class:`ProbedChannel` objects are not consulted
        here (they exist for arm-time registry wiring).
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
    registry = session.registry
    registry.counter("dma_tx_frames_total", "frames the engine transmitted",
                     cycle_dependent=True).bind(lambda d=dma: d.tx_frames)
    registry.counter("dma_rx_frames_total", "frames the engine received",
                     cycle_dependent=True).bind(lambda d=dma: d.rx_frames)
    registry.counter("dma_msi_total", "MSI interrupts fired",
                     cycle_dependent=True).bind(lambda d=dma: d.msi_fired)
    registry.gauge("dma_tx_ring_occupancy", "posted TX descriptors pending"
                   ).bind(lambda d=dma: d.tx_ring.occupancy)
    registry.gauge("dma_rx_ring_space", "free RX descriptors posted"
                   ).bind(lambda d=dma: d.rx_ring.occupancy)
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
    recovery = registry.counter(
        "driver_recovery_total", "driver self-healing repairs by kind",
        labelnames=("kind",), cycle_dependent=True,
    )
    for name in driver.recovery.as_dict():
        recovery.labels(name).bind(
            lambda d=driver, n=name: getattr(d.recovery, n)
        )
    registry.counter("driver_mmio_reads_total", "MMIO register reads",
                     cycle_dependent=True).bind(lambda d=driver: d.mmio_reads)
    registry.counter("driver_mmio_writes_total", "MMIO register writes",
                     cycle_dependent=True).bind(lambda d=driver: d.mmio_writes)
    registry.counter("driver_tx_frames_total", "frames handed to the TX ring",
                     cycle_dependent=True).bind(lambda d=driver: d.tx_sent)
    registry.counter("driver_rx_frames_total", "frames harvested from the RX ring",
                     cycle_dependent=True).bind(lambda d=driver: d.rx_received)
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
    to hook, so the probe simply feeds the
    :class:`~repro.fabric.FabricReport`'s order-independent aggregates
    into the registry (all ``cycle_dependent=False`` — they describe
    delivered work, so they join the sim/hw parity set) and emits one
    trace span per run for the timeline view.
    """
    report.feed(session.registry)
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
    outcomes = registry.counter(
        "int_packets_total", "INT packets by receiver-observed outcome",
        labelnames=("outcome",), cycle_dependent=False,
    )
    for outcome in ("packets", "delivered", "lost", "blackholes",
                    "overflows"):
        count = summary.get(outcome, 0)
        if count:
            outcomes.labels(outcome).inc(count)
    reroutes = registry.counter(
        "int_reroutes_total", "FRR-flagged stamps per rerouting device",
        labelnames=("device",), cycle_dependent=False,
    )
    for device, count in summary.get("reroutes", {}).items():
        reroutes.labels(device).inc(count)
    links = registry.counter(
        "int_reroute_links_total", "reroutes attributed to a failed link",
        labelnames=("link",), cycle_dependent=False,
    )
    for link, count in summary.get("reroute_links", {}).items():
        links.labels(link).inc(count)
    latency = registry.histogram(
        "int_hop_latency_cycles", "per-hop latency from stamp deltas",
        labelnames=("device",),
        buckets=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        cycle_dependent=False,
    )
    for key, count in summary.get("hop_latency", {}).items():
        device, _, cycles = key.rpartition(":")
        child = latency.labels(device)
        for _ in range(count):
            child.observe(float(cycles))


def probe_fastpath(network: Any, session: "TelemetrySession") -> None:
    """Mirror a test network's flow-cache counters into the registry.

    One ``fastpath_events_total`` series per (device, event) for the
    microflow caches, plus the network-wide path cache under the
    pseudo-device ``net``; ``fastpath_entries`` gauges track occupancy.
    All ``cycle_dependent=False``: cache behaviour is a pure function of
    the traffic and table mutations, so sim and hw runs of the same
    scenario must agree — the counters join the parity set rather than
    being waived from it.
    """
    registry = session.registry
    events = registry.counter(
        "fastpath_events_total", "flow-cache lookups by outcome",
        labelnames=("device", "event"), cycle_dependent=False,
    )
    entries = registry.gauge(
        "fastpath_entries", "entries resident per flow cache",
        labelnames=("device",), cycle_dependent=False,
    )
    for name in network.device_names():
        cache = getattr(network.device(name), "fastpath", None)
        if cache is None:
            continue
        for event, attr in (("hit", "hits"), ("miss", "misses"),
                            ("invalidation", "invalidations"),
                            ("bypass", "bypasses")):
            events.labels(name, event).bind(
                lambda c=cache, a=attr: getattr(c, a)
            )
        entries.labels(name).bind(lambda c=cache: len(c.entries))
    for event, attr in (("hit", "path_hits"), ("miss", "path_misses"),
                        ("invalidation", "path_invalidations"),
                        ("dropped", "path_dropped"),
                        ("bypass", "path_bypasses"),
                        ("shared", "path_shared")):
        events.labels("net", event).bind(
            lambda n=network, a=attr: getattr(n, a)
        )
    entries.labels("net").bind(lambda n=network: n.path_entries)


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
    events = session.registry.counter(
        "shard_events_total", "shard supervisor events by kind",
        labelnames=("event",), cycle_dependent=False,
    )
    for event, count in sorted(supervision.items()):
        if count:
            events.labels(event).inc(count)
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
    registry = session.registry
    reroutes = registry.counter(
        "frr_reroutes_total", "packets forwarded via the backup next-hop",
        labelnames=("device",), cycle_dependent=False,
    )
    blackholed = registry.counter(
        "frr_blackholed_total", "packets dropped with primary down, no backup",
        labelnames=("device",), cycle_dependent=False,
    )
    liveness = registry.gauge(
        "frr_port_liveness", "one-hot bitmap of live physical ports",
        labelnames=("device",), cycle_dependent=False,
    )
    for name in network.device_names():
        opl = getattr(network.device(name), "opl", None)
        if opl is None:
            continue
        reroutes.labels(name).bind(
            lambda o=opl: o.counters.get("frr_reroute", 0)
        )
        blackholed.labels(name).bind(
            lambda o=opl: o.counters.get("frr_blackhole", 0)
        )
        liveness.labels(name).bind(lambda o=opl: o.port_liveness)


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
    ledger = registry.counter(
        "resilience_total", "control-plane reconciliation/supervision events",
        labelnames=("event",),
    )
    for name in RESILIENCE_COUNTERS:
        ledger.labels(name).bind(lambda p=plane, n=name: p.counters.get(n, 0))
    registry.gauge(
        "resilience_degraded", "1 while the breaker holds the plane degraded",
    ).bind(lambda p=plane: 1 if p.degraded else 0)
    registry.gauge(
        "resilience_queued_mutations", "mutations parked awaiting recovery",
    ).bind(lambda p=plane: len(p.queue))
    trace = session.trace
    clock = trace.clock

    def hook(kind: str, detail: str) -> None:
        trace.emit("resilience", f"{kind}:{detail}", ts=clock())

    plane.event_hook = hook
