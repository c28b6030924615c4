"""The harness: one test description, two execution targets.

A :class:`NetFpgaTest` names a project factory, the stimuli to inject
and the packets expected at each port.  ``run_test(test, mode)`` builds
a *fresh* project (so sim and hw runs cannot contaminate each other),
executes, and checks expectations; per-port packet order must match, but
cross-port interleaving is unspecified (as on real hardware).

An optional ``cpu_handler`` models the software slow path: packets that
arrive at DMA ports are handed to it and the frames it returns are
re-injected through the corresponding DMA source, iterating until the
system quiesces — the router's ARP/ICMP round trips run under both
modes this way.

``run_test(test, mode, faults=...)`` re-runs any existing test under a
named or explicit :class:`~repro.faults.plan.FaultPlan`.  Link faults
are applied to the stimuli on their way in — the same seeded decision
stream in both modes, so recovery counters are mode-identical — with
per-frame retransmission up to the plan's budget.  The harness then
asserts eventual delivery (exact expectations) or, when the plan allows
permanent loss, clean *counted* loss: each port's output must be an
ordered subsequence of its expectation and every missing frame is
accounted in the attached :class:`~repro.faults.plan.FaultReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.core.axis import StreamPacket, StreamSink, StreamSource
from repro.core.simulator import Simulator
from repro.faults.errors import NonQuiescent
from repro.faults.plan import FaultPlan, FaultReport, FaultSession, get_plan
from repro.projects.base import ALL_PORTS, PortRef, ReferencePipeline
from repro.telemetry.probes import PipelineProbes, probe_faults
from repro.telemetry.session import TelemetrySession, TelemetrySnapshot, make_session

#: cpu_handler(frame, phys_port_index) -> [(phys_port_index, frame), ...]
CpuHandler = Callable[[bytes, int], list[tuple[int, bytes]]]

#: Safety bound on sim length per round.
MAX_CYCLES = 200_000
#: Rounds of CPU reinjection before declaring non-quiescence.
MAX_CPU_ROUNDS = 8


@dataclass(frozen=True)
class Stimulus:
    """One injected packet."""

    port: PortRef
    frame: bytes


@dataclass
class HarnessResult:
    """Everything a check needs: per-port outputs and run metadata."""

    mode: str
    outputs: dict[PortRef, list[bytes]]
    cycles: int = 0
    cpu_rounds: int = 0
    #: Present when the run executed under a fault plan.
    fault_report: Optional[FaultReport] = None
    #: Present when the run executed with telemetry attached.
    telemetry: Optional[TelemetrySnapshot] = None

    def at(self, port: PortRef) -> list[bytes]:
        return self.outputs.get(port, [])

    def total_packets(self) -> int:
        return sum(len(v) for v in self.outputs.values())


@dataclass
class NetFpgaTest:
    """A unified test description (the ``.py`` test files of NetFPGA)."""

    name: str
    project_factory: Callable[[], ReferencePipeline]
    stimuli: list[Stimulus]
    expected: dict[PortRef, list[bytes]] = field(default_factory=dict)
    cpu_handler_factory: Optional[Callable[[ReferencePipeline], CpuHandler]] = None
    #: Ports with expectations are checked exactly; others must be empty
    #: unless listed here.
    ignore_ports: tuple[PortRef, ...] = ()


# ----------------------------------------------------------------------
# sim target
# ----------------------------------------------------------------------
def run_sim(
    project: ReferencePipeline,
    stimuli: list[Stimulus],
    cpu_handler: Optional[CpuHandler] = None,
    egress_pacing: Optional[Callable[[int], bool]] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> HarnessResult:
    """Execute against the cycle-driven kernel.

    ``egress_pacing(cycle) -> stall?`` throttles the physical-port sinks,
    modelling the MAC drain rate (e.g. ``lambda c: c % 5 != 0`` ≈ 10G on
    the 256-bit/200MHz pipeline).  Without it sinks are always ready, so
    the internal pipeline never congests — fine for functional tests,
    wrong for queueing experiments.

    ``telemetry`` (a ``sim``-mode :class:`TelemetrySession`) arms the
    kernel pipeline probes: one cycle hook, zero module changes.
    """
    sim = Simulator()
    sources = {p: StreamSource(f"tb_src_{p}", project.rx[p]) for p in ALL_PORTS}
    sinks = {
        p: StreamSink(
            f"tb_snk_{p}",
            project.tx[p],
            backpressure=egress_pacing if p.kind == "phys" else None,
        )
        for p in ALL_PORTS
    }
    for module in (*sources.values(), project, *sinks.values()):
        sim.add(module)
    if telemetry is not None:
        probes = PipelineProbes(project, telemetry)
        sim.add_cycle_hook(probes.on_cycle)

    for stim in stimuli:
        packet = StreamPacket(stim.frame).with_src_port(stim.port.bit)
        sources[stim.port].send(packet)

    consumed_dma: dict[PortRef, int] = {p: 0 for p in ALL_PORTS if p.kind == "dma"}
    cpu_rounds = 0

    def drain() -> None:
        quiet_streak = 0
        last_tx_beats = -1
        for _ in range(MAX_CYCLES):
            sim.step()
            tx_beats = sum(project.tx[p].beats_transferred for p in ALL_PORTS)
            if all(src.idle for src in sources.values()) and tx_beats == last_tx_beats:
                quiet_streak += 1
            else:
                quiet_streak = 0
            last_tx_beats = tx_beats
            # Quiescent: sources empty and no egress beat for a window
            # longer than any pacing gap — queued packets have flushed.
            if quiet_streak >= 256:
                return
        raise NonQuiescent(f"simulation did not drain within {MAX_CYCLES} cycles")

    drain()
    if cpu_handler is not None:
        for cpu_rounds in range(1, MAX_CPU_ROUNDS + 1):
            reinjected = 0
            for port in consumed_dma:
                fresh = sinks[port].packets[consumed_dma[port] :]
                consumed_dma[port] = len(sinks[port].packets)
                for packet in fresh:
                    for out_port, frame in cpu_handler(packet.data, port.index):
                        dma_port = PortRef("dma", out_port)
                        sources[dma_port].send(
                            StreamPacket(frame).with_src_port(dma_port.bit)
                        )
                        reinjected += 1
            if reinjected == 0:
                break
            drain()
        else:
            raise NonQuiescent(
                f"CPU slow path did not quiesce after {MAX_CPU_ROUNDS} "
                f"reinjection rounds"
            )

    outputs: dict[PortRef, list[bytes]] = {}
    for port, sink in sinks.items():
        if port.kind == "dma" and cpu_handler is not None:
            # DMA arrivals were consumed by the CPU model.
            outputs[port] = []
            continue
        outputs[port] = [packet.data for packet in sink.packets]
    return HarnessResult("sim", outputs, cycles=sim.cycle, cpu_rounds=cpu_rounds)


# ----------------------------------------------------------------------
# hw target (behavioural fast path)
# ----------------------------------------------------------------------
def run_hw(
    project: ReferencePipeline,
    stimuli: list[Stimulus],
    cpu_handler: Optional[CpuHandler] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> HarnessResult:
    """Execute against the behavioural model — the 'real device' stand-in.

    With ``telemetry`` (an ``hw``-mode session) attached, packet ingress
    and egress become trace events stamped in wall-clock nanoseconds —
    the domain a real device's software-visible events live in.
    """
    trace = telemetry.trace if telemetry is not None else None
    outputs: dict[PortRef, list[bytes]] = {p: [] for p in ALL_PORTS}
    work: list[tuple[PortRef, bytes]] = [(s.port, s.frame) for s in stimuli]
    cpu_rounds = 0
    for round_idx in range(MAX_CPU_ROUNDS + 1):
        next_work: list[tuple[PortRef, bytes]] = []
        for port, frame in work:
            if trace is not None:
                trace.emit("packet_in", str(port), bytes=len(frame))
            for out_port, out_frame in project.forward_behavioural(frame, port):
                if out_port.kind == "dma" and cpu_handler is not None:
                    for egress, reply in cpu_handler(out_frame, out_port.index):
                        next_work.append((PortRef("dma", egress), reply))
                else:
                    outputs[out_port].append(out_frame)
                    if trace is not None:
                        trace.emit("packet_out", str(out_port), bytes=len(out_frame))
        if not next_work:
            break
        work = next_work
        cpu_rounds = round_idx + 1
    else:
        raise NonQuiescent(
            f"CPU slow path did not quiesce after {MAX_CPU_ROUNDS} "
            f"reinjection rounds"
        )
    return HarnessResult("hw", outputs, cpu_rounds=cpu_rounds)


# ----------------------------------------------------------------------
# fault application (shared by both modes, hence mode-identical counters)
# ----------------------------------------------------------------------
def _apply_link_faults(
    session: FaultSession, stimuli: list[Stimulus]
) -> tuple[list[Stimulus], list[int]]:
    """Pass every stimulus through the plan's wire, with retransmission.

    Returns ``(delivered_stimuli, lost_indices)``.  The decision stream
    is a pure function of the plan's seed and the stimulus order, which
    both targets share — so a ``sim`` and an ``hw`` run of the same test
    under the same seed fault, retransmit and lose *identically*.
    """
    lost = session.link_transfers(len(stimuli))
    gone = set(lost)
    return [s for i, s in enumerate(stimuli) if i not in gone], lost


def _count_harness_traffic(
    tsession: TelemetrySession, stimuli: list[Stimulus], result: HarnessResult
) -> None:
    """Feed the cycle-independent packet/byte ledgers.

    Both targets pass through here with the *same* delivered stimuli
    (link faults are applied before the mode split) and their checked
    outputs — so these series form the sim/hw parity subset.
    """
    registry = tsession.registry
    pkts_in = registry.counter(
        "port_packets_in", "packets injected per port", labelnames=("port",)
    )
    bytes_in = registry.counter(
        "port_bytes_in", "bytes injected per port", labelnames=("port",)
    )
    for stim in stimuli:
        pkts_in.labels(str(stim.port)).inc()
        bytes_in.labels(str(stim.port)).inc(len(stim.frame))
    pkts_out = registry.counter(
        "port_packets_out", "packets delivered per port", labelnames=("port",)
    )
    bytes_out = registry.counter(
        "port_bytes_out", "bytes delivered per port", labelnames=("port",)
    )
    for port, frames in result.outputs.items():
        for frame in frames:
            pkts_out.labels(str(port)).inc()
            bytes_out.labels(str(port)).inc(len(frame))


def _is_subsequence(got: list[bytes], want: list[bytes]) -> bool:
    """True when ``got`` is ``want`` with zero or more frames removed."""
    it = iter(want)
    return all(any(g == w for w in it) for g in got)


# ----------------------------------------------------------------------
# unified entry
# ----------------------------------------------------------------------
def run_test(
    test: NetFpgaTest,
    mode: str,
    faults: Optional[Union[FaultPlan, str]] = None,
    telemetry: Union[bool, TelemetrySession, None] = False,
) -> HarnessResult:
    """Run one test in ``'sim'`` or ``'hw'`` mode and check expectations.

    ``faults`` re-runs the unchanged test under a fault plan (an explicit
    :class:`FaultPlan` or a registered name like ``"lossy-link"``).  The
    harness then demands eventual delivery — or clean, counted loss when
    the plan permits it — instead of wedging.

    ``telemetry=True`` attaches a session-scoped metrics registry and
    trace recorder; the result carries a
    :class:`~repro.telemetry.session.TelemetrySnapshot` whose
    cycle-independent subset (packet/byte totals per port, fed from the
    same delivered stimuli and checked outputs in both modes) must agree
    between ``sim`` and ``hw`` — the measurement-plane extension of
    experiment E11.  Pass an existing :class:`TelemetrySession` instead
    of ``True`` to pre-register series or keep the trace for export.
    """
    if mode not in ("sim", "hw"):
        raise ValueError("mode must be 'sim' or 'hw'")
    project = test.project_factory()
    cpu_handler = (
        test.cpu_handler_factory(project) if test.cpu_handler_factory else None
    )
    tsession = make_session(telemetry, mode)
    session: Optional[FaultSession] = None
    stimuli = test.stimuli
    lost: list[int] = []
    if faults is not None:
        plan = get_plan(faults) if isinstance(faults, str) else faults
        session = plan.session()
        if tsession is not None:
            probe_faults(session, tsession)
        stimuli, lost = _apply_link_faults(session, stimuli)
    if mode == "sim":
        result = run_sim(project, stimuli, cpu_handler, telemetry=tsession)
    else:
        result = run_hw(project, stimuli, cpu_handler, telemetry=tsession)
    if session is not None:
        result.fault_report = session.report()
    if tsession is not None:
        _count_harness_traffic(tsession, stimuli, result)
        result.telemetry = tsession.snapshot()

    for port in ALL_PORTS:
        if port in test.ignore_ports:
            continue
        got = result.at(port)
        want = test.expected.get(port, [])
        if not lost:
            if got != want:
                raise AssertionError(
                    f"[{test.name}/{mode}] port {port}: expected "
                    f"{len(want)} packets, got {len(got)}"
                    + _first_diff(want, got)
                )
        elif not _is_subsequence(got, want):
            # Counted loss: delivered frames must still be the expected
            # frames in the expected per-port order, just with the lost
            # stimuli's contributions missing.
            raise AssertionError(
                f"[{test.name}/{mode}] port {port}: output is not an "
                f"ordered subsequence of the expectation under fault plan "
                f"{result.fault_report.plan!r} ({len(lost)} stimuli lost)"
            )
    return result


def _first_diff(want: list[bytes], got: list[bytes]) -> str:
    for i, (w, g) in enumerate(zip(want, got)):
        if w != g:
            return f"; first mismatch at index {i}: want {w[:32].hex()}…, got {g[:32].hex()}…"
    return ""
