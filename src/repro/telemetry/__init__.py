"""Platform telemetry: metrics, cycle-domain tracing, latency probes.

The measurement face of the platform (S19).  The paper's claims are
about *measurable* designs — per-port statistics over AXI4-Lite (§3),
OSNT's precise timestamping (ref [1]), utilization comparison (C4) —
and this package gives every layer one uniform way to be measured:

* :class:`MetricsRegistry` — typed Counter/Gauge/Histogram series with
  labels; exports to JSON, Prometheus text, and an AXI4-Lite register
  block (64-bit ``_hi``/``_lo`` pairs) so hardware-style readout works;
* :class:`TraceRecorder` — a bounded flight recorder of typed events
  stamped in the executing target's clock domain (sim cycles / wall ns),
  exportable as Chrome ``trace_event`` JSON;
* :class:`PipelineProbes` and the ``probe_dma`` / ``probe_driver`` /
  ``probe_faults`` hooks — passive, interface-preserving observation of
  a live design;
* :class:`TelemetrySession` — one run's registry+trace pair, snapshotted
  into a :class:`TelemetrySnapshot` whose cycle-independent subset must
  agree between the ``sim`` and ``hw`` targets.

Quickstart::

    from repro.testenv import run_test

    result = run_test(my_test, "sim", telemetry=True)
    print(result.telemetry.counters["port_packets_out{port=\\"nf1\\"}"])
    # or from the shell:  nf-mon dump --scenario switch_learn_and_forward
"""

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.probes import (
    PipelineProbes,
    probe_dma,
    probe_driver,
    probe_fabric,
    probe_fastpath,
    probe_frr,
    probe_int,
    probe_shard,
    probe_faults,
    probe_resilience,
)
from repro.telemetry.session import TelemetrySession, TelemetrySnapshot, make_session
from repro.telemetry.trace import TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryError",
    "PipelineProbes",
    "probe_dma",
    "probe_driver",
    "probe_fabric",
    "probe_fastpath",
    "probe_frr",
    "probe_int",
    "probe_shard",
    "probe_faults",
    "probe_resilience",
    "TelemetrySession",
    "TelemetrySnapshot",
    "make_session",
    "TraceEvent",
    "TraceRecorder",
]
