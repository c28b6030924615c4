"""The traced pass: each layer timed from outside, by calling it.

Nothing under ``src/`` is instrumented.  A layer's number is the time
(or exact call count) of its own public functions, called here on a
throwaway replica with the workload's own flows and frames.  These
functions are *not* stable surface — the ROADMAP plans to delete tiers
and flags — so every probe runs under :meth:`Probes.run`: a function
that was renamed, removed or re-shaped turns its metrics into ``null``
with the reason recorded, and the run carries on.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from itertools import islice
from dataclasses import replace
from typing import Callable, Optional

import spec as bench_spec
from workloads import Case

#: Flow directions the tier probes inject (a cold walk is ~0.3 ms).
PROBE_DIRECTIONS = 512
#: Packets per ``inject_batch`` call in the tier probe.
BATCH_COUNT = 64
#: Passes a repeatable probe takes the floor of.
PROBE_PASSES = 3

_FILE_LAYERS = (
    ("fabric/scheduler.py", "fabric.scheduler"),
    ("fabric/topo.py", "fabric.topo"),
    ("fabric/workload.py", "fabric.workload"),
    ("fabric/shard.py", "fabric.shard"),
    ("fabric/supervisor.py", "fabric.shard"),
    ("testenv/topology.py", "testenv.topology"),
    ("fastpath/", "fastpath"),
    ("cores/", "cores"),
    ("projects/", "projects"),
    ("packet/", "packet"),
    ("int/", "int"),
    ("faults/", "faults"),
    ("frr/", "frr"),
    ("utils/", "utils"),
    ("core/", "core"),
)


class Probes:
    """Per-layer values, and why any of them is missing."""

    def __init__(self) -> None:
        self.values: dict[str, Optional[float]] = {}
        self.unavailable: dict[str, str] = {}
        self.spawn_fingerprint: Optional[str] = None

    def run(self, names: tuple[str, ...], probe: Callable[[], dict]) -> None:
        try:
            self.values.update(probe())
        except (ImportError, AttributeError, TypeError) as exc:
            self.drop(names, f"{type(exc).__name__}: {exc}")

    def drop(self, names: tuple[str, ...], reason: str) -> None:
        for name in names:
            self.values[name] = None
            self.unavailable[name] = reason


def _floor(passes: int, timed: Callable[[], float]) -> float:
    return min(timed() for _ in range(passes))


# ----------------------------------------------------------------------
# The workload's own flows and frames, per replica
# ----------------------------------------------------------------------
def _replica(case: Case):
    """A learned replica programmed like the workload's own."""
    topology = case.spec.build()
    topology.learn()
    if case.options.get("frr"):
        topology.install_backups()
    return topology


def _carried(case: Case, flows, index: int = 0, shards: int = 1):
    """The flows replica ``index`` carries, as its engine sees them."""
    if shards > 1:
        flows = [f for f in flows if f.flow_id % shards == index]
    if case.options.get("int_all"):
        flows = [replace(f, int_enabled=True) for f in flows]
    return flows


def _flows(case: Case, topology):
    from repro.fabric import generate_flows

    return _carried(case, generate_flows(topology.host_names(),
                                         case.workload))


def _injections(topology, flows):
    """Yields ``(device, port, frame, flow, is_response)`` per flow
    direction, built the way the engine's prewarm builds them."""
    from repro.fabric.scheduler import flow_frame, int_frame

    for flow in flows:
        for is_response in (False, True):
            if is_response and not flow.response_packets:
                continue
            src = topology.hosts[flow.dst if is_response else flow.src]
            builder = int_frame if flow.int_enabled else flow_frame
            yield (src.device, src.port,
                   builder(topology, flow, is_response), flow, is_response)


def _probe_injections(case: Case, topology) -> list[tuple]:
    """The workload's first ``PROBE_DIRECTIONS`` flow directions."""
    return list(islice(_injections(topology, _flows(case, topology)),
                       PROBE_DIRECTIONS))


# ----------------------------------------------------------------------
# Slices of scheduler.init_s
# ----------------------------------------------------------------------
def init_slices(case: Case, init_s: float, prewarms: bool) -> dict:
    """What ``FlowEngine.__init__`` spends, replayed call by call.

    Summed over the workload's replicas, like ``scheduler.init_s``.
    Frame templating and ``warm_paths`` belong to set-up only when the
    run prewarms (the batch tier is eligible); otherwise frames are
    built lazily inside dispatch and both slices are zero.
    """
    from repro.fabric import generate_flows

    def one_pass() -> dict:
        spent = Counter()
        for index in range(case.shards):
            topology = case.spec.build()
            topology.learn()
            mark = time.perf_counter()
            if case.options.get("frr"):
                topology.install_backups()
            spent["topo.install_backups_s"] += time.perf_counter() - mark
            mark = time.perf_counter()
            flows = generate_flows(topology.host_names(), case.workload)
            spent["workload.generate_s"] += time.perf_counter() - mark
            if not prewarms:
                continue
            flows = _carried(case, flows, index, case.shards)
            mark = time.perf_counter()
            injections = list(_injections(topology, flows))
            spent["scheduler.frames_s"] += time.perf_counter() - mark
            mark = time.perf_counter()
            topology.network.warm_paths(
                [(device, port, frame)
                 for device, port, frame, _, _ in injections])
            spent["topology.warm_paths_s"] += time.perf_counter() - mark
        return spent

    passes = [one_pass() for _ in range(2)]
    slices = {
        name: min(spent[name] for spent in passes)
        for name in bench_spec.INIT_SLICES if name != "scheduler.init_self_s"
    }
    slices["scheduler.init_self_s"] = init_s - sum(slices.values())
    return slices


# ----------------------------------------------------------------------
# Forwarding tiers, per packet
# ----------------------------------------------------------------------
TIER_METRICS = ("topology.inject_cold_us", "topology.inject_warm_us",
                "topology.inject_many_us", "topology.inject_batch_us")


def tier_probes(case: Case) -> dict:
    topology = _replica(case)
    network = topology.network
    injections = [(device, port, frame) for device, port, frame, _, _
                  in _probe_injections(case, topology)]
    n = len(injections)

    def each_inject() -> float:
        mark = time.perf_counter()
        for device, port, frame in injections:
            network.inject(device, port, frame)
        return (time.perf_counter() - mark) / n * 1e6

    def many() -> float:
        mark = time.perf_counter()
        network.inject_many(injections)
        return (time.perf_counter() - mark) / n * 1e6

    def batch() -> float:
        mark = time.perf_counter()
        for device, port, frame in injections:
            network.inject_batch(device, port, frame, BATCH_COUNT)
        return (time.perf_counter() - mark) / (n * BATCH_COUNT) * 1e6

    return {
        # First touch: the full decide() walk (one pass; then it's warm).
        "topology.inject_cold_us": each_inject(),
        "topology.inject_warm_us": _floor(PROBE_PASSES, each_inject),
        "topology.inject_many_us": _floor(PROBE_PASSES, many),
        "topology.inject_batch_us": _floor(PROBE_PASSES, batch),
    }


# ----------------------------------------------------------------------
# INT collector
# ----------------------------------------------------------------------
INT_METRICS = ("int.deliver_us", "int.deliver_batch_us", "int.summary_s")


def int_probes(case: Case) -> dict:
    from repro.int import IntCollector

    topology = _replica(case)
    network = topology.network
    collector = IntCollector(network)
    delivered = []
    batch_seqs = range(1, 1 + BATCH_COUNT)
    for device, port, frame, flow, is_response in _probe_injections(
            case, topology):
        result = network.inject(device, port, frame, int_seq=0)
        collector.sent(flow.flow_id, is_response, 0, 0, result)
        collector.sent_batch(flow.flow_id, is_response, batch_seqs,
                             [0] * BATCH_COUNT, result)
        delivered.extend(d.frame for d in result)
    n = len(delivered)

    mark = time.perf_counter()
    for frame in delivered:
        collector.deliver(frame)
    deliver_us = (time.perf_counter() - mark) / n * 1e6
    mark = time.perf_counter()
    for frame in delivered:
        collector.deliver_batch(frame, batch_seqs)
    deliver_batch_us = (time.perf_counter() - mark) / (n * BATCH_COUNT) * 1e6
    mark = time.perf_counter()
    collector.summary()
    return {
        "int.deliver_us": deliver_us,
        "int.deliver_batch_us": deliver_batch_us,
        "int.summary_s": time.perf_counter() - mark,
    }


# ----------------------------------------------------------------------
# Supervisor: the wire format, and one run on the process path
# ----------------------------------------------------------------------
def roundtrip_probe(report) -> dict:
    from repro.fabric.supervisor import report_from_dict, report_to_dict

    def once() -> float:
        mark = time.perf_counter()
        report_from_dict(report_to_dict(report))
        return time.perf_counter() - mark

    return {"supervisor.roundtrip_s": _floor(PROBE_PASSES, once)}


def spawn_probe(case: Case, probes: Probes) -> dict:
    """One ``run_sharded(shards=2)`` through supervised worker
    processes.  Informational: two workers on a shared 2-vCPU box do
    not repeat (README "Why no multi-process workload")."""
    from repro.fabric import run_sharded

    mark = time.perf_counter()
    report = run_sharded(case.spec, case.workload, case.plan,
                         **{**case.options, "shards": 2, "parallel": True})
    probes.spawn_fingerprint = report.fingerprint()
    return {"supervisor.spawn_run_s": time.perf_counter() - mark}


# ----------------------------------------------------------------------
# Counts the report already carries
# ----------------------------------------------------------------------
def report_counts(report, probes: Probes) -> None:
    packets = report.attempted
    for name in bench_spec.REPORT_COUNTS:
        table, key = name.split(".")
        value = getattr(report, table).get(key)
        if value is None:
            probes.drop((name,), f"report.{table} has no {key!r}")
        else:
            probes.values[name] = value
    for name, count in (("batch.replayed_share", "batch.replayed_packets"),
                        ("fastpath.walk_share", "fastpath.path_misses")):
        if probes.values.get(count) is None:
            probes.drop((name,), f"needs {count}")
        else:
            probes.values[name] = probes.values[count] / packets


# ----------------------------------------------------------------------
# Where the calls went
# ----------------------------------------------------------------------
def _layer_of(code, package_dir: str) -> str:
    if isinstance(code, str):
        return "builtins"  # C functions have no code object
    filename = code.co_filename
    if not filename.startswith(package_dir):
        return "stdlib"    # includes dataclass-generated "<string>" code
    tail = filename[len(package_dir):].replace(os.sep, "/")
    for prefix, layer in _FILE_LAYERS:
        if tail.startswith(prefix):
            return layer
    return "repro.other"


def profile_layers(stats, packets: int) -> dict:
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    calls, self_time = Counter(), Counter()
    for entry in stats:
        layer = _layer_of(entry.code, package_dir)
        calls[layer] += entry.callcount
        self_time[layer] += entry.inlinetime
    total_time = sum(self_time.values())
    out = {}
    for layer in bench_spec.LAYERS:
        out[f"{layer}.calls_per_pkt"] = calls[layer] / packets
        out[f"{layer}.self_share"] = self_time[layer] / total_time
    return out


# ----------------------------------------------------------------------
def traced_pass(case: Case, report, stats, spans: dict, events: int,
                staged_over_blackbox: float) -> Probes:
    probes = Probes()
    probes.values.update(spans)
    probes.values["trace.staged_over_blackbox"] = staged_over_blackbox
    probes.values["scheduler.events"] = events
    report_counts(report, probes)
    prewarms = bool(report.batch.get("prewarmed"))
    probes.run(bench_spec.INIT_SLICES, lambda: init_slices(
        case, spans["scheduler.init_s"], prewarms))
    probes.run(TIER_METRICS, lambda: tier_probes(case))
    if report.int_summary is None:
        # The workload carries no INT trailer: the layer does no work.
        probes.values.update(dict.fromkeys(INT_METRICS, 0.0))
    else:
        probes.run(INT_METRICS, lambda: int_probes(case))
    probes.run(("supervisor.roundtrip_s",), lambda: roundtrip_probe(report))
    probes.run(("supervisor.spawn_run_s",), lambda: spawn_probe(case, probes))
    probes.values.update(profile_layers(stats, report.attempted))
    return probes
