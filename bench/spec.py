"""What the benchmark measures, as plain data.

Nothing here imports ``repro``: the parent process (``run.py``), the
measuring child (``child.py``), the self-check and ``BENCHMARK.json``
all read the same tables, and ``test_selfcheck.py`` pins the JSON file
to them.  The reasons behind every choice are in ``README.md``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str            # "higher" | "lower"
    bound: Optional[float]  # allowed worsening; None for per-layer metrics


#: How long one run measures (``BENCHMARK.json`` ``run_seconds``).  The
#: timed reps fill this window; everything else in a run is overhead.
RUN_SECONDS = 18

WORKLOADS = (
    Workload(
        "elephants",
        "192 long clean flows on leaf-spine: every packet replays through "
        "the compiled batch tier, dispatch is ~78% of wall, set-up ~22%",
    ),
    Workload(
        "mice",
        "2400 two-packet flows on fat-tree-4: set-up (3.6k cold walks) is "
        "~70% of wall, largest working set; the mirror image of elephants",
    ),
    Workload(
        "lossy",
        "600 bursty flows under the lossy-link plan: an armed link fault "
        "bars the batch tier, so every packet takes the per-packet path "
        "cache plus fault draws and retransmits",
    ),
    Workload(
        "churn",
        "800 INT flows on abilene with FRR, 36 scripted link cuts and 4 "
        "inline shards: cache invalidations, batch splits, re-walks and "
        "merge sit on the end-to-end path",
    ),
)

#: Bounds are at least three times the widest seed-to-seed spread
#: measured on the build box (README "Why floors, and why these bounds").
END_TO_END = (
    Metric("pps_wall", "1/s", "higher", 0.20),
    Metric("cpu_us_per_pkt", "us", "lower", 0.20),
    Metric("pycalls_per_pkt", "calls/pkt", "lower", 0.06),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)

#: One staged rep, cut at the public calls; these sum to its wall-clock.
SPANS = (
    "topo.build_s", "topo.learn_s", "scheduler.init_s",
    "scheduler.dispatch_s", "scheduler.report_s", "shard.merge_s",
    "scheduler.fingerprint_s",
)

#: Direct calls that make up ``scheduler.init_s`` (plus the remainder).
INIT_SLICES = (
    "workload.generate_s", "scheduler.frames_s", "topology.warm_paths_s",
    "topo.install_backups_s", "scheduler.init_self_s",
)

#: Where ``cProfile`` attributes a call, by the file that defines the
#: callee.  ``repro.other`` catches packages not named here so the
#: per-layer call counts always sum to ``pycalls_per_pkt``.
LAYERS = (
    "fabric.scheduler", "fabric.topo", "fabric.workload", "fabric.shard",
    "testenv.topology", "fastpath", "cores", "projects", "packet", "int",
    "faults", "frr", "utils", "core", "repro.other", "stdlib", "builtins",
)

#: Counters read straight off ``report.fastpath`` / ``report.batch``.
_REPORT_COUNTS = (
    ("fastpath.path_hits", "higher"),
    ("fastpath.path_misses", "lower"),
    ("fastpath.path_invalidations", "lower"),
    ("fastpath.device_hits", "higher"),
    ("fastpath.device_misses", "lower"),
    ("fastpath.path_entries", "lower"),
    ("batch.compiled", "lower"),
    ("batch.replayed_packets", "higher"),
    ("batch.splits", "lower"),
    ("batch.cold_misses", "lower"),
    ("batch.segments", "lower"),
    ("batch.entries", "lower"),
)

PER_LAYER = (
    *(Metric(name, "s", "lower", None) for name in SPANS),
    Metric("trace.staged_over_blackbox", "ratio", "lower", None),
    *(Metric(name, "s", "lower", None) for name in INIT_SLICES),
    Metric("topology.inject_cold_us", "us", "lower", None),
    Metric("topology.inject_warm_us", "us", "lower", None),
    Metric("topology.inject_many_us", "us", "lower", None),
    Metric("topology.inject_batch_us", "us", "lower", None),
    Metric("int.deliver_us", "us", "lower", None),
    Metric("int.deliver_batch_us", "us", "lower", None),
    Metric("int.summary_s", "s", "lower", None),
    Metric("supervisor.roundtrip_s", "s", "lower", None),
    Metric("supervisor.spawn_run_s", "s", "lower", None),
    *(Metric(name, "count", better, None)
      for name, better in _REPORT_COUNTS),
    Metric("scheduler.events", "count", "lower", None),
    Metric("batch.replayed_share", "ratio", "higher", None),
    Metric("fastpath.walk_share", "ratio", "lower", None),
    *(Metric(f"{layer}.calls_per_pkt", "calls/pkt", "lower", None)
      for layer in LAYERS),
    *(Metric(f"{layer}.self_share", "ratio", "lower", None)
      for layer in LAYERS),
)

REPORT_COUNTS = tuple(name for name, _ in _REPORT_COUNTS)
#: Per-layer counts that must repeat exactly from run to run.
EXACT_COUNTS = (*REPORT_COUNTS, "scheduler.events")


def benchmark_json() -> dict:
    """The contract file's content, derived from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
