"""E18 — flow-cache fast path: cached vs uncached end-to-end injection.

Runs one leaf-spine workload twice per shard count — flow caches on and
off — and reports packets/sec for each, asserting two things:

* **Identity**: the ``FabricReport`` fingerprint is byte-identical with
  the caches on or off, at 1 and 4 shards.  The fast path is a pure
  optimisation; the fingerprint — not the wall clock — is the
  correctness claim.
* **Speedup**: the cache-on single-shard *run phase* is ≥ 3× the
  cache-off one.  Unlike E17's scale-out this needs no extra cores
  (the cache saves work instead of spreading it), so the assertion
  always arms.  The guard reads ``report.elapsed_s`` (dispatch only),
  not wall clock: with the S27 batch tier prewarming closures at
  setup, wall time is dominated by replica build + precompile and
  would understate the dispatch-loop win the guard pins.  3× is
  deliberately conservative — with batching the observed run-phase
  ratio is >10×.

The per-flow frame-template satellite is micro-asserted here too: the
scheduler's prebuilt frame must equal a fresh ``make_udp_frame`` build.

Besides the per-node history the ``bench_recorder`` fixture keeps, the
same-shaped record is appended to ``BENCH_fastpath.json`` so the CI
guard (and trend tooling) has a stable name to read.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.fabric import WorkloadSpec, get_topology, run_sharded
from repro.fabric.scheduler import flow_frame
from repro.fabric.workload import generate_flows
from repro.packet.generator import make_udp_frame

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "leaf-spine"
WORKLOAD = WorkloadSpec("uniform", flows=400, seed=0,
                        packets_per_flow=24, window_ticks=1024)
SHARD_COUNTS = (1, 4)
TARGET_SPEEDUP = 3.0  # run-phase, cache-on (batched) vs cache-off

_SPORT_BASE = 40000
_DPORT_BASE = 50000


def test_e18_fastpath(benchmark):
    spec = get_topology(TOPOLOGY)

    def sweep():
        out = {}
        for shards in SHARD_COUNTS:
            for fastpath in (True, False):
                started = time.perf_counter()
                report = run_sharded(spec, WORKLOAD, shards=shards,
                                     fastpath=fastpath)
                out[(shards, fastpath)] = (
                    report, time.perf_counter() - started
                )
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Identity: every combination fingerprints the same.
    fingerprints = {report.fingerprint() for report, _ in measured.values()}
    assert len(fingerprints) == 1, "the flow cache changed the fingerprint"
    for shards in SHARD_COUNTS:
        on_report, _ = measured[(shards, True)]
        off_report, _ = measured[(shards, False)]
        assert ([r.signature() for r in on_report.records]
                == [r.signature() for r in off_report.records])
        assert on_report.fault_counters == off_report.fault_counters

    # Satellite micro-assert: the scheduler's per-flow frame template
    # is byte-equal to a from-scratch build.
    topology = spec.build()
    for flow in generate_flows(topology.host_names(), WORKLOAD)[:16]:
        src, dst = topology.hosts[flow.src], topology.hosts[flow.dst]
        fresh = make_udp_frame(
            src.mac, dst.mac, src.ip, dst.ip,
            _SPORT_BASE + (flow.flow_id % 10000),
            _DPORT_BASE + (flow.flow_id % 10000),
            size=flow.frame_size,
        ).pack()
        assert flow_frame(topology, flow) == fresh

    base_report, _ = measured[(1, True)]
    assert base_report.healthy()

    rows, pps = [], {}
    for (shards, fastpath), (report, wall) in measured.items():
        pps[(shards, fastpath)] = report.attempted / wall
        hits = report.fastpath.get("path_hits", 0) + \
            report.fastpath.get("device_hits", 0)
        rows.append([
            shards, "on" if fastpath else "off", report.attempted,
            fmt(wall, 3), fmt(report.elapsed_s, 3),
            fmt(pps[(shards, fastpath)], 0),
            fmt(report.attempted / report.elapsed_s, 0), hits,
            report.fingerprint()[:12],
        ])
    speedup_wall = measured[(1, False)][1] / measured[(1, True)][1]
    speedup = (measured[(1, False)][0].elapsed_s
               / measured[(1, True)][0].elapsed_s)
    speedup_4 = (measured[(4, False)][0].elapsed_s
                 / measured[(4, True)][0].elapsed_s)
    cpus = os.cpu_count() or 1
    print_table(
        f"E18: flow-cache fast path, {TOPOLOGY} × {WORKLOAD.key} "
        f"({cpus} CPUs)",
        ["shards", "cache", "attempted", "wall s", "run s", "pkts/s",
         "run pkts/s", "hits", "fingerprint"],
        rows,
    )

    base_run = base_report.elapsed_s
    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "packets": base_report.attempted,
        "pps_on": round(pps[(1, True)], 1),
        "pps_off": round(pps[(1, False)], 1),
        "pps_on_run": round(base_report.attempted / base_run, 1),
        "pps_off_run": round(
            base_report.attempted / measured[(1, False)][0].elapsed_s, 1),
        "speedup": round(speedup, 3),
        "speedup_wall": round(speedup_wall, 3),
        "speedup_4shard": round(speedup_4, 3),
        "path_hits": base_report.fastpath.get("path_hits", 0),
        "path_misses": base_report.fastpath.get("path_misses", 0),
        "path_shared": base_report.fastpath.get("path_shared", 0),
        "batch_replayed": base_report.batch.get("replayed_packets", 0),
        "cpus": cpus,
        "fingerprint": base_report.fingerprint(),
    })
    path = Path(__file__).parent / "BENCH_fastpath.json"
    history = json.loads(path.read_text()) if path.exists() else []
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "node": "benchmarks/test_bench_fastpath.py::test_e18_fastpath",
        "mean_s": measured[(1, True)][1],
        "min_s": min(wall for _, wall in measured.values()),
        "max_s": max(wall for _, wall in measured.values()),
        "stddev_s": 0.0,
        "rounds": 1,
        "extra_info": dict(benchmark.extra_info),
    })
    path.write_text(json.dumps(history, indent=2) + "\n")

    assert speedup >= TARGET_SPEEDUP, (
        f"cache-on run-phase speedup {speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x target at 1 shard"
    )
