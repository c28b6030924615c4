"""One workload, measured in a process of its own.

``run.py`` starts this file once per workload (clean RSS, clean caches,
``PYTHONHASHSEED=0``) and reads one JSON object from its stdout.  The
load is a closed loop with one client: this process calls
``run_sharded`` again and again, never more than one call in flight.

The end-to-end pass below touches only the stable public surface
(``get_topology``/``WorkloadSpec``/``LinkSchedule``/``get_plan`` via
``workloads.py``; ``run_sharded``, ``FlowEngine``, ``merge_reports``
here).  Everything that reaches deeper lives in ``layers.py`` and is
imported only when a traced pass was asked for.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
from typing import NamedTuple, Optional

from repro.fabric import FlowEngine, merge_reports, run_sharded

import spec as bench_spec
from workloads import Case, build_case


class Protocol(NamedTuple):
    """Which reps fill the timed window, and when it may close."""

    pattern: tuple[str, ...]
    seconds: float
    min_blackbox: int
    min_staged: int


def protocol_for(trace: str, seconds: float, quick: bool) -> Protocol:
    if quick:
        return Protocol(("blackbox", "blackbox", "staged"), 0.0, 2, 1)
    if trace == "1":
        # A traced run spends its time on the probes; the window only
        # has to give the staged spans and the overhead ratio a floor.
        return Protocol(("blackbox", "staged", "staged"), seconds / 2, 3, 3)
    return Protocol(("blackbox", "blackbox", "staged"), seconds, 9, 3)


class Rep(NamedTuple):
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    fingerprint: str


def _failed(case: Case, report) -> int:
    """Packets of a rep that count as failed operations on their own
    evidence (a wrong fingerprint fails the whole rep, see below)."""
    return report.misdelivered + (0 if case.lost_ok else report.lost)


def blackbox_rep(case: Case):
    """The headline: ``run_sharded`` call to fingerprint, untouched."""
    wall = time.perf_counter()
    cpu = time.process_time()
    report = run_sharded(case.spec, case.workload, case.plan, **case.options)
    fingerprint = report.fingerprint()
    rep = Rep(time.perf_counter() - wall, time.process_time() - cpu,
              report.attempted, _failed(case, report), fingerprint)
    return rep, report


def staged_rep(case: Case):
    """The same work cut at its public calls, one span per layer.

    Mirrors ``run_sharded``'s inline path: per replica build, learn,
    engine construction, drain, report; then merge and fingerprint.
    Laps are consecutive readings of one clock, so the spans sum to the
    rep's wall-clock exactly.
    """
    spans = dict.fromkeys(bench_spec.SPANS, 0.0)
    cpu = time.process_time()
    start = mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        spans[name] += now - mark
        mark = now

    shards = case.shards
    reports, events = [], 0
    for index in range(shards):
        topology = case.spec.build()
        lap("topo.build_s")
        topology.learn()
        lap("topo.learn_s")
        engine = FlowEngine(
            topology, case.workload, case.plan, shards=shards,
            flow_filter=(None if shards == 1 else
                         lambda flow, i=index: flow.flow_id % shards == i),
            **case.engine_options,
        )
        lap("scheduler.init_s")
        engine.run()
        lap("scheduler.dispatch_s")
        reports.append(engine.report())
        lap("scheduler.report_s")
        events += engine.events_dispatched
    report = reports[0] if shards == 1 else merge_reports(reports, shards)
    lap("shard.merge_s")
    fingerprint = report.fingerprint()
    lap("scheduler.fingerprint_s")
    rep = Rep(mark - start, time.process_time() - cpu,
              report.attempted, _failed(case, report), fingerprint)
    return rep, spans, events


def profiled_rep(case: Case):
    """One black-box rep under ``cProfile``: an exact call count."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        rep, report = blackbox_rep(case)
    finally:
        profile.disable()
    return rep, report, profile.getstats()


def reference_check(case: Case, report, stride: int, pick: int) -> dict:
    """Carry flows on the per-packet path and compare, flow by flow.

    ``fastpath=False, batch=False``, unsharded: every packet takes the
    full ``decide()`` walk.  Per-flow outcomes are independent of which
    other flows ran (the contract sharding rests on), so a reference
    that carries every ``stride``-th flow must reproduce those flows'
    records exactly; with ``stride == 1`` it must reproduce the whole
    fingerprint.
    """
    started = time.perf_counter()
    options = {**case.engine_options, "fastpath": False, "batch": False}
    reference = FlowEngine(
        case.spec.build(), case.workload, case.plan,
        flow_filter=(None if stride == 1 else
                     lambda flow: flow.flow_id % stride == pick),
        **options,
    ).report()
    measured = {r.flow_id: r.signature() for r in report.records}
    agrees = bool(reference.records) and all(
        measured.get(r.flow_id) == r.signature() for r in reference.records
    )
    if stride == 1:
        agrees = agrees and reference.fingerprint() == report.fingerprint()
    return {
        "stride": stride,
        "flows": len(reference.records),
        "packets": reference.attempted,
        "agrees": agrees,
        "wall_s": time.perf_counter() - started,
    }


def distribution(values: list[float]) -> dict:
    """The floor a metric reports, and what it was the floor of."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"n": len(values), "floor": min(values),
            "q1": q1, "median": median, "q3": q3}


def measure(name: str, seed: int, seconds: float, trace: str,
            quick: bool) -> dict:
    started = time.perf_counter()
    case = build_case(name, seed, quick)
    protocol = protocol_for(trace, seconds, quick)

    # Untimed warm-up: lazy imports, lru caches, allocator arenas.  Its
    # fingerprint is what every later rep must reproduce.
    warm, warm_report = blackbox_rep(case)
    expected = warm.fingerprint
    summary = {
        "fingerprint": expected,
        "attempted": warm_report.attempted,
        "delivered": warm_report.delivered,
        "lost": warm_report.lost,
        "misdelivered": warm_report.misdelivered,
        "hops_hist": {str(k): v for k, v in warm_report.hops_hist.items()},
    }
    packets = warm_report.attempted
    del warm_report

    blackbox: list[Rep] = []
    staged: list[tuple[Rep, dict, int]] = []
    window = time.perf_counter()
    while (time.perf_counter() - window < protocol.seconds
           or len(blackbox) < protocol.min_blackbox
           or len(staged) < protocol.min_staged):
        kind = protocol.pattern[
            (len(blackbox) + len(staged)) % len(protocol.pattern)]
        gc.collect()
        if kind == "blackbox":
            blackbox.append(blackbox_rep(case)[0])
        else:
            staged.append(staged_rep(case))
    window_s = time.perf_counter() - window

    # Read before the profiled and reference passes: both allocate more
    # than a measured rep does.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gc.collect()
    profiled, report, stats = profiled_rep(case)
    total_calls = sum(entry.callcount for entry in stats)

    stride = 1 if trace != "0" else case.ref_stride
    reference = reference_check(case, report, stride, seed % stride)

    reps = blackbox + [rep for rep, _, _ in staged] + [profiled]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(
        rep.attempted if rep.fingerprint != expected else rep.failed
        for rep in reps
    )
    if not reference["agrees"]:
        failed = attempted  # every rep reproduced a wrong answer

    wall_floor = min(rep.wall_s for rep in blackbox)
    cpu_floor = min(rep.cpu_s for rep in blackbox)
    setups = [sum(spans[s] for s in ("topo.build_s", "topo.learn_s",
                                     "scheduler.init_s"))
              for _, spans, _ in staged]
    result = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        **summary,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "correct": failed == 0,
        "fingerprints_agree": all(r.fingerprint == expected for r in reps),
        "reference": reference,
        "metrics": {
            "pps_wall": packets / wall_floor,
            "cpu_us_per_pkt": cpu_floor / packets * 1e6,
            "pycalls_per_pkt": total_calls / packets,
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb,
        },
        "total_calls": total_calls,
        "samples": {
            "blackbox_wall_s": distribution([r.wall_s for r in blackbox]),
            "blackbox_cpu_s": distribution([r.cpu_s for r in blackbox]),
            "staged_wall_s": distribution([r.wall_s for r, _, _ in staged]),
            "setup_s": distribution(setups),
        },
        "window_s": window_s,
    }

    if trace != "0":
        import layers  # the only door to the unstable surface

        floor_rep, floor_spans, events = min(
            staged, key=lambda entry: entry[0].wall_s)
        traced = layers.traced_pass(
            case, report, stats, floor_spans, events,
            staged_over_blackbox=floor_rep.wall_s / wall_floor,
        )
        result["layers"] = traced.values
        result["unavailable"] = traced.unavailable
        if traced.spawn_fingerprint not in (None, expected):
            result["ops_failed"] = attempted
            result["correct"] = False

    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
