"""E22 — virtual-time warp on an idle-heavy soak.

One idle-heavy workload (a handful of flows scattered over a two
million tick window — the shape of an hour-long soak, where almost
every cycle is dead air between scheduled events) run twice through
:meth:`VirtualClock.pace` over an engine built with the defaults, as
``nf-mon shell`` builds it: once with the clock walking every cycle
(the cycle-driven baseline, one span per event tick) and once warping
over idle spans (the event-driven mode ``nf-mon shell`` defaults to).

The claims pinned here are the S26 contract: warp changes *wall-clock
only* — both runs produce byte-identical FabricReport fingerprints and
the same final cycle — and compresses the soak by at least
``MIN_COMPRESSION``× (measured ~140-200× on a 2-core Xeon; the floor
is conservative for noisy CI machines; CI re-reads ``compression_x``
from the row the ``bench_recorder`` fixture writes).
"""

from __future__ import annotations

import time

from repro.fabric import get_topology
from repro.fabric.scheduler import FlowEngine
from repro.fabric.workload import WorkloadSpec
from repro.shell import VirtualClock

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "leaf-spine"
#: Idle-heavy: 8 flows × 2 packets spread over 2M ticks — >99.99% of
#: the cycle domain is idle, which is exactly what warp compresses.
WORKLOAD = WorkloadSpec("uniform", flows=8, seed=0, packets_per_flow=2,
                        window_ticks=2_000_000)
MIN_COMPRESSION = 5.0


def _soak(warp: bool):
    topology = get_topology(TOPOLOGY).build()
    clock = VirtualClock(warp=warp)
    started = time.perf_counter()
    engine = FlowEngine(topology, WORKLOAD)
    clock.pace(engine)
    report = engine.report()
    return report, clock, time.perf_counter() - started


def test_e22_warp_compresses_idle_soak(benchmark):
    walked_report, walked_clock, walked_wall = _soak(warp=False)

    warped_report, warped_clock, warped_wall = benchmark.pedantic(
        lambda: _soak(warp=True), rounds=1, iterations=1
    )

    # Warp is operational, never observable.
    assert warped_report.fingerprint() == walked_report.fingerprint()
    assert warped_clock.now == walked_clock.now
    assert walked_clock.ticks_warped == 0
    assert warped_clock.ticks_walked == 0
    assert warped_clock.ticks_warped == walked_clock.ticks_walked
    assert walked_report.healthy()

    compression = walked_wall / warped_wall
    rows = [
        ["walk", fmt(walked_wall, 4), walked_clock.ticks_walked, 0,
         walked_report.fingerprint()[:12]],
        ["warp", fmt(warped_wall, 4), 0, warped_clock.ticks_warped,
         warped_report.fingerprint()[:12]],
    ]
    print_table(
        f"E22: virtual-time warp, {TOPOLOGY} × {WORKLOAD.key} "
        f"(compression {compression:.1f}x)",
        ["mode", "wall s", "walked", "warped", "fingerprint"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "flows": WORKLOAD.flows,
        "window_ticks": WORKLOAD.window_ticks,
        "walk_wall_s": round(walked_wall, 4),
        "warp_wall_s": round(warped_wall, 4),
        "compression_x": round(compression, 1),
        "final_cycle": warped_clock.now,
        "ticks_warped": warped_clock.ticks_warped,
        "fingerprint": warped_report.fingerprint(),
    })

    assert compression >= MIN_COMPRESSION, (
        f"warp compressed the idle soak only {compression:.1f}x "
        f"(floor {MIN_COMPRESSION}x)"
    )
