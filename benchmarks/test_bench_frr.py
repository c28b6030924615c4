"""E19 — data-plane fast reroute: the single-link-failure sweep.

Runs the full Abilene sweep (every one of the 14 cables cut once,
FRR-on vs FRR-off over identical scripted schedules) and re-runs a
2-shard slice to pin the determinism claim:

* **Robustness**: on every swept link FRR loses strictly fewer packets
  than no-FRR and recovers within one scheduler epoch, while the
  no-FRR run bleeds for the whole outage window.
* **Identity**: the ``SweepReport`` fingerprint is byte-identical
  across reruns and shard counts.
"""

from __future__ import annotations

import time

from repro.frr import run_sweep

from benchmarks.conftest import fmt, print_table

TOPOLOGY = "abilene"
RESWEEP_LINKS = 4  # slice re-swept at 2 shards for the identity check


def test_e19_frr_sweep(benchmark):
    def sweep():
        started = time.perf_counter()
        full = run_sweep(TOPOLOGY)
        full_wall = time.perf_counter() - started
        sliced = run_sweep(TOPOLOGY, max_links=RESWEEP_LINKS,
                           shards=2, parallel=False)
        return full, full_wall, sliced

    full, full_wall, sliced = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # Robustness: the headline claim on every traffic-carrying link.
    assert full.healthy()
    for link in full.swept():
        assert link.lost_frr_on < link.lost_frr_off, link.link
        assert link.recover_epochs_frr_on <= 1, link.link
        assert link.recover_epochs_frr_off == full.down_epochs, link.link

    # Identity: the 2-shard slice fingerprints like a fresh 1-shard run.
    reference = run_sweep(TOPOLOGY, max_links=RESWEEP_LINKS)
    assert sliced.fingerprint() == reference.fingerprint()

    rows = [
        [link.link, link.swept_pairs, link.lost_frr_on, link.lost_frr_off,
         link.recover_epochs_frr_on, link.recover_epochs_frr_off,
         link.reroutes]
        for link in sorted(full.links, key=lambda l: l.link)
    ]
    print_table(
        f"E19: FRR single-link-failure sweep, {TOPOLOGY} "
        f"({len(full.swept())}/{len(full.links)} links swept, "
        f"{fmt(full_wall, 3)} s)",
        ["link", "pairs", "lost on", "lost off", "ttr on", "ttr off",
         "reroutes"],
        rows,
    )

    benchmark.extra_info.update({
        "topology": TOPOLOGY,
        "links_swept": len(full.swept()),
        "packets_lost_frr_on": full.packets_lost_frr_on,
        "packets_lost_frr_off": full.packets_lost_frr_off,
        "reroutes": full.reroutes,
        "sweep_wall_s": round(full_wall, 3),
        "fingerprint": full.fingerprint(),
    })
