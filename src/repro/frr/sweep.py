"""E19: single-link-failure sweeps — FRR-on vs FRR-off loss curves.

For every switch-switch link of a fabric, the sweep scripts one failure
window (``[fail_epoch, fail_epoch + down_epochs)`` in scheduler epochs),
drives continuous flows across the link from both directions, and runs
the identical schedule twice: once with the backup next-hop column
installed (``frr=True``) and once without.  The per-link outcome pair —
``packets_lost`` and ``time_to_recover`` — is the paper-shaped result:
with FRR the switch adjacent to the cut falls over to its precomputed
backup inside the packet walk (losing at most the in-flight packets on
the failed hop — zero in this transaction-level model), while without
it every packet of every crossing flow blackholes until the link heals.

Flow selection is deterministic: crossing host pairs are computed from
the pinned BFS forwarding paths, restricted to pairs whose rerouting
switch actually has a loop-free backup for the destination (the
``protected`` set — coverage is reported honestly per link), and capped
per link with both crossing directions represented.  Links that carry
no pinned traffic (common in a fat-tree, where BFS tie-breaking leaves
equal-cost links idle) are reported with ``swept_pairs == 0`` and no
runs.

Everything folds into a :class:`SweepReport` whose fingerprint covers
only order-independent observables — including each underlying
:class:`~repro.fabric.scheduler.FabricReport` fingerprint — so the same
``(topology, seed, window)`` sweep is byte-identical across reruns and
shard counts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional, Union

from repro.fabric.scheduler import FLAP_EPOCH_TICKS, LinkSchedule
from repro.fabric.shard import run_sharded
from repro.fabric.topo import (
    FabricSpec,
    FabricTopology,
    bfs_tree,
    get_topology,
)
from repro.fabric.workload import Flow, WorkloadSpec
from repro.frr.backup import compute_backups

#: Frame size used by sweep flows (mid-sized UDP, nothing special).
SWEEP_FRAME_SIZE = 256


@dataclass(frozen=True)
class LinkResult:
    """One swept link's FRR-on / FRR-off outcome pair."""

    link: str  #: ``"a:pa~b:pb"`` — the cut cable
    crossing_pairs: int  #: ordered host pairs whose pinned path crosses it
    protected_pairs: int  #: crossing pairs whose rerouting switch has a backup
    swept_pairs: int  #: pairs actually carried as flows (capped)
    attempted: int = 0
    lost_frr_on: int = 0
    lost_frr_off: int = 0
    recover_epochs_frr_on: int = 0  #: epochs from failure to last loss
    recover_epochs_frr_off: int = 0
    reroutes: int = 0  #: total frr_reroute decisions in the on run
    loss_curve_on: tuple = ()  #: ((epoch, packets_lost), ...)
    loss_curve_off: tuple = ()
    fingerprint_on: str = ""
    fingerprint_off: str = ""
    #: Device-side blackhole counters (``frr_blackhole`` decisions), the
    #: ground truth the receiver-attributed numbers are checked against.
    blackholed_frr_on: int = 0
    blackholed_frr_off: int = 0
    #: Receiver-side (INT) attribution: reroutes seen in delivered
    #: stamps, blackholes inferred from sequence gaps, the failed links
    #: named by rerouting stamps' dead-port masks, and the
    #: receiver-observed loss curves per epoch.
    int_reroutes: int = 0
    int_blackholes_on: int = 0
    int_blackholes_off: int = 0
    int_failed_links: tuple = ()
    int_loss_curve_on: tuple = ()
    int_loss_curve_off: tuple = ()

    def as_dict(self) -> dict:
        return {
            "link": self.link,
            "crossing_pairs": self.crossing_pairs,
            "protected_pairs": self.protected_pairs,
            "swept_pairs": self.swept_pairs,
            "attempted": self.attempted,
            "lost_frr_on": self.lost_frr_on,
            "lost_frr_off": self.lost_frr_off,
            "recover_epochs_frr_on": self.recover_epochs_frr_on,
            "recover_epochs_frr_off": self.recover_epochs_frr_off,
            "reroutes": self.reroutes,
            "loss_curve_on": [list(p) for p in self.loss_curve_on],
            "loss_curve_off": [list(p) for p in self.loss_curve_off],
            "fingerprint_on": self.fingerprint_on,
            "fingerprint_off": self.fingerprint_off,
            "blackholed_frr_on": self.blackholed_frr_on,
            "blackholed_frr_off": self.blackholed_frr_off,
            "int_reroutes": self.int_reroutes,
            "int_blackholes_on": self.int_blackholes_on,
            "int_blackholes_off": self.int_blackholes_off,
            "int_failed_links": list(self.int_failed_links),
            "int_loss_curve_on": [list(p) for p in self.int_loss_curve_on],
            "int_loss_curve_off": [list(p) for p in self.int_loss_curve_off],
        }


@dataclass
class SweepReport:
    """The outcome of one single-link-failure sweep (E19)."""

    topology: str
    seed: int
    fail_epoch: int
    down_epochs: int
    epochs: int
    pairs_per_link: int
    packets_per_epoch: int
    max_links: Optional[int] = None
    shards: int = 1
    elapsed_s: float = 0.0
    links: list[LinkResult] = field(default_factory=list)
    #: Whether sweep flows carried INT trailers (receiver attribution).
    int_enabled: bool = True

    # -- aggregates ----------------------------------------------------
    def swept(self) -> list[LinkResult]:
        """The links that actually carried sweep flows."""
        return [link for link in self.links if link.swept_pairs]

    @property
    def packets_lost_frr_on(self) -> int:
        return sum(link.lost_frr_on for link in self.links)

    @property
    def packets_lost_frr_off(self) -> int:
        return sum(link.lost_frr_off for link in self.links)

    @property
    def reroutes(self) -> int:
        return sum(link.reroutes for link in self.links)

    def healthy(self) -> bool:
        """The FRR claim, link by link: on every link that carries
        traffic, FRR loses strictly fewer packets than no-FRR and
        recovers within one scheduler epoch — and the receiver-side INT
        attribution agrees exactly with the device counters."""
        swept = self.swept()
        return bool(swept) and all(
            link.lost_frr_on < link.lost_frr_off
            and link.recover_epochs_frr_on <= 1
            for link in swept
        ) and self.int_consistent()

    def int_consistent(self) -> bool:
        """Receiver-attributed numbers == device-counter numbers.

        Per swept link: stamps' reroute count equals the ``frr_reroute``
        decision total, sequence-gap blackholes equal the
        ``frr_blackhole`` decision totals (both runs), and the
        receiver-observed loss curves match the scheduler's epoch
        ledger.  Trivially True when the sweep ran without INT.
        """
        if not self.int_enabled:
            return True
        return all(
            link.int_reroutes == link.reroutes
            and link.int_blackholes_on == link.blackholed_frr_on
            and link.int_blackholes_off == link.blackholed_frr_off
            and link.int_loss_curve_on == link.loss_curve_on
            and link.int_loss_curve_off == link.loss_curve_off
            for link in self.swept()
        )

    # -- the determinism contract --------------------------------------
    def signature(self) -> dict:
        return {
            "topology": self.topology,
            "seed": self.seed,
            "fail_epoch": self.fail_epoch,
            "down_epochs": self.down_epochs,
            "epochs": self.epochs,
            "pairs_per_link": self.pairs_per_link,
            "packets_per_epoch": self.packets_per_epoch,
            "max_links": self.max_links,
            "int_enabled": self.int_enabled,
            "links": [link.as_dict()
                      for link in sorted(self.links, key=lambda l: l.link)],
        }

    def fingerprint(self) -> str:
        canon = json.dumps(self.signature(), sort_keys=True,
                           separators=(",", ":"))
        return sha256(canon.encode()).hexdigest()

    def as_dict(self, per_link: bool = False) -> dict:
        out = {
            "topology": self.topology,
            "seed": self.seed,
            "fail_epoch": self.fail_epoch,
            "down_epochs": self.down_epochs,
            "epochs": self.epochs,
            "pairs_per_link": self.pairs_per_link,
            "packets_per_epoch": self.packets_per_epoch,
            "max_links": self.max_links,
            "shards": self.shards,
            "elapsed_s": round(self.elapsed_s, 6),
            "links_total": len(self.links),
            "links_swept": len(self.swept()),
            "packets_lost_frr_on": self.packets_lost_frr_on,
            "packets_lost_frr_off": self.packets_lost_frr_off,
            "reroutes": self.reroutes,
            "int_enabled": self.int_enabled,
            "int_consistent": self.int_consistent(),
            "healthy": self.healthy(),
            "fingerprint": self.fingerprint(),
        }
        if per_link:
            out["links"] = [link.as_dict()
                            for link in sorted(self.links,
                                               key=lambda l: l.link)]
        return out


# ----------------------------------------------------------------------
# Crossing-pair computation (pure functions of the topology graph)
# ----------------------------------------------------------------------
def _forwarding_trees(topology: FabricTopology) -> dict[str, dict]:
    """Per destination host, the BFS parent map learn() programmed from."""
    return {
        name: bfs_tree(topology.network, topology.hosts[name].device)[1]
        for name in topology.host_names()
    }


def _crossing_pairs(
    topology: FabricTopology,
    trees: dict[str, dict],
    backups: dict[tuple[str, str], int],
    a_dev: str,
    b_dev: str,
) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """Host pairs whose pinned path crosses the (a_dev, b_dev) cable.

    Returns ``(crossing, protected)`` lists of ``(src, dst, rerouting
    switch)``; the rerouting switch is the link endpoint that forwards
    across the cut, and a pair is protected when that switch holds a
    backup for the destination.
    """
    pair = {a_dev, b_dev}
    crossing: list[tuple[str, str, str]] = []
    protected: list[tuple[str, str, str]] = []
    for dst in topology.host_names():
        parent = trees[dst]
        for src in topology.host_names():
            if src == dst:
                continue
            device = topology.hosts[src].device
            while parent[device] is not None:
                up = parent[device]
                if {device, up} == pair:
                    crossing.append((src, dst, device))
                    if (device, dst) in backups:
                        protected.append((src, dst, device))
                    break
                device = up
    return crossing, protected


def _select_pairs(
    protected: list[tuple[str, str, str]], cap: int
) -> list[tuple[str, str]]:
    """Cap the swept pairs, keeping both crossing directions represented.

    Pairs are grouped by their rerouting switch (one group per link
    direction that carries traffic) and drawn round-robin from the
    sorted groups — deterministic, and a cut is always exercised from
    every side that can recover.
    """
    groups: dict[str, list[tuple[str, str]]] = {}
    for src, dst, via in sorted(protected):
        groups.setdefault(via, []).append((src, dst))
    queues = [groups[via] for via in sorted(groups)]
    chosen: list[tuple[str, str]] = []
    while len(chosen) < cap and any(queues):
        for queue in queues:
            if queue and len(chosen) < cap:
                chosen.append(queue.pop(0))
    return chosen


def _link_flows(
    pairs: list[tuple[str, str]], epochs: int, packets_per_epoch: int,
    int_enabled: bool = True,
) -> list[Flow]:
    """Continuous streams spanning the whole sweep window."""
    gap = max(1, FLAP_EPOCH_TICKS // packets_per_epoch)
    packets = epochs * packets_per_epoch
    return [
        Flow(
            flow_id=index,
            src=src,
            dst=dst,
            frame_size=SWEEP_FRAME_SIZE,
            packets=packets,
            response_packets=0,
            start_tick=index,
            gap_ticks=gap,
            int_enabled=int_enabled,
        )
        for index, (src, dst) in enumerate(pairs)
    ]


def _recover_epochs(loss_by_epoch: dict[int, int], fail_epoch: int) -> int:
    """Epochs from the failure to the last lossy epoch (0 = no loss)."""
    lossy = [epoch for epoch in loss_by_epoch if epoch >= fail_epoch]
    return (max(lossy) - fail_epoch + 1) if lossy else 0


def _int_loss_curve(int_summary: dict) -> tuple:
    """The receiver's loss curve, epoch keys back to ints for compare
    against the scheduler's device-side ``loss_by_epoch`` ledger."""
    return tuple(sorted(
        (int(epoch), count)
        for epoch, count in int_summary.get("loss_by_epoch", {}).items()
    ))


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    topology: Union[str, FabricSpec],
    *,
    seed: int = 0,
    fail_epoch: int = 2,
    down_epochs: int = 2,
    epochs: int = 6,
    pairs_per_link: int = 2,
    packets_per_epoch: int = 2,
    max_links: Optional[int] = None,
    shards: int = 1,
    parallel: bool = False,
    int_enabled: bool = True,
) -> SweepReport:
    """Sweep every switch-switch link of a fabric through one failure.

    ``topology`` is a preset name or a :class:`FabricSpec`.  Each swept
    link runs the identical scripted failure window twice — FRR-on and
    FRR-off — over the same deterministic crossing flows; ``max_links``
    truncates the (sorted) link list for smoke runs.  The report's
    fingerprint is a pure function of every argument except ``shards``
    and ``parallel``.

    With ``int_enabled`` (the default) every sweep flow carries an INT
    trailer, and each :class:`LinkResult` also reports the *receiver's*
    view — reroutes counted from stamps, blackholes from sequence gaps,
    the failed link named by the stamps' dead-port masks — which
    :meth:`SweepReport.int_consistent` (folded into ``healthy()``)
    requires to agree exactly with the device counters.
    """
    spec = get_topology(topology) if isinstance(topology, str) else topology
    if fail_epoch < 0 or down_epochs < 1:
        raise ValueError("fail_epoch must be >= 0 and down_epochs >= 1")
    if fail_epoch + down_epochs >= epochs:
        raise ValueError("the failure window must close before the sweep ends")
    if pairs_per_link < 1 or packets_per_epoch < 1:
        raise ValueError("pairs_per_link and packets_per_epoch must be >= 1")

    started = time.perf_counter()
    # One reference build for the pure graph computations; the runs
    # themselves rebuild fresh replicas via run_sharded.
    reference = spec.build()
    reference.learn()
    trees = _forwarding_trees(reference)
    backups = compute_backups(reference)

    links = reference.links()
    if max_links is not None:
        links = links[:max_links]

    results: list[LinkResult] = []
    for a_dev, a_port, b_dev, b_port in links:
        label = f"{a_dev}:{a_port}~{b_dev}:{b_port}"
        crossing, protected = _crossing_pairs(
            reference, trees, backups, a_dev, b_dev
        )
        pairs = _select_pairs(protected, pairs_per_link)
        if not pairs:
            results.append(LinkResult(
                link=label,
                crossing_pairs=len(crossing),
                protected_pairs=len(protected),
                swept_pairs=0,
            ))
            continue
        flows = _link_flows(pairs, epochs, packets_per_epoch, int_enabled)
        workload = WorkloadSpec(
            pattern="uniform",
            flows=len(flows),
            seed=seed,
            packets_per_flow=epochs * packets_per_epoch,
            window_ticks=epochs * FLAP_EPOCH_TICKS,
        )
        schedule = LinkSchedule(
            ((a_dev, b_dev, fail_epoch, fail_epoch + down_epochs),)
        )
        on, off = (
            run_sharded(
                spec, workload, None, shards=shards, parallel=parallel,
                flows=flows, frr=frr, link_schedule=schedule,
            )
            for frr in (True, False)
        )
        # With INT flows both runs carry receiver summaries; without,
        # int_summary is None and the int_* fields stay at their zeros.
        int_on = on.int_summary or {}
        int_off = off.int_summary or {}
        results.append(LinkResult(
            link=label,
            crossing_pairs=len(crossing),
            protected_pairs=len(protected),
            swept_pairs=len(pairs),
            attempted=on.attempted,
            lost_frr_on=on.lost,
            lost_frr_off=off.lost,
            recover_epochs_frr_on=_recover_epochs(
                on.loss_by_epoch, fail_epoch
            ),
            recover_epochs_frr_off=_recover_epochs(
                off.loss_by_epoch, fail_epoch
            ),
            reroutes=sum(on.device_reroutes.values()),
            loss_curve_on=tuple(sorted(on.loss_by_epoch.items())),
            loss_curve_off=tuple(sorted(off.loss_by_epoch.items())),
            fingerprint_on=on.fingerprint(),
            fingerprint_off=off.fingerprint(),
            blackholed_frr_on=sum(on.device_blackholed.values()),
            blackholed_frr_off=sum(off.device_blackholed.values()),
            int_reroutes=sum(int_on.get("reroutes", {}).values()),
            int_blackholes_on=int_on.get("blackholes", 0),
            int_blackholes_off=int_off.get("blackholes", 0),
            int_failed_links=tuple(sorted(int_on.get("reroute_links", {}))),
            int_loss_curve_on=_int_loss_curve(int_on),
            int_loss_curve_off=_int_loss_curve(int_off),
        ))

    return SweepReport(
        topology=spec.key,
        seed=seed,
        fail_epoch=fail_epoch,
        down_epochs=down_epochs,
        epochs=epochs,
        pairs_per_link=pairs_per_link,
        packets_per_epoch=packets_per_epoch,
        max_links=max_links,
        shards=shards,
        elapsed_s=time.perf_counter() - started,
        links=results,
        int_enabled=int_enabled,
    )
