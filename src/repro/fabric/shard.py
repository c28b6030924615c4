"""Sharded parallel fabric execution with a deterministic merge.

Flows whose outcomes are pure functions of ``(topology, workload,
seed)`` are embarrassingly parallel: :func:`run_sharded` partitions them
by ``flow_id % shards`` across worker processes.  Each worker rebuilds
its *own* network replica from the picklable :class:`FabricSpec`
(device models are stateful and unpicklable — the spec travels, not the
network), expands its slice of the flow list from the same seed, runs
it, and ships back its :class:`FabricReport`.  A job is ``(spec,
workload, plan, flows, config, shards, index)``: the run's options ride
as one :class:`~repro.fabric.scheduler.RunConfig`, built once in
:func:`run_sharded` from its keywords.

The merge is deterministic by construction: per-flow records are
disjoint (concatenate, sort by ``flow_id``), per-device forwarded
counts, fault counters and hop histograms are order-independent sums.
So ``run_sharded(spec, wl, shards=N).fingerprint()`` is byte-identical
for every ``N`` — the invariant the fabric test suite and the CI smoke
job pin.

Worker processes run under :mod:`repro.fabric.supervisor`, the only
process path: a crashed worker costs a retry, never the run — and never
a bit of the fingerprint.

``parallel=False`` (or ``shards=1``) runs the same partition/merge path
in-process — the reference the process path is checked against, and
the fallback when worker processes are unavailable (e.g. a daemonic
parent process).  It cannot honour ``chaos=`` or ``checkpoint=``;
asking is a ``ValueError``, not a silent clean run.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.fabric.scheduler import FabricReport, RunConfig, run_flows
from repro.fabric.topo import FabricSpec
from repro.fabric.workload import Flow, WorkloadSpec, generate_flows
from repro.faults import FaultPlan
from repro.int import merge_int_summaries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.supervisor import SupervisorOptions


def _pool_size(shards: int) -> int:
    """Concurrent worker cap: ``min(shards, cores)``.

    More processes than cores is page-table churn with no extra
    parallelism.  Shard *partitioning* stays at ``shards`` (part of the
    determinism contract); only process concurrency is capped.
    """
    return max(1, min(shards, os.cpu_count() or 1))


def _run_shard(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan],
    flows: Optional[list[Flow]],
    config: RunConfig,
    shards: int,
    index: int,
) -> FabricReport:
    """One worker's slice: rebuild the fabric, carry flows ≡ index (mod
    shards) — of the caller's ``flows``, else of the workload's, of
    which only that slice is expanded.  Module-level so worker
    processes can pickle it."""
    topology = spec.build()
    if flows is None and shards > 1:
        flows = generate_flows(topology.host_names(), workload,
                               range(index, workload.flows, shards))
    return run_flows(
        topology, workload, plan, flows=flows, shards=shards,
        flow_filter=(None if shards == 1 else
                     lambda flow: flow.flow_id % shards == index),
        **vars(config),
    )


#: What every shard of one run must agree on: the run's identity and
#: the whole :class:`RunConfig` — including the options that leave the
#: outcome untouched, since a mixed-config merge means the reports came
#: from different invocations.
_HEAD_FIELDS = ("topology", "workload", "seed", "plan", "config")


#: The report's keyed tallies, each an order-independent sum over shards.
_SUMMED_FIELDS = (
    "device_forwarded", "fault_counters", "hops_hist", "loss_by_epoch",
    "device_reroutes", "device_blackholed", "fastpath", "batch",
)


def _head(report: FabricReport) -> dict:
    """The head fields, the config flattened so a mismatch names the
    option that differs."""
    head = {name: getattr(report, name) for name in _HEAD_FIELDS}
    return head | vars(head.pop("config"))


def merge_reports(reports: list[FabricReport], shards: int) -> FabricReport:
    """Fold shard reports into the run report, deterministically.

    Records concatenate (flow partitions are disjoint) and sort by flow
    id; every aggregate is an order-independent sum — ``elapsed_s``
    too, engine seconds that :func:`run_sharded` replaces with the
    run's wall-clock.  The head check refuses reports whose run
    identity *or* execution config differ (:data:`_HEAD_FIELDS`);
    overlapping partitions are refused by the duplicate-flow-id check.
    """
    if not reports:
        raise ValueError("nothing to merge")
    head = reports[0]
    expected = _head(head)
    for other in reports[1:]:
        mismatched = [name for name, value in _head(other).items()
                      if value != expected[name]]
        if mismatched:
            raise ValueError(
                "cannot merge reports of different runs: "
                f"{', '.join(mismatched)} differ"
            )
    sums = {name: Counter() for name in _SUMMED_FIELDS}
    records = []
    for report in reports:
        records.extend(report.records)
        for name, total in sums.items():
            total.update(getattr(report, name))
    seen = [r.flow_id for r in records]
    if len(seen) != len(set(seen)):
        raise ValueError("shard partitions overlap: duplicate flow ids")
    return replace(  # the head fields ride over untouched
        head,
        records=sorted(records, key=lambda r: r.flow_id),
        shards=shards,
        elapsed_s=sum(r.elapsed_s for r in reports),
        # int_summary is an observable (data), not run config, so it is
        # merged rather than head-checked: shards that carried no INT
        # flow report None and drop out of the fold.
        int_summary=merge_int_summaries([r.int_summary for r in reports]),
        supervision={},
        **{name: dict(sorted(total.items())) for name, total in sums.items()},
    )


def run_sharded(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan] = None,
    *,
    shards: int = 1,
    parallel: bool = True,
    flows: Optional[list[Flow]] = None,
    chaos: Optional[FaultPlan] = None,
    checkpoint: Optional[str | os.PathLike] = None,
    supervisor: Optional["SupervisorOptions"] = None,
    **options,
) -> FabricReport:
    """Run a fabric workload across ``shards`` partitions and merge.

    ``options`` are the :class:`~repro.fabric.scheduler.RunConfig`
    fields; the config built from them here is what every layer below
    is handed.  With ``parallel=True`` and ``shards > 1`` the partitions
    run in worker processes (at most ``min(shards, cores)``
    concurrently) under the supervised executor; otherwise they run
    sequentially in-process through the identical partition/merge path.
    Either way the merged report's fingerprint equals the 1-shard run's
    — and equals the run with ``fastpath=False`` (flow caches off),
    since caches are per-replica and observationally inert.

    ``chaos`` is a fault plan whose :class:`~repro.faults.ShardFaultSpec`
    seeds worker crash/hang/corrupt chaos per (shard, attempt).  It is
    operational only — the merged fingerprint is identical with any
    chaos schedule, which the ``-m shard`` suite pins.  ``checkpoint``
    names a directory where accepted shard reports persist as they
    land; rerunning with the same arguments resumes from the surviving
    shards.  Both need the process path and are a ``ValueError`` with
    ``parallel=False``: the inline path has no workers to crash.

    The report's ``elapsed_s`` is this call's wall-clock on every path,
    set-up and merge included: what a caller timing the call would read.
    """
    started = time.perf_counter()
    config = RunConfig(**options)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    flow_count = len(flows) if flows is not None else workload.flows
    if shards > flow_count:
        raise ValueError(
            f"shards={shards} exceeds the {flow_count} flows to carry; "
            "the extra workers would rebuild replicas to forward nothing"
        )
    wanted = [name for name, value in
              (("chaos=", chaos), ("checkpoint=", checkpoint))
              if value is not None]
    if wanted and not parallel:
        raise ValueError(
            f"{', '.join(wanted)} cannot be honoured with parallel=False "
            "(the inline path): only the supervised process path has "
            "workers to crash and checkpoints to write"
        )
    if parallel and (shards > 1 or wanted):
        from repro.fabric.supervisor import run_supervised

        report = run_supervised(
            spec, workload, plan, shards=shards, flows=flows,
            config=config, chaos=chaos, checkpoint=checkpoint,
            options=supervisor,
        )
    else:
        reports = [_run_shard(spec, workload, plan, flows, config, shards,
                              index) for index in range(shards)]
        report = reports[0] if shards == 1 else merge_reports(reports, shards)
    report.elapsed_s = time.perf_counter() - started
    return report
