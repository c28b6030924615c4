"""Fabric workload engine: evaluation at network scale.

The paper's opening claim is that open-source hardware prototyping
matters because it scales evaluation from one device to *networks* of
them.  This package is that scale-out layer, in four stages:

1. **Topology builders** (:mod:`repro.fabric.topo`) — mininet-style
   factories (``linear``, ``star``, ``leaf_spine``, ``fat_tree``) wire
   statically-programmed reference switches into a
   :class:`~repro.testenv.topology.Network`, attach named edge hosts,
   and check the wiring invariants at build time.
2. **Workload generators** (:mod:`repro.fabric.workload`) — seeded
   flow descriptions (uniform / bursty / incast, request/response)
   expanded as a pure function of ``(hosts, spec)``.
3. **Deterministic concurrent scheduling**
   (:mod:`repro.fabric.scheduler`) — thousands of in-flight flows
   interleaved in seeded round-robin order; per-flow outcomes are
   order-independent, summarized in a :class:`FabricReport` whose
   fingerprint pins the run.
4. **Sharded parallel execution** (:mod:`repro.fabric.shard` +
   :mod:`repro.fabric.supervisor`) — independent flows partitioned
   across supervised worker processes (deadlines, heartbeats, seeded
   crash chaos, bounded retries, inline fallback, checkpoint/resume),
   each worker rebuilding its own replica from the same seed, merged
   so the fingerprint is identical for 1 and N shards — crashed
   workers, resumed checkpoints and all.

Quickstart::

    from repro.fabric import get_topology, get_workload, run_sharded

    report = run_sharded(get_topology("leaf-spine"),
                         get_workload("incast-64"), shards=4)
    assert report.healthy()
    print(report.fingerprint())

Fault plans compose exactly as with ``run_test``: pass a
:class:`~repro.faults.FaultPlan` and wire loss, retransmits and link
flaps are drawn deterministically per flow and per (host, epoch).

How a run executes — ``max_inflight``, ``fastpath``, ``batch``, ``frr``,
``link_schedule``, ``int_all`` — is one :class:`RunConfig`.
:func:`run_sharded`, :func:`run_flows` and :class:`FlowEngine` accept
its fields as keywords; everything below them passes the config whole,
and the merged report carries it as ``report.config``.
"""

from repro.fabric.scheduler import (
    DEFAULT_MAX_INFLIGHT,
    FLAP_EPOCH_TICKS,
    FabricReport,
    FlowEngine,
    FlowRecord,
    LinkSchedule,
    RunConfig,
    run_flows,
)
from repro.fabric.shard import merge_reports, run_sharded
from repro.fabric.supervisor import (
    CheckpointStore,
    SupervisorOptions,
    SupervisorStats,
    run_supervised,
)
from repro.fabric.topo import (
    FabricError,
    FabricSpec,
    FabricTopology,
    Host,
    TOPOLOGIES,
    abilene,
    fat_tree,
    get_topology,
    leaf_spine,
    linear,
    oversubscription,
    star,
)
from repro.fabric.workload import (
    Flow,
    PATTERNS,
    WORKLOADS,
    WorkloadSpec,
    generate_flows,
    get_workload,
)

__all__ = [
    "CheckpointStore",
    "DEFAULT_MAX_INFLIGHT",
    "FLAP_EPOCH_TICKS",
    "FabricError",
    "FabricReport",
    "FabricSpec",
    "FabricTopology",
    "Flow",
    "FlowEngine",
    "FlowRecord",
    "Host",
    "LinkSchedule",
    "PATTERNS",
    "RunConfig",
    "SupervisorOptions",
    "SupervisorStats",
    "TOPOLOGIES",
    "WORKLOADS",
    "WorkloadSpec",
    "abilene",
    "fat_tree",
    "generate_flows",
    "get_topology",
    "get_workload",
    "leaf_spine",
    "linear",
    "merge_reports",
    "oversubscription",
    "run_flows",
    "run_sharded",
    "run_supervised",
    "star",
]
