"""The four fabric workloads, built from ``--seed``.

Imports only the stable public surface the end-to-end pass is allowed
to touch (``repro.fabric``: ``get_topology``, ``WorkloadSpec``,
``LinkSchedule``, and ``generate_flows`` to size the input;
``repro.faults.get_plan``).  Sizes give 1-2 s per rep on a 2-vCPU box;
``quick`` divides flow and packet counts by 8 for the self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.fabric import (
    LinkSchedule,
    WorkloadSpec,
    generate_flows,
    get_topology,
)
from repro.faults import get_plan

#: Workload seeds tried per ``--seed`` when pinning the input size.
SIZE_CANDIDATES = 16


@dataclass(frozen=True)
class Case:
    """One workload, ready to hand to ``run_sharded``."""

    name: str
    spec: Any                      # FabricSpec (picklable description)
    workload: WorkloadSpec
    plan: Optional[Any] = None     # FaultPlan
    #: ``run_sharded`` keyword options (identical for every rep).
    options: dict = field(default_factory=dict)
    #: Losses are part of the design (scripted cuts), not failures.
    lost_ok: bool = False
    #: The untraced reference check carries every ``ref_stride``-th flow
    #: on the per-packet path (1 = all of them); see README "Correctness".
    ref_stride: int = 1

    @property
    def shards(self) -> int:
        return self.options.get("shards", 1)

    @property
    def engine_options(self) -> dict:
        """The options ``FlowEngine`` takes (``run_sharded``'s minus the
        partitioning ones)."""
        return {k: v for k, v in self.options.items()
                if k not in ("shards", "parallel")}


def _churn_schedule() -> LinkSchedule:
    """Six windows on each of Abilene's first six links, staggered so a
    cut or a repair lands in most epochs of the run."""
    links = get_topology("abilene").build().links()[:6]
    return LinkSchedule(tuple(
        (a, b, 1 + i + 10 * k, 4 + i + 10 * k)
        for i, (a, _, b, _) in enumerate(links)
        for k in range(6)
    ))


def _pin_size(spec, workload: WorkloadSpec, packets: int) -> WorkloadSpec:
    """The workload under the candidate seed whose flows total closest
    to ``packets``.

    Packets per flow are drawn 1..bound, so a workload's total moves
    with its seed (1 sigma = 4% for 192 flows) and drags heap depth,
    set-up time and RSS along: input *size* would hide behind input
    *content*.  Each ``--seed`` therefore owns ``SIZE_CANDIDATES``
    workload seeds and runs the one nearest the nominal size.
    """
    hosts = spec.build().host_names()
    return min(
        (workload.with_seed(workload.seed * SIZE_CANDIDATES + j)
         for j in range(SIZE_CANDIDATES)),
        key=lambda candidate: abs(packets - sum(
            flow.packets + flow.response_packets
            for flow in generate_flows(hosts, candidate))),
    )


def build_case(name: str, seed: int, quick: bool = False) -> Case:
    scale = 8 if quick else 1

    def sized(topology: str, packets: int, pattern: str, flows: int,
              **shape) -> tuple:
        spec = get_topology(topology)
        workload = WorkloadSpec(pattern, flows=flows // scale, seed=seed,
                                **shape)
        return spec, _pin_size(spec, workload, packets // scale)

    if name == "elephants":
        case = Case(
            name,
            *sized("leaf-spine", 120_000, "uniform", 192,
                   packets_per_flow=1024, window_ticks=1024),
            ref_stride=6,
        )
    elif name == "mice":
        case = Case(
            name,
            *sized("fat-tree-4", 5_100, "uniform", 2400,
                   packets_per_flow=2, window_ticks=4096),
        )
    elif name == "lossy":
        case = Case(
            name,
            *sized("leaf-spine-wide", 36_000, "bursty", 600,
                   packets_per_flow=96, window_ticks=1024),
            plan=get_plan("lossy-link", seed=seed),
            ref_stride=2,
        )
    elif name == "churn":
        case = Case(
            name,
            *sized("abilene", 48_000, "uniform", 800,
                   packets_per_flow=96, window_ticks=2048),
            options=dict(frr=True, int_all=True, shards=4, parallel=False,
                         link_schedule=_churn_schedule()),
            lost_ok=True,
            ref_stride=4,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    # The quick sizes are small enough to reference in full.
    return replace(case, ref_stride=1) if quick else case
