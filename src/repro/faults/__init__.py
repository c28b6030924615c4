"""Deterministic fault injection and recovery accounting.

Real boards fail in ways a clean-path simulation never exercises: links
flap, frames arrive with bad FCS, DMA completions vanish leaving a
wedged ring, MMIO reads time out.  This package makes those failures
*first-class and reproducible*: a seeded :class:`FaultPlan` expands into
deterministic per-site decision streams (:class:`FaultSession`), a
:class:`FaultInjector` arms them onto the platform models, and the
driver / harness recovery paths count every repair so the same seed
yields the same schedule — and the same recovery counters — in both the
``sim`` and ``hw`` test targets.

Quickstart::

    from repro.faults import get_plan, inject
    from repro.testenv import run_test

    result = run_test(my_test, "sim", faults=get_plan("lossy-link", seed=7))
    print(result.fault_report.counters)

The harness and the fabric engine both settle their wire through one
call, ``FaultSession.link_transfers(n)`` — ``n`` transfers, retransmits
counted, lost indices returned; ``link_attempt()`` is a single attempt.
"""

from repro.faults.errors import (
    DriverError,
    DriverTimeout,
    FaultError,
    FaultInjected,
    MmioWriteError,
    NonQuiescent,
    RingWedged,
)
from repro.faults.injector import FaultInjector, inject
from repro.faults.plan import (
    CtrlFaultSpec,
    DmaFaultSpec,
    FaultPlan,
    FaultReport,
    FaultSession,
    LinkFaultSpec,
    LinkStateSpec,
    MmioFaultSpec,
    OqFaultSpec,
    ShardFaultSpec,
    available_plans,
    derive_seed,
    get_plan,
    register_plan,
    seed_stream,
)

__all__ = [
    "DriverError",
    "DriverTimeout",
    "FaultError",
    "FaultInjected",
    "MmioWriteError",
    "NonQuiescent",
    "RingWedged",
    "FaultInjector",
    "inject",
    "CtrlFaultSpec",
    "DmaFaultSpec",
    "FaultPlan",
    "FaultReport",
    "FaultSession",
    "LinkFaultSpec",
    "LinkStateSpec",
    "MmioFaultSpec",
    "OqFaultSpec",
    "ShardFaultSpec",
    "available_plans",
    "derive_seed",
    "get_plan",
    "register_plan",
    "seed_stream",
]
