"""Shared test fixtures and frame-building helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

# ``tier1`` (the default): every run draws the same examples, so a
# failure or a memory spike seen once is seen again.  ``explore``
# (``--hypothesis-profile=explore``, with ``--hypothesis-seed`` to
# replay a run) draws fresh ones.  Neither changes a site's
# ``max_examples``.
settings.register_profile("tier1", derandomize=True, database=None,
                          print_blob=True)
settings.register_profile("explore", database=None, print_blob=True)


def pytest_configure(config):
    if config.getoption("hypothesis_profile", None) is None:
        settings.load_profile("tier1")
    config.addinivalue_line(
        "markers",
        "faults: deterministic fault-injection and recovery coverage "
        "(run just these with -m faults)",
    )
    config.addinivalue_line(
        "markers",
        "telemetry: metrics registry, tracing and probe coverage "
        "(run just these with -m telemetry)",
    )
    config.addinivalue_line(
        "markers",
        "fabric: topology builders, workload engine and sharded "
        "execution coverage (run just these with -m fabric)",
    )
    config.addinivalue_line(
        "markers",
        "fastpath: flow-cache fast path — the path cache, "
        "generation invalidation, batched injection "
        "(run just these with -m fastpath)",
    )
    config.addinivalue_line(
        "markers",
        "frr: data-plane fast reroute — backup next-hops, link-failure "
        "detection, single-link-failure sweeps "
        "(run just these with -m frr)",
    )
    config.addinivalue_line(
        "markers",
        "int: in-band telemetry — trailer codec, hop stamping, "
        "receiver-side path/loss attribution "
        "(run just these with -m int)",
    )
    config.addinivalue_line(
        "markers",
        "shard: supervised shard executor — seeded crash chaos, "
        "retries, inline fallback, checkpoint/resume "
        "(run just these with -m shard)",
    )
    config.addinivalue_line(
        "markers",
        "shell: interactive emulation shell — virtual clock, session "
        "API, REPL/script replay, batch fingerprint identity "
        "(run just these with -m shell)",
    )

from repro.faults import FaultPlan, OqFaultSpec
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame

#: A data-path fault session that draws output-queue pressure on every
#: enqueue and never spikes: armed on a device, it keeps every walk
#: through the device out of the path cache and changes no outcome.
QUEUE_DRAWS = FaultPlan("queue-draws", 0, oq=OqFaultSpec())


def mac(i: int) -> MacAddr:
    """A deterministic locally administered unicast MAC."""
    return MacAddr(0x02_00_00_00_00_00 + i)


def ip(i: int) -> Ipv4Addr:
    """A deterministic 10.x address."""
    return Ipv4Addr(0x0A_00_00_00 + i)


def udp_frame(src: int = 1, dst: int = 2, size: int = 96, ttl: int = 64) -> bytes:
    """A well-formed UDP frame between test hosts ``src`` and ``dst``."""
    return make_udp_frame(
        mac(src), mac(dst), ip(src), ip(dst), sport=1000 + src,
        dport=2000 + dst, size=size, ttl=ttl,
    ).pack()


@pytest.fixture
def event_sim():
    from repro.core.eventsim import EventSimulator

    return EventSimulator()


@pytest.fixture
def cycle_sim():
    from repro.core.simulator import Simulator

    return Simulator()


@pytest.fixture
def partitions(monkeypatch):
    """Every in-process :func:`~repro.fabric.shard._run_shard` report
    made in this test, in order: the inline path's one engine, and the
    supervisor's inline fallback's slices."""
    from repro.fabric import shard

    reports = []

    def recording(*job, run=shard._run_shard):
        reports.append(run(*job))
        return reports[-1]

    monkeypatch.setattr(shard, "_run_shard", recording)
    return reports


def worker_slices(spec, workload, plan=None, shards: int = 2,
                  **options) -> list:
    """The process path's shard reports, made in-process: slice ``i``
    carries flows ≡ i (mod ``shards``) on a replica of its own, as a
    worker does.  ``options`` are :class:`~repro.fabric.RunConfig`
    fields."""
    from repro.fabric import RunConfig
    from repro.fabric.shard import _run_shard

    config = RunConfig(**options)
    return [_run_shard(spec, workload, plan, None, config, shards, index)
            for index in range(shards)]


def closed_ledgers(collector) -> dict:
    """Every INT ledger ``collector`` closes from here on, by ``(flow_id,
    response)``: the state :meth:`~repro.int.IntCollector.close` folds
    and frees, kept as it stood."""
    ledgers, close = {}, collector.close

    def recording(flow_id: int) -> None:
        for key in ((flow_id, False), (flow_id, True)):
            if key in collector._flows:
                ledgers[key] = collector._flows[key]
        close(flow_id)

    collector.close = recording
    return ledgers
