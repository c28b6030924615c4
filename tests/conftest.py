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

from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame


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
    """Every partition report ``run_sharded`` makes in this test, in
    order: the inline loop's on its shared replica, and a lone
    partition's on its own."""
    from repro.fabric import shard

    reports = []

    def recording(*job, carry=shard._carry_partition):
        reports.append(carry(*job))
        return reports[-1]

    monkeypatch.setattr(shard, "_carry_partition", recording)
    return reports
