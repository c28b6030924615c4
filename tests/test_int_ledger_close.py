"""A finished flow's INT ledgers fold at once.

:meth:`~repro.int.IntCollector.close` books a flow's two direction
ledgers into running totals and frees them, so an engine holds only the
ledgers of flows still on the wire.  What it must never do is change a
summary: closing any subset of flows, in any order, once each has sent
and received its last packet, leaves :meth:`~repro.int.IntCollector.summary`
byte-identical to never closing — mid-run as at the end.
"""

from __future__ import annotations

import functools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import FlowEngine, WorkloadSpec, get_topology
from repro.int import IntCollector
from repro.shell import ShellSession

from .test_parked_walks import churn_schedule

pytestmark = pytest.mark.int

#: ``(link_down_sites, hop_limit_sites)`` a synthetic send may carry:
#: the engine's runs lose packets only as blackholes, so the drop-site
#: books are fed here.
SITES = (
    ((), ()),
    ((("s1", 2),), ()),
    ((("s2", 0), ("s3", 1)), ()),
    ((), (("s4", 3),)),
)


def small_churn() -> FlowEngine:
    """INT flows on Abilene with FRR through scripted cuts."""
    return FlowEngine(
        get_topology("abilene").build(),
        WorkloadSpec(flows=24, packets_per_flow=24, seed=1, window_ticks=2048),
        frr=True, int_all=True, link_schedule=churn_schedule())


@functools.cache
def recorded_run() -> tuple:
    """The network of a :func:`small_churn` run and every collector
    call the run made, in order, as ``(method, args)``."""
    engine = small_churn()
    collector, log = engine.collector, []
    for name in ("sent_run", "deliver_batch"):
        def recording(*args, name=name, method=getattr(collector, name)):
            log.append((name, args))
            method(*args)
        setattr(collector, name, recording)
    engine.report()
    return engine.topology.network, tuple(log)


def flow_of(name: str, args: tuple) -> int:
    if name.startswith("sent"):
        return args[0]
    return int.from_bytes(args[0][-16:-12], "big")  # the trailer's flow id


@st.composite
def synthetic_sends(draw) -> tuple:
    """A send of a flow the run did not carry, every packet lost: it may
    go back over sequences already sent (the last send stands).  It is
    clocked, as the engine sends, or handed over with an epoch per
    sequence."""
    seqs = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=4)))
    down, limit = draw(st.sampled_from(SITES))
    flow, response = draw(st.integers(1000, 1003)), draw(st.booleans())
    if draw(st.booleans()):
        clock = (draw(st.integers(0, 128)), seqs[0], draw(st.integers(0, 40)))
        return ("sent_run", (flow, response, seqs, clock, down, limit))
    epoch = draw(st.integers(0, 3))
    return ("sent_batch", (
        flow, response, seqs, [epoch] * len(seqs),
        SimpleNamespace(link_down_sites=down, hop_limit_sites=limit)))


def text(collector: IntCollector) -> str:
    return json.dumps(collector.summary())


class TestClose:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closing_any_flows_in_any_order_keeps_the_summary(self, data):
        network, recorded = recorded_run()
        log = list(recorded)
        for send in data.draw(st.lists(synthetic_sends(), max_size=8)):
            log.insert(data.draw(st.integers(0, len(log))), send)
        last = {}
        for index, (name, args) in enumerate(log):
            last[flow_of(name, args)] = index
        closes: dict[int, list[int]] = {}
        for flow_id in data.draw(st.lists(st.sampled_from(sorted(last)),
                                          unique=True)):
            at = data.draw(st.integers(last[flow_id] + 1, len(log)))
            closes.setdefault(at, []).append(flow_id)
        look = data.draw(st.integers(0, len(log)))
        never, closing = IntCollector(network), IntCollector(network)
        for index, event in enumerate(log + [None]):
            for flow_id in closes.get(index, ()):
                closing.close(flow_id)
            if index == look:
                assert text(closing) == text(never)
            if event is not None:
                name, args = event
                getattr(never, name)(*args)
                getattr(closing, name)(*args)
        assert text(closing) == text(never)
        assert len(closing._flows) < len(never._flows) or not closes

    def test_a_finished_run_holds_no_ledger(self):
        """Every flow closes as it finishes, and the report's summary is
        the one never closing would give."""
        network, log = recorded_run()
        never = IntCollector(network)
        for name, args in log:
            getattr(never, name)(*args)
        engine = small_churn()
        report = engine.report()
        assert engine.collector._flows == {}
        assert report.int_summary == never.summary()
        assert report.int_summary["lost"] > 0

    def test_a_shell_sessions_mid_run_int_summary_is_unchanged(self):
        """The shell reads the collector's summary mid-run: at every
        pause, seeded cuts losing packets on the way, it is the summary
        of a session that never closes."""
        sessions = [ShellSession(topo="abilene", seed=1, plan="frr-chaos",
                                 int_all=True) for _ in range(2)]
        for session in sessions:
            session.start()
        sessions[1].engine.collector.close = lambda flow_id: None
        closing, never = (session.engine.collector for session in sessions)
        lossy_pauses = 0
        while not sessions[0].engine.finished:
            for session in sessions:
                session.step(11)
            assert text(closing) == text(never)
            assert sessions[0].int_paths() == sessions[1].int_paths()
            lossy_pauses += bool(closing._flows and never.summary()["lost"])
        assert lossy_pauses > 1
        assert closing._flows == {} and never._flows
        assert sessions[0].fingerprint() == sessions[1].fingerprint()
