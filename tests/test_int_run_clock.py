"""A run's clock books its loss and INT evidence at each packet's epoch.

The engine hands a coalesced run over as its sequences and one clock,
``(tick, seq, gap)``: sequence ``s`` left at ``tick + (s - seq) * gap``.
:func:`~repro.int.epoch_chunks` cuts a run into ``(epoch, count)``
chunks from that clock, by arithmetic for a gapless ``range`` and by
counting for a list with wire-loss holes; the engine's loss curve and
the collector's ledger both book through it, so a wholly lost run is
booked once per epoch chunk, not once per packet.  These tests hold the
helper to the per-sequence definition, and a lossy INT run on the batch
tier to the per-packet reference, key by key.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import FLAP_EPOCH_TICKS, FlowEngine, WorkloadSpec, get_topology
from repro.int import epoch_chunks
from tests.conftest import closed_ledgers

from .test_parked_walks import churn_schedule

pytestmark = pytest.mark.int

#: A run's sequences as the engine hands them over: a gapless ``range``,
#: or an ascending list once the wire lost some.
runs = st.one_of(
    st.builds(lambda start, n: range(start, start + n),
              st.integers(-50, 200), st.integers(0, 300)),
    st.lists(st.integers(-50, 500), unique=True, max_size=40).map(sorted))


class TestEpochChunks:
    @settings(max_examples=400, deadline=None)
    @given(tick=st.integers(0, 10 * FLAP_EPOCH_TICKS),
           seq=st.integers(-50, 200),
           gap=st.one_of(st.just(0), st.integers(0, 3 * FLAP_EPOCH_TICKS)),
           seqs=runs)
    def test_chunks_count_each_sequence_at_its_own_epoch(self, tick, seq,
                                                         gap, seqs):
        chunks = epoch_chunks((tick, seq, gap), seqs)
        want = Counter((tick + (s - seq) * gap) // FLAP_EPOCH_TICKS
                       for s in seqs)
        assert dict(chunks) == want
        assert [epoch for epoch, _ in chunks] == sorted(want)


def churn(**options) -> FlowEngine:
    """INT flows on Abilene through scripted cuts that blackhole runs."""
    return FlowEngine(
        get_topology("abilene").build(),
        WorkloadSpec(flows=100, seed=1, packets_per_flow=96,
                     window_ticks=2048),
        frr=True, int_all=True, link_schedule=churn_schedule(), **options)


class TestLossyIntParity:
    def test_batch_int_summary_is_the_per_packet_one(self):
        """Batch ``int_summary`` equals the per-packet reference's key by
        key, blackhole paths and loss by epoch included, on a run whose
        lost runs span epochs."""
        engine = churn()
        ledgers = closed_ledgers(engine.collector)
        got = engine.report().int_summary
        want = churn(fastpath=False, batch=False).report().int_summary
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key
        assert got["lost"] > 0 and got["blackhole_paths"]
        spanning = [
            seqs for state in ledgers.values()
            for seqs, clock, _ in state.runs
            if state.received.isdisjoint(seqs)
            and len(epoch_chunks(clock, seqs)) >= 2]
        assert spanning
