"""Sharded execution: the fingerprint-invariance contract.

The ISSUE's acceptance criterion: the merged delivery fingerprint must
be byte-identical whether a run uses 1, 2 or 4 shards — with real
``multiprocessing`` workers and with the inline partition path.
"""

from __future__ import annotations

import time

import pytest

from repro.fabric import (
    generate_flows,
    get_topology,
    get_workload,
    merge_reports,
    run_flows,
    run_sharded,
)
from repro.faults import get_plan

pytestmark = pytest.mark.fabric


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_inline_fingerprint_matches_single_process(self, shards):
        spec = get_topology("leaf-spine")
        workload = get_workload("uniform-small")
        single = run_sharded(spec, workload, shards=1)
        merged = run_sharded(spec, workload, shards=shards, parallel=False)
        assert merged.fingerprint() == single.fingerprint()
        assert merged.shards == shards

    def test_parallel_pool_fingerprint_matches(self):
        """The real multiprocessing path: 1 vs 2 vs 4 worker processes."""
        spec = get_topology("leaf-spine")
        workload = get_workload("uniform-small")
        fingerprints = {
            run_sharded(spec, workload, shards=n).fingerprint()
            for n in (1, 2, 4)
        }
        assert len(fingerprints) == 1

    def test_invariance_holds_under_faults(self):
        spec = get_topology("fat-tree-4")
        workload = get_workload("incast-64")
        plan = get_plan("flaky-fabric", seed=17)
        single = run_sharded(spec, workload, plan, shards=1)
        sharded = run_sharded(spec, workload, plan, shards=4)
        assert sharded.fingerprint() == single.fingerprint()
        assert sharded.fault_counters == single.fault_counters
        assert sum(r.lost_flap for r in single.records) > 0

    def test_aggregate_equality_not_just_hash(self):
        """Belt and braces: compare the full signatures, not only the
        digest, so a hash collision can't mask a regression."""
        spec = get_topology("star-3")
        workload = get_workload("bursty-256")
        a = run_sharded(spec, workload, shards=1)
        b = run_sharded(spec, workload, shards=2, parallel=False)
        assert a.signature() == b.signature()

    def test_a_shard_expands_only_the_flows_it_carries(self, monkeypatch):
        """Flow ``i`` never depends on its neighbours, so a shard asks
        for its own ids and nobody regenerates the whole workload; an
        explicit ``flows=`` is still just filtered."""
        from repro.fabric import scheduler, shard

        spec = get_topology("leaf-spine")
        workload = get_workload("uniform-small")
        whole = run_sharded(spec, workload, shards=1)
        asked = []

        def recording(hosts, spec, ids=None):
            asked.append(ids)
            return generate_flows(hosts, spec, ids)

        def refusing(*_):
            raise AssertionError("a shard expanded the whole workload")

        monkeypatch.setattr(shard, "generate_flows", recording)
        monkeypatch.setattr(scheduler, "generate_flows", refusing)
        merged = run_sharded(spec, workload, shards=4, parallel=False)
        assert asked == [range(i, workload.flows, 4) for i in range(4)]
        assert merged.signature() == whole.signature()
        flows = generate_flows(spec.build().host_names(), workload)
        del asked[:]
        listed = run_sharded(spec, workload, shards=4, parallel=False,
                             flows=flows)
        assert not asked and listed.signature() == whole.signature()


class TestElapsed:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_elapsed_is_the_callers_wall(self, shards, monkeypatch):
        """``packets_per_second`` is the throughput a caller timing the
        call would compute: inline shards run one after another, and
        each engine's own timer starts after build, learn and prewarm,
        so neither the slowest shard nor their sum is the run's wall."""
        from repro.fabric import shard

        engine_seconds = []

        def recording(*job, run_shard=shard._run_shard):
            report = run_shard(*job)
            engine_seconds.append(report.elapsed_s)
            return report

        monkeypatch.setattr(shard, "_run_shard", recording)
        started = time.perf_counter()
        report = run_sharded(get_topology("abilene"),
                             get_workload("uniform-small"),
                             shards=shards, parallel=False)
        wall = time.perf_counter() - started
        assert len(engine_seconds) == shards
        assert sum(engine_seconds) <= report.elapsed_s <= wall
        assert report.packets_per_second <= 1.5 * report.attempted / wall


class TestMerge:
    def _shard_reports(self, shards):
        spec = get_topology("leaf-spine")
        workload = get_workload("uniform-small")
        return [
            run_flows(spec.build(), workload,
                      flow_filter=lambda f, n=n: f.flow_id % shards == n,
                      shards=shards)
            for n in range(shards)
        ], spec, workload

    def test_merge_concatenates_disjoint_partitions(self):
        reports, spec, workload = self._shard_reports(2)
        merged = merge_reports(reports, 2)
        full = run_flows(spec.build(), workload)
        assert merged.fingerprint() == full.fingerprint()
        assert len(merged.records) == workload.flows

    def test_merge_rejects_overlapping_partitions(self):
        reports, _, _ = self._shard_reports(2)
        with pytest.raises(ValueError, match="duplicate flow ids"):
            merge_reports([reports[0], reports[0]], 2)

    def test_merge_rejects_mixed_runs(self):
        spec = get_topology("star-3")
        a = run_flows(spec.build(), get_workload("uniform-small"))
        b = run_flows(spec.build(), get_workload("incast-64"))
        with pytest.raises(ValueError, match="different runs"):
            merge_reports([a, b], 2)

    def test_merge_rejects_nothing(self):
        with pytest.raises(ValueError):
            merge_reports([], 1)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            run_sharded(get_topology("star-3"),
                        get_workload("uniform-small"), shards=0)
