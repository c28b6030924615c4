"""Supervised shard executor: chaos, retries, fallback, checkpoints.

The tentpole invariant under test: the merged fingerprint is
byte-identical across {clean, any seeded crash schedule,
resume-from-checkpoint} × shard counts × fastpath on/off.  Chaos only
shapes *how workers die*, never what the run computes — a crashed
worker costs a retry, a poisoned result is refused at the merge
boundary, an exhausted budget degrades to inline execution, and every
one of those detours is visible in the supervision ledger while the
fingerprint never moves.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fabric import (
    RunConfig,
    SupervisorOptions,
    get_topology,
    get_workload,
    run_flows,
    run_sharded,
)
from repro.fabric.shard import _pool_size
from repro.fabric.supervisor import (
    CheckpointStore,
    reject_reason,
    report_from_dict,
    report_to_dict,
    run_identity,
)
from repro.faults import FaultPlan, ShardFaultSpec, get_plan
from repro.telemetry import TelemetrySession, probe_shard

pytestmark = pytest.mark.shard

TOPO = "star-3"
WORKLOAD = "uniform-small"

#: Tight timeouts so the retry/backoff paths run in milliseconds.
FAST = SupervisorOptions(backoff_base_s=0.01, backoff_cap_s=0.05,
                         poll_s=0.01)
#: Tiny heartbeat budget so a hung worker is declared dead quickly.
HANG_FAST = SupervisorOptions(backoff_base_s=0.01, backoff_cap_s=0.05,
                              poll_s=0.01, heartbeat_s=0.02,
                              heartbeat_timeout_s=0.3)


def _clean_fingerprint():
    spec = get_topology(TOPO)
    workload = get_workload(WORKLOAD)
    return run_flows(spec.build(), workload).fingerprint()


def _run(shards=2, chaos=None, options=FAST, **kwargs):
    return run_sharded(get_topology(TOPO), get_workload(WORKLOAD),
                       shards=shards, chaos=chaos, supervisor=options,
                       **kwargs)


class TestSupervisedInvariance:
    def test_clean_supervised_matches_inline(self):
        report = _run(shards=2)
        assert report.fingerprint() == _clean_fingerprint()
        assert report.supervision["attempts"] == 2
        assert report.supervision["retries"] == 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("fastpath", [True, False])
    def test_chaos_fingerprint_identity(self, shards, fastpath):
        """The acceptance grid: seeded chaos at every shard count,
        flow caches on and off, always the clean fingerprint."""
        chaos = get_plan("shard-chaos", seed=7)
        report = _run(shards=shards, chaos=chaos, fastpath=fastpath)
        assert report.fingerprint() == _clean_fingerprint()
        assert report.supervision["attempts"] >= shards

    def test_killer_run_lands_via_inline_fallback(self):
        """A worker killed on every attempt: the budget exhausts, every
        shard degrades to inline execution, the run still lands clean."""
        chaos = get_plan("shard-killer", seed=3)
        report = _run(shards=2, chaos=chaos)
        assert report.fingerprint() == _clean_fingerprint()
        assert report.supervision["fallbacks"] == 2
        assert report.supervision["worker_crashes"] == 2 * (
            FAST.max_retries + 1)
        assert report.supervision["retries"] == 2 * FAST.max_retries

    def test_random_kill_schedules_are_immaterial(self):
        """The crash-schedule determinism property: random seeded kill
        schedules (crash + corrupt drawn per (shard, attempt)) never
        move the fingerprint off the clean run's."""
        clean = _clean_fingerprint()
        for seed in range(5):
            chaos = FaultPlan(
                "kill-schedule", seed=seed,
                shard=ShardFaultSpec(crash_rate=0.4, corrupt_rate=0.3),
            )
            report = _run(shards=2, chaos=chaos)
            assert report.fingerprint() == clean, f"chaos seed {seed}"

    def test_chaos_schedule_is_deterministic(self):
        """Same chaos plan, same seed → identical supervision ledger."""
        ledgers = [
            _run(shards=2, chaos=get_plan("shard-chaos", seed=11)).supervision
            for _ in range(2)
        ]
        assert ledgers[0] == ledgers[1]


class TestChaosDetection:
    def test_corrupt_results_refused_at_merge_boundary(self):
        chaos = FaultPlan("corruptor", seed=1,
                          shard=ShardFaultSpec(corrupt_rate=1.0))
        options = SupervisorOptions(max_retries=1, backoff_base_s=0.01,
                                    backoff_cap_s=0.05, poll_s=0.01)
        report = _run(shards=2, chaos=chaos, options=options)
        assert report.fingerprint() == _clean_fingerprint()
        # Every worker result was poisoned and refused; both shards
        # exhausted their budget and fell back inline.
        assert report.supervision["corrupt_results"] == 4
        assert report.supervision["fallbacks"] == 2

    def test_hung_workers_die_by_heartbeat_gap(self):
        chaos = FaultPlan("hanger", seed=1,
                          shard=ShardFaultSpec(hang_rate=1.0))
        options = SupervisorOptions(max_retries=0, backoff_base_s=0.01,
                                    backoff_cap_s=0.05, poll_s=0.01,
                                    heartbeat_s=0.02,
                                    heartbeat_timeout_s=0.3)
        report = _run(shards=2, chaos=chaos, options=options)
        assert report.fingerprint() == _clean_fingerprint()
        assert report.supervision["heartbeat_gaps"] == 2
        assert report.supervision["deadline_kills"] == 0
        assert report.supervision["fallbacks"] == 2

    def test_reject_reason_catches_non_report(self):
        assert "not a FabricReport" in reject_reason("junk", "x", 2, 0)

    def test_reject_reason_catches_fingerprint_mismatch(self):
        spec = get_topology(TOPO)
        report = run_flows(spec.build(), get_workload(WORKLOAD),
                           flow_filter=lambda f: f.flow_id % 2 == 0,
                           shards=2)
        good = report.fingerprint()
        assert reject_reason(report, good, 2, 0) is None
        report.records[0].delivered += 1
        assert "corrupted in transit" in reject_reason(report, good, 2, 0)

    def test_reject_reason_catches_wrong_partition(self):
        spec = get_topology(TOPO)
        report = run_flows(spec.build(), get_workload(WORKLOAD),
                           flow_filter=lambda f: f.flow_id % 2 == 0,
                           shards=2)
        # A shard-0 report offered as shard 1: every record is in the
        # wrong residue class even though the report itself is intact.
        reason = reject_reason(report, report.fingerprint(), 2, 1)
        assert "wrong partition" in reason


class TestCheckpointResume:
    def test_report_round_trips_through_json(self):
        spec = get_topology(TOPO)
        report = run_flows(spec.build(), get_workload(WORKLOAD))
        clone = report_from_dict(json.loads(json.dumps(
            report_to_dict(report))))
        assert clone.fingerprint() == report.fingerprint()
        assert clone.signature() == report.signature()

    def test_full_resume_recomputes_nothing(self, tmp_path):
        first = _run(shards=2, checkpoint=tmp_path)
        assert first.supervision["checkpoint_writes"] == 2
        second = _run(shards=2, checkpoint=tmp_path)
        assert second.supervision["checkpoint_hits"] == 2
        assert second.supervision["attempts"] == 0
        assert second.fingerprint() == first.fingerprint()

    def test_partial_resume_recomputes_only_the_missing_shard(self, tmp_path):
        _run(shards=2, checkpoint=tmp_path)
        (tmp_path / "shard-0.json").unlink()
        resumed = _run(shards=2, checkpoint=tmp_path)
        assert resumed.supervision["checkpoint_hits"] == 1
        assert resumed.supervision["attempts"] == 1
        assert resumed.fingerprint() == _clean_fingerprint()

    def test_garbled_shard_file_is_recomputed_not_merged(self, tmp_path):
        _run(shards=2, checkpoint=tmp_path)
        (tmp_path / "shard-1.json").write_text("{ not json")
        resumed = _run(shards=2, checkpoint=tmp_path)
        assert resumed.supervision["checkpoint_hits"] == 1
        assert resumed.fingerprint() == _clean_fingerprint()

    def test_tampered_shard_file_fails_its_fingerprint(self, tmp_path):
        _run(shards=2, checkpoint=tmp_path)
        path = tmp_path / "shard-0.json"
        payload = json.loads(path.read_text())
        payload["report"]["records"][0]["delivered"] += 7
        path.write_text(json.dumps(payload))
        resumed = _run(shards=2, checkpoint=tmp_path)
        assert resumed.supervision["checkpoint_hits"] == 1
        assert resumed.fingerprint() == _clean_fingerprint()

    def test_checkpoint_refuses_a_different_run(self, tmp_path):
        _run(shards=2, checkpoint=tmp_path)
        with pytest.raises(ValueError, match="different run"):
            run_sharded(get_topology(TOPO),
                        get_workload(WORKLOAD).with_seed(99),
                        shards=2, checkpoint=tmp_path, supervisor=FAST)

    def test_chaos_then_resume_is_still_clean(self, tmp_path):
        """The full detour: chaos run checkpoints as shards land, the
        resumed run restores them, both match the clean fingerprint."""
        chaos = get_plan("shard-chaos", seed=7)
        first = _run(shards=2, chaos=chaos, checkpoint=tmp_path)
        second = _run(shards=2, chaos=chaos, checkpoint=tmp_path)
        assert first.fingerprint() == second.fingerprint()
        assert second.fingerprint() == _clean_fingerprint()
        assert second.supervision["checkpoint_hits"] == 2

    def test_store_load_absent_shard_is_none(self, tmp_path):
        spec = get_topology(TOPO)
        workload = get_workload(WORKLOAD)
        identity = run_identity(spec, workload, None, 2, None, RunConfig())
        store = CheckpointStore(tmp_path, identity)
        assert store.load(0) is None


class TestPoolAndMergeGuards:
    def test_pool_capped_at_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _pool_size(2) == 2
        assert _pool_size(4) == 4
        assert _pool_size(64) == 4

    def test_pool_size_survives_unknown_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8) == 1

    def test_more_shards_than_flows_rejected_early(self):
        workload = get_workload(WORKLOAD)
        with pytest.raises(ValueError, match="exceeds the"):
            run_sharded(get_topology(TOPO), workload,
                        shards=workload.flows + 1)

    @pytest.mark.parametrize("path", [{"parallel": False}])
    @pytest.mark.parametrize("wanted", ["chaos", "checkpoint"])
    def test_unsupervised_paths_refuse_chaos_and_checkpoint(
            self, path, wanted, tmp_path):
        """The inline path — the one path left that starts no supervised
        workers — may not take the request and silently run clean /
        write nothing."""
        asked = {"chaos": get_plan("shard-killer", seed=0),
                 "checkpoint": tmp_path / "ckpt"}[wanted]
        (conflict,) = path
        with pytest.raises(ValueError,
                           match=f"{wanted}=.*{conflict}=False"):
            run_sharded(get_topology(TOPO), get_workload(WORKLOAD),
                        shards=2, **path, **{wanted: asked})
        assert not (tmp_path / "ckpt").exists()

    def test_the_supervisor_is_the_only_process_executor(self):
        """The switch went with the pool it selected: it is now an
        unknown run option like any other."""
        with pytest.raises(TypeError, match="supervised"):
            run_sharded(get_topology(TOPO), get_workload(WORKLOAD),
                        shards=2, supervised=False)


class TestShardFaultPlan:
    def test_draws_are_deterministic(self):
        plan = get_plan("shard-chaos", seed=5)
        draws = [
            [plan.derived("shard", i, a).session().shard_fault()
             for i in range(4) for a in range(4)]
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        assert any(d is not None for d in draws[0])

    def test_killer_always_crashes(self):
        plan = get_plan("shard-killer", seed=0)
        for i in range(3):
            for a in range(3):
                action = plan.derived("shard", i, a).session().shard_fault()
                assert action == "crash"

    def test_session_counts_shard_faults(self):
        plan = FaultPlan("crasher", seed=1,
                         shard=ShardFaultSpec(crash_rate=1.0))
        session = plan.session()
        assert session.shard_fault() == "crash"
        assert session.counters["shard_crashes"] == 1

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            ShardFaultSpec(crash_rate=1.5)
        with pytest.raises(ValueError):
            ShardFaultSpec(hang_rate=-0.1)

    def test_options_are_validated(self):
        with pytest.raises(ValueError):
            SupervisorOptions(deadline_s=0)
        with pytest.raises(ValueError):
            SupervisorOptions(heartbeat_s=1.0, heartbeat_timeout_s=0.5)
        with pytest.raises(ValueError):
            SupervisorOptions(max_retries=-1)


class TestProbeShard:
    def test_ledger_mirrors_into_the_registry(self):
        report = _run(shards=2, chaos=get_plan("shard-chaos", seed=7))
        session = TelemetrySession("sim")
        probe_shard(report, session)
        snap = session.registry.snapshot()
        for event, count in report.supervision.items():
            key = f'shard_events_total{{event="{event}"}}'
            if count:
                assert snap[key] == count
        assert any(e.kind == "shard_supervised"
                   for e in session.trace.events)

    def test_unsupervised_report_publishes_nothing(self):
        spec = get_topology(TOPO)
        report = run_flows(spec.build(), get_workload(WORKLOAD))
        session = TelemetrySession("sim")
        probe_shard(report, session)
        assert not any("shard_events_total" in k
                       for k in session.registry.snapshot())
        assert not session.trace.events


class TestNfmonShardCli:
    def _base(self):
        return ["fabric", "--topo", TOPO, "--workload", WORKLOAD,
                "--shards", "2"]

    def test_chaos_run_prints_supervision_section(self, capsys):
        from repro.host.nfmon import main as nfmon_main

        assert nfmon_main(self._base()
                          + ["--chaos-shards", "shard-chaos"]) == 0
        out = capsys.readouterr().out
        assert "supervision:" in out
        assert "worker_crashes" in out

    def test_unknown_chaos_plan_is_operator_error(self, capsys):
        from repro.host.nfmon import main as nfmon_main

        assert nfmon_main(self._base()
                          + ["--chaos-shards", "no-such-plan"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err

    def test_checkpointed_rerun_reports_hits(self, capsys, tmp_path):
        from repro.host.nfmon import main as nfmon_main

        args = self._base() + ["--checkpoint", str(tmp_path)]
        assert nfmon_main(args) == 0
        capsys.readouterr()
        assert nfmon_main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["supervision"]["checkpoint_hits"] == 2

    def test_the_unsupervised_pool_flag_is_gone(self, capsys):
        from repro.host.nfmon import main as nfmon_main

        assert nfmon_main(self._base() + ["--bare-pool"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
