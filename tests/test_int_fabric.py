"""INT at fabric scale: shard/fastpath fingerprint identity, receiver-vs-
device attribution equality (E19/E20), probe_int, and the nf-mon face."""

from __future__ import annotations

import json

import pytest

from repro.fabric import get_topology, get_workload, run_sharded
from repro.fabric.workload import WorkloadSpec, generate_flows
from repro.frr.sweep import run_sweep
from repro.host.nfmon import main as nfmon_main
from repro.telemetry import TelemetrySession, probe_int

pytestmark = pytest.mark.int


def _run(topo="leaf-spine", workload="uniform-int", seed=7, **kwargs):
    topology = get_topology(topo)
    spec = get_workload(workload).with_seed(seed)
    kwargs.setdefault("parallel", False)
    return run_sharded(topology, spec, **kwargs)


class TestFabricIntegration:
    def test_int_summary_populated_and_lossless(self):
        report = _run()
        summary = report.int_summary
        assert summary is not None
        assert summary["packets"] == summary["delivered"] > 0
        assert summary["stamps"] > summary["packets"]  # multi-hop paths
        assert summary["lost"] == summary["blackholes"] == 0
        # Leaf-to-leaf flows cross the spine; same-leaf flows stamp once.
        assert any(">" in path for path in summary["paths"])

    def test_int_summary_in_fingerprint(self):
        report = _run()
        with_int = report.signature()
        report.int_summary = None
        assert report.signature() != with_int

    def test_shards_and_fastpath_preserve_fingerprint(self):
        base = _run().signature()
        assert _run(shards=3).signature() == base
        assert _run(fastpath=False).signature() == base
        assert _run(shards=3, fastpath=False).signature() == base
        # worker processes: the summaries cross a pipe before the merge
        assert _run(shards=2, parallel=True).signature() == base

    def test_int_all_promotes_every_flow(self):
        report = _run(workload="uniform-small", int_all=True)
        assert report.int_summary is not None
        assert report.int_summary["flows"] == len(report.records)

    def test_plain_workload_has_no_summary(self):
        report = _run(workload="uniform-small")
        assert report.int_summary is None

    def test_hop_latency_uses_decision_cycles(self):
        summary = _run().int_summary
        assert summary["hop_latency"]
        for key in summary["hop_latency"]:
            device, _, cycles = key.rpartition(":")
            assert device and int(cycles) > 0


class TestWorkloadStability:
    def test_int_ratio_zero_leaves_flows_bit_identical(self):
        # Adding the int_enabled draw must not perturb pre-INT workloads.
        plain = WorkloadSpec("uniform", flows=32, packets_per_flow=2,
                             window_ticks=64, seed=11)
        ratioed = WorkloadSpec("uniform", flows=32, packets_per_flow=2,
                               window_ticks=64, seed=11, int_ratio=0.0)
        hosts = [f"h{i}" for i in range(16)]
        assert generate_flows(hosts, plain) == generate_flows(hosts, ratioed)

    def test_int_ratio_is_a_key_suffix(self):
        spec = WorkloadSpec("uniform", flows=8, packets_per_flow=1,
                            window_ticks=32, int_ratio=0.5)
        assert ",int=0.5" in spec.key
        plain = WorkloadSpec("uniform", flows=8, packets_per_flow=1,
                             window_ticks=32)
        assert ",int=" not in plain.key

    def test_bad_int_ratio_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("uniform", flows=8, packets_per_flow=1,
                         window_ticks=32, int_ratio=1.5)


class TestSweepAttribution:
    def test_receiver_attribution_equals_device_counters(self):
        """E19's core claim: the collector's receiver-side counts exactly
        match the in-fabric device counters, link by link."""
        report = run_sweep("leaf-spine", seed=3, max_links=2)
        assert report.int_enabled
        assert report.int_consistent()
        assert report.healthy()
        for link in report.links:
            assert link.int_reroutes == link.reroutes
            assert link.int_blackholes_off == link.blackholed_frr_off
            assert link.int_loss_curve_on == link.loss_curve_on

    def test_failed_link_named_by_receiver(self):
        report = run_sweep("leaf-spine", seed=3, max_links=1)
        (link,) = report.links
        if link.reroutes:
            a, b = link.link.split("~")
            device_a = a.rsplit(":", 1)[0]
            device_b = b.rsplit(":", 1)[0]
            assert "~".join(sorted((device_a, device_b))) \
                in link.int_failed_links

    def test_int_disabled_sweep_skips_attribution(self):
        report = run_sweep("leaf-spine", seed=3, max_links=1,
                           int_enabled=False)
        assert not report.int_enabled
        assert report.int_consistent()  # vacuously
        assert report.healthy()


@pytest.mark.telemetry
class TestProbeInt:
    def test_series_mirror_the_summary(self):
        report = _run()
        session = TelemetrySession("sim")
        probe_int(report, session)
        snap = session.registry.snapshot()
        summary = report.int_summary
        assert snap['int_packets_total{outcome="delivered"}'] == \
            summary["delivered"]
        assert snap['int_packets_total{outcome="packets"}'] == \
            summary["packets"]

    def test_series_are_parity_safe(self):
        sim, hw = TelemetrySession("sim"), TelemetrySession("hw")
        probe_int(_run(), sim)
        probe_int(_run(), hw)
        assert any(name.startswith("int_packets_total")
                   for name in sim.snapshot().parity)
        sim.snapshot().assert_parity(hw.snapshot())

    def test_plain_report_is_a_noop(self):
        session = TelemetrySession("sim")
        probe_int(_run(workload="uniform-small"), session)
        assert not session.registry.snapshot()


# ----------------------------------------------------------------------
# nf-mon int / nf-mon frr --max-loss
# ----------------------------------------------------------------------
class TestNfmonInt:
    def test_table_output_and_exit_code(self, capsys):
        assert nfmon_main(["int", "--topo", "leaf-spine"]) == 0
        out = capsys.readouterr().out
        assert "stamps" in out
        assert "reroutes match devices" in out
        assert "healthy: True" in out

    def test_json_output_parses_and_matches(self, capsys):
        assert nfmon_main(["int", "--topo", "leaf-spine",
                           "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["healthy"] is True
        assert data["int_reroutes_match"] is True
        assert data["int_blackholes_match"] is True

    def test_shards_do_not_change_the_fingerprint(self, capsys):
        assert nfmon_main(["int", "--seed", "4", "--format", "json"]) == 0
        one = json.loads(capsys.readouterr().out)
        assert nfmon_main(["int", "--seed", "4", "--shards", "2",
                           "--inline", "--format", "json"]) == 0
        two = json.loads(capsys.readouterr().out)
        assert one["fingerprint"] == two["fingerprint"]

    def test_unknown_topology_is_operator_error(self, capsys):
        assert nfmon_main(["int", "--topo", "nope"]) == 2
        assert "unknown fabric topology" in capsys.readouterr().err


class TestNfmonFrrMaxLoss:
    def test_generous_budget_passes(self, capsys):
        assert nfmon_main(["frr", "--topo", "leaf-spine", "--max-links", "1",
                           "--max-loss", "0.9"]) == 0
        assert "int attribution agrees" in capsys.readouterr().out

    def test_breached_budget_exits_nonzero(self, capsys):
        # FRR-on loss can never be negative, so a zero budget trips
        # whenever any rerouted packet is lost; pick a sweep with loss.
        code = nfmon_main(["frr", "--topo", "leaf-spine",
                           "--max-links", "2", "--max-loss", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "loss guard breached" in captured.err
