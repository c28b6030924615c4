"""The deterministic flow scheduler: delivery, faults, telemetry."""

from __future__ import annotations

import pytest

from repro.fabric import (
    FabricReport,
    FlowEngine,
    FlowRecord,
    get_topology,
    get_workload,
    run_flows,
)
from repro.faults import FaultPlan, LinkFaultSpec, get_plan
from repro.telemetry import TelemetrySession, probe_fabric

pytestmark = pytest.mark.fabric


def _run(topo="leaf-spine", workload="uniform-small", plan=None, **kw):
    return run_flows(get_topology(topo).build(),
                     get_workload(workload), plan, **kw)


class TestCleanRuns:
    def test_everything_delivered(self):
        report = _run()
        assert report.attempted > 0
        assert report.delivered == report.attempted
        assert report.lost == 0
        assert report.misdelivered == 0
        assert report.healthy()

    def test_run_is_reproducible(self):
        assert _run().fingerprint() == _run().fingerprint()

    def test_interleaving_does_not_change_outcomes(self):
        """max_inflight reshapes the event interleaving but per-flow
        outcomes are order-independent, so the fingerprint holds."""
        wide = _run(max_inflight=1024)
        narrow = _run(max_inflight=1)
        assert wide.fingerprint() == narrow.fingerprint()

    def test_no_plan_no_per_flow_plan(self):
        """Without a plan no flow can draw or count a fault: all share
        the engine's one null session; with one, each has its own."""
        def sessions(plan):
            engine = FlowEngine(get_topology("leaf-spine").build(),
                                get_workload("uniform-small"), plan)
            held = {id(entry[-1].session) for entry in engine._heap}
            return len(held), len(engine._heap), engine.report()

        shared, flows, report = sessions(None)
        assert (shared, report.fault_counters) == (1, {})
        own, flows, report = sessions(get_plan("lossy-link", seed=3))
        assert own == flows > 1 and report.fault_counters

    def test_responses_flow_back(self):
        report = _run(workload="incast-64")
        # incast-64 has response_ratio 0.25: some reverse traffic exists,
        # so total attempts exceed the pure request count.
        requests = sum(min(r.attempted, 1) for r in report.records)
        assert report.attempted > requests

    def test_device_counters_cover_the_path(self):
        report = _run(topo="linear-4")
        assert sum(report.device_forwarded.values()) > 0
        assert set(report.device_forwarded) == {"s0", "s1", "s2", "s3"}

    def test_hops_histogram_matches_deliveries(self):
        report = _run(topo="fat-tree-4")
        assert sum(report.hops_hist.values()) == report.delivered
        assert set(report.hops_hist) <= {1, 3, 5}


class TestFaultyRuns:
    def test_wire_loss_is_accounted_not_silent(self):
        plan = FaultPlan("lossy", seed=13,
                         link=LinkFaultSpec(lose_rate=0.2, max_burst=2,
                                            max_attempts=4))
        report = _run(plan=plan)
        lost_wire = sum(r.lost_wire for r in report.records)
        assert lost_wire > 0
        assert report.delivered + report.lost == report.attempted
        assert report.healthy()  # accounted loss is not a health failure
        assert report.fault_counters.get("link_lost", 0) >= lost_wire

    def test_flap_loss_hits_whole_epochs(self):
        report = _run(plan=get_plan("flaky-fabric", seed=11))
        assert sum(r.lost_flap for r in report.records) > 0
        assert report.fault_counters.get("flap_lost_frames", 0) == sum(
            r.lost_flap for r in report.records
        )

    def test_faulty_run_is_reproducible(self):
        plan = get_plan("flaky-fabric", seed=5)
        a = _run(plan=plan)
        b = _run(plan=plan)
        assert a.fingerprint() == b.fingerprint()
        assert a.fault_counters == b.fault_counters

    def test_retransmits_counted_on_recovered_frames(self):
        plan = FaultPlan("droppy", seed=3,
                         link=LinkFaultSpec(drop_rate=0.3))
        report = _run(plan=plan)
        assert sum(r.retransmits for r in report.records) > 0
        assert report.delivered == report.attempted  # drops all recovered

    def test_plan_changes_the_fingerprint(self):
        assert _run().fingerprint() != _run(
            plan=get_plan("flaky-fabric", seed=5)
        ).fingerprint()


class TestReport:
    def test_as_dict_shape(self):
        d = _run().as_dict(per_flow=True)
        for key in ("topology", "workload", "fingerprint", "attempted",
                    "delivered", "dropped_hop_limit", "device_forwarded",
                    "hops_hist", "per_flow", "healthy"):
            assert key in d
        assert len(d["per_flow"]) == d["flows"]

    def test_fingerprint_ignores_wall_clock_and_shards(self):
        a = _run()
        b = FabricReport(**{**a.__dict__})
        b.elapsed_s = a.elapsed_s * 100
        b.shards = 7
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_flow_outcomes(self):
        a = _run()
        b = FabricReport(**{**a.__dict__})
        b.records = [FlowRecord(**r.as_dict()) for r in a.records]
        b.records[0].delivered += 1
        assert a.fingerprint() != b.fingerprint()

    def test_blackhole_detection(self):
        report = _run()
        report.records[0].blackholed = 1
        assert not report.healthy()

    def test_bad_max_inflight_rejected(self):
        with pytest.raises(ValueError):
            _run(max_inflight=0)


@pytest.mark.telemetry
class TestTelemetryFeed:
    def test_feed_publishes_parity_series(self):
        report = _run(plan=get_plan("flaky-fabric", seed=2))
        session = TelemetrySession("sim")
        probe_fabric(report, session)
        snapshot = session.registry.snapshot()
        delivered = snapshot['fabric_packets_total{outcome="delivered"}']
        assert delivered == report.delivered
        assert snapshot["fabric_flows_total"] == len(report.records)
        # Fabric series are cycle-independent: all in the parity set.
        parity = session.registry.snapshot(cycle_independent_only=True)
        assert 'fabric_packets_total{outcome="delivered"}' in parity

    def test_outcome_series_sum_to_attempted(self):
        """Every loss field has its own outcome label (``lost_link``
        used to be dropped), so the series account for every packet."""
        record = FlowRecord(0, "a", "b", attempted=21, delivered=6,
                            lost_wire=1, lost_flap=2, lost_link=3,
                            blackholed=4, dropped_hop_limit=5)
        report = FabricReport("t", "w", 0, records=[record])
        session = TelemetrySession("sim")
        report.feed(session.registry)
        outcomes = {
            key: value for key, value in session.registry.snapshot().items()
            if key.startswith("fabric_packets_total{")
        }
        assert outcomes['fabric_packets_total{outcome="lost_link"}'] == 3
        assert len(outcomes) == 6 and 0 not in outcomes.values()
        assert sum(outcomes.values()) == record.attempted
        assert report.lost == 15

    def test_hop_histogram_is_fed_once_per_bucket(self):
        """``observe(value, count)`` exports exactly what ``count``
        single observations did — the series are byte-identical."""
        report = _run(topo="leaf-spine")
        assert len(report.hops_hist) > 1
        counted, single = TelemetrySession("sim"), TelemetrySession("sim")
        report.feed(counted.registry)
        hops = single.registry.histogram(
            "fabric_delivery_hops", "Device hops per delivered packet",
            buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0),
            cycle_dependent=False)
        for hop, count in sorted(report.hops_hist.items()):
            for _ in range(count):
                hops.observe(float(hop))
        report.hops_hist = {}
        report.feed(single.registry)  # every other series, the same way
        assert counted.registry.to_prometheus() \
            == single.registry.to_prometheus()
        assert counted.registry.to_json() == single.registry.to_json()

    def test_feed_device_series(self):
        report = _run(topo="star-3")
        session = TelemetrySession("sim")
        report.feed(session.registry)
        snapshot = session.registry.snapshot()
        for device, count in report.device_forwarded.items():
            if count:
                key = f'fabric_device_forwarded_total{{device="{device}"}}'
                assert snapshot[key] == count
