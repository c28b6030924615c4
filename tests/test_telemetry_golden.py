"""Golden telemetry: every probe's families and output, pinned to a file.

The probes mirror counters their modules already keep, so a refactor of
how series are declared must leave the exported face untouched.  This
test replays one small scenario per probe and compares, against
``tests/data/telemetry_golden.json``:

* every family any probe registers — name, help, kind, labels and
  ``cycle_dependent``;
* per scenario, the Prometheus text, the sim/hw parity subset and the
  trace events as ``(kind, name, args)`` (timestamps are left out: the
  ``hw`` domain stamps wall-clock nanoseconds).

Regenerate the file after an intended change with
``PYTHONPATH=src python -m tests.test_telemetry_golden --write`` and
review the diff: it is the change's whole effect on the exported series.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.board.sume import NetFpgaSume
from repro.fabric import LinkSchedule, get_topology, get_workload, run_flows
from repro.fabric import run_sharded
from repro.fabric.scheduler import FabricReport, FlowRecord
from repro.faults import FaultInjector, get_plan
from repro.host.driver import NetFpgaDriver
from repro.telemetry import (
    TelemetrySession,
    probe_dma,
    probe_driver,
    probe_fabric,
    probe_fastpath,
    probe_frr,
    probe_int,
    probe_shard,
)
from repro.testenv import soak
from repro.testenv.harness import run_test
from repro.testenv.regress import standard_scenarios

from tests.conftest import udp_frame

pytestmark = pytest.mark.telemetry

GOLDEN = Path(__file__).with_name("data") / "telemetry_golden.json"

#: Every family the probes and the harness register, across the cases.
FAMILIES = 47


def _scenario(mode, plan=None):
    def case():
        session = TelemetrySession(mode)
        test = next(t for t in standard_scenarios()
                    if t.name == "switch_learn_and_forward")
        faults = get_plan(plan, seed=3) if plan else None
        run_test(test, mode, faults=faults, telemetry=session)
        return session
    return case


def _dma_and_driver_wedged():
    session = TelemetrySession("hw")
    board = NetFpgaSume()
    driver = NetFpgaDriver(board)
    FaultInjector(get_plan("wedged-ring").session()).arm_dma(board.dma)
    probe_dma(board.dma, session)
    probe_driver(driver, session)
    driver.transmit_one(udp_frame(), port=1)
    for i in range(4):
        board.dma.receive(udp_frame(src=i + 1), port=0)
    board.sim.run_until_idle()
    driver.receive_wait(min_frames=2, max_polls=16)
    return session


def _soak():
    sessions = []

    def capture(mode):
        sessions.append(TelemetrySession(mode))
        return sessions[-1]

    with mock.patch.object(soak, "TelemetrySession", capture):
        soak.run_soak("sim", "ctrl-chaos", seed=1, epochs=3, telemetry=True)
    return sessions[0]


def _abilene_int_frr():
    report = run_sharded(get_topology("abilene"),
                         get_workload("uniform-small"), shards=2,
                         parallel=False, frr=True, int_all=True)
    session = TelemetrySession("sim")
    probe_fabric(report, session)
    probe_int(report, session)
    return session


def _supervised_report():
    records = [FlowRecord(0, "h0", "h1", attempted=9, delivered=5,
                          lost_wire=1, blackholed=3, retransmits=2,
                          bytes_delivered=640, hops_total=10, hops_max=2),
               FlowRecord(1, "h1", "h0", attempted=4, delivered=4,
                          bytes_delivered=512, hops_total=12, hops_max=3)]
    report = FabricReport(
        "leaf-spine", "uniform-small", 7, records=records,
        device_forwarded={"leaf0": 9, "spine0": 0, "leaf1": 7},
        hops_hist={2: 5, 3: 4}, shards=2,
        supervision={"attempts": 3, "retries": 1, "worker_crashes": 1,
                     "fallbacks": 0, "checkpoint_writes": 2})
    session = TelemetrySession("hw")
    probe_shard(report, session)
    probe_fabric(report, session)
    return session


def _abilene_one_cut():
    spec = get_topology("abilene")
    topology = spec.build()
    a, _, b, _ = topology.links()[0]
    run_flows(topology, get_workload("uniform-small"), frr=True,
              link_schedule=LinkSchedule(((a, b, 1, 3),)))
    session = TelemetrySession("sim")
    probe_fastpath(topology.network, session)
    probe_frr(topology.network, session)
    return session


CASES = {
    "scenario/sim": _scenario("sim"),
    "scenario/hw": _scenario("hw"),
    "scenario/sim/flaky-mmio": _scenario("sim", "flaky-mmio"),
    "scenario/hw/flaky-mmio": _scenario("hw", "flaky-mmio"),
    "dma+driver/wedged-ring": _dma_and_driver_wedged,
    "soak/ctrl-chaos": _soak,
    "fabric/abilene-int-frr": _abilene_int_frr,
    "fabric/supervised-report": _supervised_report,
    "network/abilene-one-cut": _abilene_one_cut,
}


def dump() -> dict:
    """The golden document: family metadata plus each case's output."""
    families, cases = {}, {}
    for name, case in CASES.items():
        session = case()
        registry = session.registry
        for family in registry.families():
            meta = family.meta
            families[meta.name] = {
                "help": meta.help, "kind": meta.kind,
                "labels": list(meta.labelnames),
                "cycle_dependent": meta.cycle_dependent,
            }
        cases[name] = {
            "prometheus": registry.to_prometheus().splitlines(),
            "parity": registry.snapshot(cycle_independent_only=True),
            "trace": [[e.kind, e.name, e.args]
                      for e in session.trace.events],
        }
    doc = {"families": dict(sorted(families.items())), "cases": cases}
    return json.loads(json.dumps(doc))


def test_every_series_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = dump()
    assert len(got["families"]) == FAMILIES
    assert got["families"] == golden["families"]
    assert sorted(got["cases"]) == sorted(golden["cases"])
    for name, want in golden["cases"].items():
        assert got["cases"][name] == want, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_telemetry_golden --write")
    document = dump()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(document['families'])} families, "
          f"{len(document['cases'])} cases")
