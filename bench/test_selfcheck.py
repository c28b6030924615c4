"""Self-check of the benchmark harness (not of the emulator's speed).

Outside tier-1 ``testpaths``; run as ``python -m pytest bench -q``.
Two ``--quick`` sets (sizes / 8, 2 + 1 reps, both passes) take about
half a minute together.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

ROOT = Path(__file__).resolve().parent.parent
NAMES = [w.name for w in spec.WORKLOADS]


@pytest.fixture(scope="module")
def quick_sets() -> list[dict[str, dict]]:
    return [
        {name: run.run_child(name, seed=1, seconds=0, trace="both",
                             quick=True) for name in NAMES}
        for _ in range(2)
    ]


# -- the contract file -------------------------------------------------
def test_contract_file_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_contract_limits():
    contract = spec.benchmark_json()
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(name) for name in names)
    for workload in contract["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert unit_ok.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Every workload's budget: 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 12) < 3420


# -- what a run reports ------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported(quick_sets, name):
    record = quick_sets[0][name]
    for metric in spec.END_TO_END:
        assert record["metrics"][metric.name] > 0, metric.name
    assert record["unavailable"] == {}
    for metric in spec.PER_LAYER:
        assert record["layers"][metric.name] is not None, metric.name
    for trace, expected in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        contract = run.contract_object(record, trace)
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert list(contract["metrics"]) == [m.name for m in expected]
        assert all(entry["unit"] == m.unit for entry, m in
                   zip(contract["metrics"].values(), expected))


@pytest.mark.parametrize("name", NAMES)
def test_outputs_are_checked_and_correct(quick_sets, name):
    record = quick_sets[0][name]
    assert record["fingerprints_agree"]  # black-box, staged, profiled
    assert record["reference"]["agrees"]
    assert record["reference"]["stride"] == 1
    assert record["correct"] and record["ops_failed"] == 0
    assert record["ops_attempted"] >= record["attempted"] * 4
    assert record["misdelivered"] == 0
    if name != "churn":
        assert record["lost"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_spans_and_layer_calls_add_up(quick_sets, name):
    record = quick_sets[0][name]
    layers = record["layers"]
    staged_wall = record["samples"]["staged_wall_s"]["floor"]
    assert sum(layers[span] for span in spec.SPANS) == pytest.approx(
        staged_wall, rel=0.03)
    assert sum(layers[f"{layer}.calls_per_pkt"] for layer in spec.LAYERS) \
        == pytest.approx(record["metrics"]["pycalls_per_pkt"], rel=1e-9)
    assert sum(layers[f"{layer}.self_share"] for layer in spec.LAYERS) \
        == pytest.approx(1.0)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(quick_sets, name):
    first, second = quick_sets[0][name], quick_sets[1][name]
    assert first["fingerprint"] == second["fingerprint"]
    assert first["total_calls"] == second["total_calls"]
    assert (first["metrics"]["pycalls_per_pkt"]
            == second["metrics"]["pycalls_per_pkt"])
    for count in spec.EXACT_COUNTS:
        assert first["layers"][count] == second["layers"][count], count
    for layer in spec.LAYERS:
        key = f"{layer}.calls_per_pkt"
        assert first["layers"][key] == second["layers"][key], key
    assert run.compare_sets([first], [first]) == []


def test_workloads_separate_the_layers(quick_sets):
    layers = {name: quick_sets[0][name]["layers"] for name in NAMES}
    assert layers["elephants"]["batch.replayed_share"] >= 0.99
    assert layers["lossy"]["batch.replayed_share"] == 0
    for count in ("batch.splits", "fastpath.path_invalidations",
                  "fastpath.device_hits"):
        for name in NAMES:
            assert (layers[name][count] > 0) == (name == "churn"), (name, count)
    for name in NAMES:
        int_work = layers[name]["int.deliver_us"] > 0
        assert int_work == (name == "churn")


# -- probe isolation ---------------------------------------------------
def test_a_vanished_function_nulls_its_probe(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import layers

    def probe():
        from repro.fabric import no_such_function  # noqa: F401
        return {"gone.metric_s": 1.0}

    probes = layers.Probes()
    probes.run(("gone.metric_s",), probe)
    assert probes.values == {"gone.metric_s": None}
    assert "no_such_function" in probes.unavailable["gone.metric_s"]


def test_end_to_end_pass_imports_only_the_stable_surface():
    stable = {
        "repro.fabric": {"get_topology", "WorkloadSpec", "LinkSchedule",
                         "run_sharded", "FlowEngine", "merge_reports",
                         "generate_flows"},
        "repro.faults": {"get_plan"},
    }
    for filename in ("child.py", "workloads.py"):
        tree = ast.parse((ROOT / "bench" / filename).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro") for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("repro")):
                assert {a.name for a in node.names} <= stable[node.module]


# -- without the source tree -------------------------------------------
def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
