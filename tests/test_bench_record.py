"""``benchmarks/record.py``: the row ``BENCH_repo.json`` grows by."""

from __future__ import annotations

import json

from benchmarks.record import SEED, WORKLOADS, build_row

METRICS = ("pps_wall", "cpu_us_per_pkt", "pycalls_per_pkt", "setup_s",
           "peak_rss_mb")


def _stdout(name: str, correct: bool = True) -> str:
    """What ``bench/run.py --workload NAME --trace 0`` prints, cut down
    to the two lines a row is read from."""
    contract = {"correct": correct, "attempted": 4, "failed": 0,
                "metrics": {metric: {"value": len(name) + i, "unit": "x"}
                            for i, metric in enumerate(METRICS)}}
    return (f"== {name}  seed=1 ==\n  fingerprint  {name.encode().hex()}\n"
            f"record: bench/out/run-x.json\n{json.dumps(contract)}\n")


def test_a_row_holds_twenty_cells_and_four_fingerprints():
    row = build_row({name: _stdout(name) for name in WORKLOADS}, "abc1234")
    assert len(WORKLOADS) == 4
    cells = [(name, metric) for name in WORKLOADS for metric in METRICS]
    assert [(name, metric) for name, workload in row["metrics"].items()
            for metric in workload] == cells
    assert row["metrics"]["mice"]["setup_s"] == len("mice") + 3
    assert row["fingerprints"] == {name: name.encode().hex()
                                   for name in WORKLOADS}
    assert row["correct"] is True
    # Measured before its own commit exists: the row names its parent.
    assert (row["parent"], row["seed"]) == ("abc1234", SEED)
    assert {"date", "nproc", "python"} <= set(row)
    json.dumps(row)  # the series is a JSON file


def test_one_wrong_workload_marks_the_row():
    outputs = {name: _stdout(name, correct=name != "lossy")
               for name in WORKLOADS}
    assert build_row(outputs, "abc1234")["correct"] is False
