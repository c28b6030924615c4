"""``benchmarks/record.py``: the row ``BENCH_repo.json`` grows by."""

from __future__ import annotations

import json
import subprocess

import pytest

from benchmarks import record
from benchmarks.record import (
    SEED,
    WORKLOADS,
    build_paired_row,
    build_row,
)

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


def test_a_single_run_row_rests_on_no_pairs():
    row = build_row({name: _stdout(name) for name in WORKLOADS}, "abc1234")
    assert row["pairs"] == 0


def test_every_row_in_the_series_says_how_many_pairs_it_rests_on():
    for row in json.loads(record.SERIES.read_text()):
        assert row["pairs"] == 0 or "paired" in row


def _run(pps: float, calls: float, fingerprint: str = "ab12",
         correct: bool = True) -> str:
    values = {"pps_wall": pps, "cpu_us_per_pkt": 1e6 / pps,
              "pycalls_per_pkt": calls, "setup_s": 0.05, "peak_rss_mb": 30.0}
    contract = {"correct": correct, "attempted": 4, "failed": 0,
                "metrics": {m: {"value": v, "unit": "x"}
                            for m, v in values.items()}}
    return f"  fingerprint  {fingerprint}\n{json.dumps(contract)}\n"


class TestPairedRow:
    #: Four pairs of ``mice``: the change wins three on throughput.
    PPS = ((50.0, 60.0), (52.0, 59.0), (51.0, 50.0), (49.0, 61.0))

    #: The host probe before each side of each pair: the parent's side
    #: ran on a slower host in the last pair.
    PROBES = {"parent": [0.010, 0.011, 0.010, 0.020],
              "change": [0.010, 0.010, 0.012, 0.011]}

    def _row(self, **change):
        outputs = {"mice": [(_run(before, 99.7), _run(after, 77.2, **change))
                            for before, after in self.PPS]}
        return build_paired_row(outputs, "abc1234", self.PROBES)

    def test_each_side_has_its_quartiles_and_the_pairs_are_counted(self):
        row = self._row()
        assert row["pairs"] == 4 and row["correct"] is True
        pps = row["paired"]["mice"]["pps_wall"]
        assert pps["parent"] == [49.75, 50.5, 51.25]
        assert pps["change"] == [56.75, 59.5, 60.25]
        assert pps["change_ahead"] == "3/4"
        # A lower-is-better metric is won by going down.
        assert row["paired"]["mice"]["cpu_us_per_pkt"]["change_ahead"] == "3/4"
        assert row["paired"]["mice"]["pycalls_per_pkt"] == {
            "parent": [99.7] * 3, "change": [77.2] * 3, "change_ahead": "4/4"}
        assert row["paired"]["mice"]["setup_s"]["change_ahead"] == "0/4"
        # The series reads ``metrics`` the same way for every row.
        assert row["metrics"]["mice"]["pps_wall"] == 59.5
        assert row["fingerprints"] == {"mice": "ab12"}
        assert {"parent", "date", "seed", "nproc", "python"} <= set(row)
        json.dumps(row)

    def test_each_side_keeps_the_quartiles_of_its_host_probes(self):
        probes = self._row()["host_probe_s"]
        assert probes["parent"] == pytest.approx([0.01, 0.0105, 0.01325])
        assert probes["change"] == pytest.approx([0.01, 0.0105, 0.01125])

    def test_a_moved_fingerprint_or_a_wrong_run_marks_the_row(self):
        assert self._row(fingerprint="cd34")["correct"] is False
        assert self._row(correct=False)["correct"] is False


def test_the_sides_swap_order_every_pair(tmp_path, monkeypatch):
    """``--against``: one worktree of REV, runs alternating first."""
    calls, exported = [], []
    monkeypatch.setattr(record, "SERIES", tmp_path / "series.json")
    monkeypatch.setattr(record, "_git", lambda *args: "abc1234")
    monkeypatch.setattr(record, "_export",
                        lambda rev, tree: exported.append(rev))
    monkeypatch.setattr(record, "host_probe_s",
                        lambda: calls.append("probe") or 0.01)

    def bench(tree, name):
        calls.append("change" if tree == record.ROOT else "parent")
        return _run(50.0 + len(calls), 80.0)

    monkeypatch.setattr(record, "_bench", bench)
    record.main(["--against", "HEAD~1", "--pairs", "3"])
    # The host is probed before every run, on either side.
    assert calls == [step for side in ["parent", "change", "change",
                                       "parent", "parent", "change"]
                     * len(WORKLOADS) for step in ("probe", side)]
    assert exported == ["abc1234"]
    (row,) = json.loads(record.SERIES.read_text())
    assert (row["parent"], row["pairs"]) == ("abc1234", 3)
    assert list(row["paired"]) == list(WORKLOADS)
    assert row["host_probe_s"] == {"parent": [0.01] * 3,
                                   "change": [0.01] * 3}


def test_the_parent_tree_is_its_committed_files(tmp_path, monkeypatch):
    """``git archive`` of a revision, unpacked: the files as committed,
    not as the working tree has them, and no repository."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (repo / "bench" / "run.py").write_text("edited\n")
    monkeypatch.setattr(record, "ROOT", repo)
    tree = tmp_path / "parent"
    record._export("HEAD", tree)
    assert (tree / "bench" / "run.py").read_text() == "committed\n"
    assert not (tree / ".git").exists()


def test_the_host_probe_is_a_positive_floor():
    assert 0 < record.host_probe_s() < 10
