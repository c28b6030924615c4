#!/usr/bin/env python3
"""Append this tree's row to ``BENCH_repo.json``, the one perf series.

    python benchmarks/record.py                          # one run each
    python benchmarks/record.py --against REV --pairs 10

Runs ``bench/run.py --seed 1 --trace 0`` per workload at its own run
length — the instrument the pipeline judges — and keeps what it
printed: the five end-to-end metrics, the fingerprint, ``correct``.  Rows compare only within one
machine (``nproc``, ``python``).  A row is measured before its commit
exists, so it names the commit it was measured on top of: ``parent``.

``--against REV`` makes the row a paired claim: ``REV``'s committed
files are unpacked (``git archive``) into a temporary directory and
each pair runs its ``bench/run.py`` and this tree's back to back, the
order flipped every pair so neither side always runs first.  The row
then holds, per workload and metric, each side's q1 / median / q3 and
how many pairs the change won (``change_ahead``, "k/N"); ``metrics``
are the change's medians.  A row's ``pairs`` is how many pairs stand
behind it: 0 for a single run.

Before each side of each pair the host is probed: the floor of a fixed
pure-Python loop (:func:`host_probe_s`).  The row keeps each side's
q1 / median / q3 of it as ``host_probe_s``, so a row measured while the
machine ran slow, or while it slowed down on one side only, says so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SERIES = ROOT / "benchmarks" / "BENCH_repo.json"
WORKLOADS = ("elephants", "mice", "lossy", "churn")
SEED = 1  # the seed every fingerprint quoted in the docs belongs to
#: The host probe: the floor of ``PROBE_REPEATS`` timings of a
#: ``PROBE_LOOPS``-iteration loop, about 10 ms each on a 2-vCPU box.
PROBE_LOOPS = 200_000
PROBE_REPEATS = 5


def host_probe_s() -> float:
    """The floor of a fixed pure-Python loop's timings — the same work
    whatever tree is measured, so it moves only with the host."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def _read(text: str) -> tuple[dict, str]:
    """A ``bench/run.py`` stdout: the contract object is the last
    line, the fingerprint has its own."""
    return (json.loads(text.splitlines()[-1]),
            re.search(r"^\s*fingerprint\s+(\w+)", text, re.M).group(1))


def _correct(result: dict) -> bool:
    return result["correct"] is True and result["failed"] == 0


def _header(parent: str) -> dict:
    return {"parent": parent,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "seed": SEED, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def build_row(outputs: dict[str, str], parent: str) -> dict:
    """One single-run row from each workload's ``bench/run.py`` stdout."""
    read = {name: _read(text) for name, text in outputs.items()}
    return {
        **_header(parent),
        "pairs": 0,
        "correct": all(_correct(result) for result, _ in read.values()),
        "fingerprints": {name: fp for name, (_, fp) in read.items()},
        "metrics": {name: {metric: cell["value"]
                           for metric, cell in result["metrics"].items()}
                    for name, (result, _) in read.items()},
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _compare(before: list[float], after: list[float], better: str) -> dict:
    """One metric over the pairs: each side's q1 / median / q3, and the
    pairs the change won (a tie wins for neither)."""
    ahead = sum((a > b) if better == "higher" else (a < b)
                for b, a in zip(before, after))
    return {"parent": _quartiles(before), "change": _quartiles(after),
            "change_ahead": f"{ahead}/{len(before)}"}


def build_paired_row(outputs: dict[str, list[tuple[str, str]]],
                     parent: str, probes: dict[str, list[float]]) -> dict:
    """A paired row: ``outputs[name]`` is one ``(parent stdout, change
    stdout)`` per pair, ``probes[side]`` the :func:`host_probe_s` taken
    before each of that side's runs.  ``correct`` asks every run on both
    sides to be correct and to print the change's fingerprint."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    paired, fingerprints, correct = {}, {}, True
    for name, runs in outputs.items():
        before = [_read(text) for text, _ in runs]
        after = [_read(text) for _, text in runs]
        fingerprints[name] = after[0][1]
        correct = correct and all(
            _correct(result) and fp == fingerprints[name]
            for result, fp in before + after)
        paired[name] = {
            metric["name"]: _compare(
                [result["metrics"][metric["name"]]["value"]
                 for result, _ in before],
                [result["metrics"][metric["name"]]["value"]
                 for result, _ in after],
                metric["better"])
            for metric in contract["end_to_end"]}
    return {**_header(parent),
            "pairs": len(next(iter(outputs.values()))),
            "correct": correct, "fingerprints": fingerprints,
            "metrics": {name: {metric: cell["change"][1]
                               for metric, cell in cells.items()}
                        for name, cells in paired.items()},
            "paired": paired,
            "host_probe_s": {side: _quartiles(values)
                             for side, values in probes.items()}}


def _bench(tree: Path, name: str) -> str:
    return subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", name,
         "--seed", str(SEED), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _export(rev: str, tree: Path) -> None:
    """``rev``'s committed files, unpacked into ``tree`` — nothing is
    registered in the repository, so an interrupted run leaves no trace."""
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tree, filter="data")
    if archive.returncode != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--against", metavar="REV",
                        help="pair every run with one of REV's tree")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload with --against (default 10)")
    args = parser.parse_args(argv)
    if args.against is None:
        row = build_row({name: _bench(ROOT, name) for name in WORKLOADS},
                        _git("rev-parse", "--short", "HEAD"))
    else:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        parent = _git("rev-parse", "--short", args.against)
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch) / "parent"
            _export(parent, tree)
            outputs, probes = {}, {"parent": [], "change": []}
            for name in WORKLOADS:
                outputs[name] = []
                for i in range(args.pairs):
                    print(f"{name}: pair {i + 1}/{args.pairs}",
                          file=sys.stderr)
                    sides = (tree, ROOT) if i % 2 == 0 else (ROOT, tree)
                    got = {}
                    for side in sides:
                        label = "change" if side == ROOT else "parent"
                        probes[label].append(host_probe_s())
                        got[side] = _bench(side, name)
                    outputs[name].append((got[tree], got[ROOT]))
        row = build_paired_row(outputs, parent, probes)
    series = json.loads(SERIES.read_text()) if SERIES.exists() else []
    SERIES.write_text(json.dumps(series + [row], indent=2) + "\n")
    print(json.dumps(row, indent=2))


if __name__ == "__main__":
    main()
