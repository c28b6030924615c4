#!/usr/bin/env python3
"""Append this tree's row to ``BENCH_repo.json``, the one perf series.

    python benchmarks/record.py

Runs ``bench/run.py --trace 0`` once per workload — the instrument the
pipeline judges — and keeps what it printed: the five end-to-end
metrics, the fingerprint, ``correct``.  Rows compare only within one
machine (``nproc``, ``python``).  A row is measured before its commit
exists, so it names the commit it was measured on top of: ``parent``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIES = ROOT / "benchmarks" / "BENCH_repo.json"
WORKLOADS = ("elephants", "mice", "lossy", "churn")
SEED = 1  # the seed every fingerprint quoted in the docs belongs to


def build_row(outputs: dict[str, str], parent: str) -> dict:
    """One row from each workload's ``bench/run.py`` stdout: the
    contract object is the last line, the fingerprint has its own."""
    results = {name: json.loads(text.splitlines()[-1])
               for name, text in outputs.items()}
    return {
        "parent": parent,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "seed": SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": all(result["correct"] is True and result["failed"] == 0
                       for result in results.values()),
        "fingerprints": {
            name: re.search(r"^\s*fingerprint\s+(\w+)", text, re.M).group(1)
            for name, text in outputs.items()},
        "metrics": {name: {metric: cell["value"]
                           for metric, cell in result["metrics"].items()}
                    for name, result in results.items()},
    }


def main() -> None:
    outputs = {
        name: subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
             name, "--seed", str(SEED), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        for name in WORKLOADS}
    parent = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    row = build_row(outputs, parent)
    series = json.loads(SERIES.read_text()) if SERIES.exists() else []
    SERIES.write_text(json.dumps(series + [row], indent=2) + "\n")
    print(json.dumps(row, indent=2))


if __name__ == "__main__":
    main()
