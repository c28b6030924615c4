#!/usr/bin/env python3
"""The repo benchmark: four fabric workloads, end to end and by layer.

    python bench/run.py                       # every workload, both passes
    python bench/run.py --workload mice       # one workload
    python bench/run.py --quick               # sizes / 8, 2 + 1 reps
    python bench/run.py --check-repeat        # the set twice; must agree

Each workload is measured by ``child.py`` in a process of its own
(``PYTHONHASHSEED=0``, ``PYTHONPATH=<checkout>/src``); this file only
starts the children, prints what they measured and writes the record
under ``bench/out/``.  The last line of stdout is one JSON object: for
a single workload it is the object the benchmark contract asks for
(``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer
ones, neither: both).  See ``README.md`` for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import spec

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
#: The contract gives a run 180 s; leave room to print and exit.
CHILD_TIMEOUT_S = 170


def machine_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pythonhashseed": "0",
        "loadavg_start": list(os.getloadavg()),
    }


def warn_if_loaded(load: list[float], nproc: Optional[int], when: str) -> None:
    if nproc and load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} at {when} exceeds "
              f"nproc={nproc}; host-time floors may not be reached",
              file=sys.stderr)


def run_child(workload: str, seed: int, seconds: float, trace: str,
              quick: bool) -> dict:
    """Measure one workload in a fresh interpreter; returns its record.

    The child leads its own process group so that a timeout takes the
    supervisor probe's workers down with it.
    """
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", trace]
    if quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SOURCE), env.get("PYTHONPATH"))))
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"bench: {workload} exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(
            f"bench: {workload} child exited with {child.returncode}")
    return json.loads(stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _number(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_workload(record: dict) -> None:
    name = record["workload"]
    print(f"\n== {name}  seed={record['seed']}"
          f"{'  (quick)' if record['quick'] else ''} ==")
    print(f"  fingerprint  {record['fingerprint']}")
    print(f"  packets      attempted={record['attempted']} "
          f"delivered={record['delivered']} lost={record['lost']} "
          f"misdelivered={record['misdelivered']}")
    print(f"  hops         {record['hops_hist']}")
    reference = record["reference"]
    carried = ("all flows" if reference["stride"] == 1
               else f"every {reference['stride']}th flow")
    print(f"  reference    per-packet path, {carried} "
          f"({reference['flows']} flows, {reference['packets']} packets, "
          f"{reference['wall_s']:.2f} s): "
          f"{'agrees' if reference['agrees'] else 'DISAGREES'}")
    print(f"  operations   attempted={record['ops_attempted']} "
          f"failed={record['ops_failed']} "
          f"correct={str(record['correct']).lower()}")
    print(f"  spent        {record['wall_s']:.1f} s "
          f"(timed window {record['window_s']:.1f} s)")
    print("  end-to-end:" + ("  (traced run: half window; --trace 0 "
                               "reports these)" if record["trace"] == "1"
                               else ""))
    for metric in spec.END_TO_END:
        print(f"    {metric.name:<18}{_number(record['metrics'][metric.name]):>14}"
              f" {metric.unit:<10} {metric.better} is better, "
              f"bound {metric.bound:.0%}")
    print("  behind the floors (n, floor, q1, median, q3):")
    for sample, dist in record["samples"].items():
        print(f"    {sample:<18} n={dist['n']:<3} "
              + "  ".join(_number(dist[k])
                          for k in ("floor", "q1", "median", "q3")))
    if "layers" not in record:
        return
    print("  per-layer:")
    for metric in spec.PER_LAYER:
        value = record["layers"].get(metric.name)
        reason = record["unavailable"].get(metric.name)
        print(f"    {metric.name:<32}{_number(value):>14} {metric.unit}"
              + (f"   ({reason})" if reason else ""))


def contract_object(record: dict, trace: str) -> dict:
    """What the benchmark contract reads from the last line."""
    metrics = {}
    if trace != "1":
        metrics.update({
            m.name: {"value": record["metrics"][m.name], "unit": m.unit}
            for m in spec.END_TO_END
        })
    if trace != "0":
        metrics.update({
            m.name: {"value": record["layers"].get(m.name), "unit": m.unit}
            for m in spec.PER_LAYER
        })
    return {
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --check-repeat
# ----------------------------------------------------------------------
def compare_sets(first: list[dict], second: list[dict]) -> list[str]:
    """Where two sets of runs of the same code disagree.

    Host-time metrics may differ by their bound; the call count, the
    fingerprint and every report count must be identical.
    """
    problems = []
    for a, b in zip(first, second):
        name = a["workload"]
        for metric in spec.END_TO_END:
            x, y = a["metrics"][metric.name], b["metrics"][metric.name]
            change = abs(y - x) / x
            verdict = "ok" if change <= metric.bound else "OVER BOUND"
            print(f"  {name:<10} {metric.name:<16} {_number(x):>12} "
                  f"{_number(y):>12}  {change:6.2%} of {metric.bound:.0%}"
                  f"  {verdict}")
            if change > metric.bound:
                problems.append(f"{name}.{metric.name} moved {change:.2%}")
        for key in ("fingerprint", "total_calls"):
            if a[key] != b[key]:
                problems.append(f"{name}.{key} differs: {a[key]} vs {b[key]}")
        for key in spec.EXACT_COUNTS:
            if a.get("layers", {}).get(key) != b.get("layers", {}).get(key):
                problems.append(f"{name}.{key} differs")
    return problems


# ----------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="measure one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="timed window per workload "
                             f"(default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end pass only; 1: per-layer pass "
                             "(half the window); default: both")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 8 and 2 + 1 reps (the self-check)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice; exit 1 unless they agree")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"bench: no source tree at {SOURCE}", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    trace = args.trace or "both"
    machine = machine_record()
    warn_if_loaded(machine["loadavg_start"], machine["nproc"], "start")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"python={machine['python']} PYTHONHASHSEED=0 "
          f"load={machine['loadavg_start']}")
    print("load: closed loop, one client, one run_sharded call in flight; "
          "traffic is emulated in-process and never crosses a socket")

    sets = []
    for _ in range(2 if args.check_repeat else 1):
        records = []
        for name in selected:
            record = run_child(name, args.seed, args.seconds, trace,
                               args.quick)
            print_workload(record)
            records.append(record)
        sets.append(records)

    machine["loadavg_end"] = list(os.getloadavg())
    warn_if_loaded(machine["loadavg_end"], machine["nproc"], "end")
    machine["wall_s_by_workload"] = {
        r["workload"]: r["wall_s"] for r in sets[0]}

    problems = []
    if args.check_repeat:
        print("\n== repeat check (first set, second set, change) ==")
        problems = compare_sets(*sets)
        for problem in problems:
            print(f"  DISAGREE: {problem}")
        print("  repeat check:", "FAILED" if problems else "passed")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / (
        f"run-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}"
        f"-{os.getpid()}.json")
    out_file.write_text(json.dumps({
        "machine": machine,
        "args": vars(args),
        "sets": sets,
        "repeat_problems": problems,
    }, indent=1))
    print(f"\nrecord: {out_file.relative_to(HERE.parent)}")

    final = sets[-1]
    if len(final) == 1:
        print(json.dumps(contract_object(final[0], trace)))
    else:
        print(json.dumps({"workloads": {
            r["workload"]: contract_object(r, trace) for r in final}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
