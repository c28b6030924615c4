"""Supervised shard execution: deadlines, heartbeats, retries, checkpoints.

A plain process pool has one failure mode: total.  A crashed, hung or
OOM-killed worker aborts the whole fabric run with nothing salvaged.
This module is a **supervisor** that treats partial failure as the
common case and still never changes what the run computes:

* every shard runs in its own worker process under a wall-clock
  **deadline** and a **heartbeat** (a worker whose heartbeats stop is
  declared hung and killed — long before the deadline would fire);
* a failed, hung or poisoned shard is **retried** with exponential
  backoff up to a budget (:class:`SupervisorOptions.max_retries`);
* a shard that exhausts its budget falls back to **deterministic
  inline execution** in the supervisor's own process — graceful
  degradation, never a lost run;
* every result crosses an **integrity check** at the merge boundary
  (the worker's self-fingerprint is recomputed on arrival and the
  partition membership verified), so a corrupted or wrong-partition
  report is re-run, never merged;
* accepted shard reports are **checkpointed** as they land (atomic
  rename under a run-identity header — :func:`run_identity`, the run's
  identity fields beside its ``RunConfig.as_dict()``), so a mid-run
  supervisor restart resumes from the surviving shards instead of
  recomputing them, and a directory written under any other config is
  refused.

Because ``run_flows`` is a pure function of ``(topology, workload,
seed)``, a retried attempt, an inline fallback and a checkpoint-restored
report are all byte-identical to the first attempt's result — which is
what pins the module's invariant: the merged
:meth:`~repro.fabric.scheduler.FabricReport.fingerprint` is identical
across {clean, any seeded crash schedule, resume-from-checkpoint} at
every shard count, flow caches on or off.

Crash chaos is seeded through :mod:`repro.faults`: a chaos plan carrying
a :class:`~repro.faults.ShardFaultSpec` draws one action per ``(shard,
attempt)`` launch from derived sub-seeds (``shard_crash`` /
``shard_hang`` / ``shard_corrupt`` sites).  The chaos plan is
*operational* — it shapes how workers die, never which packets deliver —
so it is deliberately separate from the data-plane fault ``plan`` and
absent from the report's identity and fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, fields
from multiprocessing import Pipe, Process, connection
from pathlib import Path
from typing import Optional

from repro.fabric.scheduler import FabricReport, FlowRecord, RunConfig
from repro.fabric.topo import FabricSpec
from repro.fabric.workload import Flow, WorkloadSpec
from repro.faults import FaultPlan

#: Message tags on the worker → supervisor pipe.
_HEARTBEAT = "hb"
_RESULT = "ok"

#: Bumped when the checkpoint layout changes; old directories are then
#: rejected rather than misread.  3: the identity and the serialized
#: report carry the run's :class:`RunConfig` as one ``as_dict()``.
#: 4: the config lost ``max_inflight``.
CHECKPOINT_FORMAT = 4

#: The worker's exit code for a chaos-drawn crash (visible in stats
#: debugging; any non-zero exit without a result is treated the same).
_CRASH_EXIT_CODE = 3


@dataclass(frozen=True)
class SupervisorOptions:
    """Supervision knobs.  Defaults suit CI-sized runs; tests shrink
    the timeouts to exercise the kill paths quickly."""

    #: Per-attempt wall-clock budget; an overrunning worker is killed.
    deadline_s: float = 120.0
    #: Worker heartbeat period (a daemon thread beside the shard work).
    heartbeat_s: float = 0.05
    #: Heartbeat silence that declares a worker hung.  Generous versus
    #: scheduler jitter, tiny versus the deadline, so wedged workers
    #: die fast without false positives.
    heartbeat_timeout_s: float = 2.0
    #: Relaunches per shard before the inline fallback.
    max_retries: int = 3
    #: Exponential backoff: sleep ``base * 2**(attempt-1)`` (capped)
    #: before relaunching a failed shard.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Supervisor select/health-check granularity.
    poll_s: float = 0.02

    def __post_init__(self) -> None:
        if self.deadline_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("deadline_s and heartbeat_s must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_s")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** max(0, attempt - 1)))


@dataclass
class SupervisorStats:
    """The supervision ledger, attached to the merged report as
    ``report.supervision`` and mirrored by ``probe_shard``.

    Everything chaos-attributable (retries, fallbacks, corrupt
    detections, checkpoint hits) is a pure function of the chaos
    plan's seed, so the ledger joins the sim/hw parity series.
    """

    attempts: int = 0           # worker processes launched
    retries: int = 0            # relaunches after a failure
    worker_crashes: int = 0     # exited without delivering a result
    heartbeat_gaps: int = 0     # killed for silent heartbeats
    deadline_kills: int = 0     # killed for overrunning the deadline
    corrupt_results: int = 0    # results refused at the merge boundary
    fallbacks: int = 0          # shards completed inline after budget
    checkpoint_hits: int = 0    # shards restored instead of recomputed
    checkpoint_writes: int = 0  # shard reports persisted

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ----------------------------------------------------------------------
# Report serialization (the checkpoint wire format)
# ----------------------------------------------------------------------
#: ``FabricReport`` dicts keyed by ints, which JSON would stringify.
_INT_KEYED = ("hops_hist", "loss_by_epoch")


def report_to_dict(report: FabricReport) -> dict:
    """A JSON-safe dump that :func:`report_from_dict` inverts exactly."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["records"] = [r.as_dict() for r in report.records]
    out["config"] = report.config.as_dict()
    for name in _INT_KEYED:
        out[name] = {str(k): v for k, v in out[name].items()}
    return out


def report_from_dict(data: dict) -> FabricReport:
    """Rebuild a :class:`FabricReport` from :func:`report_to_dict` output."""
    data = dict(data)
    data["records"] = [FlowRecord(**r) for r in data["records"]]
    data["config"] = RunConfig.from_dict(data["config"])
    for name in _INT_KEYED:
        data[name] = {int(k): v for k, v in data[name].items()}
    return FabricReport(**data)


def _flows_digest(flows: Optional[list[Flow]]) -> Optional[str]:
    """Identity of an explicit flow-list override (``None`` when the
    workload generates the flows — the spec already names them)."""
    if flows is None:
        return None
    text = ";".join(repr(f) for f in flows)
    return hashlib.sha256(text.encode()).hexdigest()


def run_identity(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan],
    shards: int,
    flows: Optional[list[Flow]],
    config: RunConfig,
) -> dict:
    """Everything that determines a run's outcome, as a flat JSON dict.

    A checkpoint directory is bound to one identity; resuming with any
    other is refused, so two different runs can never cross-pollinate
    through a shared checkpoint path.
    """
    return {
        "format": CHECKPOINT_FORMAT,
        "topology": spec.key,
        "workload": workload.key,
        "seed": workload.seed,
        "plan": plan.name if plan is not None else None,
        "plan_seed": plan.seed if plan is not None else None,
        "shards": shards,
        "flows": _flows_digest(flows),
    } | config.as_dict()


class CheckpointStore:
    """Durable per-shard results under one run's identity header.

    Layout: ``run.json`` (the identity) plus one ``shard-<i>.json``
    per accepted shard, each written atomically (tmp + rename) so a
    supervisor killed mid-write never leaves a torn shard file.  Loads
    re-verify the stored fingerprint and silently discard anything
    garbled — a bad checkpoint costs a recompute, never a bad merge.
    """

    def __init__(self, root: str | os.PathLike, identity: dict):
        self.root = Path(root)
        self.identity = identity
        self.root.mkdir(parents=True, exist_ok=True)
        header = self.root / "run.json"
        if header.exists():
            try:
                recorded = json.loads(header.read_text())
            except ValueError:
                raise ValueError(
                    f"checkpoint header {header} is unreadable; "
                    "remove the directory to start fresh"
                ) from None
            if recorded != identity:
                raise ValueError(
                    f"checkpoint at {self.root} belongs to a different "
                    f"run: {recorded} != {identity}"
                )
        else:
            self._write(header, json.dumps(identity, sort_keys=True,
                                           indent=2) + "\n")

    @staticmethod
    def _write(path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)

    def _shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index}.json"

    def load(self, index: int) -> Optional[FabricReport]:
        """The surviving report for ``index``, or ``None`` if absent,
        torn, or failing its own stored fingerprint."""
        path = self._shard_path(index)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            report = report_from_dict(payload["report"])
        except (ValueError, KeyError, TypeError):
            return None
        if report.fingerprint() != payload.get("fingerprint"):
            return None
        return report

    def save(self, index: int, report: FabricReport) -> None:
        payload = {
            "fingerprint": report.fingerprint(),
            "report": report_to_dict(report),
        }
        self._write(self._shard_path(index),
                    json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# The worker side
# ----------------------------------------------------------------------
def _corrupt_report(report: FabricReport) -> None:
    """The seeded ``shard_corrupt`` action: bit rot in the result
    channel.  Mangles both a counter (caught by the fingerprint
    recheck) and a partition id (caught by the membership check) so
    either integrity guard alone would refuse the report."""
    if report.records:
        report.records[0].delivered += 1_000_000
        report.records[-1].flow_id += 1
    else:
        report.device_forwarded["corrupted"] = 1


def _shard_worker(conn, job: tuple, chaos_action: Optional[str],
                  heartbeat_s: float) -> None:
    """One worker process: heartbeat thread + one shard's flows.

    The chaos action was drawn in the supervisor (per (shard, attempt),
    from the chaos plan's derived seeds) and ships with the launch, so
    worker-side chaos needs no RNG and no timing: ``crash`` exits
    without a result, ``hang`` wedges with heartbeats stopped (a truly
    dead worker does not heartbeat), ``corrupt`` mangles the result
    *after* self-fingerprinting — exactly what the merge-boundary
    integrity check exists to catch.
    """
    from repro.fabric.shard import _run_shard

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            try:
                conn.send((_HEARTBEAT, time.monotonic()))
            except (BrokenPipeError, OSError):
                return
            stop.wait(heartbeat_s)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    if chaos_action == "crash":
        conn.send((_HEARTBEAT, time.monotonic()))
        os._exit(_CRASH_EXIT_CODE)
    if chaos_action == "hang":
        stop.set()  # a wedged process stops heartbeating too
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(60.0)
    report = _run_shard(*job)
    fingerprint = report.fingerprint()
    if chaos_action == "corrupt":
        _corrupt_report(report)
    stop.set()
    thread.join(timeout=1.0)
    try:
        conn.send((_RESULT, report, fingerprint))
    finally:
        conn.close()


def _chaos_action(chaos: Optional[FaultPlan], index: int,
                  attempt: int) -> Optional[str]:
    """The seeded action for launching shard ``index``, try ``attempt``."""
    if chaos is None or chaos.shard is None:
        return None
    return chaos.derived("shard", index, attempt).session().shard_fault()


def reject_reason(report, fingerprint, shards: int,
                  index: int) -> Optional[str]:
    """Why a worker's result must not be merged (``None`` = accept).

    The merge-boundary integrity check: the report must be a real
    :class:`FabricReport`, its recomputed fingerprint must equal the
    worker's self-fingerprint (anything mangled in the result channel
    diverges), and every record must belong to this worker's partition
    (a wrong-partition report would *pass* the duplicate-id merge guard
    if its twin shard crashed, so membership is checked here).
    """
    if not isinstance(report, FabricReport):
        return f"result is {type(report).__name__}, not a FabricReport"
    if report.fingerprint() != fingerprint:
        return "fingerprint mismatch: result corrupted in transit"
    bad = [r.flow_id for r in report.records if r.flow_id % shards != index]
    if bad:
        return (f"wrong partition: flow ids {bad[:4]} are not "
                f"≡ {index} (mod {shards})")
    return None


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class _Worker:
    """One live attempt: the process, its pipe, and its clocks."""

    __slots__ = ("index", "attempt", "process", "conn", "started",
                 "last_beat", "result")

    def __init__(self, index: int, attempt: int, process: Process, conn):
        self.index = index
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = time.monotonic()
        self.last_beat = self.started
        self.result: Optional[tuple] = None  # (report, fingerprint)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(timeout=2.0)
        self.conn.close()

    def drain(self) -> None:
        """Pull every buffered message; keeps the last result seen."""
        try:
            while self.conn.poll():
                message = self.conn.recv()
                if message[0] == _HEARTBEAT:
                    self.last_beat = time.monotonic()
                elif message[0] == _RESULT:
                    self.result = (message[1], message[2])
        except (EOFError, OSError):
            pass  # worker went away mid-message; health check decides


def run_supervised(
    spec: FabricSpec,
    workload: WorkloadSpec,
    plan: Optional[FaultPlan] = None,
    *,
    shards: int,
    flows: Optional[list[Flow]] = None,
    config: RunConfig = RunConfig(),
    chaos: Optional[FaultPlan] = None,
    checkpoint: Optional[str | os.PathLike] = None,
    options: Optional[SupervisorOptions] = None,
) -> FabricReport:
    """Run a sharded fabric workload under supervision and merge.

    The process path behind :func:`~repro.fabric.shard.run_sharded`:
    the shard partition (``flow_id % shards``), merge and
    fingerprint — plus worker deadlines/heartbeats, seeded ``chaos``,
    bounded retries with the inline fallback, and optional
    ``checkpoint`` (a directory) for resume.  The merged report carries
    the supervision ledger in ``report.supervision``.
    """
    from repro.fabric.shard import _pool_size, _run_shard, merge_reports

    options = options or SupervisorOptions()
    stats = SupervisorStats()
    identity = run_identity(spec, workload, plan, shards, flows, config)
    store = (CheckpointStore(checkpoint, identity)
             if checkpoint is not None else None)

    def job(index: int) -> tuple:
        return (spec, workload, plan, flows, config, shards, index)

    results: dict[int, FabricReport] = {}
    waiting: set[int] = set()
    for index in range(shards):
        restored = store.load(index) if store is not None else None
        if (restored is not None and reject_reason(
                restored, restored.fingerprint(), shards, index) is None):
            results[index] = restored
            stats.checkpoint_hits += 1
        else:
            waiting.add(index)

    attempts: dict[int, int] = {index: 0 for index in waiting}
    backoff_until: dict[int, float] = {}
    active: dict[int, _Worker] = {}
    cap = _pool_size(shards)

    def accept(index: int, report: FabricReport) -> None:
        results[index] = report
        if store is not None:
            store.save(index, report)
            stats.checkpoint_writes += 1

    def fail(worker: _Worker) -> None:
        """One attempt lost; relaunch after backoff or fall back inline."""
        index = worker.index
        del active[index]
        attempts[index] += 1
        if attempts[index] > options.max_retries:
            # Graceful degradation: the shard runs deterministically in
            # this process.  Chaos only ever touches workers, so the
            # fallback cannot fail the same way — the run always lands.
            stats.fallbacks += 1
            accept(index, _run_shard(*job(index)))
            return
        stats.retries += 1
        backoff_until[index] = (time.monotonic()
                                + options.backoff(attempts[index]))
        waiting.add(index)

    def launch(index: int) -> None:
        attempt = attempts[index]
        action = _chaos_action(chaos, index, attempt)
        parent_conn, child_conn = Pipe(duplex=False)
        process = Process(
            target=_shard_worker,
            args=(child_conn, job(index), action, options.heartbeat_s),
            daemon=True,
        )
        process.start()
        child_conn.close()
        active[index] = _Worker(index, attempt, process, parent_conn)
        stats.attempts += 1

    while len(results) < shards:
        now = time.monotonic()
        for index in sorted(waiting):
            if len(active) >= cap:
                break
            if backoff_until.get(index, 0.0) > now:
                continue
            waiting.discard(index)
            launch(index)
        if active:
            connection.wait([w.conn for w in active.values()],
                            timeout=options.poll_s)
        elif waiting:
            # Everything alive is backing off; sleep one poll tick.
            time.sleep(options.poll_s)
        now = time.monotonic()
        for worker in list(active.values()):
            worker.drain()
            if worker.result is not None:
                report, fingerprint = worker.result
                reason = reject_reason(report, fingerprint, shards,
                                       worker.index)
                worker.kill()
                if reason is None:
                    del active[worker.index]
                    accept(worker.index, report)
                else:
                    stats.corrupt_results += 1
                    fail(worker)
            elif not worker.process.is_alive():
                # Exited without a result: the crash signature.
                stats.worker_crashes += 1
                worker.conn.close()
                fail(worker)
            elif now - worker.last_beat > options.heartbeat_timeout_s:
                stats.heartbeat_gaps += 1
                worker.kill()
                fail(worker)
            elif now - worker.started > options.deadline_s:
                stats.deadline_kills += 1
                worker.kill()
                fail(worker)

    merged = merge_reports([results[i] for i in range(shards)], shards)
    merged.supervision = stats.as_dict()
    return merged
