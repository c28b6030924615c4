"""Named mutants: a re-runnable catalogue of bugs the suite must catch.

Each :class:`Mutant` names one source file under ``src/``, an exact
snippet in it, the snippet's replacement and the tests that must fail
once the replacement is made.  The runner copies ``src/`` to a
temporary directory, applies one mutant there, and runs only that
mutant's tests against the copy; it never edits the checkout.

    PYTHONPATH=src python -m tests.mutants

A mutant is *caught* when every test it names fails, or when its tests
run past :data:`HANG_S` (a mutant that makes a loop spin forever is
caught by the hang; the runner kills it and goes on).  The run fails
when any mutant survives, when a named test already fails on the
unmutated tree, or when a snippet no longer occurs exactly once — a
refactor that moves the code must move the catalogue entry with it.
A test or grid may be deleted only while this catalogue still reports
every mutant caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one mutant's tests may run before the mutant counts as caught
#: by a hang: five times the slowest mutant that fails (about 12 s, a
#: hypothesis property shrinking; most take about 1 s).
HANG_S = 60

SCHEDULER = "repro/fabric/scheduler.py"
PROBES = "repro/telemetry/probes.py"
TOPOLOGY = "repro/testenv/topology.py"
CLOCK = "repro/shell/clock.py"
SESSION = "repro/shell/session.py"
COLLECTOR = "repro/int/collector.py"

BATCH = "tests/test_fastpath_batch.py::TestEngineFingerprint::"
GRID = BATCH + "test_outcome_neutral_grid_is_one_run"
TIMELINE = (BATCH + "test_the_link_timeline_answers_as_the_schedule_"
            "and_the_seeds_do")
FEED = "tests/test_fabric_scheduler.py::TestTelemetryFeed::"
PER_EPOCH = ("        self.per_epoch = "
             "self.flapping or self._cut_spec is not None")
GOLDEN = ("tests/test_telemetry_golden.py::"
          "test_every_series_matches_the_golden_file")
PARKED = "tests/test_parked_walks.py::"
PATH_CACHE = "tests/test_fastpath_network.py::TestPathCache::"
WALK_TABLE = PARKED + "TestOneWalkTable::"
SPANS = "tests/test_read_bounded_spans.py::TestSpans::"
SHELL = "tests/test_shell_session.py::"
CLOSE = "tests/test_int_ledger_close.py::TestClose::"
CLOCKED = "tests/test_int_run_clock.py::"
PACING = ("tests/test_shell_golden.py::"
          "test_transcript_matches_the_golden_file[shell_pacing]")
ONE_RUN = ("tests/test_fabric_scheduler.py::TestCleanRuns::"
           "test_heap_order_and_interval_order_are_one_run")
PAUSE = (SHELL + "TestFingerprintIdentity::"
         "test_a_pausing_tick_hook_stops_run_after_that_cycles_event")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # The link-state timeline (fabric/scheduler.py).
    Mutant(
        "flips are taken from window starts only",
        SCHEDULER,
        "                flips.update((start, end))",
        "                flips.add(start)",
        (TIMELINE, BATCH + "test_shards_sum_what_the_cuts_dropped",
         "tests/test_fabric_config.py::"
         "test_signature_reads_frr_and_schedule_from_the_config"),
    ),
    Mutant(
        "the per-epoch interval is one epoch too long",
        SCHEDULER,
        "            return start, start + FLAP_EPOCH_TICKS",
        "            return start, start + 2 * FLAP_EPOCH_TICKS",
        (GRID + "[flaky-fabric]", GRID + "[frr-chaos]",
         BATCH + "test_flap_plan_keeps_batching_within_epochs",
         "tests/test_fabric_wire_runs.py::TestCoalescedEqualsPerPacket::"
         "test_every_attempted_packet_is_accounted_for[flaky-fabric]"),
    ),
    Mutant(
        "the flip interval is one epoch too long",
        SCHEDULER,
        "                flips[i] * FLAP_EPOCH_TICKS if i < len(flips)",
        "                (flips[i] + 1) * FLAP_EPOCH_TICKS if i < len(flips)",
        (TIMELINE,
         "tests/test_fabric_wire_runs.py::TestNamedMutants::"
         "test_a_declined_replay_does_not_redraw_the_wire"
         "[a cut and its repair]"),
    ),
    Mutant(
        "an armed seeded-cut oracle gets the schedule's interval",
        SCHEDULER,
        PER_EPOCH,
        "        self.per_epoch = self.flapping",
        (TIMELINE,),
    ),
    Mutant(
        "an armed flap oracle is ignored when the interval is chosen",
        SCHEDULER,
        PER_EPOCH,
        "        self.per_epoch = self._cut_spec is not None",
        (GRID + "[flaky-fabric]",
         BATCH + "test_flap_plan_keeps_batching_within_epochs", TIMELINE),
    ),
    Mutant(
        "the report skips bringing moved links back up",
        SCHEDULER,
        "        self._links.restore()\n",
        "",
        (BATCH + "test_the_report_brings_every_moved_link_back_up",),
    ),
    Mutant(
        "the seeded-cut oracle is asked for epoch 0 at every epoch",
        SCHEDULER,
        'derived("fabric-link", a, b, e0)',
        'derived("fabric-link", a, b, 0)',
        (TIMELINE,),
    ),
    # One run loop over the steady intervals (fabric/scheduler.py).
    Mutant(
        "a cursor due past the interval's end is carried before the next apply",
        SCHEDULER,
        "                while cursor.tick < end:\n"
        "                    n = cursor.left if self._batch else 1\n"
        "                    if cursor.tick + (n - 1) * cursor.flow.gap_ticks >= end:",
        "                while True:\n"
        "                    n = cursor.left if self._batch else 1\n"
        "                    if False:",
        (GRID + "[flaky-fabric]", ONE_RUN + "[link-schedule]"),
    ),
    Mutant(
        "the run loop never applies the timeline at the interval's end",
        SCHEDULER,
        "        if tick >= self._steady[1]:",
        "        if tick > self._steady[1]:",
        (ONE_RUN + "[link-schedule]",),
    ),
    Mutant(
        "a span ignores the cables its walk read",
        SCHEDULER,
        "                room = self._links.reach(cables, tick) - tick",
        "                room = math.inf",
        (SPANS + "test_a_flow_splits_at_its_own_cables_first_edge",
         SPANS + "test_a_detour_is_bounded_by_the_cables_it_reads_now"),
    ),
    Mutant(
        "run drops the cursors that steps left on the heap",
        SCHEDULER,
        "            due.append(heapq.heappop(heap)[-1])\n",
        "            heapq.heappop(heap)\n",
        (BATCH + "test_steps_then_run_is_run_alone",),
    ),
    Mutant(
        "a flow finished in the run loop does not fold its session counters",
        SCHEDULER,
        "                        self._finish(cursor)\n",
        "                        self._frames.clear()\n",
        (ONE_RUN + "[lossy-link]",
         "tests/test_fabric_scheduler.py::TestCleanRuns::"
         "test_no_plan_no_per_flow_plan"),
    ),
    Mutant(
        "the batch=False run coalesces",
        SCHEDULER,
        "n = cursor.left if self._batch else 1",
        "n = cursor.left",
        (ONE_RUN + "[clean]",),
    ),
    # Read-bounded spans (fabric/scheduler.py, testenv/topology.py).
    Mutant(
        "a cable counts only when its canonical first end read it",
        TOPOLOGY,
        "                if peer is not None and mask & exit_at.port.bit})",
        "                if peer is not None and mask & exit_at.port.bit\n"
        "                and name <= peer.device})",
        (SPANS + "test_a_flow_splits_at_its_own_cables_first_edge",),
    ),
    Mutant(
        "a port index is taken for its mask bit",
        TOPOLOGY,
        "                if peer is not None and mask & exit_at.port.bit})",
        "                if peer is not None and mask & 1 << exit_at.port.index})",
        (SPANS + "test_a_flow_splits_at_its_own_cables_first_edge",),
    ),
    Mutant(
        "a span runs to the walk's last edge instead of its first",
        SCHEDULER,
        "        return edges[i] * FLAP_EPOCH_TICKS if i < len(edges)",
        "        return edges[-1] * FLAP_EPOCH_TICKS if i < len(edges)",
        (SPANS + "test_a_flow_splits_at_its_own_cables_first_edge",),
    ),
    Mutant(
        "the cables are read off the record the flip made stale",
        TOPOLOGY,
        "        walk = self._lookup((device, port, frame), 0)",
        "        walk = self._path_cache.get((device, port, frame))",
        (SPANS + "test_a_detour_is_bounded_by_the_cables_it_reads_now",),
    ),
    # One way to mirror a counter (telemetry/probes.py).
    Mutant(
        "a tally publishes its zero counts",
        PROBES,
        "        if count or keep_zero:",
        "        if True:",
        (GOLDEN, FEED + "test_outcome_series_sum_to_attempted"),
    ),
    Mutant(
        "chan_packets_total is bound to beats_transferred",
        PROBES,
        '"packets across a probed channel",\n'
        '             "packets_transferred"),',
        '"packets across a probed channel",\n'
        '             "beats_transferred"),',
        (GOLDEN, "tests/test_telemetry_probes.py::TestPipelineProbes::"
                 "test_channel_counters_mirror_the_channels"),
    ),
    Mutant(
        "probe_fabric skips the delivery-hops histogram",
        PROBES,
        "        hops.observe(float(hop), count)",
        "        pass",
        (GOLDEN, FEED + "test_hop_histogram_is_fed_once_per_bucket"),
    ),
    # Retired walks and one replica (testenv/topology.py, fabric/shard.py).
    Mutant(
        "a parked walk's re-check skips the link bits",
        TOPOLOGY,
        "                    or (opl.port_liveness ^ live) & mask\n"
        "                    or (self._link_up[name] ^ links) & mask):",
        "                    or (opl.port_liveness ^ live) & mask):",
        (PARKED + "TestNamedMutants::test_a_revival_reads_the_port_table_too",
         "tests/test_fastpath_invalidation.py::"
         "test_set_link_state_marks_both_ends_itself"),
    ),
    Mutant(
        "a retired walk leaves the index",
        TOPOLOGY,
        "                self.path_invalidations += walk is serving\n",
        "                self.path_invalidations += walk is serving\n"
        "                if walk is serving:\n"
        "                    self._unindex(deps)\n",
        (PARKED + "TestNamedMutants::"
                  "test_a_revived_walk_is_marked_by_the_next_cut",
         PARKED + "TestParkedWalksOracle::test_a_repair_walks_nothing",
         WALK_TABLE + "test_a_cut_and_its_repair_drop_no_key_and_derive_none"),
    ),
    Mutant(
        "a flush keeps the class walks",
        TOPOLOGY,
        "        self._evict(None, 0)\n",
        "        self._path_cache = {key: entry for key, entry\n"
        "                            in self._path_cache.items()\n"
        "                            if len(key) != 3}\n",
        (PARKED + "TestNamedMutants::test_a_graph_change_empties_the_park",),
    ),
    # One walk table (testenv/topology.py).
    Mutant(
        "a suspect retired walk serves without its check",
        TOPOLOGY,
        "                if self._holds(deps):\n",
        "                if walk is not serving or self._holds(deps):\n",
        (PARKED + "TestNamedMutants::"
                  "test_a_retired_walk_is_checked_before_it_serves",),
    ),
    Mutant(
        "a failed walk serves with no new mark",
        TOPOLOGY,
        "            if deps in suspect:\n",
        "            if deps not in suspect:\n"
        "                cls.serving = walk\n"
        "                return walk\n"
        "            if True:\n",
        (PARKED + "TestNamedMutants::test_a_failed_walk_waits_for_a_mark",),
    ),
    Mutant(
        "an INT key keeps its splice after its class switched walks",
        TOPOLOGY,
        "        elif walk is None or walk.deps is not serving.deps:\n",
        "        elif walk is None:\n",
        (WALK_TABLE + "test_an_int_key_follows_its_classs_serving_walk",),
    ),
    Mutant(
        "an eviction leaves a key of the evicted class behind",
        TOPOLOGY,
        "            for key in cls.keys:\n",
        "            for key in cls.keys[1:]:\n",
        (WALK_TABLE + "test_an_eviction_is_counted",
         "tests/test_fastpath_invalidation.py::"
         "test_eviction_from_under_a_derivation_keeps_the_index_whole"),
    ),
    Mutant(
        "the engine reports the replica's absolute cache statistics",
        SCHEDULER,
        "    return {name: value - base[name] for name, value in stats.items()}",
        "    return dict(stats)",
        (BATCH + "test_engines_back_to_back_report_their_own_share",),
    ),
    # A run's clock books its loss per epoch chunk (int/collector.py).
    Mutant(
        "an epoch chunk ends one sequence late",
        COLLECTOR,
        "        end = (seq + ((epoch + 1) * FLAP_EPOCH_TICKS - tick - 1) "
        "// gap + 1\n",
        "        end = (seq + ((epoch + 1) * FLAP_EPOCH_TICKS - tick - 1) "
        "// gap + 2\n",
        (CLOCKED + "TestEpochChunks::"
         "test_chunks_count_each_sequence_at_its_own_epoch",
         CLOCKED + "TestLossyIntParity::"
         "test_batch_int_summary_is_the_per_packet_one"),
    ),
    Mutant(
        "a wholly lost run books its blackhole path once, not per packet",
        COLLECTOR,
        '                blackhole_paths[">".join(state.last_path) or "?"] += n',
        '                blackhole_paths[">".join(state.last_path) or "?"] += 1',
        (CLOCKED + "TestLossyIntParity::"
         "test_batch_int_summary_is_the_per_packet_one",
         "tests/test_int_sharing.py::TestCollectorOracle::"
         "test_the_run_ledger_sums_up_as_the_sequence_ledger"),
    ),
    # A finished flow's INT ledgers fold at once (int/collector.py).
    Mutant(
        "close folds only the request direction",
        COLLECTOR,
        "            _fold((request, response), self._closed)",
        "            _fold((request,), self._closed)",
        (CLOSE + "test_closing_any_flows_in_any_order_keeps_the_summary",
         CLOSE + "test_a_finished_run_holds_no_ledger"),
    ),
    Mutant(
        "a closed flow leaves the flow count",
        COLLECTOR,
        '            self._closed["flows"] += 1',
        "            pass",
        (CLOSE + "test_closing_any_flows_in_any_order_keeps_the_summary",
         CLOSE + "test_a_finished_run_holds_no_ledger"),
    ),
    Mutant(
        "a summary folds the open ledgers into the closed books",
        COLLECTOR,
        "        books = {key: value.copy() if isinstance(value, Counter) "
        "else value",
        "        books = {key: value if isinstance(value, Counter) else value",
        (CLOSE + "test_closing_any_flows_in_any_order_keeps_the_summary",
         CLOSE + "test_a_shell_sessions_mid_run_int_summary_is_unchanged"),
    ),
    Mutant(
        "a finished flow's ledgers stay open",
        SCHEDULER,
        "            self.collector.close(flow_id)",
        "            pass",
        (CLOSE + "test_a_finished_run_holds_no_ledger",
         CLOSE + "test_a_shell_sessions_mid_run_int_summary_is_unchanged"),
    ),
    # Only a plan that draws on the data path bars the path cache
    # (faults/injector.py).
    Mutant(
        "a control-plane-only plan bars the path cache",
        "repro/faults/injector.py",
        "        if attach is not None and self.session.plan.oq is not None:",
        "        if attach is not None:",
        ("tests/test_fastpath_network.py::"
         "test_a_fault_plan_bars_the_walks_through_its_device_if_it_draws_"
         "there[flaky-writes]",),
    ),
    # The walk's uncacheable guard, the one place an armed device or a
    # lookup that is not CACHEABLE keeps a walk out of the cache
    # (testenv/topology.py).
    Mutant(
        "a walk through an armed device is cached",
        TOPOLOGY,
        "                    if (project.datapath_faults is not None\n"
        "                            or not opl.CACHEABLE):",
        "                    if (False\n"
        "                            or not opl.CACHEABLE):",
        (PATH_CACHE + "test_armed_datapath_faults_make_walks_uncacheable",
         "tests/test_fastpath_invalidation.py::"
         "test_arming_faults_after_warming_stops_the_replays"),
    ),
    Mutant(
        "a walk through a lookup that is not cacheable is cached",
        TOPOLOGY,
        "                    if (project.datapath_faults is not None\n"
        "                            or not opl.CACHEABLE):",
        "                    if (project.datapath_faults is not None\n"
        "                            or False):",
        (PATH_CACHE + "test_an_uncacheable_lookup_bars_the_walk",
         PATH_CACHE + "test_a_lookup_that_is_not_cacheable_is_a_path_bypass"),
    ),
    # The clock paces the engine (shell/clock.py, shell/session.py).
    Mutant(
        "pace dispatches without advancing the clock",
        CLOCK,
        "            self.advance_to(engine.next_tick)\n"
        "            done += engine.run(until if self.warp else engine.next_tick)\n"
        "            self.advance_to(engine.last_tick)\n",
        "            done += engine.run(until if self.warp else engine.next_tick)\n",
        (PACING, PAUSE),
    ),
    Mutant(
        "run-until does not idle the clock to its tick",
        SESSION,
        "        self.clock.advance_to(tick)\n",
        "",
        (PACING, SHELL + "TestLifecycle::test_run_until_advances_idle_tail"),
    ),
    Mutant(
        "run ignores a pause",
        SESSION,
        "self.clock.pace(engine, stop=lambda _: self.clock.paused)",
        "self.clock.pace(engine)",
        (PAUSE,),
    ),
    Mutant(
        "finish reports without pacing the rest",
        SESSION,
        "        self.clock.pace(engine)\n"
        "        self._report = engine.report()",
        "        self._report = engine.report()",
        (PACING,),
    ),
    Mutant(
        "the shell pins batch=False again",
        SESSION,
        "RunConfig(frr=frr, int_all=int_all, fastpath=fastpath)",
        "RunConfig(frr=frr, int_all=int_all, fastpath=fastpath, batch=False)",
        (SHELL + "TestFingerprintIdentity::"
         "test_a_clocked_lossy_run_replays_through_the_batch_tier",),
    ),
    Mutant(
        "a capped span reads past until",
        SCHEDULER,
        "room <= last and until == math.inf and not",
        "room <= last and not",
        ("tests/test_fabric_event_order.py::TestCappedSpans::"
         "test_run_until_carries_exactly_the_heaps_events",),
    ),
    # One pinned forwarding tree (fabric/topo.py).
    Mutant(
        "bfs_tree records the port at the parent's end",
        "repro/fabric/topo.py",
        "        for _, (peer, peer_port) in sorted(net.neighbors(device)"
        ".items()):",
        "        for peer_port, (peer, _) in sorted(net.neighbors(device)"
        ".items()):",
        ("tests/test_fabric_topology.py::TestFatTreeWiring::"
         "test_every_fdb_port_is_the_bfs_tree_port",),
    ),
)


def _pytest(src: Path, tests, timeout=None) -> tuple[int, set[str], str]:
    """Run ``tests`` against the package tree ``src``; returns the exit
    code, the node ids that failed and the output.  A run killed at
    ``timeout`` seconds fails every test it names."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", *tests],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return -1, set(tests), f"killed after {timeout} s"
    failed = {line[len("FAILED "):].split(" - ", 1)[0]
              for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _failed(test: str, failed: set[str]) -> bool:
    return any(node == test or node.startswith(test + "[") for node in failed)


def main() -> int:
    code, _, out = _pytest(ROOT / "src",
                           sorted({t for m in MUTANTS for t in m.tests}))
    if code != 0:
        print(out)
        print("the named tests must pass on the unmutated tree",
              file=sys.stderr)
        return 1
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            target = src / mutant.path
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"STALE     {mutant.name}: snippet occurs "
                      f"{text.count(mutant.snippet)} times in "
                      f"src/{mutant.path}:\n{mutant.snippet}")
                bad += 1
                continue
            target.write_text(text.replace(mutant.snippet,
                                           mutant.replacement))
            started = time.perf_counter()
            code, failed, _ = _pytest(src, mutant.tests, HANG_S)
        missed = [t for t in mutant.tests if not _failed(t, failed)]
        verdict = ("SURVIVED" if missed else "caught" if code != -1
                   else "hung")
        outcome = (f"killed after {HANG_S} s" if code == -1 else
                   f"{len(mutant.tests) - len(missed)}/{len(mutant.tests)} "
                   f"named tests failed")
        print(f"{verdict:9} {mutant.name} "
              f"({outcome}, {time.perf_counter() - started:.1f} s)")
        for test in missed:
            print(f"          passed: {test}")
        bad += bool(missed)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
