"""``nf-mon``: the platform monitoring tool.

The telemetry subsystem's command-line face, in the spirit of NetFPGA's
register peek/poke utilities but speaking the metrics registry instead
of raw offsets.  It runs one of the standard regression scenarios with a
telemetry session attached and exposes the measurement three ways::

    nf-mon dump  --scenario switch_learn_and_forward --format table
    nf-mon watch --scenario router_forward_connected --interval 128
    nf-mon trace --scenario router_forward_connected --output trace.json

``dump`` prints the end-of-run metrics (``table``, ``json`` or ``prom``
Prometheus text); ``watch`` streams interval rows while the kernel runs
(sim mode only — it rides the session's per-cycle callback); ``trace``
writes the Chrome ``trace_event`` JSON that ``chrome://tracing`` and
Perfetto load.  ``scenarios`` lists what can be monitored; ``soak`` and
``fabric`` run the chaos soak and the fabric workload engine.

Every command is a plain function returning an exit code, so tests call
them directly; the console entry point is :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.telemetry.session import TelemetrySession


def _scenarios():
    # Imported lazily so `nf-mon scenarios` starts fast.
    from repro.testenv.regress import standard_scenarios

    return {test.name: test for test in standard_scenarios()}


def _run_scenario(name: str, mode: str, session: TelemetrySession,
                  faults: Optional[str] = None):
    from repro.testenv.harness import run_test

    scenarios = _scenarios()
    if name not in scenarios:
        print(f"unknown scenario {name!r}; have {sorted(scenarios)}",
              file=sys.stderr)
        return None
    try:
        return run_test(scenarios[name], mode, faults=faults, telemetry=session)
    except ValueError as exc:
        # e.g. an unknown fault plan name — operator error, not a crash.
        print(str(exc), file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_scenarios(_args: argparse.Namespace) -> int:
    for name, test in sorted(_scenarios().items()):
        print(f"  {name:28s} {len(test.stimuli)} stimuli, "
              f"{test.project_factory().name}")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    session = TelemetrySession(args.mode)
    result = _run_scenario(args.scenario, args.mode, session, args.faults)
    if result is None:
        return 2
    if args.format == "json":
        text = session.registry.to_json(
            indent=2, mode=args.mode, scenario=args.scenario
        )
    elif args.format == "prom":
        text = session.registry.to_prometheus()
    else:
        snapshot = result.telemetry
        width = max(map(len, snapshot.counters), default=0)
        lines = [f"# {args.scenario} [{args.mode}] — "
                 f"{snapshot.trace_events} trace events"]
        for series in sorted(snapshot.counters):
            value = snapshot.counters[series]
            rendered = int(value) if float(value).is_integer() else round(value, 3)
            marker = " *" if series in snapshot.parity else ""
            lines.append(f"  {series:{width}s} {rendered}{marker}")
        lines.append("  (* = cycle-independent: must match across sim/hw)")
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    if args.mode != "sim":
        print("watch rides the kernel's cycle hook; only --mode sim",
              file=sys.stderr)
        return 2
    session = TelemetrySession("sim")
    registry = session.registry
    print(f"{'cycle':>8s} {'pkts_in':>8s} {'pkts_out':>9s} "
          f"{'oq_bytes':>9s} {'events':>7s}")

    def _sum(prefix: str) -> int:
        return int(sum(
            value for series, value in registry.snapshot().items()
            if series.startswith(prefix)
        ))

    rx_prefix = 'chan_packets_total{chan="rx_'
    tx_prefix = 'chan_packets_total{chan="tx_'

    def on_cycle(cycle: int) -> None:
        if cycle % args.interval:
            return
        print(f"{cycle:>8d} {_sum(rx_prefix):>8d} {_sum(tx_prefix):>9d} "
              f"{_sum('oq_occupancy_bytes'):>9d} {len(session.trace):>7d}")

    session.cycle_callback = on_cycle
    result = _run_scenario(args.scenario, "sim", session, args.faults)
    if result is None:
        return 2
    snapshot = result.telemetry
    print(f"done: {result.cycles} cycles, {result.total_packets()} packets, "
          f"{snapshot.trace_events} trace events "
          f"({snapshot.trace_dropped} dropped)")
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.testenv.soak import run_soak

    try:
        report = run_soak(
            args.mode, args.plan, seed=args.seed, epochs=args.epochs,
            telemetry=True,
        )
    except ValueError as exc:
        # Unknown plan name (or bad mode) — operator error, not a crash.
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"# soak {report.plan!r} seed={report.seed} "
              f"[{report.mode}] — {report.epochs} epochs")
        rows = [
            ("device resets", report.resets),
            ("flap-lost frames", report.flap_lost_frames),
            ("frames injected", report.injected_frames),
            ("frames forwarded", report.forwarded_frames),
            ("degraded epochs", report.degraded_epochs),
            ("invariant checks", report.invariant_checks),
        ]
        for label, value in rows:
            print(f"  {label:24s} {value}")
        print("  fault counters:")
        for name, value in sorted(report.fault_counters.items()):
            print(f"    {name:22s} {value}")
        print("  resilience counters:")
        for name, value in sorted(report.resilience_counters.items()):
            print(f"    {name:22s} {value}")
        for failure in report.invariant_failures:
            print(f"  INVARIANT VIOLATED: {failure}")
        print(f"  converged: {report.converged}")
    return 0 if report.converged and not report.invariant_failures else 1


def cmd_fabric(args: argparse.Namespace) -> int:
    from repro.fabric import get_topology, get_workload, run_sharded
    from repro.fabric.scheduler import LOSS_FIELDS
    from repro.faults import get_plan

    try:
        spec = get_topology(args.topo)
        workload = get_workload(args.workload).with_seed(args.seed)
        plan = (get_plan(args.faults, seed=args.seed)
                if args.faults else None)
        chaos = (get_plan(args.chaos_shards, seed=args.seed)
                 if args.chaos_shards else None)
        report = run_sharded(
            spec, workload, plan,
            shards=args.shards, parallel=not args.inline,
            fastpath=not args.no_fastpath,
            chaos=chaos, checkpoint=args.checkpoint,
        )
    except ValueError as exc:
        # Unknown topology/workload/plan preset, shards > flows, a
        # checkpoint written by a different run, or --checkpoint /
        # --chaos-shards with --inline (no workers) — operator error.
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(per_flow=args.per_flow), indent=2))
    else:
        print(f"# fabric {report.topology} × {report.workload} "
              f"seed={report.seed} shards={report.shards}"
              + (f" faults={report.plan}" if report.plan else ""))
        rows = [
            ("flows", len(report.records)),
            ("packets attempted", report.attempted),
            ("packets delivered", report.delivered),
            *((name.replace("_", " "),
               sum(getattr(r, name) for r in report.records))
              for name in LOSS_FIELDS),
            ("misdelivered", report.misdelivered),
            ("retransmits", sum(r.retransmits for r in report.records)),
            ("bytes delivered", sum(r.bytes_delivered for r in report.records)),
            ("packets/sec", round(report.packets_per_second, 1)),
        ]
        for label, value in rows:
            print(f"  {label:24s} {value}")
        print("  hops histogram:")
        for hop, count in sorted(report.hops_hist.items()):
            print(f"    {hop:2d} hops {count:>8d}")
        print("  per-device forwarded:")
        for device, count in sorted(report.device_forwarded.items()):
            print(f"    {device:22s} {count}")
        if report.fastpath:
            print("  flow-cache stats:")
            for name, value in sorted(report.fastpath.items()):
                print(f"    {name:22s} {value}")
        if report.batch:
            print("  batch tier:")
            for name, value in sorted(report.batch.items()):
                print(f"    {name:22s} {value}")
        if report.supervision:
            print("  supervision:")
            for name, value in sorted(report.supervision.items()):
                print(f"    {name:22s} {value}")
        if args.per_flow:
            print(f"  {'flow':>6s} {'src':>5s} {'dst':>5s} {'try':>5s} "
                  f"{'ok':>5s} {'lost':>5s} {'hops≤':>5s}")
            for record in report.records:
                lost = sum(getattr(record, name) for name in LOSS_FIELDS)
                print(f"  {record.flow_id:>6d} {record.src:>5s} "
                      f"{record.dst:>5s} {record.attempted:>5d} "
                      f"{record.delivered:>5d} {lost:>5d} "
                      f"{record.hops_max:>5d}")
        print(f"  fingerprint: {report.fingerprint()}")
        print(f"  healthy: {report.healthy()}")
    return 0 if report.healthy() else 1


def cmd_int(args: argparse.Namespace) -> int:
    from repro.fabric import get_topology, get_workload, run_sharded
    from repro.faults import get_plan

    try:
        spec = get_topology(args.topo)
        workload = get_workload(args.workload).with_seed(args.seed)
        plan = (get_plan(args.faults, seed=args.seed)
                if args.faults else None)
        report = run_sharded(
            spec, workload, plan,
            shards=args.shards, parallel=not args.inline,
            fastpath=not args.no_fastpath, int_all=True,
        )
    except ValueError as exc:
        # Unknown topology/workload/plan preset — operator error.
        print(str(exc), file=sys.stderr)
        return 2
    summary = report.int_summary or {}
    # The attribution cross-check: the receiver's stamp-derived numbers
    # must agree with the device-side decision counters.
    reroutes_match = (
        sum(summary.get("reroutes", {}).values())
        == sum(report.device_reroutes.values())
    )
    blackholes_match = (
        summary.get("blackholes", 0)
        == sum(report.device_blackholed.values())
    )
    if args.format == "json":
        import json

        out = report.as_dict()
        out["int_reroutes_match"] = reroutes_match
        out["int_blackholes_match"] = blackholes_match
        print(json.dumps(out, indent=2))
    else:
        print(f"# int {report.topology} × {report.workload} "
              f"seed={report.seed} shards={report.shards}"
              + (f" faults={report.plan}" if report.plan else ""))
        rows = [
            ("flows", summary.get("flows", 0)),
            ("packets injected", summary.get("packets", 0)),
            ("packets delivered", summary.get("delivered", 0)),
            ("hop stamps", summary.get("stamps", 0)),
            ("stack overflows", summary.get("overflows", 0)),
            ("lost (receiver view)", summary.get("lost", 0)),
            ("  at dead links", summary.get("lost_link_down", 0)),
            ("  at the hop limit", summary.get("lost_hop_limit", 0)),
            ("  blackholed", summary.get("blackholes", 0)),
        ]
        for label, value in rows:
            print(f"  {label:24s} {value}")
        for section, title in (
            ("paths", "paths observed"),
            ("reroutes", "reroutes by device"),
            ("reroute_links", "reroutes by failed link"),
            ("drop_sites", "localized drop sites"),
            ("blackhole_paths", "last-known blackhole paths"),
            ("hop_latency", "per-hop latency (device:cycles)"),
        ):
            entries = summary.get(section, {})
            if entries:
                print(f"  {title}:")
                for key, count in sorted(entries.items()):
                    print(f"    {key:28s} {count}")
        print(f"  reroutes match devices:   {reroutes_match}")
        print(f"  blackholes match devices: {blackholes_match}")
        print(f"  fingerprint: {report.fingerprint()}")
        print(f"  healthy: {report.healthy()}")
    return 0 if (report.healthy() and reroutes_match
                 and blackholes_match) else 1


def cmd_frr(args: argparse.Namespace) -> int:
    from repro.frr import run_sweep

    try:
        report = run_sweep(
            args.topo, seed=args.seed, epochs=args.epochs,
            fail_epoch=args.fail_epoch, down_epochs=args.down_epochs,
            pairs_per_link=args.pairs_per_link,
            max_links=args.max_links,
            shards=args.shards, parallel=not args.inline,
        )
    except ValueError as exc:
        # Unknown topology preset or an inconsistent window — operator
        # error, not a crash.
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(per_link=args.per_link), indent=2))
    else:
        print(f"# frr sweep {report.topology} seed={report.seed} "
              f"fail@{report.fail_epoch} down={report.down_epochs} "
              f"epochs={report.epochs} shards={report.shards}")
        rows = [
            ("links swept", f"{len(report.swept())}/{len(report.links)}"),
            ("packets lost (FRR on)", report.packets_lost_frr_on),
            ("packets lost (FRR off)", report.packets_lost_frr_off),
            ("backup reroutes", report.reroutes),
            ("int attribution agrees", report.int_consistent()),
        ]
        for label, value in rows:
            print(f"  {label:24s} {value}")
        if args.per_link:
            print(f"  {'link':>16s} {'cross':>6s} {'prot':>5s} {'swept':>6s} "
                  f"{'lost_on':>8s} {'lost_off':>9s} {'ttr_on':>7s} "
                  f"{'ttr_off':>8s}")
            for link in sorted(report.links, key=lambda l: l.link):
                print(f"  {link.link:>16s} {link.crossing_pairs:>6d} "
                      f"{link.protected_pairs:>5d} {link.swept_pairs:>6d} "
                      f"{link.lost_frr_on:>8d} {link.lost_frr_off:>9d} "
                      f"{link.recover_epochs_frr_on:>7d} "
                      f"{link.recover_epochs_frr_off:>8d}")
        print(f"  fingerprint: {report.fingerprint()}")
        print(f"  healthy: {report.healthy()}")
    # --max-loss: a CI-style guard on the FRR benefit.  The FRR-on loss
    # may not exceed max_loss × the FRR-off loss (0.1 mirrors the CI
    # smoke job's on <= off/10 check).
    breach = (
        args.max_loss is not None
        and report.packets_lost_frr_on
        > args.max_loss * report.packets_lost_frr_off
    )
    if breach:
        print(
            f"FRR loss guard breached: {report.packets_lost_frr_on} lost "
            f"with FRR on > {args.max_loss} × {report.packets_lost_frr_off} "
            f"lost with FRR off", file=sys.stderr,
        )
    return 0 if report.healthy() and not breach else 1


def cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import ShellSession, interact, run_script

    try:
        session = ShellSession(
            topo=args.topo, workload=args.workload, seed=args.seed,
            plan=args.faults, frr=args.frr, int_all=args.int_all,
            fastpath=not args.no_fastpath, warp=not args.no_warp,
        )
    except ValueError as exc:
        # Unknown topology/workload/plan preset — operator error.
        print(str(exc), file=sys.stderr)
        return 2
    if args.script:
        try:
            with open(args.script, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return run_script(session, lines)
    return interact(session)


def cmd_commands(_args: argparse.Namespace) -> int:
    """The top-level listing: every subcommand and its one-liner."""
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        for choice in getattr(action, "_choices_actions", ()):
            print(f"  {choice.dest:12s} {choice.help}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    session = TelemetrySession(args.mode)
    result = _run_scenario(args.scenario, args.mode, session, args.faults)
    if result is None:
        return 2
    session.trace.write_chrome(args.output)
    print(f"wrote {len(session.trace)} events "
          f"({session.trace.dropped} dropped) to {args.output} "
          f"[{session.trace.domain} domain]")
    return 0


# ----------------------------------------------------------------------
def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="switch_learn_and_forward",
                        help="a standard regression scenario name")
    parser.add_argument("--mode", choices=("sim", "hw"), default="sim")
    parser.add_argument("--faults", default=None,
                        help="run under a registered fault plan")


def _sub(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subparser whose ``--help`` text carries the same one-liner the
    parent listing shows (argparse leaves ``description`` empty unless
    told, which made half the subcommands' ``--help`` blank)."""
    return sub.add_parser(name, help=help_text, description=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nf-mon", description="NetFPGA platform telemetry monitor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _sub(sub, "commands", "list every subcommand and what it does"
         ).set_defaults(func=cmd_commands)

    _sub(sub, "scenarios", "list monitorable scenarios").set_defaults(
        func=cmd_scenarios
    )

    dump = _sub(sub, "dump", "run a scenario and print its metrics")
    _add_run_arguments(dump)
    dump.add_argument("--format", choices=("table", "json", "prom"),
                      default="table")
    dump.add_argument("--output", default=None, help="write here instead of stdout")
    dump.set_defaults(func=cmd_dump)

    watch = _sub(sub, "watch", "stream interval rows while the kernel runs")
    _add_run_arguments(watch)
    watch.add_argument("--interval", type=int, default=256,
                       help="cycles between rows")
    watch.set_defaults(func=cmd_watch)

    trace = _sub(sub, "trace", "write a Chrome trace_event JSON file")
    _add_run_arguments(trace)
    trace.add_argument("--output", default="nf_trace.json")
    trace.set_defaults(func=cmd_trace)

    shell = _sub(sub, "shell", "interactive emulation shell over a live "
                               "fabric (REPL or --script replay)")
    shell.add_argument("--topo", default="leaf-spine",
                       help="a named fabric topology preset")
    shell.add_argument("--workload", default="uniform-small",
                       help="a named workload preset")
    shell.add_argument("--seed", type=int, default=0)
    shell.add_argument("--faults", default=None,
                       help="arm a registered fault plan before the run")
    shell.add_argument("--frr", action="store_true",
                       help="install loop-free backup next-hops")
    shell.add_argument("--int", dest="int_all", action="store_true",
                       help="upgrade every flow to in-band telemetry")
    shell.add_argument("--no-fastpath", action="store_true",
                       help="disable the flow-cache fast path")
    shell.add_argument("--no-warp", action="store_true",
                       help="walk idle cycles instead of compressing them")
    shell.add_argument("--script", default=None, metavar="FILE.nfsh",
                       help="replay a command file instead of prompting "
                            "(exit 0 clean, 1 failed expect, 2 operator "
                            "error)")
    shell.set_defaults(func=cmd_shell)

    soak = _sub(
        sub, "soak", "run the chaos soak under a control-plane fault plan"
    )
    soak.add_argument("--plan", default="ctrl-chaos",
                      help="a registered fault plan name")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--epochs", type=int, default=8)
    soak.add_argument("--mode", choices=("sim", "hw"), default="sim")
    soak.add_argument("--format", choices=("table", "json"), default="table")
    soak.set_defaults(func=cmd_soak)

    fabric = _sub(
        sub, "fabric", "run a fabric workload over a named topology"
    )
    fabric.add_argument("--topo", default="leaf-spine",
                        help="a named fabric topology preset")
    fabric.add_argument("--workload", default="uniform-small",
                        help="a named workload preset")
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument("--shards", type=int, default=1,
                        help="partition flows across this many workers")
    fabric.add_argument("--inline", action="store_true",
                        help="run every flow in-process on one engine")
    fabric.add_argument("--no-fastpath", action="store_true",
                        help="disable the flow-cache fast path (A/B "
                             "reference run; same fingerprint, slower)")
    fabric.add_argument("--faults", default=None,
                        help="run under a registered fault plan")
    fabric.add_argument("--chaos-shards", default=None, metavar="PLAN",
                        help="seed shard-executor crash chaos from this "
                             "fault plan (e.g. shard-chaos; operational "
                             "only, fingerprint unchanged)")
    fabric.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="persist accepted shard reports here and "
                             "resume from survivors on rerun")
    fabric.add_argument("--format", choices=("table", "json"),
                        default="table")
    fabric.add_argument("--per-flow", action="store_true",
                        help="include the per-flow stats table")
    fabric.set_defaults(func=cmd_fabric)

    frr = _sub(
        sub, "frr", "sweep single-link failures, FRR-on vs FRR-off"
    )
    frr.add_argument("--topo", default="abilene",
                     help="a named fabric topology preset")
    frr.add_argument("--seed", type=int, default=0)
    frr.add_argument("--epochs", type=int, default=6,
                     help="sweep length in scheduler epochs")
    frr.add_argument("--fail-epoch", type=int, default=2,
                     help="epoch at which the swept link goes down")
    frr.add_argument("--down-epochs", type=int, default=2,
                     help="epochs the swept link stays down")
    frr.add_argument("--pairs-per-link", type=int, default=2,
                     help="crossing host pairs driven over each link")
    frr.add_argument("--max-links", type=int, default=None,
                     help="truncate the swept link list (smoke runs)")
    frr.add_argument("--shards", type=int, default=1,
                     help="partition flows across this many workers")
    frr.add_argument("--inline", action="store_true",
                     help="run every flow in-process on one engine")
    frr.add_argument("--format", choices=("table", "json"), default="table")
    frr.add_argument("--per-link", action="store_true",
                     help="include the per-link results table")
    frr.add_argument("--max-loss", type=float, default=None,
                     help="fail (exit 1) when FRR-on loss exceeds this "
                          "fraction of FRR-off loss")
    frr.set_defaults(func=cmd_frr)

    int_cmd = _sub(
        sub, "int", "run an INT-enabled fabric workload and report the "
                    "receiver-side path/loss attribution"
    )
    int_cmd.add_argument("--topo", default="leaf-spine",
                         help="a named fabric topology preset")
    int_cmd.add_argument("--workload", default="uniform-int",
                         help="a named workload preset (all flows are "
                              "upgraded to INT regardless)")
    int_cmd.add_argument("--seed", type=int, default=0)
    int_cmd.add_argument("--shards", type=int, default=1,
                         help="partition flows across this many workers")
    int_cmd.add_argument("--inline", action="store_true",
                         help="run every flow in-process on one engine")
    int_cmd.add_argument("--no-fastpath", action="store_true",
                         help="disable the flow-cache fast path (A/B "
                              "reference run; same fingerprint, slower)")
    int_cmd.add_argument("--faults", default=None,
                         help="run under a registered fault plan")
    int_cmd.add_argument("--format", choices=("table", "json"),
                         default="table")
    int_cmd.set_defaults(func=cmd_int)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Normalize argparse's SystemExit into a *returned* code so every
    # caller (tests, `repro-cli mon` forwarding, scripts) sees the same
    # contract: unknown subcommand/flag → 2, `--help` → 0.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C during a long watch/soak is a normal way out, not a
        # traceback: match the shell convention of 128+SIGINT.
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
