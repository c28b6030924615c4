"""The line-oriented front end over :class:`~repro.shell.session.ShellSession`.

One command per line, ``shlex``-split, ``#`` starts a comment.  The
same dispatcher serves both faces:

* :func:`interact` — the ``nf-mon shell`` prompt (prompt suppressed
  when stdin is not a TTY, so piped input works);
* :func:`run_script` — deterministic replay of a ``.nfsh`` command
  file (``nf-mon shell --script``), stop-on-error with the session's
  error taxonomy mapped to exit codes: operator errors → 2, failed
  ``expect`` assertions (or an unhealthy ``finish``) → 1, clean → 0.

Every command renders from the structured dict its
:class:`ShellSession` method returned — the REPL adds no semantics of
its own, which is what keeps scripted sessions byte-identical to the
API calls the tests make.
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Iterable, Optional, TextIO

from repro.faults import available_plans
from repro.shell.session import ExpectFailed, ShellError, ShellSession
from repro.testenv.topology import TopologyError

#: command name -> one-line usage+summary, in help order.
COMMANDS: dict[str, str] = {
    "help": "help — list commands",
    "status": "status — clock ledger and run progress",
    "build": "build [topo] [workload] [seed] — (re)build the fabric",
    "devices": "devices — list device names",
    "describe": "describe — fabric wiring summary",
    "pingall": "pingall — sandboxed all-pairs data-plane reachability",
    "reach": "reach — graph-level reachability over live cables",
    "tables": "tables <device> — CAM / backup / flow-cache dump",
    "link": "link down|up <devA> <devB> — pull or re-seat a cable",
    "inject": "inject <srcHost> <dstHost> [count] — send live frames",
    "faults": "faults arm <preset> — arm a fault plan for the next start",
    "frr": "frr on|status — install backups / show reroute state",
    "int": "int paths — receiver-side INT paths and reroutes",
    "start": "start — admit the workload (no events dispatch yet)",
    "run": "run — dispatch until finished or paused",
    "run-until": "run-until <cycle> — dispatch and idle up to a cycle",
    "step": "step [N] — dispatch N heap events (default 1)",
    "pause": "pause — make `run` yield after the current cycle",
    "resume": "resume — clear the pause flag",
    "warp": "warp on|off — compress idle cycles (on) or walk them (off)",
    "metrics": "metrics — telemetry registry snapshot",
    "stats": "stats — the flat key space `expect` asserts against",
    "finish": "finish — drain the run and close its report",
    "fingerprint": "fingerprint — the finished run's report fingerprint",
    "expect": "expect <key> <op> <value> — assert against stats",
    "echo": "echo <text> — print the text (script narration)",
    "quit": "quit — leave the shell (also: exit, EOF)",
}


class NfshCompleter:
    """Tab-completion for the interactive prompt.

    The readline ``complete(text, state)`` protocol wraps the pure
    :meth:`candidates`, so the pools are unit-testable without a TTY
    or the ``readline`` module.  The first word completes against
    :data:`COMMANDS`; later words complete against what that argument
    slot actually accepts — fixed keywords (``link down|up``), switch
    and host names from the live session, fault-plan presets.  Pools
    are resolved per keystroke, so a ``build`` that changes the
    topology changes the completions too.
    """

    #: (command, argument index) -> fixed keyword pool.
    _KEYWORDS: dict[tuple[str, int], tuple[str, ...]] = {
        ("link", 1): ("down", "up"),
        ("warp", 1): ("on", "off"),
        ("frr", 1): ("on", "status"),
        ("faults", 1): ("arm",),
        ("int", 1): ("paths",),
    }
    #: argument slots that take a switch name
    _DEVICE_SLOTS = frozenset({("tables", 1), ("link", 2), ("link", 3)})
    #: argument slots that take a host name
    _HOST_SLOTS = frozenset({("inject", 1), ("inject", 2)})

    def __init__(self, session: ShellSession):
        self.session = session
        self._matches: list[str] = []

    # ------------------------------------------------------------------
    def candidates(self, line: str, text: str) -> list[str]:
        """Completions for ``text``, the word being typed at the end of
        ``line`` (empty ``text`` means a fresh word)."""
        words = line.split()
        at_fresh_word = not words or line[-1:].isspace()
        slot = len(words) if at_fresh_word else len(words) - 1
        pool: Iterable[str]
        if slot == 0:
            pool = (*COMMANDS, "exit")
        else:
            key = (words[0], slot)
            if key in self._KEYWORDS:
                pool = self._KEYWORDS[key]
            elif key in self._DEVICE_SLOTS:
                pool = self._devices()
            elif key in self._HOST_SLOTS:
                pool = self._hosts()
            elif key == ("faults", 2):
                pool = available_plans()
            else:
                pool = ()
        return sorted(name for name in pool if name.startswith(text))

    def _devices(self) -> Iterable[str]:
        try:
            return self.session.devices()
        except Exception:
            return ()

    def _hosts(self) -> Iterable[str]:
        try:
            return sorted(self.session.topology.hosts)
        except Exception:
            return ()

    # ------------------------------------------------------------------
    def complete(self, text: str, state: int) -> Optional[str]:
        """The ``readline`` completer entry point."""
        if state == 0:
            try:
                import readline
                line = readline.get_line_buffer()[:readline.get_endidx()]
            except Exception:
                line = text
            self._matches = self.candidates(line, text)
        return self._matches[state] if state < len(self._matches) else None


def _install_readline(completer: NfshCompleter) -> None:
    """Arm tab-completion on the TTY path; a no-op without readline."""
    try:
        import readline
    except ImportError:  # pragma: no cover - platform without readline
        return
    readline.set_completer_delims(" \t")
    readline.set_completer(completer.complete)
    readline.parse_and_bind("tab: complete")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _kv_lines(data: dict, skip: tuple[str, ...] = ()) -> list[str]:
    lines = []
    for key, value in data.items():
        if key in skip or isinstance(value, (dict, list, tuple)):
            continue
        lines.append(f"  {key}: {_fmt(value)}")
    return lines


class Repl:
    """Parses lines, calls the session, renders the results."""

    def __init__(self, session: ShellSession, out: Optional[TextIO] = None):
        self.session = session
        # Resolved at call time, not import time, so host tools that
        # swap sys.stdout (tests, redirections) are honoured.
        self.out = sys.stdout if out is None else out
        self.done = False

    def _print(self, *lines: str) -> None:
        for line in lines:
            print(line, file=self.out)

    # ------------------------------------------------------------------
    def execute(self, line: str) -> None:
        """Run one command line; session errors propagate to the caller."""
        words = shlex.split(line, comments=True)
        if not words:
            return
        name, args = words[0], words[1:]
        handler: Optional[Callable[[list[str]], None]] = getattr(
            self, f"_cmd_{name.replace('-', '_')}", None
        )
        if handler is None:
            raise ShellError(
                f"unknown command {name!r}; try `help`"
            )
        handler(args)

    # -- meta ----------------------------------------------------------
    def _cmd_help(self, args: list[str]) -> None:
        self._print(*(f"  {usage}" for usage in COMMANDS.values()))

    def _cmd_echo(self, args: list[str]) -> None:
        self._print(" ".join(args))

    def _cmd_quit(self, args: list[str]) -> None:
        self.done = True

    def _cmd_exit(self, args: list[str]) -> None:
        self.done = True

    # -- lifecycle -----------------------------------------------------
    def _cmd_build(self, args: list[str]) -> None:
        if len(args) > 3:
            raise ShellError("usage: build [topo] [workload] [seed]")
        seed = None
        if len(args) == 3:
            seed = self._int(args[2], "seed")
        info = self.session.build(
            args[0] if len(args) >= 1 else None,
            args[1] if len(args) >= 2 else None,
            seed,
        )
        self._print(
            f"built {info['topology']} ({info['devices']} devices, "
            f"{info['hosts']} hosts), workload {info['workload']} "
            f"seed {info['seed']}"
        )

    def _cmd_start(self, args: list[str]) -> None:
        status = self.session.start()
        engine = status["engine"]
        self._print(
            f"started: {engine['flows_admitted']}/{engine['flows_total']} "
            f"flows admitted, {engine['pending_events']} events pending"
        )

    def _cmd_finish(self, args: list[str]) -> None:
        stats = self.session.finish()
        self._print("finished:")
        self._print(*_kv_lines(stats, skip=("warp", "paused")))

    def _cmd_fingerprint(self, args: list[str]) -> None:
        self._print(self.session.fingerprint())

    # -- virtual time --------------------------------------------------
    def _cmd_pause(self, args: list[str]) -> None:
        self.session.pause()
        self._print("paused")

    def _cmd_resume(self, args: list[str]) -> None:
        self.session.resume()
        self._print("resumed")

    def _cmd_warp(self, args: list[str]) -> None:
        if args not in (["on"], ["off"]):
            raise ShellError("usage: warp on|off")
        stats = self.session.warp(args == ["on"])
        self._print(f"warp {'on' if stats['warp'] else 'off'} "
                    f"(cycle {stats['now']})")

    def _cmd_step(self, args: list[str]) -> None:
        if len(args) > 1:
            raise ShellError("usage: step [N]")
        count = self._int(args[0], "step count") if args else 1
        result = self.session.step(count)
        self._report_motion(result)

    def _cmd_run(self, args: list[str]) -> None:
        result = self.session.run()
        self._report_motion(result)

    def _cmd_run_until(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: run-until <cycle>")
        result = self.session.run_until(self._int(args[0], "cycle"))
        self._report_motion(result)

    def _report_motion(self, result: dict) -> None:
        engine = result["engine"]
        state = "finished" if result["finished"] else (
            "paused" if result["clock"]["paused"] else "idle")
        self._print(
            f"{result['dispatched']} events dispatched, cycle "
            f"{result['clock']['now']}, {engine['pending_events']} pending "
            f"({state}); delivered {engine.get('delivered', 0)} "
            f"lost {engine.get('lost', 0)}"
        )

    # -- observation ---------------------------------------------------
    def _cmd_status(self, args: list[str]) -> None:
        status = self.session.status()
        self._print(
            f"{status['topology']} × {status['workload']} seed "
            f"{status['seed']} plan {status['plan'] or '-'} "
            f"frr {_fmt(status['frr'])} fastpath {_fmt(status['fastpath'])}"
        )
        clock = status["clock"]
        self._print(
            f"  clock: cycle {clock['now']} warp {_fmt(clock['warp'])} "
            f"paused {_fmt(clock['paused'])} walked {clock['ticks_walked']} "
            f"warped {clock['ticks_warped']}"
        )
        if "engine" in status:
            self._print("  engine:", *(
                f"    {k}: {_fmt(v)}" for k, v in status["engine"].items()
                if v is not None
            ))

    def _cmd_devices(self, args: list[str]) -> None:
        self._print(" ".join(self.session.devices()))

    def _cmd_describe(self, args: list[str]) -> None:
        self._print(self.session.describe())

    def _cmd_pingall(self, args: list[str]) -> None:
        result = self.session.pingall()
        self._print(
            f"pingall: {result['delivered']}/{result['pairs']} pairs "
            f"delivered, max {result['max_hops']} hops"
        )
        for src, dst in result["unreachable"]:
            self._print(f"  UNREACHABLE {src} -> {dst}")
        for src, dst in result["duplicated"]:
            self._print(f"  DUPLICATED {src} -> {dst}")

    def _cmd_reach(self, args: list[str]) -> None:
        result = self.session.reach()
        self._print(
            f"reach: {result['connected']}/{result['pairs']} pairs "
            f"connected by live cables"
        )
        for src, dst in result["partitioned"]:
            self._print(f"  PARTITIONED {src} -> {dst}")

    def _cmd_tables(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: tables <device>")
        try:
            tables = self.session.tables(args[0])
        except TopologyError as exc:
            raise ShellError(str(exc)) from None
        self._print(f"{tables['device']}:")
        for label in ("mac_table", "backup_table"):
            if label in tables:
                self._print(f"  {label} ({len(tables[label])} entries):")
                for mac, port in tables[label]:
                    self._print(f"    {mac} -> port {port}")
        counters = {k: v for k, v in tables["counters"].items() if v}
        if counters:
            self._print("  counters:")
            for key, value in sorted(counters.items()):
                self._print(f"    {key}: {value}")

    def _cmd_int(self, args: list[str]) -> None:
        if args != ["paths"]:
            raise ShellError("usage: int paths")
        result = self.session.int_paths()
        self._print(f"int: {result['stamps']} stamps")
        for path, count in result["paths"].items():
            self._print(f"  {path}: {count}")
        for link, count in result["reroute_links"].items():
            self._print(f"  rerouted around {link}: {count}")

    def _cmd_metrics(self, args: list[str]) -> None:
        for name, value in sorted(self.session.metrics().items()):
            self._print(f"  {name} {_fmt(value)}")

    def _cmd_stats(self, args: list[str]) -> None:
        self._print(*_kv_lines(self.session.stats()))

    # -- mutation ------------------------------------------------------
    def _cmd_link(self, args: list[str]) -> None:
        if len(args) != 3 or args[0] not in ("down", "up"):
            raise ShellError("usage: link down|up <devA> <devB>")
        try:
            result = self.session.link(args[1], args[2], args[0] == "up")
        except TopologyError as exc:
            raise ShellError(str(exc)) from None
        a, b = result["link"]
        state = "up" if result["up"] else "down"
        note = "" if result["changed"] else " (already)"
        self._print(f"link {a}~{b} {state}{note}")

    def _cmd_inject(self, args: list[str]) -> None:
        if len(args) not in (2, 3):
            raise ShellError("usage: inject <srcHost> <dstHost> [count]")
        count = self._int(args[2], "count") if len(args) == 3 else 1
        result = self.session.inject(args[0], args[1], count)
        self._print(
            f"injected {result['sent']}, delivered {result['delivered']}, "
            f"max {result['max_hops']} hops"
        )

    def _cmd_faults(self, args: list[str]) -> None:
        if len(args) != 2 or args[0] != "arm":
            raise ShellError("usage: faults arm <preset>")
        result = self.session.faults_arm(args[1])
        self._print(f"armed plan {result['plan']} (seed {result['seed']})")

    def _cmd_frr(self, args: list[str]) -> None:
        if args == ["on"]:
            result = self.session.frr_on()
            self._print(f"frr on: coverage {result['coverage']:.3f}")
            return
        if args == ["status"]:
            result = self.session.frr_status()
            self._print(
                f"frr {'installed' if result['installed'] else 'off'}, "
                f"coverage {result['coverage']:.3f}"
            )
            for a, b in result["links_down"]:
                self._print(f"  link down: {a}~{b}")
            for device, count in sorted(result["reroutes"].items()):
                self._print(f"  {device}: {count} rerouted")
            for device, count in sorted(result["blackholed"].items()):
                self._print(f"  {device}: {count} blackholed")
            return
        raise ShellError("usage: frr on|status")

    def _cmd_expect(self, args: list[str]) -> None:
        if len(args) != 3:
            raise ShellError("usage: expect <key> <op> <value>")
        result = self.session.expect(*args)
        self._print(
            f"ok: {result['key']} {result['op']} {result['value']} "
            f"(actual {_fmt(result['actual'])})"
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _int(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ShellError(f"{what} must be an integer, got {text!r}") \
                from None


def run_script(
    session: ShellSession,
    lines: Iterable[str],
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """Replay a ``.nfsh`` command file; stop on the first error.

    Exit codes: 0 clean, 1 failed ``expect``, 2 operator error — the
    contract the shell-smoke CI job scripts against.
    """
    err = sys.stderr if err is None else err
    repl = Repl(session, out=out)
    for lineno, line in enumerate(lines, start=1):
        try:
            repl.execute(line)
        except ExpectFailed as exc:
            print(f"nfsh:{lineno}: {exc}", file=err)
            return 1
        except (ShellError, ValueError, TopologyError) as exc:
            print(f"nfsh:{lineno}: {exc}", file=err)
            return 2
        if repl.done:
            break
    return 0


def interact(
    session: ShellSession,
    stdin: Optional[TextIO] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """The interactive prompt: errors print and the session continues."""
    stdin = sys.stdin if stdin is None else stdin
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    repl = Repl(session, out=out)
    prompt = "nfsh> " if stdin.isatty() else ""
    if prompt:
        _install_readline(NfshCompleter(session))
    failures = 0
    while not repl.done:
        if prompt:
            out.write(prompt)
            out.flush()
        line = stdin.readline()
        if not line:
            break
        try:
            repl.execute(line)
        except ExpectFailed as exc:
            failures += 1
            print(f"expect failed: {exc}", file=err)
        except (ShellError, ValueError, TopologyError) as exc:
            print(f"error: {exc}", file=err)
    return 1 if failures else 0
