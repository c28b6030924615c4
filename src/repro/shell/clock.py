"""The virtual clock: the fabric's cycle domain as a first-class object.

Batch runs (:func:`repro.fabric.scheduler.run_flows`) free-run: the
engine carries its flows as fast as Python will go and "time" is just
the tick stamped on each packet.  Interactive emulation wants the
opposite — the cycle domain must be *ownable*: pausable,
single-steppable, and compressible (skip the idle cycles between
scheduled events so an hour-long soak replays in seconds, the way an
event-driven simulator outruns a cycle-driven one).

:class:`VirtualClock` is that owner.  :meth:`pace` drives a fabric
scheduler's engine in spans: it calls :meth:`advance_to` with the next
event's tick, has the engine carry a span, and advances to the latest
tick the span carried.  The clock either *walks* tick by tick
(``warp=False`` — every cycle is visited and every registered tick
hook runs before that cycle's events, the cycle-driven behaviour; a
span is one tick's events) or *warps* (``warp=True`` — idle cycles
are skipped in O(1) and only accounted; a span runs to the stop tick,
coalesced like a batch run).  Either way every observable the
:class:`~repro.fabric.scheduler.FabricReport` fingerprints is
untouched: the clock decides how fast virtual time passes, never what
happens in it.  Tick hooks are observers (telemetry watches, progress
meters) — they are *not* part of the determinism contract and are
skipped over warped spans.

``paused`` is advisory: the shell's ``run`` paces with a stop on it,
so a pause (the ``pause`` command, or a tick hook) yields control back
after the current span; it never blocks ``step``/``run-until``, which
are explicit user motion.
"""

from __future__ import annotations

import math
from typing import Callable

#: Signature of a tick hook: called with the cycle just entered.
TickHook = Callable[[int], None]


class VirtualClock:
    """Owns a virtual cycle domain: pause, step, warp — and paces a
    fabric engine through it (:meth:`pace`).

    ``now`` is the current cycle.  ``ticks_walked`` counts cycles the
    clock visited one by one (hooks ran); ``ticks_warped`` counts idle
    cycles it skipped over.  ``now == start + ticks_walked +
    ticks_warped`` always holds.
    """

    def __init__(self, warp: bool = False, start: int = 0):
        self.now = start
        self.warp = warp
        self.paused = False
        self.ticks_walked = 0
        self.ticks_warped = 0
        self._hooks: list[TickHook] = []

    # ------------------------------------------------------------------
    # Control surface (the shell's pause / resume / warp commands)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Ask the shell's free-running ``run`` to yield after the
        current span.  Explicit ``step``/``run-until`` still move."""
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def set_warp(self, enabled: bool) -> None:
        """Toggle idle-cycle compression for *future* advances."""
        self.warp = enabled

    def on_tick(self, hook: TickHook) -> TickHook:
        """Register an observer called once per walked cycle.

        Hooks never run for warped (skipped) cycles and must not mutate
        anything observable — they exist for watching, not steering.
        """
        self._hooks.append(hook)
        return hook

    # ------------------------------------------------------------------
    # The engine-facing edge
    # ------------------------------------------------------------------
    def advance_to(self, tick: int) -> int:
        """Move virtual time forward to ``tick``; returns cycles moved.

        Time never runs backwards: a ``tick`` at or before ``now`` is a
        no-op (events scheduled in the same cycle dispatch back to
        back).  Warped advances jump in O(1); walked advances visit
        every cycle and run the tick hooks.
        """
        delta = tick - self.now
        if delta <= 0:
            return 0
        if self.warp:
            self.ticks_warped += delta
            self.now = tick
        else:
            for _ in range(delta):
                self.now += 1
                self.ticks_walked += 1
                for hook in self._hooks:
                    hook(self.now)
        return delta

    def pace(self, engine, until: float = math.inf, stop=None) -> int:
        """Carry ``engine`` (a :class:`~repro.fabric.scheduler.FlowEngine`)
        through every event due by ``until``, on this clock; returns
        events dispatched.

        One span per turn: the clock advances to the next event's tick,
        :meth:`~repro.fabric.scheduler.FlowEngine.run` carries
        everything due by ``until`` (warped: one coalesced span) or by
        that tick (walked: each cycle's hooks run before its events),
        and the clock advances to the latest tick carried.  Pacing ends
        when the run is finished, its next event lies past ``until``,
        or ``stop(dispatched so far)`` holds, checked before every span.
        """
        done = 0
        while not (engine.finished or engine.next_tick > until
                   or stop is not None and stop(done)):
            self.advance_to(engine.next_tick)
            done += engine.run(until if self.warp else engine.next_tick)
            self.advance_to(engine.last_tick)
        return done

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int | bool]:
        """The clock's ledger, shell-``status``-shaped."""
        return {
            "now": self.now,
            "warp": self.warp,
            "paused": self.paused,
            "ticks_walked": self.ticks_walked,
            "ticks_warped": self.ticks_warped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        mode = "warp" if self.warp else "walk"
        state = "paused" if self.paused else "running"
        return f"<VirtualClock now={self.now} {mode} {state}>"
