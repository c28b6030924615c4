"""Module base class, the FPGA resource declaration carried by each core,
and the per-device change signal (:class:`StateCell`) its tables share.

A module in this kernel corresponds to a Verilog module in a NetFPGA
project: it owns registered state, drives output signals combinationally,
and updates state on the clock edge.  The split is:

* :meth:`Module.comb` — combinational phase.  May read any signal and drive
  output signals.  Called repeatedly until the design settles; it must be
  idempotent (pure function of signal values and registered state).
* :meth:`Module.tick` — clock edge.  Updates registered state; may read
  signals but drives none (drives take effect next comb phase anyway).

Every module also declares its synthesis cost via :meth:`Module.resources`,
which feeds the Virtex-7 utilization model (claim C4 of the paper: "users
can compare design utilization and performance").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.signal import Signal


@dataclass(frozen=True)
class Resources:
    """Post-synthesis resource footprint of a module instance.

    Units match Xilinx report_utilization: LUTs, flip-flops, 36Kb block
    RAMs (fractional halves allowed for RAMB18), and DSP48 slices.
    """

    luts: int = 0
    ffs: int = 0
    brams: float = 0.0
    dsps: int = 0

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            brams=self.brams + other.brams,
            dsps=self.dsps + other.dsps,
        )

    def scaled(self, factor: float) -> "Resources":
        """Scale a footprint, e.g. for N-port replicated logic."""
        return Resources(
            luts=round(self.luts * factor),
            ffs=round(self.ffs * factor),
            brams=self.brams * factor,
            dsps=round(self.dsps * factor),
        )


class StateCell:
    """One device's decision-visible state, as a change signal.

    Everything a forwarding decision reads — lookup tables, port
    liveness, VLAN membership, the active flow-table bank — shares one
    cell per device, and the statement that changes any of it calls
    :meth:`bump`.  That moves :attr:`generation` (what
    ``state_generation()`` reads) *and* calls every watcher (how a
    :class:`~repro.testenv.topology.Network` learns which cached walks
    to drop), so no mutation can do one without the other.  A table
    built on its own gets a private cell; the lookup that owns it hands
    it the device's (``state=``).
    """

    __slots__ = ("generation", "watchers")

    def __init__(self) -> None:
        #: Monotonic: moves whenever the visible state changes, and only
        #: then — re-writing an identical entry is a semantic no-op and
        #: must not bump, or no cache above could stay warm on a
        #: learning switch.
        self.generation = 0
        self.watchers: list[Callable[[], Any]] = []

    def bump(self) -> None:
        self.generation += 1
        self.notify()

    def notify(self) -> None:
        """Tell the watchers alone: for a change that makes cached
        *walks* through the device stale but no cached decision of the
        device itself (a fault session coming or going)."""
        for watcher in self.watchers:
            watcher()


class Module:
    """Base class for all synthesizable datapath modules.

    Subclasses create their signals with :meth:`signal` and their child
    modules with :meth:`submodule`; the simulator walks the resulting tree.
    """

    def __init__(self, name: str):
        self.name = name
        self._signals: list[Signal] = []
        self._children: list[Module] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def signal(self, name: str, init: Any = 0) -> Signal:
        """Create and register a signal scoped to this module."""
        sig = Signal(f"{self.name}.{name}", init)
        self._signals.append(sig)
        return sig

    def adopt_signal(self, sig: Signal) -> Signal:
        """Register an externally created signal (e.g. a channel's) for tracing."""
        self._signals.append(sig)
        return sig

    def submodule(self, child: "Module") -> "Module":
        """Register a child module; returns it for assignment chaining."""
        self._children.append(child)
        return child

    # ------------------------------------------------------------------
    # Simulation interface (overridden by subclasses)
    # ------------------------------------------------------------------
    def comb(self) -> None:
        """Combinational phase.  Default: nothing to drive."""

    def tick(self) -> None:
        """Clock-edge phase.  Default: no registered state."""

    def resources(self) -> Resources:
        """Own resource cost, excluding children (see :meth:`total_resources`)."""
        return Resources()

    # ------------------------------------------------------------------
    # Tree walking
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth-first."""
        yield self
        for child in self._children:
            yield from child.walk()

    def all_signals(self) -> Iterator[Signal]:
        for module in self.walk():
            yield from module._signals

    def total_resources(self) -> Resources:
        """Aggregate resource cost of this module and all descendants."""
        total = Resources()
        for module in self.walk():
            total = total + module.resources()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
