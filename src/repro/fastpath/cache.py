"""The per-device microflow cache behind behavioural forwarding.

Between table mutations, a statically-programmed pipeline's forwarding
decision is a pure function of (ingress port, first 64 header bytes) —
the same observation behind microflow caches in Open vSwitch and the
fixed-function fast path of hybrid switch ASICs.  This module supplies
the cache the :meth:`ReferencePipeline.forward_behavioural` fast path
consults before running ``opl.decide``:

* **Exact-match**: the key is ``(src_port_bit, header[:64], len)``;
  there is no masking or flow classification, so a hit can simply
  replay the frozen decision.
* **Generation-based invalidation**: every table mutation — CAM
  learn/evict/static install, router route/ARP/filter writes, BlueSwitch
  flow installs, ``soft_reset``, resilience repairs, corrupting ctrl
  faults — bumps the device's :class:`~repro.core.module.StateCell`,
  a monotonic generation counter.  The cache stores the
  generation its entries were filled under and flushes wholesale the
  moment the device's current generation differs, so a stale decision
  can never be served (it is *lazy* invalidation: mutators never touch
  the cache directly).
* **Counter-delta replay**: a decision is more than its outputs — the
  slow path bumps ``opl`` counters (including bumps *inside* decide(),
  like the router's ``to_cpu``).  The fill listens to the deciding
  hop's journal (``OutputPortLookup.bump`` names every counter it
  moves) and a hit bumps the same names again, so telemetry, register
  reads and the fabric fingerprint are byte-identical with the cache on
  or off — and a miss copies no counter dict to find that out.
* **Fault bypass**: when a fault session with armed data-path sites is
  attached to the device, the fast path steps aside entirely so
  per-packet fault draws and ``FaultReport`` fingerprints keep their
  exact sequence.

Decisions that mutate state while deciding (a learning switch's *first*
sighting of a source MAC) are detected by re-reading the generation
after the slow path and are simply not cached — the next identical
packet re-learns as a no-op, decides pure, and fills the cache then.
"""

from __future__ import annotations

from typing import Any

#: Bound on resident entries per device; far above any test workload,
#: small enough that a pathological header sweep cannot hoard memory.
DEFAULT_CAPACITY = 8192


def session_has_datapath_sites(session: Any) -> bool:
    """True if ``session``'s plan arms sites on the per-packet data path.

    Link, DMA and output-queue faults are drawn per packet event, so a
    cache hit that skipped the slow path would desynchronise the draw
    sequence.  Control-plane sites (``ctrl``, ``mmio``) land through
    table writes and register reads — the generation counters already
    cover those — so a ctrl-only session does not force a bypass.
    """
    plan = getattr(session, "plan", None)
    if plan is None:
        return False
    return (getattr(plan, "link", None) is not None
            or getattr(plan, "dma", None) is not None
            or getattr(plan, "oq", None) is not None)


class MicroflowCache:
    """Exact-match decision cache for one device.

    ``entries`` maps ``(src_bit, header64, frame_len)`` to a frozen
    ``(ports, rewrites, note, drop, counters_bumped)`` tuple; the
    consulting pipeline owns the fill/replay logic, the cache owns
    bookkeeping and the generation the entries were filled under.
    """

    __slots__ = ("enabled", "capacity", "entries", "generation",
                 "hits", "misses", "invalidations", "bypasses")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.enabled = True
        self.capacity = capacity
        self.entries: dict[tuple, tuple] = {}
        #: Generation the resident entries were filled under; -1 means
        #: "never validated" (device generations are always >= 0).
        self.generation = -1
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.bypasses = 0

    def validate(self, generation: int) -> None:
        """Flush if the device's state moved since the entries were cut."""
        if generation != self.generation:
            if self.entries:
                self.invalidations += 1
                self.entries.clear()
            self.generation = generation

    def store(self, key: tuple, entry: tuple) -> None:
        if len(self.entries) >= self.capacity:
            # FIFO eviction: drop the oldest fill.
            del self.entries[next(iter(self.entries))]
        self.entries[key] = entry

    def clear(self) -> None:
        self.entries.clear()
        self.generation = -1

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "bypasses": self.bypasses,
            "entries": len(self.entries),
        }
