"""Multi-device network topologies over the behavioural target.

§1 motivates NetFPGA with datacenter-scale evaluation: experiments need
*networks* of devices, not single boards.  :class:`Network` wires any
number of project instances together by their physical ports and
propagates packets hop by hop using each device's behavioural
forwarding — with per-device CPU slow paths, edge-host attachment and a
hop limit standing in for TTL on L2 storms.  The cabling is kept as one
small port table per device (port → exit attachment, peer, link state):
a hop indexes it, and so does every graph and link-state query.

The model is transaction-level: one injected packet is carried to
quiescence before the next (the same semantics as the ``hw`` harness
target, extended across devices).

:meth:`Network.inject` returns an :class:`InjectionResult` — a list of
the deliveries the injection produced that also carries the number of
in-flight copies the hop limit truncated, so broadcast-storm clamping is
observable per injection (and cumulatively via
:attr:`Network.dropped_hop_limit`) instead of silently vanishing.

**One path cache, two entry points.**  Between table mutations, the
entire hop walk of an injection is a pure function of (entry attachment,
frame): the network memoizes finished walks — deliveries, losses and the
per-device counter deltas they caused, read off the journal each visited
lookup keeps while the walk listens
(:meth:`~repro.cores.output_port_lookup.OutputPortLookup.bump`) — in one
``(device, port, frame)`` table.  A walk is only cached when it touched
no CPU handler, no device with armed data-path faults or a lookup that
is not ``CACHEABLE``, and mutated no table; replays apply the recorded counter deltas so
per-device statistics (and the fabric fingerprint built from them) are
byte-identical cached or not.

**A walk depends on the devices it visited, and they tell.**  Nothing is
polled: every device's decision-visible state hangs off one
:class:`~repro.core.module.StateCell`, the statement that changes a
table, a liveness bit or a fault session bumps it, and the bump adds the
device's name to this network's dirty set (:meth:`Network.add_device`
subscribes) — one ``set.add`` per *mutation*.
:meth:`Network.set_link_state` marks both cable ends the same way.
Each slow walk records the devices it visited and an inverted index
maps a device to the records of the resident walks through it (the
tag-based revalidation Open vSwitch pairs with its megaflow cache).  An
injection first asks "is anything dirty" — on a hit that is the whole
validation, with no call into any device — and if so drops exactly the
walks through the dirty devices, from both tables, leaving every other
walk resident: a link cut costs the walks that visited either end, not
the table.  A slow walk during which anything turned dirty (a switch
learned) is not stored.  Only a change to the graph itself
(:meth:`Network.add_device`, :meth:`Network.link`) still flushes
everything.

**Walks are shared across frames the fabric cannot tell apart** (the
microflow → megaflow step of Open vSwitch).  Every lookup declares what
its ``decide()`` may read of a frame
(:meth:`~repro.cores.output_port_lookup.OutputPortLookup.header_reads`:
a learning switch the two MAC addresses, a router everything) and the
network ORs the declarations of its devices.  Beside the exact table
sits a *class* table keyed ``(device, port, frame bits under that mask,
frame length as far as any lookup tells)``.  It holds a walk only when
the walk was *frame-preserving* — cacheable as above and every copy it
forwarded or delivered byte-equal to the injected frame, so no rewrite
and no INT stamp: then each lookup on the way saw exactly the injected
frame, would decide the same for any frame of the class and hand that
one on unchanged too.  The class's entry is that walk with no frame in
its deliveries (``None`` there means "what you injected"), so it *is*
the walk of every frame of the class: on an exact-key miss a class hit
stores that one object under the exact key too and carries on as a hit
(``path_shared`` counts these) — a table entry per derived key, not a
walk object, and no bytes of one flow to hand to another.  The slow
walk runs for the first frame of a class only, and every key of a class
shares one dependency record, so they leave together.
INT frames never touch the class table, and a fabric in which some
lookup reads the whole header window has no classes to share.

* :meth:`Network.inject` is the per-packet entry: replay a valid walk
  or take the slow walk and store it (:meth:`Network.inject_many` is
  that in a loop).
* :meth:`Network.inject_batch` is the counted entry: replay a valid walk
  ``count`` times in one pass (deltas applied as ``count * delta``) and
  hand back the frozen walk as the per-packet outcome template — no
  per-packet objects, and (deliberately) no entries in the
  :attr:`deliveries` log, which is a debugging aid, not a fingerprinted
  observable.  It never walks: with no valid walk it returns ``None``
  and the caller falls back to one :meth:`inject`, which warms the walk
  for the next attempt.

``set_fastpath(False)`` turns the path cache *and* every device's
microflow cache off for A/B runs.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.core.metadata import NUM_PHYS_PORTS
from repro.cores.output_port_lookup import (
    READS_EVERYTHING,
    READS_NOTHING,
    HeaderReads,
)
from repro.int.codec import MAGIC as _INT_MAGIC
from repro.int.codec import set_seq as _int_set_seq
from repro.projects.base import PortRef, ReferencePipeline

#: cpu_handler(frame, phys_port_index) -> [(phys_port_index, frame), ...]
CpuHandler = Callable[[bytes, int], list[tuple[int, bytes]]]

#: Default bound on forwarding hops for one injected packet (and all the
#: copies flooding creates).  Generous for real topologies, small enough
#: to terminate a broadcast storm quickly.
DEFAULT_HOP_LIMIT = 64

#: Bound on memoized hop walks per network (FIFO eviction).
PATH_CACHE_CAPACITY = 8192


@dataclass(frozen=True)
class Attachment:
    """A device port: ``("s1", PortRef("phys", 2))``."""

    device: str
    port: PortRef


@dataclass
class Delivery:
    """A packet that exited the network at an edge port."""

    at: Attachment
    frame: bytes
    hops: int


class _WalkDelivery(NamedTuple):
    """A :class:`Delivery` frozen into a cached walk (same field names,
    so one loop can account either); ``frame`` is ``None`` in the walk
    a class shares — the copy delivered is whichever frame went in."""

    at: Attachment
    frame: Optional[bytes]
    hops: int


class _WalkDeps:
    """What one slow walk depends on: the devices it visited.

    Shared by every walk derived from it (a derived key costs one list
    append, not an index entry of its own) and indexed per device, so a
    mutation finds exactly the table entries it invalidates:
    ``keys`` are the record's exact-table keys, ``class_key`` its
    class-table key while the walk serves as a template.
    """

    __slots__ = ("devices", "keys", "class_key")

    def __init__(self, devices: tuple[str, ...]):
        self.devices = devices
        self.keys: list[tuple] = []
        self.class_key: Optional[tuple] = None


@dataclass(frozen=True, slots=True)
class _CachedWalk:
    """A finished injection, frozen for replay.

    The loss fields are named as :class:`InjectionResult` names them, so
    a walk doubles as one packet's outcome template
    (:meth:`Network.inject_batch` returns it as such).  ``ops`` carries
    each visited device's counter delta
    ``(opl, packets, drops, ((counter, delta), ...))`` — the names its
    journal collected during the walk, counted; the site tuples
    localize where the walk's losses happened, ``((device, port), ...)``.
    ``template`` marks a recorded *frame-preserving* walk of a frame
    with no INT trailer: every copy it forwarded or delivered is
    byte-equal to the injected frame, so less those frames it is the
    walk of every frame of the class (see the module docstring) and
    :meth:`Network._store` enters that twin in the class table.
    ``deps`` is the slow walk's dependency record, and the twin's.
    """

    deliveries: tuple[_WalkDelivery, ...]
    dropped_hop_limit: int
    dropped_link_down: int
    forwarded: int
    ops: tuple
    deps: _WalkDeps
    link_down_sites: tuple = ()
    hop_limit_sites: tuple = ()
    template: bool = False

    def replay(self, network: "Network", count: int) -> None:
        """Move every counter as ``count`` identical injections would."""
        for opl, packets, drops, deltas in self.ops:
            opl.packets += packets * count
            opl.drops += drops * count
            counters = opl.counters
            for name, delta in deltas:
                counters[name] = counters.get(name, 0) + delta * count
        network.dropped_hop_limit += self.dropped_hop_limit * count
        network.dropped_link_down += self.dropped_link_down * count
        network.forwarded_hops += self.forwarded * count


class TopologyError(RuntimeError):
    """Bad wiring: unknown device, port reuse, self-links."""


@dataclass(frozen=True)
class Ping:
    """One probe's outcome in a :meth:`Network.pingall` sweep.

    ``copies`` counts deliveries at the *intended* destination
    attachment (a healthy unicast fabric delivers exactly one);
    ``stray`` counts deliveries anywhere else (flooding or
    misforwarding); ``hops`` is the first delivered copy's hop count.
    """

    delivered: bool
    hops: int
    copies: int
    stray: int


class InjectionResult(list):
    """The deliveries of one injection, plus what the hop limit ate.

    Behaves exactly like the ``list[Delivery]`` :meth:`Network.inject`
    always returned (so existing callers are untouched) and additionally
    exposes :attr:`dropped_hop_limit` — the number of in-flight copies
    this injection lost to the hop limit, the per-injection slice of the
    network-wide :attr:`Network.dropped_hop_limit` counter — and
    :attr:`dropped_link_down`, the copies that went out onto a cable
    whose link is administratively down and vanished on the wire.

    The counts are localized too: :attr:`link_down_sites` and
    :attr:`hop_limit_sites` name *where* each lost copy left the graph,
    as ``(device, port)`` egress tuples in walk order (one entry per
    lost copy, so ``len(link_down_sites) == dropped_link_down``).  The
    INT collector uses them to attribute receiver-observed loss to the
    exact drop site instead of declaring a blackhole.
    """

    __slots__ = (
        "dropped_hop_limit", "dropped_link_down",
        "hop_limit_sites", "link_down_sites",
    )

    def __init__(
        self, deliveries=(), dropped_hop_limit: int = 0, dropped_link_down: int = 0,
        hop_limit_sites: tuple = (), link_down_sites: tuple = (),
    ):
        list.__init__(self, deliveries)
        self.dropped_hop_limit = dropped_hop_limit
        self.dropped_link_down = dropped_link_down
        self.hop_limit_sites = hop_limit_sites
        self.link_down_sites = link_down_sites


class Network:
    """A set of devices, point-to-point links, and edge ports."""

    def __init__(self, hop_limit: int = DEFAULT_HOP_LIMIT):
        self.hop_limit = hop_limit
        self._devices: dict[str, ReferencePipeline] = {}
        self._cpu: dict[str, CpuHandler] = {}
        self.deliveries: list[Delivery] = []
        self.dropped_hop_limit = 0
        self.dropped_link_down = 0
        self.forwarded_hops = 0
        #: The port tables: per device, for physical port ``i``,
        #: ``(exit Attachment, peer Attachment or None, link is up)``.
        self._ports: dict[str, list[tuple]] = {}
        # Path cache (see the module docstring for the invariants).
        self.path_cache_enabled = True
        self._path_cache: dict[tuple, _CachedWalk] = {}
        self._class_cache: dict[tuple, _CachedWalk] = {}
        #: Devices whose decision state (or cabling) moved since the
        #: last :meth:`_drop_dirty`; each device's state cell adds its
        #: name here, once per mutation.
        self._dirty: set[str] = set()
        #: The inverted index: device -> records of the resident walks
        #: that visited it.
        self._dependents: dict[str, set[_WalkDeps]] = {}
        #: What the devices' lookups read of a frame between them,
        #: OR-ed as they join; ``None`` once some lookup reads the whole
        #: window and no two frames share a class.
        self._reads: Optional[HeaderReads] = READS_NOTHING
        self.path_hits = 0
        self.path_misses = 0
        self.path_invalidations = 0
        self.path_dropped = 0
        self.path_bypasses = 0
        self.path_shared = 0
        #: What :meth:`batch_stats` reports, less the resident count.
        self._batch = dict.fromkeys(
            ("compiled", "replays", "replayed_packets", "cold_misses",
             "prewarmed"), 0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_device(
        self,
        name: str,
        project: ReferencePipeline,
        cpu_handler: Optional[CpuHandler] = None,
    ) -> ReferencePipeline:
        if name in self._devices:
            raise TopologyError(f"duplicate device name {name!r}")
        opl = getattr(project, "opl", None)
        if opl is not None:
            # INT identity: insertion order.  Builders add devices in a
            # deterministic order, so every shard replica of a topology
            # assigns the same ids and stamps parse identically.
            opl.int_device_id = len(self._devices)
            opl.state.watchers.append(partial(self._dirty.add, name))
            if self._reads is not None:
                reads = self._reads | opl.header_reads()
                self._reads = (None if reads.mask == READS_EVERYTHING.mask
                               else reads)
        self._devices[name] = project
        self._ports[name] = [(Attachment(name, PortRef("phys", i)), None, True)
                             for i in range(NUM_PHYS_PORTS)]
        self._dirty.update(self._devices)  # the graph changed: flush all
        if cpu_handler is not None:
            self._cpu[name] = cpu_handler
        return project

    def device(self, name: str) -> ReferencePipeline:
        if name not in self._devices:
            raise TopologyError(f"unknown device {name!r}")
        return self._devices[name]

    def link(self, a_device: str, a_port: int, b_device: str, b_port: int) -> None:
        """Connect two physical ports with a full-duplex cable."""
        a = Attachment(a_device, PortRef("phys", a_port))
        b = Attachment(b_device, PortRef("phys", b_port))
        for end in (a, b):
            if end.device not in self._devices:
                raise TopologyError(f"unknown device {end.device!r}")
            if self._ports[end.device][end.port.index][1] is not None:
                raise TopologyError(f"port {end} already cabled")
        if a == b:
            raise TopologyError("cannot cable a port to itself")
        self._ports[a_device][a_port] = (a, b, True)
        self._ports[b_device][b_port] = (b, a, True)
        self._dirty.update(self._devices)  # the graph changed: flush all

    def edge_ports(self, device: str) -> list[PortRef]:
        """The device's un-cabled physical ports (host attachment points)."""
        self.device(device)
        return [exit_at.port for exit_at, peer, _ in self._ports[device]
                if peer is None]

    # ------------------------------------------------------------------
    # Graph introspection (what the fabric builders walk)
    # ------------------------------------------------------------------
    def device_names(self) -> list[str]:
        """All device names, sorted (the graph's vertex set)."""
        return sorted(self._devices)

    def neighbors(self, device: str) -> dict[int, tuple[str, int]]:
        """``{local_port: (peer_device, peer_port)}`` for one device."""
        self.device(device)
        return {
            index: (peer.device, peer.port.index)
            for index, (_, peer, _) in enumerate(self._ports[device])
            if peer is not None
        }

    def links(self) -> Iterator[tuple[Attachment, Attachment]]:
        """Every cable once, ends ordered by (device, port)."""
        for rows in self._ports.values():
            for a, b, _ in rows:
                if b is None:
                    continue  # an edge port
                if (a.device, a.port.index) < (b.device, b.port.index):
                    yield a, b

    def int_directory(self) -> dict[int, str]:
        """INT device id → device name (the stamp receiver's rosetta)."""
        out = {}
        for name, project in self._devices.items():
            opl = getattr(project, "opl", None)
            if opl is not None:
                out[opl.int_device_id] = name
        return out

    # ------------------------------------------------------------------
    # Link state (data-plane failure model)
    # ------------------------------------------------------------------
    def set_link_state(self, a_device: str, b_device: str, up: bool) -> bool:
        """Set link state on every cable between two devices.

        Models pulling (or re-seating) the fibre: both end devices see
        loss of light — their per-port liveness bitmaps flip — and
        frames sent onto a down cable vanish on the wire (counted in
        :attr:`dropped_link_down`).  Both end devices are marked dirty
        here, whatever their lookups make of liveness: every cached
        walk that visited either is dropped before the next injection
        (one that sent onto the cable necessarily did), and walks that
        went nowhere near the cable stay resident.

        Returns True if any cable's state changed; raises
        :class:`TopologyError` when the devices share no cable.
        """
        changed = False
        for a, b, was_up in self._cables(a_device, b_device):
            if up == was_up:
                continue  # already in the requested state
            changed = True
            for end, peer in ((a, b), (b, a)):
                self._ports[end.device][end.port.index] = (end, peer, up)
                self._devices[end.device].set_port_state(end.port.index, up)
                self._dirty.add(end.device)
        return changed

    def link_is_up(self, a_device: str, b_device: str) -> bool:
        """Whether every cable between the two devices has link."""
        return all(up for _, _, up in self._cables(a_device, b_device))

    def _cables(self, a_device: str, b_device: str) -> list[tuple]:
        """``a_device``'s port-table rows that are cabled to ``b_device``."""
        self.device(a_device)
        cables = [row for row in self._ports[a_device]
                  if row[1] is not None and row[1].device == b_device]
        if not cables:
            self.device(b_device)
            raise TopologyError(f"no cable between {a_device!r} and {b_device!r}")
        return cables

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def inject(
        self, device: str, port: int, frame: bytes,
        int_seq: Optional[int] = None,
    ) -> InjectionResult:
        """Carry one packet (and every copy it spawns) to quiescence.

        Returns an :class:`InjectionResult`: the deliveries this
        injection produced (also appended to :attr:`deliveries`) plus the
        count of copies the hop limit truncated, so storm clamping is
        accounted rather than silent.

        While the path cache is enabled, a memoized walk for the same
        (device, port, frame) — or the one its class shares, recorded
        for a frame no lookup in the fabric can tell from this one — is
        replayed instead of re-forwarded: deliveries (of the caller's
        own bytes), loss accounting, per-device counters.  A walk is
        resident only while no
        device it visited has changed: mutations mark their device
        dirty, and the walks through dirty devices are dropped here,
        first thing.  On a hit no device is called at all.

        ``int_seq`` is the INT sequence-number substitution hook: the
        caller injects the flow's sequence-zero *template* (so every
        packet of the flow shares one cache key and one memoized walk)
        and the per-packet sequence is written into the delivered frames
        here, after the walk — the frozen cached walk keeps the template
        bytes.  Non-INT frames ignore it.
        """
        if not self.path_cache_enabled:
            result = self._walk(device, port, frame, record=False)[0]
        else:
            if self._dirty:
                self._drop_dirty()
            key = (device, port, frame)
            walk = self._path_cache.get(key)
            if walk is None and self._class_cache:
                walk = self._derive(key)
            if walk is not None:
                self.path_hits += 1
                walk.replay(self, 1)
                # Fresh deliveries: Delivery is mutable, the walk is shared.
                result = InjectionResult(
                    starmap(Delivery, walk.deliveries),
                    walk.dropped_hop_limit, walk.dropped_link_down,
                    walk.hop_limit_sites, walk.link_down_sites,
                )
                for delivery in result:
                    if delivery.frame is None:  # the class's walk: ours
                        delivery.frame = frame
                self.deliveries += result
            else:
                self.path_misses += 1
                result, walk = self._walk(device, port, frame, record=True)
                if walk is None:
                    self.path_bypasses += 1
                elif not self._dirty:  # else it changed what walks read
                    self._store(key, walk)
        if int_seq is not None:
            for delivery in result:
                delivery.frame = _int_set_seq(delivery.frame, int_seq)
        return result

    def inject_many(
        self, injections: Iterable[tuple[str, int, bytes]]
    ) -> list[InjectionResult]:
        """Inject a sequence; returns one :class:`InjectionResult` each
        — :meth:`inject` in a loop (a hit validates nothing that a
        batch could amortize)."""
        return [self.inject(device, port, frame)
                for device, port, frame in injections]

    def inject_batch(
        self, device: str, port: int, frame: bytes, count: int,
    ) -> Optional[_CachedWalk]:
        """Replay ``count`` identical injections in one pass.

        The counted entry to the path cache: drop what a mutation made
        stale, look the walk up, apply its effects ``count`` times.
        Returns the frozen walk — one packet's outcome template
        (``deliveries`` — a ``None`` frame there stands for ``frame``
        itself — plus the :class:`InjectionResult` loss fields);
        the aggregate effect on per-device counters and loss accounting
        is byte-identical to ``count`` sequential :meth:`inject` calls
        of the same frame.  Returns ``None``, having carried nothing, when
        there is no valid walk to replay: the cache is off, neither the
        walk nor one to derive it from is resident (never walked, or a
        device it visited has changed since), or it is uncacheable (CPU
        handlers, armed datapath faults, a lookup that is not
        ``CACHEABLE``).  The caller then injects one packet the
        per-packet way, which warms the walk for the next call.

        Counted replays do *not* append to the :attr:`deliveries` log —
        the log is a per-packet debugging aid, not a fingerprinted
        observable, and materializing ``count`` entries would defeat
        the point.
        """
        if count < 1:
            raise ValueError("batch count must be >= 1")
        if not self.path_cache_enabled:
            return None
        if self._dirty:
            self._drop_dirty()
        key = (device, port, frame)
        walk = self._path_cache.get(key)
        if walk is None and self._class_cache:
            walk = self._derive(key)
        if walk is None:
            self._batch["cold_misses"] += 1
            return None
        self._batch["replays"] += 1
        self._batch["replayed_packets"] += count
        walk.replay(self, count)
        return walk

    def warm_paths(
        self, injections: Iterable[tuple[str, int, bytes]]
    ) -> int:
        """Populate the path cache by sandboxed dry walks (S27 prewarm).

        Walks each ``(device, port, frame)`` once inside
        :meth:`sandbox` — every fingerprinted counter is restored, so
        warming carries no packet — and stores the cacheable walks.
        A frame whose class already has a frame-preserving walk is not
        walked at all: its walk is derived from that one, which is
        neither a dry walk nor a path miss (``path_shared`` counts it).
        A later :meth:`inject` or :meth:`inject_batch` of the same key
        then replays without ever taking the slow walk: this is what
        moves a flow's warm-up cost out of the dispatch loop and into
        setup.

        Returns the number of walks cached, walked or derived.  Stops
        early if a walk mutates decision state (a learning device — the
        same caveat as :meth:`sandbox`): anything turned dirty means
        already-recorded walks may be stale.
        """
        if not self.path_cache_enabled:
            return 0
        if self._dirty:
            self._drop_dirty()
        warmed = 0
        with self.sandbox():
            for device, port, frame in injections:
                key = (device, port, frame)
                if key in self._path_cache:
                    continue
                if self._class_cache and self._derive(key) is not None:
                    warmed += 1
                    continue
                # A dry walk is still a slow walk taken: it counts as a
                # path miss (operational stats move, like pingall's).
                self.path_misses += 1
                _, walk = self._walk(device, port, frame, record=True)
                if self._dirty:
                    break
                if walk is not None:
                    self._store(key, walk)
                    warmed += 1
        self._batch["prewarmed"] += warmed
        return warmed

    def run(self, traffic: list[tuple[str, int, bytes]]) -> list[Delivery]:
        """Inject a sequence of ``(device, port, frame)``; returns all
        deliveries in order."""
        self.inject_many(traffic)
        return self.deliveries

    # -- the path cache -------------------------------------------------
    def _drop_dirty(self) -> None:
        """Drop every walk that visited a device marked dirty since the
        last call — from both tables, and nothing else."""
        dropped = 0
        for device in self._dirty:
            records = self._dependents.get(device)
            while records:
                dropped += self._drop(records.pop())
        self._dirty.clear()
        if dropped:
            self.path_invalidations += 1
            self.path_dropped += dropped

    def _drop(self, deps: _WalkDeps) -> int:
        """Forget one slow walk and the walks derived from it; returns
        the table entries that took.  The record is left empty, as new."""
        for device in deps.devices:
            self._dependents[device].discard(deps)
        dropped = len(deps.keys)
        for key in deps.keys:
            del self._path_cache[key]
        deps.keys.clear()
        if deps.class_key is not None:
            del self._class_cache[deps.class_key]
            deps.class_key = None
            dropped += 1
        return dropped

    def _store(self, key: tuple, walk: _CachedWalk) -> None:
        if len(self._path_cache) >= PATH_CACHE_CAPACITY:
            # FIFO eviction: the oldest walk goes, and with it the rest
            # of its record (every key in a record is resident, so the
            # class table needs no bound of its own).
            self._drop(next(iter(self._path_cache.values())).deps)
        self._path_cache[key] = walk
        self._batch["compiled"] += 1
        deps = walk.deps
        if not deps.keys:  # new — or just evicted from under a derivation
            for device in deps.devices:
                self._dependents.setdefault(device, set()).add(deps)
        deps.keys.append(key)
        if walk.template and self._reads is not None:
            device, port, frame = key
            deps.class_key = (device, port, *self._reads.key(frame))
            # The class's walk names no frame: no flow's bytes to hand out.
            self._class_cache[deps.class_key] = _CachedWalk(
                tuple(_WalkDelivery(d.at, None, d.hops)
                      for d in walk.deliveries),
                walk.dropped_hop_limit, walk.dropped_link_down,
                walk.forwarded, walk.ops, deps,
                walk.link_down_sites, walk.hop_limit_sites,
            )  # template=False: the class has its entry

    def _derive(self, key: tuple) -> Optional[_CachedWalk]:
        """On an exact-key miss, enter the key under its class's walk.

        The class table holds one frame-preserving walk per ``(device,
        port, what the lookups read of the frame)``.  Every lookup on
        the way decides for this frame as it did for the recorded one
        and hands it on unchanged, and the class's walk names no frame:
        it is this frame's walk as it stands.  The same object is
        stored under the exact key and counted in :attr:`path_shared`;
        the caller carries on as if the exact lookup had hit.
        """
        device, port, frame = key
        if frame[-4:] == _INT_MAGIC:
            return None  # every hop stamps it: never frame-preserving
        # Callers drop stale walks first (a new device makes all of them
        # stale), so a filled class table means the declarations it was
        # keyed under still stand (and allow sharing).
        class_key = (device, port, *self._reads.key(frame))
        walk = self._class_cache.get(class_key)
        if walk is not None:
            self._store(key, walk)
            if walk.deps.class_key is None:
                # Evicted from under its own store: live again, class too.
                walk.deps.class_key = class_key
                self._class_cache[class_key] = walk
            self.path_shared += 1
        return walk

    @staticmethod
    def _cpu_detour(project: ReferencePipeline, cpu: CpuHandler, outputs):
        """Punt a hop's DMA copies to the device's software.

        The handler sees every copy before any reply is forwarded; each
        reply then re-enters the device through its DMA queue, and what
        the device makes of it stands where the copy stood.
        """
        handled = []
        for out_port, out_frame in outputs:
            if out_port.kind == "dma":
                handled += [(PortRef("dma", egress), reply) for egress, reply
                            in cpu(out_frame, out_port.index)]
            else:
                handled.append((out_port, out_frame))
        outputs = []
        for out_port, out_frame in handled:
            if out_port.kind == "dma":
                outputs += project.forward_behavioural(out_frame, out_port)
            else:
                outputs.append((out_port, out_frame))
        return outputs

    def _walk(
        self, device: str, port: int, frame: bytes, record: bool
    ) -> tuple[InjectionResult, Optional[_CachedWalk]]:
        """The slow hop walk; optionally records a replayable walk.

        Each hop is one ``forward_behavioural`` and one port-table row
        per output; deliveries, losses and ``forwarded_hops`` are booked
        once, at the end.  Recording hangs a journal on each lookup as
        the walk first reaches it and counts the names into
        :attr:`_CachedWalk.ops` — no counter dict is copied or diffed.
        It returns ``None`` (uncacheable) when the walk punted a copy to
        a CPU handler (arbitrary software state), touched a device with
        an armed data-path fault session (whose draws must stay
        per-packet) or one whose lookup is not ``CACHEABLE`` (hidden
        per-packet state).
        """
        cacheable = record
        # An INT frame is stamped at every hop: it neither makes nor
        # takes a template (the four tail bytes are the whole test, so
        # the INT-only hot path pays no call for it).
        template = record and frame[-4:] != _INT_MAGIC
        devices, tables, cpus = self._devices, self._ports, self._cpu
        hop_limit = self.hop_limit
        delivered: list[Delivery] = []
        link_down_sites: list[tuple[str, int]] = []
        hop_limit_sites: list[tuple[str, int]] = []
        forwarded = 0
        #: device -> (opl, its packets and drops on arrival, its journal)
        visited: dict[str, tuple] = {}
        work: deque[tuple[Attachment, bytes, int]] = deque(
            [(Attachment(device, PortRef("phys", port)), frame, 1)]
        )
        self.device(device)  # every later one is a port-table peer
        try:
            while work:
                at, data, hops = work.popleft()
                name = at.device
                project = devices[name]
                if record and name not in visited:
                    opl = project.opl
                    opl.journal = journal = []
                    visited[name] = (opl, opl.packets, opl.drops, journal)
                    if (project.datapath_faults is not None
                            or not opl.CACHEABLE):
                        cacheable = False
                outputs = project.forward_behavioural(data, at.port)
                if name in cpus and any(p.kind == "dma" for p, _ in outputs):
                    cacheable = False  # software state: arbitrary
                    outputs = self._cpu_detour(project, cpus[name], outputs)
                ports = tables[name]
                for out_port, out_frame in outputs:
                    if out_port.kind != "phys":
                        continue  # punted with no software attached: dropped
                    if template and out_frame != frame:
                        template = False  # rewritten on the way
                    forwarded += 1
                    exit_at, peer, up = ports[out_port.index]
                    if peer is None:
                        delivered.append(Delivery(exit_at, out_frame, hops))
                    elif not up:
                        # The copy went out onto a cable with link down:
                        # it vanishes on the wire, never reaching the peer.
                        link_down_sites.append((name, out_port.index))
                    elif hops >= hop_limit:
                        hop_limit_sites.append((name, out_port.index))
                    else:
                        work.append((peer, out_frame, hops + 1))
        finally:
            for opl, _, _, _ in visited.values():
                opl.journal = None
        result = InjectionResult(
            delivered, len(hop_limit_sites), len(link_down_sites),
            tuple(hop_limit_sites), tuple(link_down_sites),
        )
        self.deliveries += delivered
        self.dropped_hop_limit += result.dropped_hop_limit
        self.dropped_link_down += result.dropped_link_down
        self.forwarded_hops += forwarded
        if not cacheable:
            return result, None
        ops = []
        for opl, packets, drops, journal in visited.values():
            deltas: dict[str, int] = {}
            for counter in journal:
                deltas[counter] = deltas.get(counter, 0) + 1
            ops.append((opl, opl.packets - packets, opl.drops - drops,
                        tuple(deltas.items())))
        walk = _CachedWalk(
            deliveries=tuple(_WalkDelivery(d.at, d.frame, d.hops)
                             for d in delivered),
            dropped_hop_limit=result.dropped_hop_limit,
            dropped_link_down=result.dropped_link_down,
            forwarded=forwarded,
            ops=tuple(ops),
            deps=_WalkDeps(tuple(visited)),
            link_down_sites=result.link_down_sites,
            hop_limit_sites=result.hop_limit_sites,
            template=template,
        )
        return result, walk

    # -- fast-path control & stats --------------------------------------
    def set_fastpath(self, enabled: bool) -> None:
        """Enable/disable the path cache and every device's microflow
        cache in one switch — the A/B toggle behind
        ``RunConfig.fastpath`` and ``nf-mon fabric --no-fastpath``."""
        self.path_cache_enabled = enabled
        if not enabled:
            self._path_cache.clear()
            self._class_cache.clear()
            self._dependents.clear()
        for project in self._devices.values():
            cache = getattr(project, "fastpath", None)
            if cache is not None:
                cache.enabled = enabled
                if not enabled:
                    cache.clear()

    @property
    def path_entries(self) -> int:
        return len(self._path_cache)

    def batch_stats(self) -> dict[str, int]:
        """The counted entry's operational counters (never fingerprinted).

        ``compiled`` — walks stored in the cache (a stored walk *is* the
        replayable form); ``entries`` — walks resident now; ``replays``
        / ``replayed_packets`` — :meth:`inject_batch` calls that
        replayed and the packets they carried; ``cold_misses`` — calls
        that found no valid walk and declined; ``prewarmed`` — walks
        stored by :meth:`warm_paths` before any packet flew.
        """
        return {**self._batch, "entries": len(self._path_cache)}

    def fastpath_stats(self) -> dict[str, int]:
        """Aggregate flow-cache counters: path cache + device caches.

        ``path_misses`` counts slow walks taken, ``path_shared`` the
        walks derived from another frame's instead; a derived walk that
        :meth:`inject` goes on to replay is a ``path_hits`` as well.
        ``path_invalidations`` counts the mutation events that dropped
        at least one resident walk and ``path_dropped`` the entries
        (exact and class table) they dropped between them: their ratio,
        held against ``path_entries``, is how selective invalidation
        was."""
        stats = {
            "path_hits": self.path_hits,
            "path_misses": self.path_misses,
            "path_invalidations": self.path_invalidations,
            "path_dropped": self.path_dropped,
            "path_bypasses": self.path_bypasses,
            "path_shared": self.path_shared,
            "path_entries": self.path_entries,
            "device_hits": 0,
            "device_misses": 0,
            "device_invalidations": 0,
            "device_bypasses": 0,
            "device_entries": 0,
        }
        for project in self._devices.values():
            cache = getattr(project, "fastpath", None)
            if cache is None:
                continue
            stats["device_hits"] += cache.hits
            stats["device_misses"] += cache.misses
            stats["device_invalidations"] += cache.invalidations
            stats["device_bypasses"] += cache.bypasses
            stats["device_entries"] += len(cache.entries)
        return stats

    # ------------------------------------------------------------------
    # Probes: observing the live network without perturbing it
    # ------------------------------------------------------------------
    @contextmanager
    def sandbox(self):
        """Run probe traffic without moving any fingerprinted counter.

        Snapshots every observable the fabric report is built from —
        per-device packet/drop/counter totals, the delivery log,
        hop-limit / link-down losses and forwarded hops — and restores
        them on exit, so a mid-run ``pingall`` (or any other probe
        injection) leaves the run's fingerprint byte-identical to a run
        that never probed.  Only *counters* are restored, not tables:
        probes through learning devices would still teach them, so
        probing is meant for statically-programmed fabrics
        (``learning=False``), which is what the fabric builders make.
        Cache statistics are operational (never fingerprinted) and are
        deliberately left moving.
        """
        saved_opl = []
        for project in self._devices.values():
            opl = getattr(project, "opl", None)
            if opl is not None:
                saved_opl.append(
                    (opl, opl.packets, opl.drops, dict(opl.counters))
                )
        saved_deliveries = len(self.deliveries)
        saved_hop = self.dropped_hop_limit
        saved_link = self.dropped_link_down
        saved_fwd = self.forwarded_hops
        try:
            yield self
        finally:
            for opl, packets, drops, counters in saved_opl:
                opl.packets = packets
                opl.drops = drops
                opl.counters.clear()
                opl.counters.update(counters)
            del self.deliveries[saved_deliveries:]
            self.dropped_hop_limit = saved_hop
            self.dropped_link_down = saved_link
            self.forwarded_hops = saved_fwd

    def reachability_matrix(self) -> dict[str, frozenset[str]]:
        """Graph-level reachability: BFS over cables with link up.

        ``{device: frozenset(devices reachable from it, itself
        included)}``.  This is *potential* connectivity — which
        components the live cabling forms — independent of what the
        forwarding tables would actually do; :meth:`pingall` is the
        data-plane truth to compare against.
        """
        out: dict[str, frozenset[str]] = {}
        for start in self.device_names():
            seen = {start}
            work = deque([start])
            while work:
                name = work.popleft()
                for _, peer, up in self._ports[name]:
                    if peer is None or not up or peer.device in seen:
                        continue
                    seen.add(peer.device)
                    work.append(peer.device)
            out[start] = frozenset(seen)
        return out

    def pingall(
        self,
        endpoints: dict[str, Attachment],
        frame_for: Callable[[str, str], bytes],
    ) -> dict[tuple[str, str], Ping]:
        """Probe every ordered endpoint pair through the data plane.

        ``endpoints`` names the attachment points (host label →
        :class:`Attachment`); ``frame_for(src, dst)`` builds the probe
        frame for one pair.  Each probe is a real :meth:`inject` — it
        exercises the actual forwarding tables, caches included — but
        the whole sweep runs inside :meth:`sandbox`, so no fingerprinted
        observable moves.  Returns ``{(src, dst): Ping}`` for every
        ordered pair with ``src != dst``.
        """
        out: dict[tuple[str, str], Ping] = {}
        with self.sandbox():
            for src in sorted(endpoints):
                for dst in sorted(endpoints):
                    if src == dst:
                        continue
                    entry = endpoints[src]
                    want = endpoints[dst]
                    result = self.inject(
                        entry.device, entry.port.index, frame_for(src, dst)
                    )
                    copies = [d for d in result if d.at == want]
                    out[(src, dst)] = Ping(
                        delivered=bool(copies),
                        hops=copies[0].hops if copies else 0,
                        copies=len(copies),
                        stray=len(result) - len(copies),
                    )
        return out

    # ------------------------------------------------------------------
    def delivered_at(self, device: str, port: int) -> list[bytes]:
        want = Attachment(device, PortRef("phys", port))
        return [d.frame for d in self.deliveries if d.at == want]

    def describe(self) -> str:
        lines = [f"network: {len(self._devices)} devices, "
                 f"{len(list(self.links()))} links"]
        for name, project in sorted(self._devices.items()):
            cabled = [f"{exit_at.port}->{peer.device}"
                      for exit_at, peer, _ in self._ports[name]
                      if peer is not None]
            lines.append(f"  {name} ({type(project).__name__}): "
                         f"{', '.join(sorted(cabled)) or 'no links'}")
        return "\n".join(lines)
