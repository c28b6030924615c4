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

**One path cache, three entry points.**  Between table mutations, the
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

**A walk depends on what it read, and the devices it visited tell.**
Nothing is polled: every device's decision-visible state hangs off one
:class:`~repro.core.module.StateCell`, the statement that changes a
table, a liveness bit or a fault session bumps it, and the bump adds the
device's name to this network's dirty set (:meth:`Network.add_device`
subscribes) — one ``set.add`` per *mutation*.
:meth:`Network.set_link_state` marks both cable ends the same way.
Each slow walk records what it read at each device it visited (see
:class:`_WalkDeps`) and an inverted index maps a device to the records
of the walks the table holds through it (the tag-based revalidation
Open vSwitch pairs with its megaflow cache).  An injection first asks
"is anything dirty" — on a hit that is the whole validation, with no
call into any device — and if so marks the walks through the dirty
devices *suspect*; a suspect walk is re-checked when next looked up and
leaves service only if something it read moved: a link cut costs the
walks that used the cable.  A slow walk during which anything turned
dirty (a switch learned) is not stored.  Only a change to the graph
itself (:meth:`Network.add_device`, :meth:`Network.link`) still forgets
everything, at once.

**One table of walks per class** (Open vSwitch's megaflow cache, with
its exact-match entries in front).  The table maps each key to its
entry: a *class* of frames that no lookup can tell apart, which holds
the walks it has met — at most :data:`PARK_DEPTH` retired ones beside
the one that serves.  When the serving walk fails its re-check it
retires (the newest retired is last) and the class chooses again,
newest first: a retired walk that a mutation marked since is checked
as the serving one was, and the first that holds serves again
(``path_revived``); a walk whose check failed and that nothing has
marked since is passed over without a call.  Being a function of what
it read, a walk a cut retired is good again once all of that reads as
it did, so a repair costs no slow walk.  Only if no walk holds is one
walked and added to the class.  A key, once entered, stays: a cut
drops nothing, and only capacity (FIFO over keys, the oldest key's
whole class at once) or a graph change takes keys out.  A walk that
serves one key only — a stamped INT frame's, a rewriting one's — is a
class of one, filed under that key.

**Walks are shared across frames the fabric cannot tell apart** (the
microflow → megaflow step of Open vSwitch).  Every lookup declares what
its ``decide()`` may read of a frame
(:meth:`~repro.cores.output_port_lookup.OutputPortLookup.header_reads`:
a learning switch the two MAC addresses, a router everything) and the
network ORs the declarations of its devices.  A class is keyed in the
same table ``(device, port, frame bits under that mask, frame length as
far as any lookup tells)``, and only a *frame-preserving* walk joins
it — cacheable as above and every copy it forwarded or delivered
byte-equal to the injected frame, so no rewrite: then each lookup on
the way saw exactly the injected frame, would decide the same for any
frame of the class and hand that one on unchanged too.  The class keeps
that walk with no frame in its deliveries (``None`` there means "what
you injected"), so it *is* the walk of every frame of the class: a
plain frame's key is entered with its class as its whole entry and
replays whatever walk serves it (``path_shared`` counts the keys that
joined a walk they did not take) — no walk object per key, and no
bytes of one flow to hand to another.  The slow walk runs for the
first frame of a class only, each time no walk of the class holds.

**INT frames share by host pair too.**  Every hop stamps an INT frame,
but only into its *hop stack* (the slots, the hop-count byte and the
overflow bit, :mod:`repro.int.codec`), outside the header window, and
what it stamps is a function of the path alone.  So the walk of an
*unstamped* INT frame is a template when every copy equals the
injected frame outside the hop stack; its class key adds the trailer
geometry (``max_hops``), so plain and INT frames of one pair never
share a walk.  The class keeps each delivered copy's recorded stamp
bytes and nothing else — no headers, flow id, sequence or direction
bit of the flow that walked — and an INT key's entry is its class, its
hop-slot offset and one walk of its own whose deliveries are the key's
frame with those stamps spliced in, spliced again only when the class
serves another walk.  A frame already stamped, or a runt that merely
ends in the magic, is a class of one.  A fabric in which some lookup
reads the whole header window has no classes to share.

**One lookup, three entry points.**  Each entry point looks a key up
through :meth:`Network._lookup`, written once: mark the walks through
dirty devices suspect, take the key's entry (or enter the key under
its class), take the walk its class serves (re-checked if suspect,
chosen again if it fails), then replay it ``count`` times.  The entry
points differ only in ``count`` and in what a miss costs:

* :meth:`Network.inject` is the per-packet entry (``count`` 1): on a
  miss it takes the slow walk and stores it.  The engine sends through
  it what the counted entry declined and, with ``batch=False`` (the
  per-packet reference tests and the benchmark run), every packet;
  :meth:`Network.pingall` and the shell's ``inject`` use it, and
  :meth:`Network.inject_many` is it in a loop.
* :meth:`Network.inject_batch` is the counted entry (``count`` n), and
  the fabric engine's only one with ``batch`` on, a single packet
  included: deltas applied as ``count * delta``, and the frozen walk
  handed back as the per-packet outcome template — no per-packet
  objects, and (deliberately) no entries in the :attr:`deliveries`
  log, which is a debugging aid, not a fingerprinted observable.  It
  never walks: on a miss it returns ``None`` and the caller falls back
  to one :meth:`inject`, which warms the walk for the next attempt.
* :meth:`Network.warm_paths` is the set-up entry (``count`` 0): on a
  miss it takes a dry walk inside :meth:`Network.sandbox` and stores
  it, so the engine's first counted offer already hits.

The path cache is the only flow cache: each hop of a slow walk decides
afresh (``forward_behavioural``).  ``set_fastpath(False)`` turns it
off for A/B runs — then every injection walks — and the ``-m
fastpath`` suite asserts the fingerprints agree.  Its counters are
:meth:`Network.fastpath_stats`, mirrored into telemetry by
:func:`repro.telemetry.probes.probe_fastpath` and printed by ``nf-mon
fabric`` (``--no-fastpath`` is the switch).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.core.metadata import NUM_PHYS_PORTS, all_phys_ports_mask
from repro.cores.output_port_lookup import (
    READS_EVERYTHING,
    READS_NOTHING,
    HeaderReads,
)
from repro.int.codec import HEADER_BYTES as _INT_HEADER
from repro.int.codec import HEADER_WINDOW as _INT_WINDOW
from repro.int.codec import HOP_BYTES as _INT_HOP
from repro.int.codec import MAGIC as _INT_MAGIC
from repro.int.codec import OVERFLOW as _INT_OVERFLOW
from repro.int.codec import set_seq as _int_set_seq
from repro.projects.base import PortRef, ReferencePipeline

#: cpu_handler(frame, phys_port_index) -> [(phys_port_index, frame), ...]
CpuHandler = Callable[[bytes, int], list[tuple[int, bytes]]]

#: Default bound on forwarding hops for one injected packet (and all the
#: copies flooding creates).  Generous for real topologies, small enough
#: to terminate a broadcast storm quickly.
DEFAULT_HOP_LIMIT = 64

#: Bound on the keys a network's path cache holds (FIFO eviction).
PATH_CACHE_CAPACITY = 8192

#: Bound on the retired walks one class keeps (the least recently
#: retired goes first).
PARK_DEPTH = 8


def _int_region(frame: bytes) -> Optional[int]:
    """Where an *unstamped* INT frame's hop slots start, else ``None``.

    Unstamped: no hop counted, no overflow flag, and the whole trailer
    clear of the header window the lookups read.  Only such a frame's
    walk can serve another frame's: every stamp it collects lands in
    the hop stack (the slots, the hop-count byte and the overflow bit),
    and what is stamped there is a function of the path alone.
    """
    if len(frame) < _INT_HEADER or frame[-8] or frame[-7] & _INT_OVERFLOW:
        return None
    slots = len(frame) - _INT_HEADER - frame[-6] * _INT_HOP
    return slots if slots >= _INT_WINDOW else None


def _carrying(walk: "_CachedWalk", deliveries: tuple) -> "_CachedWalk":
    """``walk`` with other deliveries (a class's twin, or an INT key's
    splice of it), sharing the rest — its record too."""
    return _CachedWalk(deliveries, walk.dropped_hop_limit,
                       walk.dropped_link_down, walk.forwarded, walk.ops,
                       walk.deps, walk.link_down_sites, walk.hop_limit_sites)


def _splice_stack(frame: bytes, slots: int, stack: bytes) -> bytes:
    """``frame`` with a recorded hop stack written into it.

    ``stack`` is what a class's walk stamped into one delivered copy:
    its filled slots, then its hop-count and flags bytes.  Of the flags
    only the overflow bit is the walk's; the rest (the direction bit)
    stay ``frame``'s own.
    """
    filled = len(stack) - 2
    return (frame[:slots] + stack[:filled] + frame[slots + filled:-8]
            + bytes((stack[-2], frame[-7] | stack[-1] & _INT_OVERFLOW))
            + frame[-6:])


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
    a class shares — the copy delivered is whichever frame went in —
    and in an INT class's entry the stamp bytes the copy collected
    (see :func:`_splice_stack`), never handed out as they stand."""

    at: Attachment
    frame: Optional[bytes]
    hops: int


class _WalkDeps:
    """What one slow walk depends on: what it read at each device.

    Indexed per device, so a mutation finds exactly the records it may
    have stalled; the twin a class keeps and every INT key's splice of
    it share the walk's record.  ``reads`` has, per name in
    ``devices``, ``(table generation, the ports its decisions read or
    sent onto, liveness, link bits)`` (lookup and port table can
    disagree), which must still hold, with no data-path fault session
    armed, for the walk to replay; the three masks hold TUSER
    ``port.bit`` values, not port indices.  ``cables`` are the
    canonical ``(device_a, device_b)`` pairs behind the read port bits,
    filled on first ask (:meth:`Network.cables_read`; the graph cannot
    change under a held walk, as a graph change forgets every walk).
    """

    __slots__ = ("devices", "reads", "cables")

    def __init__(self, devices: tuple[str, ...], reads: tuple[tuple, ...]):
        self.devices, self.reads, self.cables = devices, reads, None


class _WalkClass:
    """The walks that serve one class of keys (see the module docstring).

    ``walks`` are the walks the class has met: retired ones in the order
    they retired, at most :data:`PARK_DEPTH` of them, then the one in
    ``serving`` (``None`` while none holds).  ``key``
    is the class key it is filed under, ``None`` for a class of one
    (filed under its only key); ``keys`` are the exact keys entered
    under it.
    """

    __slots__ = ("key", "keys", "walks", "serving")

    def __init__(self, key: Optional[tuple]):
        self.key = key
        self.keys, self.walks, self.serving = [], [], None


@dataclass(frozen=True, slots=True, eq=False)
class _CachedWalk:
    """A finished injection, frozen for replay.

    The loss fields are named as :class:`InjectionResult` names them, so
    a walk doubles as one packet's outcome template
    (:meth:`Network.inject_batch` returns it as such).  ``ops`` carries
    each visited device's counter delta
    ``(opl, packets, drops, ((counter, delta), ...))`` — the names its
    journal collected during the walk, counted; the site tuples
    localize where the walk's losses happened, ``((device, port), ...)``.
    ``template`` marks a recorded *frame-preserving* walk: every copy
    it forwarded or delivered is byte-equal to the injected frame — an
    unstamped INT frame's: equal outside the hop stack — so less those
    frames (an INT walk: less all but their stamps) it is the walk of
    every frame of the class (see the module docstring) and
    :meth:`Network._store` files that twin under the class.  ``deps``
    is the slow walk's dependency record, and the twin's.
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
        #: ``(exit Attachment, peer Attachment or None)``.
        self._ports: dict[str, list[tuple]] = {}
        #: Cable state: per device, the TUSER bits of its ports with link.
        self._link_up: dict[str, int] = {}
        # Path cache (see the module docstring for the invariants).
        self.path_cache_enabled = True
        #: The one table: an exact key's entry is its class (an INT
        #: key's: ``(class, hop-slot offset, its splice)``), a class key's
        #: the class itself.
        self._path_cache: dict[tuple, object] = {}
        #: How many of the table's keys are class keys.
        self._classes = 0
        #: Devices whose decision state (or cabling) moved since the
        #: last :meth:`_mark_dirty`; each device's state cell adds its
        #: name here, once per mutation.
        self._dirty: set[str] = set()
        #: The inverted index: device -> records of the walks the
        #: classes hold (retired ones too) that visited it.
        self._dependents: dict[str, set[_WalkDeps]] = {}
        #: Records through a device gone dirty since their last check.
        self._suspect: set[_WalkDeps] = set()
        #: What the devices' lookups read of a frame between them,
        #: OR-ed as they join; ``None`` once some lookup reads the whole
        #: window and no two frames share a class.
        self._reads: Optional[HeaderReads] = READS_NOTHING
        self.path_hits = self.path_misses = self.path_shared = 0
        self.path_invalidations = self.path_dropped = 0
        self.path_revalidated = self.path_revived = self.path_bypasses = 0
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
        self._ports[name] = [(Attachment(name, PortRef("phys", i)), None)
                             for i in range(NUM_PHYS_PORTS)]
        self._link_up[name] = all_phys_ports_mask()
        if self._path_cache:  # the graph changed: flush
            self._flush()
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
        self._ports[a_device][a_port] = (a, b)
        self._ports[b_device][b_port] = (b, a)
        if self._path_cache:  # the graph changed: flush
            self._flush()

    def edge_ports(self, device: str) -> list[PortRef]:
        """The device's un-cabled physical ports (host attachment points)."""
        self.device(device)
        return [exit_at.port for exit_at, peer in self._ports[device]
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
            for index, (_, peer) in enumerate(self._ports[device])
            if peer is not None
        }

    def links(self) -> Iterator[tuple[Attachment, Attachment]]:
        """Every cable once, ends ordered by (device, port)."""
        for rows in self._ports.values():
            for a, b in rows:
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
        walk that visited either is re-checked before it next replays
        (one that sent onto the cable goes), and walks that went
        nowhere near the cable are not even looked at.

        Returns True if any cable's state changed; raises
        :class:`TopologyError` when the devices share no cable.
        """
        changed = False
        link_up = self._link_up
        for a, b in self._cables(a_device, b_device):
            # Read live: a looped cable's second row finds its work done.
            if up == bool(link_up[a.device] & a.port.bit):
                continue  # already in the requested state
            changed = True
            for end in (a, b):
                bit = end.port.bit
                link_up[end.device] = link_up[end.device] & ~bit | up * bit
                self._devices[end.device].set_port_state(end.port.index, up)
                self._dirty.add(end.device)
        return changed

    def link_is_up(self, a_device: str, b_device: str) -> bool:
        """Whether every cable between the two devices has link."""
        return all(self._link_up[a_device] & a.port.bit
                   for a, _ in self._cables(a_device, b_device))

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
        accounted rather than silent.  The fabric engine sends a run's
        head here when :meth:`inject_batch` declines it, and with
        ``batch=False`` every packet.

        While the path cache is enabled, a memoized walk for the same
        (device, port, frame) — or the one its class shares, recorded
        for a frame no lookup in the fabric can tell from this one — is
        replayed instead of re-forwarded: deliveries (of the caller's
        own bytes), loss accounting, per-device counters.  Mutations
        mark their device dirty; here, first thing, the walks through
        dirty devices are marked suspect, and a suspect walk is
        re-checked against what it read before it replays.  On a hit
        of an unmarked walk no device is called at all.

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
            key = (device, port, frame)
            walk = self._lookup(key, 1)
            if walk is not None:
                self.path_hits += 1
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

        The counted entry to the path cache: look the walk up (re-check
        it if a mutation marked it), apply its effects ``count`` times.
        Returns the frozen walk — one packet's outcome template
        (``deliveries`` — a ``None`` frame there stands for ``frame``
        itself — plus the :class:`InjectionResult` loss fields);
        the aggregate effect on per-device counters and loss accounting
        is byte-identical to ``count`` sequential :meth:`inject` calls
        of the same frame.  Returns ``None``, having carried nothing, when
        there is no valid walk to replay: the cache is off, the key's
        class holds no walk that still reads as it did (never walked,
        or something every walk of it read has moved since), or the
        walk is uncacheable (CPU handlers, armed datapath faults, a
        lookup that is not ``CACHEABLE``).  The caller then injects one
        packet the per-packet way, which warms the walk for the next
        call.

        Counted replays do *not* append to the :attr:`deliveries` log —
        the log is a per-packet debugging aid, not a fingerprinted
        observable, and materializing ``count`` entries would defeat
        the point.
        """
        if count < 1:
            raise ValueError("batch count must be >= 1")
        if not self.path_cache_enabled:
            return None
        walk = self._lookup((device, port, frame), count)
        if walk is None:
            self._batch["cold_misses"] += 1
            return None
        self._batch["replays"] += 1
        self._batch["replayed_packets"] += count
        return walk

    def warm_paths(
        self, injections: Iterable[tuple[str, int, bytes]]
    ) -> int:
        """Populate the path cache by sandboxed dry walks (S27 prewarm).

        Walks each ``(device, port, frame)`` once inside
        :meth:`sandbox` — every fingerprinted counter is restored, so
        warming carries no packet — and stores the cacheable walks.
        A frame whose class already serves a frame-preserving walk is
        not walked at all: its key joins that walk, which is neither a
        dry walk nor a path miss (``path_shared`` counts it).
        A later :meth:`inject` or :meth:`inject_batch` of the same key
        then replays without ever taking the slow walk: this is what
        moves a flow's warm-up cost out of the dispatch loop and into
        setup.

        Returns the number of keys it entered or walked again (a key
        whose class serves a valid walk stores nothing).  Stops early
        if a walk mutates decision state (a learning device — the same
        caveat as :meth:`sandbox`): anything turned dirty means
        already-recorded walks may be stale.
        """
        if not self.path_cache_enabled:
            return 0
        compiled = self._batch["compiled"]
        with self.sandbox():
            for key in injections:
                if self._lookup(key, 0) is not None:
                    continue
                # A dry walk is still a slow walk taken: it counts as a
                # path miss (operational stats move, like pingall's).
                self.path_misses += 1
                _, walk = self._walk(*key, record=True)
                if self._dirty:
                    break
                if walk is not None:
                    self._store(key, walk)
        warmed = self._batch["compiled"] - compiled  # walked or joined
        self._batch["prewarmed"] += warmed
        return warmed

    def cables_read(self, device: str, port: int, frame: bytes,
                    ) -> Optional[frozenset[tuple[str, str]]]:
        """The cables the valid walk of ``(device, port, frame)`` read,
        as canonical ``(device_a, device_b)`` pairs (ends ordered as
        :meth:`links` orders them): until one of them changes state, the
        walk's outcome cannot change.  ``None`` when there is no walk to
        ask (a cold miss, or the cache is off and empty).

        The walk is looked up as a warm-up looks it up (entered,
        re-checked or chosen again, and replayed zero times), so ask
        after the link state moved, never before.  A cable counts when
        the port bit at either of its ends is in what that end's device
        read.
        """
        walk = self._lookup((device, port, frame), 0)
        if walk is None:
            return None
        deps = walk.deps
        if deps.cables is None:
            deps.cables = frozenset({
                tuple(sorted((name, peer.device)))
                for name, (_, mask, _, _) in zip(deps.devices, deps.reads)
                for exit_at, peer in self._ports[name]
                if peer is not None and mask & exit_at.port.bit})
        return deps.cables

    # -- the path cache -------------------------------------------------
    def _mark_dirty(self) -> None:
        """Mark the walks through every device gone dirty suspect."""
        for device in self._dirty:
            self._suspect.update(self._dependents.get(device, ()))
        self._dirty.clear()

    def _holds(self, deps: _WalkDeps) -> bool:
        """Whether everything a walk read still reads as it did."""
        for name, (tables, mask, live, links) in zip(deps.devices, deps.reads):
            project = self._devices[name]
            opl = project.opl
            if (project.datapath_faults is not None
                    or opl.state.generation - opl.liveness_flips != tables
                    or (opl.port_liveness ^ live) & mask
                    or (self._link_up[name] ^ links) & mask):
                return False
        return True

    def _serve(self, cls: _WalkClass) -> Optional[_CachedWalk]:
        """The walk that serves ``cls`` now, ``None`` if none holds.

        Asked when the serving walk is suspect, or there is none.  The
        class chooses among its walks newest first, the serving one (it
        is kept last) before the retired ones: a walk that a mutation
        marked since its last check is checked again, and the first that
        holds serves, moved to the back; a serving walk that fails
        retires where it stands, the newest retired, and a retired one
        whose check failed and that nothing has marked since is passed
        over without a call.
        """
        suspect, walks, serving = self._suspect, cls.walks, cls.serving
        cls.serving = None
        for walk in reversed(walks):
            deps = walk.deps
            if deps in suspect:
                suspect.discard(deps)
                if self._holds(deps):
                    self.path_revalidated += 1
                    if walk is not serving:
                        self.path_revived += 1
                        walks.remove(walk)
                        walks.append(walk)
                    cls.serving = walk
                    return walk
                self.path_invalidations += walk is serving
        return None

    def _unindex(self, deps: _WalkDeps) -> None:
        self._suspect.discard(deps)
        for device in deps.devices:
            self._dependents[device].discard(deps)

    def _evict(self, keep: Optional[_WalkClass], capacity: int) -> None:
        """Take keys out, FIFO, until fewer than ``capacity`` are left:
        the oldest key leaves with every key of its class, and the class
        with its walks — unless it is ``keep``, the class a new key is
        joining, which only goes to the back of the queue."""
        cache = self._path_cache
        while cache and len(cache) - self._classes >= capacity:
            entry = next(iter(cache.values()))
            cls = entry[0] if entry.__class__ is tuple else entry
            for key in cls.keys:
                del cache[key]
            self.path_dropped += len(cls.keys)
            cls.keys.clear()
            if cls.key is not None:
                del cache[cls.key]
                if cls is keep:
                    cache[cls.key] = cls
                    continue
                self._classes -= 1
            self.path_invalidations += cls.serving is not None
            for walk in cls.walks:
                self._unindex(walk.deps)

    def _flush(self) -> None:
        """Forget every key and every walk at once."""
        self._evict(None, 0)

    def _store(self, key: tuple, walk: _CachedWalk) -> None:
        """File a slow walk as the one that serves ``key``'s class.

        A frame-preserving walk joins the class of the frames no lookup
        tells from this one, as a twin that names no frame (an INT
        class's: what each copy got stamped), and an INT key keeps the
        walk itself as its splice.  Any other walk is a class of one,
        filed under ``key`` (which leaves a shared class for it).  The
        class keeps the walks it met, indexed, to :data:`PARK_DEPTH`
        retired ones.
        """
        cache = self._path_cache
        entry = cache.get(key)
        cls = entry[0] if entry.__class__ is tuple else entry
        if cls is not None and cls.key is not None and not walk.template:
            cls.keys.remove(key)  # walked apart from its class
            del cache[key]
            cls = None
        self._batch["compiled"] += 1
        device, port, frame = key
        class_key = slots = None
        if walk.template and self._reads is not None and (
                cls is None or cls.key is not None):
            class_key = (device, port, *self._reads.key(frame))
            if frame[-4:] == _INT_MAGIC:  # unstamped, or no template
                slots = _int_region(frame)
                class_key += (frame[-6],)
        if cls is None:  # a new key: joins its class, or makes one
            cls = cache.get(class_key)
            if len(cache) - self._classes >= PATH_CACHE_CAPACITY:
                self._evict(cls, PATH_CACHE_CAPACITY)
            if cls is None:
                cls = _WalkClass(class_key)
                if class_key is not None:
                    cache[class_key] = cls
                    self._classes += 1
            cls.keys.append(key)
        cache[key] = cls if slots is None else (cls, slots, walk)
        if class_key is not None:
            # The class's walk names no frame, no flow's bytes to hand
            # out: an INT class keeps what each copy got stamped only.
            walk = _carrying(walk, tuple(_WalkDelivery(
                d.at, None if slots is None else (
                    d.frame[slots:slots + _INT_HOP * d.frame[-8]]
                    + d.frame[-8:-6]), d.hops) for d in walk.deliveries))
        cls.walks.append(walk)
        cls.serving = walk
        deps = walk.deps
        for name in deps.devices:
            self._dependents.setdefault(name, set()).add(deps)
        if len(cls.walks) > PARK_DEPTH + 1:
            self._unindex(cls.walks.pop(0).deps)

    def _lookup(self, key: tuple, count: int) -> Optional[_CachedWalk]:
        """The valid walk for ``key``, replayed ``count`` times; ``None``
        if there is none.  Every entry point looks up through here.

        First the walks through devices gone dirty are marked suspect.
        A key not in the table is entered under its class, keyed
        ``(device, port, what the lookups read of the frame)``: every
        lookup on the way decides for this frame as it did for the one
        that walked and hands it on as it did, so the class's walk is
        this frame's walk (:attr:`path_shared`).  Then the walk the
        key's class serves is taken — re-checked if suspect, and chosen
        again among the class's walks if it fails (:meth:`_serve`).  A
        plain key replays it as it stands; an INT key replays its own
        splice, this frame with each copy's recorded stamps written in,
        made again only when its class serves another walk.

        The replay moves every counter as ``count`` identical
        injections would (``0``: a warm-up, nothing moves).  Entering a
        key and the replay are written inline, not called: either would
        be one more call per packet.
        """
        if self._dirty:
            self._mark_dirty()
        cache = self._path_cache
        entry = cache.get(key)
        if entry is None:
            if not self._classes:
                return None
            # A new device flushes every walk, so the declarations the
            # classes were keyed under still stand (and allow sharing).
            device, port, frame = key
            walk = slots = None
            if frame[-4:] != _INT_MAGIC:
                cls = cache.get((device, port, *self._reads.key(frame)))
            elif (slots := _int_region(frame)) is not None:
                # The trailer's geometry: never a plain frame's class.
                cls = cache.get((device, port, *self._reads.key(frame),
                                 frame[-6]))
            else:
                return None  # stamped already, or a runt: its own class
            if cls is None:
                return None
        elif entry.__class__ is tuple:  # an INT key
            cls, slots, walk = entry
        else:
            cls, slots = entry, None
        serving = cls.serving
        if serving is None or self._suspect and serving.deps in self._suspect:
            serving = self._serve(cls)
            if serving is None:
                return None
        if entry is None:  # the key joins the walk its class serves
            if len(cache) - self._classes >= PATH_CACHE_CAPACITY:
                self._evict(cls, PATH_CACHE_CAPACITY)
            cls.keys.append(key)
            cache[key] = cls
            self._batch["compiled"] += 1
            self.path_shared += 1
        if slots is None:
            walk = serving
        elif walk is None or walk.deps is not serving.deps:
            walk = _carrying(serving, tuple(_WalkDelivery(
                d.at, _splice_stack(key[2], slots, d.frame), d.hops)
                for d in serving.deliveries))
            cache[key] = (cls, slots, walk)
        if count:
            for opl, packets, drops, deltas in walk.ops:
                opl.packets += packets * count
                opl.drops += drops * count
                counters = opl.counters
                for name, delta in deltas:
                    counters[name] = counters.get(name, 0) + delta * count
            self.dropped_hop_limit += walk.dropped_hop_limit * count
            self.dropped_link_down += walk.dropped_link_down * count
            self.forwarded_hops += walk.forwarded * count
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
        :attr:`_CachedWalk.ops` — no counter dict is copied or diffed —
        and keeps what the walk read there (see :class:`_WalkDeps`).
        It returns ``None`` (uncacheable) when the walk punted a copy to
        a CPU handler (arbitrary software state), touched a device with
        an armed data-path fault session (whose draws must stay
        per-packet) or one whose lookup is not ``CACHEABLE`` (hidden
        per-packet state).
        """
        cacheable = template = record
        # An INT frame is stamped at every hop: its walk is a template
        # when the copies equal it outside the hop stack, from ``slots``
        # to the trailer header at ``header`` plus two header bits, and
        # only an unstamped frame's can be.
        slots = None
        if record and frame[-4:] == _INT_MAGIC:
            slots = _int_region(frame)
            template = slots is not None
            header = len(frame) - _INT_HEADER
        devices, cpus, hop_limit = self._devices, self._cpu, self.hop_limit
        tables, link_up = self._ports, self._link_up
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
                    opl.port_reads = 0
                    visited[name] = (opl, opl.packets, opl.drops, journal)
                    if (project.datapath_faults is not None
                            or not opl.CACHEABLE):
                        cacheable = False
                outputs = project.forward_behavioural(data, at.port)
                if name in cpus and any(p.kind == "dma" for p, _ in outputs):
                    cacheable = False  # software state: arbitrary
                    outputs = self._cpu_detour(project, cpus[name], outputs)
                ports, up = tables[name], link_up[name]
                for out_port, out_frame in outputs:
                    if out_port.kind != "phys":
                        continue  # punted with no software attached: dropped
                    if template and out_frame != frame and (
                            slots is None
                            or out_frame[:slots] != frame[:slots]
                            or out_frame[header:-8] != frame[header:-8]
                            or (out_frame[-7] ^ frame[-7]) & ~_INT_OVERFLOW
                            or out_frame[-6:] != frame[-6:]):
                        template = False  # rewritten on the way
                    forwarded += 1
                    exit_at, peer = ports[out_port.index]
                    if peer is None:
                        delivered.append(Delivery(exit_at, out_frame, hops))
                    elif not up & out_port.bit:
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
        ops = reads = ()  # grown by concatenation: no call per device
        for name, (opl, packets, drops, journal) in visited.items():
            deltas: dict[str, int] = {}
            for counter in journal:
                deltas[counter] = deltas.get(counter, 0) + 1
            ops += ((opl, opl.packets - packets, opl.drops - drops,
                     tuple(deltas.items())),)
            reads += ((opl.state.generation - opl.liveness_flips,
                       opl.port_reads, opl.port_liveness, link_up[name]),)
        walk = _CachedWalk(
            deliveries=tuple(_WalkDelivery(d.at, d.frame, d.hops)
                             for d in delivered),
            dropped_hop_limit=result.dropped_hop_limit,
            dropped_link_down=result.dropped_link_down,
            forwarded=forwarded,
            ops=ops,
            deps=_WalkDeps(tuple(visited), reads),
            link_down_sites=result.link_down_sites,
            hop_limit_sites=result.hop_limit_sites,
            template=template,
        )
        return result, walk

    # -- fast-path control & stats --------------------------------------
    def set_fastpath(self, enabled: bool) -> None:
        """Enable/disable the path cache — the A/B toggle behind
        ``RunConfig.fastpath`` and ``nf-mon fabric --no-fastpath``."""
        self.path_cache_enabled = enabled
        if not enabled:
            self._flush()

    @property
    def path_entries(self) -> int:
        """The exact keys in the table (its class keys aside)."""
        return len(self._path_cache) - self._classes

    def batch_stats(self) -> dict[str, int]:
        """The counted entry's operational counters (never fingerprinted).

        ``compiled`` — walks stored in the cache (a stored walk *is* the
        replayable form) and keys entered under a walk they did not take;
        ``entries`` — keys in the table now (with no link moving,
        ``compiled - entries`` is what evictions took); ``replays``
        / ``replayed_packets`` — :meth:`inject_batch` calls that
        replayed and the packets they carried; ``cold_misses`` — calls
        that found no valid walk and declined; ``prewarmed`` — walks
        stored by :meth:`warm_paths` before any packet flew.
        """
        return {**self._batch, "entries": self.path_entries}

    def fastpath_stats(self) -> dict[str, int]:
        """The path cache's counters.

        ``path_misses`` counts slow walks taken, ``path_shared`` the keys
        that joined a walk they did not take instead; ``path_hits`` the
        walks :meth:`inject` replays (a shared one too): the per-packet
        reference's and callers' outside the engine — with ``batch`` on
        the engine replays through :meth:`inject_batch` instead.
        ``path_revalidated`` counts the re-checks a suspect walk (a device
        it visited changed) passed, ``path_invalidations`` the serving
        walks that left service — failing their check, or evicted or
        forgotten with their class — and ``path_dropped`` every key that
        left the table, on a capacity eviction or a graph change (a cut
        drops none); ``path_revived`` the retired walks that served
        again instead of a slow walk, everything they read holding again
        (a repair)."""
        return {
            "path_hits": self.path_hits,
            "path_misses": self.path_misses,
            "path_invalidations": self.path_invalidations,
            "path_dropped": self.path_dropped,
            "path_revalidated": self.path_revalidated,
            "path_revived": self.path_revived,
            "path_bypasses": self.path_bypasses,
            "path_shared": self.path_shared,
            "path_entries": self.path_entries,
            # Retired with the per-device decision cache: 0 by
            # construction, kept only while the bench spec names them.
            "device_hits": 0,
            "device_misses": 0,
        }

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
                saved_opl.append((opl, opl.packets, opl.drops,
                                  dict(opl.counters)))
        saved = (len(self.deliveries), self.dropped_hop_limit,
                 self.dropped_link_down, self.forwarded_hops)
        try:
            yield self
        finally:
            for opl, packets, drops, counters in saved_opl:
                opl.packets, opl.drops = packets, drops
                opl.counters.clear()
                opl.counters.update(counters)
            del self.deliveries[saved[0]:]
            (self.dropped_hop_limit, self.dropped_link_down,
             self.forwarded_hops) = saved[1:]

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
                up = self._link_up[name]
                for exit_at, peer in self._ports[name]:
                    if (peer is None or not up & exit_at.port.bit
                            or peer.device in seen):
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
    def describe(self) -> str:
        lines = [f"network: {len(self._devices)} devices, "
                 f"{len(list(self.links()))} links"]
        for name, project in sorted(self._devices.items()):
            cabled = [f"{exit_at.port}->{peer.device}"
                      for exit_at, peer in self._ports[name]
                      if peer is not None]
            lines.append(f"  {name} ({type(project).__name__}): "
                         f"{', '.join(sorted(cabled)) or 'no links'}")
        return "\n".join(lines)
