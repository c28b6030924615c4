"""The generic output-port-lookup (OPL) engine.

Every reference project differs from the others almost entirely in this
one stage (§3's modularity story): the NIC, the learning switch and the
IPv4 router are the same pipeline with a different OPL dropped in.  This
module implements the shared machinery — header accumulation, the
decision point, header rewriting, TUSER update, drop handling — and
subclasses supply a single :meth:`decide` method.

Timing model: the engine releases nothing until it has either
``HEADER_WINDOW`` bytes or TLAST, then streams cut-through.  With the
256-bit datapath that is a two-beat decision latency, matching the
reference OPL's parser+lookup pipeline depth.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.core.axis import AxiStreamBeat, AxiStreamChannel
from repro.core.metadata import NUM_PHYS_PORTS, all_phys_ports_mask, phys_port_bit
from repro.core.module import Module, Resources, StateCell
from repro.int.codec import stamp as _int_stamp

#: ``int_device_id`` before the device joins a network — stamps still
#: work on standalone devices, they just carry the sentinel id.
INT_UNASSIGNED_DEVICE_ID = 0xFFFF

#: Header bytes retained for the decision (see header_parser.HEADER_WINDOW).
HEADER_WINDOW = 64
#: Elastic buffer bound, in beats, between input and output.
ENGINE_BUFFER_BEATS = 128


class HeaderReads(NamedTuple):
    """What a lookup's ``decide()`` may read of a frame.

    A promise to the network's path cache
    (:mod:`repro.testenv.topology`): two frames with equal
    :meth:`key` get the same :class:`Decision`, the same counter bumps
    and the same table writes from this lookup, so one cold walk can
    serve both.  ``mask`` has bit ``8 * i + b`` set when bit ``b`` of
    header byte ``i`` may be read (:func:`header_bytes` builds it);
    ``length`` is how many leading bytes the lookup tells present from
    absent — frames at least that long look alike to it, and
    :data:`FRAME_LENGTH` says it reads the length itself.  Declarations
    OR together into what a whole fabric reads.
    """

    mask: int
    length: int

    def __or__(self, other: "HeaderReads") -> "HeaderReads":
        return HeaderReads(self.mask | other.mask,
                           max(self.length, other.length))

    def key(self, frame: bytes) -> tuple[int, int]:
        """Everything of ``frame`` the declaring lookups can see."""
        # Little-endian puts byte i at bits 8i.., whatever the length.
        return (int.from_bytes(frame[:HEADER_WINDOW], "little") & self.mask,
                min(len(frame), self.length))


def header_bytes(start: int, stop: int) -> int:
    """The :class:`HeaderReads` mask of header bytes ``start:stop``."""
    return ((1 << 8 * (stop - start)) - 1) << 8 * start


#: ``HeaderReads.length`` of a lookup that reads the frame length.
FRAME_LENGTH = sys.maxsize
#: The declaration of a lookup that has not narrowed it.
READS_EVERYTHING = HeaderReads(header_bytes(0, HEADER_WINDOW), FRAME_LENGTH)
#: The declaration of a lookup that decides from TUSER alone.
READS_NOTHING = HeaderReads(0, 0)


@dataclass
class Decision:
    """What the lookup decided for one packet."""

    tuser: int
    rewrites: dict[int, bytes] = field(default_factory=dict)
    drop: bool = False
    note: str = "ok"


class OutputPortLookup(Module):
    """Base OPL: buffer header → ``decide()`` → rewrite → stream out.

    ``DECISION_LATENCY_CYCLES`` models the depth of the concrete
    lookup's pipeline (parser → table walk → action resolution): the
    packet's release is held that many cycles after the decision point.
    The reference designs differ here — the NIC's fixed mapping is
    nearly free while the router's LPM+ARP+checksum chain is the deepest
    — and experiment E3 reports exactly this difference.
    """

    DECISION_LATENCY_CYCLES = 2

    #: Whether ``decide()`` is a pure function of (header, TUSER) and the
    #: lookup's *table* state.  The microflow fast path
    #: (:mod:`repro.fastpath`) only caches decisions of lookups that
    #: declare this; lookups with hidden per-packet state (e.g. the
    #: firewall's SYN-flood detector) set it False and always take the
    #: slow path.
    CACHEABLE = True

    def __init__(self, name: str, s_axis: AxiStreamChannel, m_axis: AxiStreamChannel):
        super().__init__(name)
        self.s_axis = s_axis
        self.m_axis = m_axis
        self._held: list[AxiStreamBeat] = []  # beats awaiting the decision
        self._header = bytearray()
        self._first_tuser = 0
        self._decided = False
        self._dropping = False
        self._rewrites: dict[int, bytes] = {}
        self._out_tuser = 0
        self._in_offset = 0  # byte offset of the next input beat
        self._out_offset = 0  # byte offset of the next emitted beat
        self._emit: deque[AxiStreamBeat] = deque()
        self._release_countdown = 0  # decision pipeline depth remaining
        self.counters: dict[str, int] = {}
        self.packets = 0
        self.drops = 0
        #: The listener's list of counter names bumped (see :meth:`bump`).
        self.journal: Optional[list[str]] = None
        #: One-hot liveness mask over the physical ports.  The MAC/PHY
        #: blocks report link state here; lookups that precompute backup
        #: next-hops (fast reroute) consult it inside ``decide()`` so a
        #: dead primary port falls over in the same packet walk.
        self.port_liveness = all_phys_ports_mask()
        #: The device's change signal (see :class:`StateCell`): liveness
        #: flips bump it here, a lookup's tables are built on it.
        self.state = StateCell()
        #: In-band telemetry identity, assigned by
        #: :meth:`repro.testenv.topology.Network.add_device` in
        #: insertion order — deterministic across shard replicas.
        self.int_device_id = INT_UNASSIGNED_DEVICE_ID
        for ch in (s_axis, m_axis):
            for sig in ch.signals():
                self.adopt_signal(sig)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def decide(self, header: bytes, tuser: int) -> Decision:
        """Map (header bytes, ingress TUSER) to a forwarding decision."""
        raise NotImplementedError

    def header_reads(self) -> HeaderReads:
        """What :meth:`decide` may read of the frame (see
        :class:`HeaderReads`).  The default — all of it — is always
        safe; a lookup that narrows it lets frames that differ only in
        bytes it never reads share one cold walk through the fabric."""
        return READS_EVERYTHING

    def bump(self, counter: str) -> None:
        """Move one of :attr:`counters`, and say so in the journal.

        Every movement of :attr:`counters` on a forwarding path is this
        call: who needs a hop's or a walk's counter effect hangs a list
        on :attr:`journal` and reads the names off it — no dict diff.
        """
        self.counters[counter] = self.counters.get(counter, 0) + 1
        if self.journal is not None:
            self.journal.append(counter)

    def set_port_state(self, index: int, up: bool) -> bool:
        """Mark physical port ``index`` up or down in the liveness mask.

        Returns True if the state actually changed.  A change bumps
        :attr:`state`, so every cached forwarding decision that might
        have consulted the mask is invalidated.
        """
        if not 0 <= index < NUM_PHYS_PORTS:
            raise ValueError(f"physical port index {index} out of range")
        bit = phys_port_bit(index)
        new = (self.port_liveness | bit) if up else (self.port_liveness & ~bit)
        if new == self.port_liveness:
            return False
        self.port_liveness = new
        self.state.bump()
        return True

    def port_is_up(self, index: int) -> bool:
        """Whether physical port ``index`` currently has link."""
        return bool(self.port_liveness & phys_port_bit(index))

    def int_stamp(self, frame: bytes, ingress: int, egress: int,
                  note: str) -> bytes:
        """Append this device's INT hop record to an egressing frame.

        The timestamp advances by ``DECISION_LATENCY_CYCLES`` — the
        concrete lookup's pipeline depth, so per-hop latency read back
        from the stamps is device-revealing.  A ``frr_reroute`` decision
        stamps the FRR flag and the one-hot mask of link-down ports (the
        failed primary among them), which is how the receiver attributes
        the reroute to a specific cable.  Pure in (frame, ingress,
        egress, note, liveness) — all of which are covered by the cache
        generations — so stamped walks stay cacheable.
        """
        rerouted = note == "frr_reroute"
        dead_ports = 0
        if rerouted:
            for index in range(NUM_PHYS_PORTS):
                if not self.port_liveness & phys_port_bit(index):
                    dead_ports |= 1 << index
        return _int_stamp(
            frame, self.int_device_id, ingress, egress,
            latency=self.DECISION_LATENCY_CYCLES,
            rerouted=rerouted, dead_ports=dead_ports,
        )

    def state_generation(self) -> int:
        """Monotonic counter over the lookup's *decision-visible* state.

        Cached decisions are valid exactly while this value is stable:
        the generation of :attr:`state`, which port-liveness flips and
        every table a lookup builds on it bump.
        """
        return self.state.generation

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def comb(self) -> None:
        room = len(self._emit) + len(self._held) < ENGINE_BUFFER_BEATS
        self.s_axis.set_ready(room)
        gated = self._release_countdown > 0
        self.m_axis.drive(self._emit[0] if self._emit and not gated else None)

    def _apply_rewrites(self, beat: AxiStreamBeat, offset: int) -> AxiStreamBeat:
        if not self._rewrites:
            return AxiStreamBeat(beat.data, beat.last, self._out_tuser)
        data = bytearray(beat.data)
        end = offset + len(data)
        for rw_offset, replacement in self._rewrites.items():
            rw_end = rw_offset + len(replacement)
            if rw_end <= offset or rw_offset >= end:
                continue
            # Overlap of [rw_offset, rw_end) with this beat's span.
            lo = max(rw_offset, offset)
            hi = min(rw_end, end)
            data[lo - offset : hi - offset] = replacement[lo - rw_offset : hi - rw_offset]
        return AxiStreamBeat(bytes(data), beat.last, self._out_tuser)

    def _release_held(self) -> None:
        offset = 0
        for held in self._held:
            self._emit.append(self._apply_rewrites(held, offset))
            offset += len(held.data)
        self._out_offset = offset
        self._held = []

    def _finish_packet(self) -> None:
        self._decided = False
        self._dropping = False
        self._rewrites = {}
        self._header = bytearray()
        self._in_offset = 0
        self._out_offset = 0

    def _make_decision(self) -> None:
        decision = self.decide(bytes(self._header), self._first_tuser)
        self.bump(decision.note)
        self.packets += 1
        self._decided = True
        self._release_countdown = self.DECISION_LATENCY_CYCLES
        if decision.drop:
            self.drops += 1
            self._dropping = True
            self._held = []
        else:
            self._out_tuser = decision.tuser
            self._rewrites = dict(decision.rewrites)
            self._release_held()

    def tick(self) -> None:
        self.m_axis.account()
        if self._release_countdown > 0:
            self._release_countdown -= 1
        if self.m_axis.fire:
            self._emit.popleft()
        if self.s_axis.fire:
            beat = self.s_axis.beat
            assert beat is not None
            if not self._decided:
                if not self._held and not self._header:
                    self._first_tuser = beat.tuser
                self._held.append(beat)
                take = HEADER_WINDOW - len(self._header)
                if take > 0:
                    self._header += beat.data[:take]
                self._in_offset += len(beat.data)
                if beat.last or len(self._header) >= HEADER_WINDOW:
                    last_seen = beat.last
                    self._make_decision()
                    if last_seen:
                        self._finish_packet()
            else:
                if self._dropping:
                    pass  # swallow the rest of the packet
                else:
                    self._emit.append(self._apply_rewrites(beat, self._out_offset))
                    self._out_offset += len(beat.data)
                if beat.last:
                    self._finish_packet()

    def resources(self) -> Resources:
        # Parser + decision FSM + rewrite mux; table costs are added by
        # the concrete lookups that own tables.
        return Resources(luts=2_200, ffs=1_900, brams=1.0)
