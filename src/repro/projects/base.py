"""The shared reference-pipeline skeleton.

All four reference projects are the same five-stage pipeline —

    rx ports → input arbiter → output port lookup → output queues → tx ports

— differing *only* in the OPL stage (and its tables).  This class builds
the common structure once; projects inject their lookup through a
factory.  That one-line swap is the modularity claim C3 made executable,
and what experiment E7 exercises for the scheduler stage.

Port convention: 8 logical ports — physical nf0..nf3 (one-hot bits
0,2,4,6) and DMA queues 0..3 (bits 1,3,5,7), per
:mod:`repro.core.metadata`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.axilite import AxiLiteInterconnect
from repro.core.axis import AxiStreamChannel, StreamPacket
from repro.core.metadata import (
    NUM_DMA_PORTS,
    NUM_PHYS_PORTS,
    dma_port_bit,
    pack_tuser_len_src,
    phys_port_bit,
    tuser_dst_port,
)
from repro.core.module import Module
from repro.cores.input_arbiter import InputArbiter
from repro.fastpath import MicroflowCache, session_has_datapath_sites
from repro.int.codec import is_int_frame
from repro.cores.output_port_lookup import OutputPortLookup
from repro.cores.output_queues import OutputQueues, QueueConfig
from repro.cores.stats import StatsCollector

#: Register window bases shared by all projects (64 KiB each).
OPL_REG_BASE = 0x0000_0000
STATS_REG_BASE = 0x0001_0000
#: Window reserved for the host driver's recovery-counter block.
RECOVERY_REG_BASE = 0x0002_0000
#: Window reserved for the telemetry registry's counter block.
TELEMETRY_REG_BASE = 0x0003_0000
PROJECT_REG_SIZE = 0x1_0000


@dataclass(frozen=True)
class PortRef:
    """A logical port: ('phys'|'dma', index)."""

    kind: str
    index: int
    #: The port's one-hot TUSER bit: derived from the identity, so it
    #: stays out of equality, hashing and the repr.
    bit: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("phys", "dma"):
            raise ValueError(f"unknown port kind {self.kind!r}")
        limit = NUM_PHYS_PORTS if self.kind == "phys" else NUM_DMA_PORTS
        if not 0 <= self.index < limit:
            raise ValueError(f"{self.kind} port index {self.index} out of range")
        bit_of = phys_port_bit if self.kind == "phys" else dma_port_bit
        object.__setattr__(self, "bit", bit_of(self.index))

    def __str__(self) -> str:
        return f"nf{self.index}" if self.kind == "phys" else f"dma{self.index}"


ALL_PORTS: tuple[PortRef, ...] = tuple(
    [PortRef("phys", i) for i in range(NUM_PHYS_PORTS)]
    + [PortRef("dma", i) for i in range(NUM_DMA_PORTS)]
)
#: TUSER ``dst_port`` bits -> the ports they name, in ``ALL_PORTS`` order.
PORTS_BY_DST_BITS: tuple[tuple[PortRef, ...], ...] = tuple(
    tuple(p for p in ALL_PORTS if bits & p.bit) for bits in range(256)
)


class ReferencePipeline(Module):
    """rx → arbiter → OPL → output queues → tx, with stats and registers."""

    def __init__(
        self,
        name: str,
        opl_factory: Callable[
            [str, AxiStreamChannel, AxiStreamChannel], OutputPortLookup
        ],
        queue_config: QueueConfig = QueueConfig(),
        classify: Optional[Callable[[StreamPacket], int]] = None,
    ):
        super().__init__(name)
        self.ports = ALL_PORTS
        self.rx = {p: AxiStreamChannel(f"{name}.rx_{p}") for p in self.ports}
        self.tx = {p: AxiStreamChannel(f"{name}.tx_{p}") for p in self.ports}
        arb_to_opl = AxiStreamChannel(f"{name}.arb_to_opl")
        opl_to_oq = AxiStreamChannel(f"{name}.opl_to_oq")

        self.arbiter = self.submodule(
            InputArbiter(f"{name}.arbiter", [self.rx[p] for p in self.ports], arb_to_opl)
        )
        self.opl = self.submodule(opl_factory(f"{name}.opl", arb_to_opl, opl_to_oq))
        self.oq = self.submodule(
            OutputQueues(
                f"{name}.oq",
                opl_to_oq,
                [(p.bit, self.tx[p]) for p in self.ports],
                config=queue_config,
                classify=classify,
            )
        )
        self.stats = self.submodule(
            StatsCollector(
                f"{name}.stats",
                [(f"rx_{p}", self.rx[p]) for p in self.ports]
                + [(f"tx_{p}", self.tx[p]) for p in self.ports],
            )
        )

        # Flow-cache fast path for behavioural forwarding.  Always
        # byte-identical to the slow path (invalidation + counter-delta
        # replay guarantee it); flip ``fastpath.enabled`` off for A/B
        # comparisons.
        self.fastpath = MicroflowCache()
        #: The fault session armed on this device's data path, if any
        #: (:meth:`attach_datapath_faults`); the fast path bypasses
        #: itself while one is attached.
        self.datapath_faults = None
        self.soft_resets = 0

        # Control plane: the project's register address map.
        self.interconnect = AxiLiteInterconnect(f"{name}.axil")
        opl_regs = getattr(self.opl, "registers", None)
        if opl_regs is not None:
            self.interconnect.attach(OPL_REG_BASE, PROJECT_REG_SIZE, opl_regs)
        self.interconnect.attach(STATS_REG_BASE, PROJECT_REG_SIZE, self.stats.registers)

    # ------------------------------------------------------------------
    # Recovery telemetry
    # ------------------------------------------------------------------
    def attach_recovery_registers(self, regfile) -> None:
        """Mount a driver's recovery-counter block into the address map.

        Management tools then read the self-healing ledger (MMIO retries,
        ring repairs, counted losses) over the same AXI4-Lite path as the
        datapath statistics.
        """
        self.interconnect.attach(RECOVERY_REG_BASE, PROJECT_REG_SIZE, regfile)

    def attach_telemetry_registers(self, registry) -> None:
        """Mount a telemetry registry's counter block into the address map.

        ``registry`` is a :class:`~repro.telemetry.registry.MetricsRegistry`;
        every series it holds at attach time becomes a live-backed
        read-only register (with the 64-bit ``_hi``/``_lo`` face), read
        over the same AXI4-Lite path as the datapath statistics.
        """
        self.interconnect.attach(
            TELEMETRY_REG_BASE, PROJECT_REG_SIZE,
            registry.register_file(f"{self.name}_telemetry"),
        )

    # ------------------------------------------------------------------
    # Soft reset
    # ------------------------------------------------------------------
    def soft_reset(self) -> None:
        """Model a soft device reset: volatile table state is wiped.

        Registers, the address map and queued datapath traffic survive
        (this is the FPGA-side logic reset the reference designs wire to
        a control register, not a reconfiguration); what is lost is the
        lookup state software loaded — which is precisely what the
        resilience auditor must restore.  Projects with tables override
        :meth:`_wipe_volatile`.
        """
        self.soft_resets += 1
        self.opl.state.bump()
        self._wipe_volatile()

    def _wipe_volatile(self) -> None:
        """Clear project-specific volatile lookup state (default: none)."""

    def attach_datapath_faults(self, session) -> None:
        """Attach (or, with ``None``, detach) a data-path fault session.

        A network never caches a walk through an armed device, so the
        walks it cached before arming must go too: it is told, though
        no decision of this device's own changed.
        """
        self.datapath_faults = session
        self.opl.state.notify()

    def state_generation(self) -> int:
        """Monotonic counter over everything a forwarding decision reads.

        The generation of the lookup's :class:`~repro.core.module.StateCell`,
        which table writes, liveness flips and soft resets all bump;
        cached decisions are valid exactly while it is stable.  A reset
        that also clears tables bumps more than once — harmless, the
        contract is monotone-and-moves-on-change.
        """
        return self.opl.state.generation

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------
    def set_port_state(self, index: int, up: bool) -> bool:
        """Report physical port ``index`` link state to the lookup.

        Returns True if the state changed.  The liveness flip bumps the
        OPL's state cell, so microflow-cache entries and network
        path-cache walks through this device are invalidated.
        """
        return self.opl.set_port_state(index, up)

    def port_is_up(self, index: int) -> bool:
        """Whether physical port ``index`` currently has link."""
        return self.opl.port_is_up(index)

    # ------------------------------------------------------------------
    # Convenience lookups
    # ------------------------------------------------------------------
    def phys(self, index: int) -> PortRef:
        return PortRef("phys", index)

    def dma(self, index: int) -> PortRef:
        return PortRef("dma", index)

    # ------------------------------------------------------------------
    # Behavioural ("hw mode") forwarding — same decision logic, no kernel
    # ------------------------------------------------------------------
    def forward_behavioural(
        self, frame: bytes, src: PortRef
    ) -> list[tuple[PortRef, bytes]]:
        """One-shot forwarding using the OPL's decide() directly.

        This is the path the unified test environment's ``hw`` mode and
        the large benchmark sweeps use; experiment E11 checks it agrees
        packet-for-packet with the cycle kernel.  A microflow cache
        (:mod:`repro.fastpath`) short-circuits repeated (port, header)
        pairs between table mutations; the E18 suite pins that the
        cache changes no observable — outputs, counters, fingerprints.
        A miss costs the decision plus one journaled hop: the entry's
        replay list is the counter names ``opl.bump`` journaled.
        """
        cache = self.fastpath
        opl = self.opl
        if not cache.enabled or not opl.CACHEABLE:
            outputs, decision = self._forward_slow(frame, src)
            return self._int_stamp_outputs(outputs, src, decision.note)
        if self.datapath_faults is not None and session_has_datapath_sites(
            self.datapath_faults
        ):
            cache.bypasses += 1
            outputs, decision = self._forward_slow(frame, src)
            return self._int_stamp_outputs(outputs, src, decision.note)
        generation = opl.state.generation
        cache.validate(generation)
        key = (src.bit, frame[:64], len(frame))
        entry = cache.entries.get(key)
        if entry is not None:
            cache.hits += 1
            return self._int_stamp_outputs(
                self._replay_cached(entry, frame), src, entry[2]
            )
        cache.misses += 1
        # Listen to this hop alone — bumps inside decide() (the router's
        # "to_cpu"), then the note — and hand what it journaled on to
        # whoever was listening already (a recording walk).
        listener, opl.journal = opl.journal, []
        try:
            outputs, decision = self._forward_slow(frame, src)
        finally:
            bumped, opl.journal = opl.journal, listener
        if listener is not None:
            listener += bumped
        # If decide() itself mutated table state (e.g. a learning
        # switch's first sighting of this source MAC) the frozen
        # decision could differ from a re-decide, so skip the fill: the
        # next identical packet re-learns as a no-op and fills.
        if opl.state.generation == generation:
            cache.store(key, (
                PORTS_BY_DST_BITS[tuser_dst_port(decision.tuser)],
                tuple((off, bytes(rep)) for off, rep in decision.rewrites.items()),
                decision.note,
                decision.drop,
                tuple(bumped),
            ))
        return self._int_stamp_outputs(outputs, src, decision.note)

    def _int_stamp_outputs(
        self,
        outputs: list[tuple[PortRef, bytes]],
        src: PortRef,
        note: str,
    ) -> list[tuple[PortRef, bytes]]:
        """Stamp INT hop records onto physical-egress copies of a frame.

        Applied as the last step of *every* forwarding path — slow
        decisions, cache-bypass decisions and microflow-cache replays —
        so the fast path and the slow path emit byte-identical stamped
        frames.  DMA deliveries (host-bound copies) are left unstamped:
        the host sees the stack exactly as it stood at its edge switch.
        """
        if not outputs or not is_int_frame(outputs[0][1]):
            return outputs
        ingress = src.index if src.kind == "phys" else 0xF0 | src.index
        return [
            (port, self.opl.int_stamp(frame, ingress, port.index, note))
            if port.kind == "phys" else (port, frame)
            for port, frame in outputs
        ]

    def _forward_slow(self, frame: bytes, src: PortRef):
        """The uncached decision path; returns (outputs, decision).

        Copies nothing it does not change: every output shares the
        injected ``frame`` unless the decision rewrites it.
        """
        opl = self.opl
        decision = opl.decide(frame[:64], pack_tuser_len_src(len(frame), src.bit))
        opl.bump(decision.note)
        opl.packets += 1
        if decision.drop:
            opl.drops += 1
            return [], decision
        if decision.rewrites:
            data = bytearray(frame)
            for offset, replacement in decision.rewrites.items():
                data[offset : offset + len(replacement)] = replacement
            frame = bytes(data)
        ports = PORTS_BY_DST_BITS[tuser_dst_port(decision.tuser)]
        return [(port, frame) for port in ports], decision

    def _replay_cached(
        self, entry: tuple, frame: bytes
    ) -> list[tuple[PortRef, bytes]]:
        """Re-apply a frozen decision: counters, rewrites, fan-out."""
        ports, rewrites, _note, drop, bumped = entry
        opl = self.opl
        for name in bumped:
            opl.bump(name)
        opl.packets += 1
        if drop:
            opl.drops += 1
            return []
        if rewrites:
            data = bytearray(frame)
            for offset, replacement in rewrites:
                data[offset : offset + len(replacement)] = replacement
            frame = bytes(data)
        return [(port, frame) for port in ports]
