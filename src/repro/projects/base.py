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

        #: The fault session armed on this device's data path, if any
        #: (:meth:`attach_datapath_faults`); a network never caches a
        #: walk through a device while one is attached.
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

        A network never replays a walk through an armed device, so it
        must re-check the walks it cached before arming: it is told,
        though no decision of this device's own changed.
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
        OPL's state cell, so network path-cache walks through this
        device are re-checked.
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
        packet-for-packet with the cycle kernel.  Every call decides:
        repeated traffic is made cheap a level up, where the network's
        path cache (:class:`repro.testenv.topology.Network`) replays
        whole walks.

        Copies nothing it does not change: every output shares the
        injected ``frame`` unless the decision rewrites it.  An INT
        frame gets a hop record stamped onto each physical-egress copy
        as the last step; DMA deliveries (host-bound copies) are left
        unstamped, so the host sees the stack exactly as it stood at
        its edge switch.
        """
        opl = self.opl
        decision = opl.decide(frame[:64], pack_tuser_len_src(len(frame), src.bit))
        note = decision.note
        opl.bump(note)
        opl.packets += 1
        if decision.drop:
            opl.drops += 1
            return []
        if decision.rewrites:
            data = bytearray(frame)
            for offset, replacement in decision.rewrites.items():
                data[offset : offset + len(replacement)] = replacement
            frame = bytes(data)
        dst = tuser_dst_port(decision.tuser)
        opl.port_reads |= dst  # the ports copies go out of
        ports = PORTS_BY_DST_BITS[dst]
        if not ports or not is_int_frame(frame):
            return [(port, frame) for port in ports]
        ingress = src.index if src.kind == "phys" else 0xF0 | src.index
        return [
            (port, opl.int_stamp(frame, ingress, port.index, note))
            if port.kind == "phys" else (port, frame)
            for port in ports
        ]
