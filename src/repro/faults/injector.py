"""Arms a fault session's decision streams onto live model instances.

The models expose passive hook points (``EthernetMacModel.corrupt``,
``DmaEngine.fault_hook``, ``AxiLiteInterconnect.read_fault_hook``,
``OutputQueues.pressure_hook``); the injector is the only thing that
wires them, so a design with no plan armed runs exactly the clean path.
``disarm()`` restores every hook it replaced, making the injector safe
to use as a context manager around a single run.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.faults.errors import FaultInjected
from repro.faults.plan import FaultPlan, FaultSession


class FaultInjector:
    """Installs one session's streams into MACs, DMA, AXI4-Lite and OQs."""

    def __init__(self, session: FaultSession):
        self.session = session
        self._restores: list[Callable[[], None]] = []

    # -- individual sites ----------------------------------------------
    def arm_mac(self, mac: Any) -> None:
        """Wire-mangle hook: per-frame bit flips and link flaps."""
        previous = mac.corrupt
        mac.corrupt = self.session.mangle_wire
        self._restores.append(lambda: setattr(mac, "corrupt", previous))

    def arm_dma(self, dma: Any) -> None:
        """Descriptor stalls, dropped completions, lost doorbells."""
        previous = dma.fault_hook
        dma.fault_hook = self.session.dma_fault
        self._restores.append(lambda: setattr(dma, "fault_hook", previous))

    def arm_interconnect(self, interconnect: Any) -> None:
        """AXI4-Lite read timeouts, surfaced as :class:`FaultInjected`."""
        session = self.session

        def hook(addr: int) -> None:
            if session.mmio_read_faults():
                raise FaultInjected(
                    "mmio", f"MMIO read at {addr:#x} timed out (injected)"
                )

        previous = interconnect.read_fault_hook
        interconnect.read_fault_hook = hook
        self._restores.append(
            lambda: setattr(interconnect, "read_fault_hook", previous)
        )

        def write_hook(addr: int, value: int) -> Optional[int]:
            outcome = session.ctrl_write()
            if outcome == "drop":
                return None
            if outcome == "corrupt":
                # Deterministic mangle: flip the low bit so readback
                # mismatches without needing another RNG draw.
                return value ^ 0x1
            return value

        prev_write = interconnect.write_fault_hook
        interconnect.write_fault_hook = write_hook
        self._restores.append(
            lambda: setattr(interconnect, "write_fault_hook", prev_write)
        )

    def arm_output_queues(self, oq: Any) -> None:
        """Pressure spikes: phantom occupancy on enqueue decisions."""
        previous = oq.pressure_hook
        oq.pressure_hook = self.session.oq_pressure
        self._restores.append(lambda: setattr(oq, "pressure_hook", previous))

    # -- aggregates ------------------------------------------------------
    def arm_board(self, board: Any) -> None:
        """Arm every MAC and the DMA engine of a NetFpgaSume board."""
        for mac in board.macs:
            self.arm_mac(mac)
        self.arm_dma(board.dma)

    def arm_project(self, project: Any) -> None:
        """Arm a reference pipeline's control plane and output queues.

        A plan with output-queue pressure also attaches the session to
        the project's data path
        (:meth:`~repro.projects.base.ReferencePipeline.attach_datapath_faults`,
        undone on :meth:`disarm`), so a network's path cache retires the
        walks it cached through the device and caches none through it
        while the session is attached — a replay must never skip a
        per-packet fault draw, and ``oq_pressure`` is the only one a
        walk through a project makes.  A control-plane-only plan leaves
        the cache alone: its writes bump the device's state like any
        other table write.
        """
        self.arm_interconnect(project.interconnect)
        self.arm_output_queues(project.oq)
        attach = getattr(project, "attach_datapath_faults", None)
        if attach is not None and self.session.plan.oq is not None:
            previous = project.datapath_faults
            attach(self.session)
            self._restores.append(lambda: attach(previous))

    def disarm(self) -> None:
        """Restore every hook this injector replaced (LIFO)."""
        while self._restores:
            self._restores.pop()()

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc: object) -> None:
        self.disarm()


def inject(plan: FaultPlan, *, board: Any = None, project: Any = None) -> FaultInjector:
    """Open a session on ``plan`` and arm it in one call."""
    injector = FaultInjector(plan.session())
    if board is not None:
        injector.arm_board(board)
    if project is not None:
        injector.arm_project(project)
    return injector
