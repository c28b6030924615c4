"""The BlueSwitch multi-table match pipeline with version tagging.

Packets are tagged with the switch's *active version* the moment they
enter the pipeline; every table lookup on that packet's path consults
the bank named by the tag.  Because a commit only flips the active
version (a single-cycle register write), each packet sees exactly one
configuration — old or new, never a mix — across *all* tables.  That is
BlueSwitch's consistency mechanism, and the reason E6 measures zero
misforwardings for the atomic updater.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.module import StateCell
from repro.projects.blueswitch.flow_table import (
    ActionDrop,
    ActionGoto,
    ActionOutput,
    FlowEntry,
    FlowTable,
    flow_key_of,
)


@dataclass
class PipelineResult:
    """The fate of one packet: output ports and the per-table trace."""

    output_bits: int = 0
    dropped: bool = False
    tables_visited: list[int] = field(default_factory=list)
    version: int = 0

    @property
    def forwarded(self) -> bool:
        return self.output_bits != 0 and not self.dropped


class BlueSwitchPipeline:
    """``num_tables`` chained double-banked flow tables."""

    def __init__(self, num_tables: int = 3, slots_per_table: int = 64):
        if num_tables <= 0:
            raise ValueError("need at least one table")
        #: The switch's change signal: bank writes and commits bump it.
        self.state = StateCell()
        self.tables = [FlowTable(i, slots_per_table, state=self.state)
                       for i in range(num_tables)]
        self.active_version = 0
        self.commits = 0
        self.packets = 0
        self.table_miss_drops = 0

    # ------------------------------------------------------------------
    # Configuration plane
    # ------------------------------------------------------------------
    @property
    def shadow_version(self) -> int:
        return 1 - self.active_version

    def write_active(self, table_id: int, slot: int, entry: Optional[FlowEntry]) -> None:
        """In-place write, visible immediately — the *naive* switch's op."""
        self.tables[table_id].write(self.active_version, slot, entry)

    def write_shadow(self, table_id: int, slot: int, entry: Optional[FlowEntry]) -> None:
        """Write the inactive bank — invisible until :meth:`commit`."""
        self.tables[table_id].write(self.shadow_version, slot, entry)

    def sync_shadow(self) -> None:
        """Copy active → shadow so an update can be expressed as a delta."""
        for table in self.tables:
            table.copy_bank(self.active_version, self.shadow_version)

    def commit(self) -> None:
        """Atomically flip every table to the shadow configuration."""
        self.active_version = self.shadow_version
        self.commits += 1
        self.state.bump()

    def state_generation(self) -> int:
        """Monotonic counter over classification-visible state.

        Covers every bank write plus the atomic version flips — a
        shadow write alone does not change what packets see, but it
        will have flipped into view by the time a commit bumps, so
        this is a safe (slightly conservative) invalidation key.
        """
        return self.state.generation

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def ingress_version(self) -> int:
        """The version tag stamped on a packet entering the pipeline now."""
        return self.active_version

    def classify(
        self, frame: bytes, in_port_bits: int, version: Optional[int] = None
    ) -> PipelineResult:
        """Walk the tables for one packet.

        ``version`` is the packet's ingress tag; passing ``None`` tags it
        with the current active version (the common case — the explicit
        parameter exists for the cycle-stepped update experiment, where
        tagging and lookup happen at different simulated times).
        """
        tag = self.ingress_version() if version is None else version
        self.packets += 1
        result = PipelineResult(version=tag)
        table_id = 0
        while table_id < len(self.tables):
            result.tables_visited.append(table_id)
            actions = self.tables[table_id].lookup(tag, flow_key_of(frame, in_port_bits))
            if actions is None:
                # OpenFlow table-miss default: drop.
                self.table_miss_drops += 1
                result.dropped = True
                return result
            next_table: Optional[int] = None
            for action in actions:
                if isinstance(action, ActionOutput):
                    result.output_bits |= action.port_bits
                elif isinstance(action, ActionDrop):
                    result.dropped = True
                elif isinstance(action, ActionGoto):
                    if action.table_id <= table_id:
                        raise ValueError(
                            f"goto must move forward (table {table_id} → "
                            f"{action.table_id})"
                        )
                    next_table = action.table_id
            if next_table is None:
                return result
            table_id = next_table
        return result
