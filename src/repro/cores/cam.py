"""Binary (exact-match) CAM.

The learning switch's MAC table and the router's ARP cache are exact-
match CAMs in the reference designs.  A hardware CAM compares all
entries in parallel in one cycle; the model preserves that single-cycle
semantic (a dict lookup) while keeping hardware-faithful *capacity* and
*replacement* behaviour: a full CAM either rejects new entries or evicts
in FIFO order, selectable to match the target design.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.core.module import Resources, StateCell


class BinaryCam:
    """Fixed-capacity exact-match table with optional FIFO eviction."""

    def __init__(self, capacity: int, key_bits: int, evict_oldest: bool = True,
                 state: Optional[StateCell] = None):
        if capacity <= 0:
            raise ValueError("CAM capacity must be positive")
        if key_bits <= 0:
            raise ValueError("key width must be positive")
        self.capacity = capacity
        self.key_bits = key_bits
        self.evict_oldest = evict_oldest
        self._entries: OrderedDict[int, int] = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.rejects = 0
        #: Bumped whenever the *visible match state* changes (new entry,
        #: changed value, eviction, deletion, clear) — and only then:
        #: re-learning an identical (key, value) pair is a no-op.
        self.state = state if state is not None else StateCell()

    def _check_key(self, key: int) -> None:
        if not 0 <= key < (1 << self.key_bits):
            raise ValueError(f"key {key:#x} wider than {self.key_bits} bits")

    def lookup(self, key: int) -> Optional[int]:
        self._check_key(key)
        self.lookups += 1
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
        return value

    def insert(self, key: int, value: int) -> bool:
        """Add or update an entry.  False = rejected (full, no eviction)."""
        self._check_key(key)
        if key in self._entries:
            if self._entries[key] != value:
                self._entries[key] = value
                self.state.bump()
            return True
        if len(self._entries) >= self.capacity:
            if not self.evict_oldest:
                self.rejects += 1
                return False
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value
        self.insertions += 1
        self.state.bump()
        return True

    def delete(self, key: int) -> bool:
        self._check_key(key)
        if self._entries.pop(key, None) is None:
            return False
        self.state.bump()
        return True

    def clear(self) -> None:
        if self._entries:
            self._entries.clear()
            self.state.bump()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._entries.items())

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def resources(self) -> Resources:
        """BRAM-based CAM cost: grows with entries × key width.

        Xilinx BRAM-CAM construction costs roughly one RAMB36 per
        32 entries of a 48-bit key, plus match/encode LUTs.
        """
        brams = max(1.0, self.capacity * self.key_bits / (32 * 48) )
        luts = 150 + self.capacity // 2
        return Resources(luts=luts, ffs=self.capacity, brams=brams)
