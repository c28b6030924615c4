"""Longest-prefix-match tables for IPv4 forwarding.

Two implementations with identical semantics:

* :class:`LpmTable` — a binary trie, the scalable structure a DRAM/BRAM
  based pipeline would use; O(32) per lookup.
* :class:`NaiveLpm` — brute force scan over all entries; O(n) but
  obviously correct.  It exists as the property-testing oracle for the
  trie and as the closest analogue of the reference router's 32-slot
  linear TCAM search.

Both return the entry with the longest matching prefix; ties cannot
occur (one entry per exact (prefix, length)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.module import Resources, StateCell
from repro.packet.addresses import Ipv4Addr


@dataclass(frozen=True)
class LpmEntry:
    """A route: prefix/len → (next hop, egress port one-hot)."""

    prefix: Ipv4Addr
    prefix_len: int
    next_hop: Ipv4Addr
    port_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length {self.prefix_len}")
        # A canonical route has no host bits set below the prefix.
        if self.prefix_len < 32:
            host_mask = (1 << (32 - self.prefix_len)) - 1
            if self.prefix.value & host_mask:
                raise ValueError(
                    f"route {self.prefix}/{self.prefix_len} has host bits set"
                )

    @property
    def is_directly_connected(self) -> bool:
        """Next hop 0.0.0.0 means 'deliver directly' in the reference router."""
        return self.next_hop.value == 0


class _TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self):
        self.children: list[Optional["_TrieNode"]] = [None, None]
        self.entry: Optional[LpmEntry] = None


class LpmTable:
    """Binary-trie longest-prefix-match table."""

    def __init__(self, capacity: Optional[int] = None,
                 state: Optional[StateCell] = None):
        self._root = _TrieNode()
        self.capacity = capacity
        self.size = 0
        self.lookups = 0
        self.hits = 0
        #: Bumped on any route add, replace or delete — never on lookups
        #: or on re-installing an identical entry (see BinaryCam.state).
        self.state = state if state is not None else StateCell()

    def _bits(self, addr: int, length: int):
        for i in range(length):
            yield (addr >> (31 - i)) & 1

    def insert(self, entry: LpmEntry) -> bool:
        """Add or replace a route.  False = table full."""
        node = self._root
        for bit in self._bits(entry.prefix.value, entry.prefix_len):
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if node.entry is None:
            if self.capacity is not None and self.size >= self.capacity:
                return False
            self.size += 1
        if node.entry != entry:
            self.state.bump()
        node.entry = entry
        return True

    def delete(self, prefix: Ipv4Addr, prefix_len: int) -> bool:
        """Remove an exact route; returns False if absent.

        Nodes are not pruned — hardware tries don't reclaim either, and
        correctness is unaffected.
        """
        node = self._root
        for bit in self._bits(prefix.value, prefix_len):
            if node.children[bit] is None:
                return False
            node = node.children[bit]
        if node.entry is None:
            return False
        node.entry = None
        self.size -= 1
        self.state.bump()
        return True

    def lookup(self, addr: Ipv4Addr) -> Optional[LpmEntry]:
        """Longest-prefix match for ``addr``."""
        self.lookups += 1
        best: Optional[LpmEntry] = None
        node = self._root
        if node.entry is not None:
            best = node.entry
        for bit in self._bits(addr.value, 32):
            node = node.children[bit]
            if node is None:
                break
            if node.entry is not None:
                best = node.entry
        if best is not None:
            self.hits += 1
        return best

    def entries(self) -> list[LpmEntry]:
        out: list[LpmEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.entry is not None:
                out.append(node.entry)
            stack.extend(child for child in node.children if child is not None)
        return sorted(out, key=lambda e: (e.prefix_len, e.prefix.value))

    def resources(self) -> Resources:
        """BRAM trie walker: storage scales with capacity, logic is fixed."""
        capacity = self.capacity if self.capacity is not None else 1024
        brams = max(1.0, capacity * 64 / 36_000)
        return Resources(luts=800, ffs=600, brams=brams)


class NaiveLpm:
    """Brute-force LPM over a list — the oracle implementation."""

    def __init__(self):
        self._entries: dict[tuple[int, int], LpmEntry] = {}
        self.lookups = 0

    def insert(self, entry: LpmEntry) -> bool:
        self._entries[(entry.prefix.value, entry.prefix_len)] = entry
        return True

    def delete(self, prefix: Ipv4Addr, prefix_len: int) -> bool:
        return self._entries.pop((prefix.value, prefix_len), None) is not None

    def lookup(self, addr: Ipv4Addr) -> Optional[LpmEntry]:
        self.lookups += 1
        best: Optional[LpmEntry] = None
        for entry in self._entries.values():
            if addr.in_prefix(entry.prefix, entry.prefix_len):
                if best is None or entry.prefix_len > best.prefix_len:
                    best = entry
        return best

    @property
    def size(self) -> int:
        return len(self._entries)
