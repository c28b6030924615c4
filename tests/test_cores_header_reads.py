"""``header_reads()`` is a promise: test the promise.

A lookup that narrows its :class:`HeaderReads` tells the network's path
cache that two frames with equal ``key()`` are the same packet to it —
same :class:`Decision`, same counter bumps, same table writes.  The
properties below draw frame pairs that agree under the declared mask
(and differ freely outside it, in content and in length) and hold every
narrowing lookup to that, across the switch's configurations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.axis import AxiStreamChannel
from repro.core.metadata import (
    SUME_TUSER,
    all_phys_ports_mask,
    dma_port_bit,
    phys_port_bit,
)
from repro.cores.header_parser import parse_headers
from repro.cores.lookups import (
    LearningSwitchLookup,
    NicLookup,
    PassthroughLookup,
    SwitchLiteLookup,
)
from repro.cores.output_port_lookup import (
    FRAME_LENGTH,
    HEADER_WINDOW,
    READS_EVERYTHING,
    READS_NOTHING,
    Decision,
    HeaderReads,
    OutputPortLookup,
    header_bytes,
)
from repro.cores.router_lookup import RouterLookup
from repro.packet.addresses import MacAddr
from repro.projects.firewall import FirewallLookup

#: A small MAC pool so draws hit, miss, collide and go multicast.
KNOWN = [bytes.fromhex(f"02000000000{i}") for i in range(1, 5)]
MACS = KNOWN + [bytes.fromhex("02000000dead"), bytes.fromhex("01005e000001"),
                b"\xff" * 6]
#: Lengths on both sides of every threshold a parser tests.
LENGTHS = [0, 6, 12, 13, 14, 15, 16, 17, 18, 19, 60, 64, 65, 200]


def make(cls, **kwargs) -> OutputPortLookup:
    return cls("opl", AxiStreamChannel("s"), AxiStreamChannel("m"), **kwargs)


def switch(vlan_aware: bool, learn: bool, backups: bool, port_down: bool,
           cls: type = LearningSwitchLookup) -> LearningSwitchLookup:
    """A switch that knows ``KNOWN[i]`` on port ``i`` (VIDs 0 and 7)."""
    opl = make(cls, vlan_aware=vlan_aware, learn=learn)
    for vid in ((0, 7) if vlan_aware else (0,)):
        for port, mac in enumerate(KNOWN):
            key = (vid << 48) | int.from_bytes(mac, "big")
            opl.mac_table.insert(key, phys_port_bit(port))
            if backups:
                opl.backup_table.insert(key, phys_port_bit((port + 1) % 4))
    if vlan_aware:
        opl.set_vlan_members(7, phys_port_bit(0) | phys_port_bit(1))
    if port_down:
        opl.set_port_state(2, False)
    return opl


def outcome(opl: OutputPortLookup, frame: bytes, src_bit: int,
            dst_bits: int = 0) -> tuple:
    """Everything one ``decide()`` did that the fabric can observe."""
    counters = dict(opl.counters)
    generation = opl.state_generation()
    tuser = SUME_TUSER.pack(len=len(frame), src_port=src_bit,
                            dst_port=dst_bits)
    decision = opl.decide(frame[:HEADER_WINDOW], tuser)
    return (
        SUME_TUSER.extract(decision.tuser, "dst_port"), decision.drop,
        decision.note, dict(decision.rewrites),
        {name: count - counters.get(name, 0)
         for name, count in opl.counters.items()
         if count != counters.get(name, 0)},
        opl.state_generation() - generation,
        list(getattr(opl, "mac_table", ())),
    )


@st.composite
def ethernet_frames(draw) -> bytes:
    """A frame cut to a drawn length: pooled MACs, a tag as often as
    not, arbitrary bytes after."""
    tag = draw(st.sampled_from([b"", b"\x81\x00\x00\x07", b"\x81\x00\xe0\x07",
                                b"\x81\x00\x00\x09"]))
    body = (draw(st.sampled_from(MACS)) + draw(st.sampled_from(MACS)) + tag
            + draw(st.sampled_from([b"\x08\x00", b"\x08\x06", b"\x81\x00"]))
            + draw(st.binary(min_size=200, max_size=200)))
    return body[:draw(st.sampled_from(LENGTHS))]


@st.composite
def same_class_pairs(draw, reads: HeaderReads) -> tuple[bytes, bytes]:
    """Two frames equal in every bit ``reads`` covers — and, drawn
    independently, in nothing else."""
    first = draw(ethernet_frames())
    other = draw(ethernet_frames())
    length = (len(first) if len(first) < reads.length
              else max(len(other), reads.length))
    window = min(length, HEADER_WINDOW)
    noise = int.from_bytes(other.ljust(window, b"\x5a")[:window], "little")
    kept = int.from_bytes(first[:window], "little")
    mixed = (kept & reads.mask) | (noise & ~reads.mask & ((1 << 8 * window) - 1))
    second = (mixed.to_bytes(window, "little")
              + other[window:]).ljust(length, b"\xa5")[:length]
    assert reads.key(first) == reads.key(second)
    return first, second


SWITCH_GRID = [
    pytest.param(vlan, learn, backups, down,
                 id=f"vlan{vlan:d}-learn{learn:d}-frr{backups:d}-down{down:d}")
    for vlan in (False, True) for learn in (False, True)
    for backups in (False, True) for down in (False, True)
]


class TestLearningSwitchKeepsItsPromise:
    @pytest.mark.parametrize("vlan_aware,learn,backups,port_down", SWITCH_GRID)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), port=st.integers(0, 3))
    def test_equal_key_means_equal_outcome(
            self, vlan_aware, learn, backups, port_down, data, port):
        config = (vlan_aware, learn, backups, port_down)
        reads = switch(*config).header_reads()
        first, second = data.draw(same_class_pairs(reads))
        assert outcome(switch(*config), first, phys_port_bit(port)) \
            == outcome(switch(*config), second, phys_port_bit(port))

    def test_declared_masks(self):
        plain = switch(False, True, False, False).header_reads()
        tagged = switch(True, True, False, False).header_reads()
        assert plain == HeaderReads(header_bytes(0, 12), 14)
        assert tagged == HeaderReads(header_bytes(0, 16), 18)
        assert plain | tagged == tagged

    @pytest.mark.parametrize("bit", range(48))
    def test_every_destination_bit_is_read(self, bit):
        """Negative control: a flipped bit of a learned destination MAC
        changes the decision, so the mask may not leave it out."""
        frame = KNOWN[2] + KNOWN[0] + b"\x08\x00" + bytes(50)
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << bit % 8
        opl = switch(False, False, False, False)
        hit = outcome(opl, frame, phys_port_bit(0))
        assert hit[:3] == (phys_port_bit(2), False, "hit")
        # Another port's MAC, an unknown one or a group address.
        assert outcome(opl, bytes(flipped), phys_port_bit(0))[:3] != hit[:3]
        reads = opl.header_reads()
        assert reads.key(frame) != reads.key(bytes(flipped))

    def test_a_destination_only_mask_would_break_it(self):
        """The mutant: with ``learn=True`` the source MAC is written to
        the FDB, so two frames that agree on the destination alone are
        *not* one packet to the switch — the check above catches a
        declaration that forgets the source."""
        mutant = HeaderReads(header_bytes(0, 6), 14)
        seen = KNOWN[1] + KNOWN[0] + b"\x08\x00" + bytes(50)
        fresh = KNOWN[1] + bytes.fromhex("02000000beef") + b"\x08\x00" + bytes(50)
        assert mutant.key(seen) == mutant.key(fresh)
        config = (False, True, False, False)
        assert outcome(switch(*config), seen, phys_port_bit(0)) \
            != outcome(switch(*config), fresh, phys_port_bit(0))
        real = switch(*config).header_reads()
        assert real.key(seen) != real.key(fresh)

    def test_the_tag_counts_only_when_it_all_arrived(self):
        """17 bytes of a tagged header parse as untagged (VID 0), 18 as
        VID 7: the declared length keeps the two apart."""
        tagged = KNOWN[1] + KNOWN[0] + b"\x81\x00\x00\x07\x08\x00" + bytes(46)
        opl = switch(True, False, False, False)
        reads = opl.header_reads()
        assert reads.key(tagged[:17]) != reads.key(tagged[:18])
        assert reads.key(tagged[:18]) == reads.key(tagged)
        assert reads.key(tagged[:13]) != reads.key(tagged[:14])  # runt or not


class TestTuserOnlyLookups:
    @pytest.mark.parametrize("cls", [NicLookup, PassthroughLookup,
                                     SwitchLiteLookup])
    @settings(max_examples=60, deadline=None)
    @given(first=ethernet_frames(), second=ethernet_frames(),
           src=st.sampled_from([phys_port_bit(i) for i in range(4)]
                               + [dma_port_bit(i) for i in range(4)] + [0]),
           dst=st.sampled_from([0, phys_port_bit(1), dma_port_bit(2)]))
    def test_any_two_frames_are_one_class(self, cls, first, second, src, dst):
        assert make(cls).header_reads() == READS_NOTHING
        assert READS_NOTHING.key(first) == READS_NOTHING.key(second)
        assert outcome(make(cls), first, src, dst) \
            == outcome(make(cls), second, src, dst)


class TestTheDefaultReadsEverything:
    def test_unnarrowed_lookups_say_so(self):
        assert make(OutputPortLookup).header_reads() is READS_EVERYTHING
        assert RouterLookup.header_reads is OutputPortLookup.header_reads
        assert FirewallLookup.header_reads is OutputPortLookup.header_reads

    @given(first=st.binary(max_size=200), second=st.binary(max_size=200))
    def test_keys_agree_only_on_window_and_length(self, first, second):
        same = (first[:HEADER_WINDOW] == second[:HEADER_WINDOW]
                and len(first) == len(second))
        assert (READS_EVERYTHING.key(first)
                == READS_EVERYTHING.key(second)) == same

    def test_reading_the_length_survives_the_union(self):
        reads = HeaderReads(header_bytes(0, 6), FRAME_LENGTH) | READS_NOTHING
        assert reads.key(bytes(60)) != reads.key(bytes(61))
        assert (READS_NOTHING | READS_EVERYTHING) == READS_EVERYTHING


# ----------------------------------------------------------------------
# decide() on the raw bytes == the parsing decide() it replaced
# ----------------------------------------------------------------------
class ParsingLearningSwitchLookup(LearningSwitchLookup):
    """The oracle: ``decide()`` as it stood while it parsed the header
    into ``MacAddr`` objects first — kept verbatim."""

    def _fdb_key(self, mac_value: int, vid: int) -> int:
        return (vid << 48) | mac_value if self.vlan_aware else mac_value

    def decide(self, header: bytes, tuser: int) -> Decision:
        parsed = parse_headers(header)
        src_bits = SUME_TUSER.extract(tuser, "src_port")
        if parsed.src_mac is None:
            return Decision(tuser, drop=True, note="runt")
        vid = (parsed.vlan_vid or 0) if self.vlan_aware else 0
        members = self.vlan_members.get(vid, all_phys_ports_mask())
        if self.vlan_aware and not (src_bits & members):
            # Frame arrived on a port outside its VLAN: drop at ingress.
            return Decision(tuser, drop=True, note="vlan_violation")
        if self.learn and not parsed.src_mac.is_multicast:
            self.mac_table.insert(self._fdb_key(parsed.src_mac.value, vid), src_bits)
        assert parsed.dst_mac is not None
        if not parsed.dst_mac.is_multicast:
            key = self._fdb_key(parsed.dst_mac.value, vid)
            hit = self.mac_table.lookup(key)
            if hit is not None:
                if hit == src_bits:
                    # Destination is back out the ingress port: filter.
                    return Decision(tuser, drop=True, note="same_port_filter")
                if hit & self.port_liveness:
                    return Decision(
                        SUME_TUSER.insert(tuser, "dst_port", hit), note="hit"
                    )
                # Primary port is dead: fall over to the precomputed
                # backup next-hop, still inside this packet's walk.
                backup = self.backup_table.lookup(key)
                if (
                    backup is not None
                    and backup & self.port_liveness
                    and backup != src_bits
                ):
                    return Decision(
                        SUME_TUSER.insert(tuser, "dst_port", backup),
                        note="frr_reroute",
                    )
                return Decision(tuser, drop=True, note="frr_blackhole")
        flood = all_phys_ports_mask(exclude=src_bits) & members & self.port_liveness
        if flood == 0:
            return Decision(tuser, drop=True, note="no_flood_targets")
        return Decision(SUME_TUSER.insert(tuser, "dst_port", flood), note="flood")


def decided(opl: LearningSwitchLookup, frame: bytes, port: int) -> tuple:
    """One ``decide()``: the whole :class:`Decision`, and everything it
    left behind — counters, both CAMs' books, FDB, generation."""
    tuser = SUME_TUSER.pack(len=len(frame), src_port=phys_port_bit(port))
    decision = opl.decide(frame[:HEADER_WINDOW], tuser)
    return (decision, dict(opl.counters), list(opl.mac_table),
            opl.state_generation(),
            [(cam.lookups, cam.hits, cam.insertions, cam.evictions)
             for cam in (opl.mac_table, opl.backup_table)])


class TestDecideOnRawBytes:
    @settings(max_examples=250, deadline=None)
    @given(config=st.tuples(*[st.booleans()] * 4), members=st.booleans(),
           traffic=st.lists(st.tuples(ethernet_frames(), st.integers(0, 3)),
                            min_size=1, max_size=4))
    def test_same_decisions_same_books(self, config, members, traffic):
        """Over the :data:`SWITCH_GRID` configurations — and VLAN 0's
        members set or not, which an *unaware* switch consults too."""
        vlan_aware, learn, backups, port_down = config
        pair = []
        for cls in (LearningSwitchLookup, ParsingLearningSwitchLookup):
            opl = switch(vlan_aware, learn, backups, port_down, cls)
            if members:
                opl.set_vlan_members(0, phys_port_bit(0) | phys_port_bit(3))
            pair.append(opl)
        # In sequence: what one frame taught decides the next.
        for frame, port in traffic:
            new, old = (decided(opl, frame, port) for opl in pair)
            assert new == old, (frame.hex(), port)

    def test_no_address_object_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a learning-switch hop built a MacAddr")

        monkeypatch.setattr(MacAddr, "__post_init__", built)
        opl = switch(True, True, True, True)
        tagged = KNOWN[1] + KNOWN[0] + b"\x81\x00\x00\x07\x08\x00" + bytes(46)
        assert decided(opl, tagged, 0)[0].note == "hit"

    def test_the_shapes_by_name(self):
        """The boundaries the property is for, spelled out once — each
        is a named mutant of the byte reads: (aware?, frame) -> note,
        destination bits."""
        l2 = KNOWN[1] + KNOWN[0]
        vid7 = l2 + b"\x81\x00\x00\x07\x08\x00" + bytes(46)
        everyone = sum(phys_port_bit(i) for i in range(4))
        cases = {
            "13 bytes are a runt": (False, l2 + b"\x08", "runt", 0),
            "14 are not": (False, l2 + b"\x08\x00", "hit", phys_port_bit(1)),
            # VID 7 spans ports 0 and 1 only; VID 0 everything.  A tag
            # cut at 17 bytes is VID 0: known there, so a hit — as VID 7
            # it would be a hit too, so look the unknown MAC up instead.
            "a truncated tag is untagged":
                (True, (bytes.fromhex("02000000dead") + vid7[6:])[:17],
                 "flood", everyone & ~phys_port_bit(0)),
            "a whole tag confines the flood":
                (True, (bytes.fromhex("02000000dead") + vid7[6:])[:18],
                 "flood", phys_port_bit(1)),
            "an unaware switch ignores the tag":
                (False, bytes.fromhex("02000000dead") + vid7[6:],
                 "flood", everyone & ~phys_port_bit(0)),
            "a group destination floods": (
                False, b"\x01\x00\x5e\x00\x00\x01" + l2[6:] + b"\x08\x00",
                "flood", everyone & ~phys_port_bit(0)),
        }
        for name, (aware, frame, note, dst_bits) in cases.items():
            decision = decided(switch(aware, False, False, False), frame, 0)[0]
            assert (decision.note, SUME_TUSER.extract(
                decision.tuser, "dst_port")) == (note, dst_bits), name

    def test_an_unaware_switch_still_asks_for_vlan_zero_members(self):
        opl = switch(False, False, False, False)
        opl.set_vlan_members(0, phys_port_bit(0) | phys_port_bit(3))
        unknown = bytes.fromhex("02000000dead") + KNOWN[0] + b"\x08\x00"
        decision = decided(opl, unknown, 0)[0]
        assert SUME_TUSER.extract(decision.tuser, "dst_port") \
            == phys_port_bit(3)
