"""The INT trailer codec: layout, stamping, overflow, parsing (S24)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.int import (
    INT_MIN_FRAME_SIZE,
    IntError,
    IntHop,
    IntStack,
    MAX_INT_HOPS,
    encode_template,
    is_int_frame,
    parse,
    set_seq,
    stamp,
    trailer_bytes,
)
from repro.int.codec import (
    _F_OVERFLOW,
    _F_RESPONSE,
    _H_REROUTED,
    HEADER_BYTES,
    HEADER_WINDOW,
    HOP_BYTES,
    MAGIC,
)

from .conftest import udp_frame

pytestmark = pytest.mark.int


def template(flow_id: int = 7, size: int = INT_MIN_FRAME_SIZE,
             **kwargs) -> bytes:
    return encode_template(udp_frame(size=size), flow_id, **kwargs)


class TestLayout:
    def test_trailer_bytes(self):
        assert trailer_bytes() == HEADER_BYTES + MAX_INT_HOPS * HOP_BYTES
        assert trailer_bytes(1) == HEADER_BYTES + HOP_BYTES

    def test_template_preserves_length_and_header(self):
        base = udp_frame(size=INT_MIN_FRAME_SIZE)
        framed = template()
        assert len(framed) == len(base)
        # Everything the lookups read is untouched (UDP checksum aside,
        # which the encoder zeroes — it sits past the MAC/ethertype and
        # IPv4 header the switch and router decisions read).
        assert framed[:34] == base[:34]
        assert framed[-4:] == MAGIC

    def test_is_int_frame(self):
        assert is_int_frame(template())
        assert not is_int_frame(udp_frame())
        assert not is_int_frame(b"INT1")  # magic but no room for a header

    def test_empty_template_parses(self):
        stack = parse(template(flow_id=42))
        assert stack.flow_id == 42
        assert stack.seq == 0
        assert stack.hops == ()
        assert not stack.response and not stack.overflow
        assert stack.max_hops == MAX_INT_HOPS

    def test_response_flag(self):
        assert parse(template(response=True)).response

    def test_too_small_frame_refused(self):
        # The trailer would reach into the 64-byte header window.
        small = udp_frame(size=HEADER_WINDOW + trailer_bytes())
        with pytest.raises(IntError):
            encode_template(small, 1)

    def test_min_frame_size_is_tight(self):
        # INT_MIN_FRAME_SIZE's packed frame fits; packed frames are 4
        # bytes (FCS) shorter than the nominal wire size.
        framed = udp_frame(size=INT_MIN_FRAME_SIZE)
        assert len(framed) == INT_MIN_FRAME_SIZE - 4
        encode_template(framed, 1)  # must not raise

    def test_bad_max_hops_refused(self):
        frame = udp_frame(size=1024)
        with pytest.raises(IntError):
            encode_template(frame, 1, max_hops=0)
        with pytest.raises(IntError):
            encode_template(frame, 1, max_hops=256)


class TestSeq:
    def test_set_seq_round_trip(self):
        framed = set_seq(template(), 99)
        assert parse(framed).seq == 99
        assert len(framed) == len(template())

    def test_set_seq_passthrough_for_plain_frames(self):
        plain = udp_frame()
        assert set_seq(plain, 5) is plain

    def test_set_seq_noop_when_already_set(self):
        framed = set_seq(template(), 3)
        assert set_seq(framed, 3) is framed


class TestStamp:
    def test_single_stamp(self):
        framed = stamp(template(), 2, ingress=1, egress=3, latency=4)
        (hop,) = parse(framed).hops
        assert (hop.device_id, hop.ingress, hop.egress) == (2, 1, 3)
        assert hop.timestamp == 4
        assert not hop.rerouted and hop.dead_ports == 0

    def test_timestamps_accumulate_along_the_path(self):
        framed = template()
        for device, latency in ((0, 4), (1, 2), (2, 10)):
            framed = stamp(framed, device, 0, 1, latency=latency)
        stack = parse(framed)
        assert [h.timestamp for h in stack.hops] == [4, 6, 16]
        assert stack.latencies() == (4, 2, 10)

    def test_reroute_stamp_carries_dead_ports(self):
        framed = stamp(template(), 5, 0, 2, latency=4,
                       rerouted=True, dead_ports=0b0010)
        (hop,) = parse(framed).hops
        assert hop.rerouted and hop.dead_ports == 0b0010

    def test_overflow_sets_flag_not_stamps(self):
        framed = template(size=1024, max_hops=2)
        for device in range(3):
            framed = stamp(framed, device, 0, 1, latency=1)
        stack = parse(framed)
        assert stack.overflow
        assert len(stack.hops) == 2
        # Overflow is idempotent: further stamps change nothing.
        assert stamp(framed, 9, 0, 1, latency=1) == framed

    def test_stamp_is_pure(self):
        a = stamp(template(), 1, 0, 3, latency=4)
        b = stamp(template(), 1, 0, 3, latency=4)
        assert a == b

    def test_stamp_preserves_length(self):
        framed = template()
        assert len(stamp(framed, 1, 0, 3, latency=4)) == len(framed)


class TestParseErrors:
    def test_plain_frame_rejected(self):
        with pytest.raises(IntError):
            parse(udp_frame())

    def test_corrupt_hop_count_rejected(self):
        data = bytearray(template())
        data[-8] = MAX_INT_HOPS + 1  # hop_count > max_hops
        with pytest.raises(IntError):
            parse(bytes(data))


# ----------------------------------------------------------------------
# parse() by struct == the slice-by-slice loop it replaced
# ----------------------------------------------------------------------
def parse_by_slices(frame: bytes) -> IntStack:
    """The oracle: ``parse`` as it stood, one slice per field — kept
    verbatim."""
    if not is_int_frame(frame):
        raise IntError("frame carries no INT trailer")
    hop_count = frame[-8]
    flags = frame[-7]
    max_hops = frame[-6]
    if not 1 <= max_hops <= 0xFF or hop_count > max_hops:
        raise IntError(
            f"malformed INT trailer: {hop_count} hops in a "
            f"{max_hops}-slot stack"
        )
    if len(frame) < trailer_bytes(max_hops):
        raise IntError("frame shorter than its own INT trailer")
    base = len(frame) - HEADER_BYTES - max_hops * HOP_BYTES
    hops = []
    for i in range(hop_count):
        at = base + i * HOP_BYTES
        hops.append(IntHop(
            device_id=int.from_bytes(frame[at:at + 2], "big"),
            ingress=frame[at + 2],
            egress=frame[at + 3],
            timestamp=int.from_bytes(frame[at + 4:at + 8], "big"),
            rerouted=bool(frame[at + 8] & _H_REROUTED),
            dead_ports=frame[at + 9],
        ))
    return IntStack(
        flow_id=int.from_bytes(frame[-16:-12], "big"),
        seq=int.from_bytes(frame[-12:-8], "big"),
        response=bool(flags & _F_RESPONSE),
        overflow=bool(flags & _F_OVERFLOW),
        max_hops=max_hops,
        hops=tuple(hops),
    )


def outcome(parser, frame: bytes):
    try:
        return parser(frame)
    except IntError as error:
        return str(error)


class TestParseMatchesTheSliceLoop:
    @settings(max_examples=150, deadline=None)
    @given(max_hops=st.integers(1, 10), response=st.booleans(),
           flow_id=st.integers(0, 2**32 - 1), seq=st.integers(0, 2**32 - 1),
           stamps=st.lists(st.tuples(
               st.integers(0, 0xFFFF), st.integers(0, 0xFF),
               st.integers(0, 3), st.integers(0, 2**31), st.booleans(),
               st.integers(0, 0xF)), max_size=12))
    def test_on_stamped_stacks(self, max_hops, response, flow_id, seq, stamps):
        """0 … ``max_hops`` stamps and past it (the overflow flag),
        rerouted hops with their dead-port masks."""
        frame = set_seq(encode_template(
            udp_frame(size=256), flow_id, response=response,
            max_hops=max_hops), seq)
        for device, ingress, egress, latency, rerouted, dead in stamps:
            frame = stamp(frame, device, ingress, egress, latency=latency,
                          rerouted=rerouted, dead_ports=dead)
            stack = parse(frame)
            assert stack == parse_by_slices(frame)
            assert repr(stack) == repr(parse_by_slices(frame))
        assert parse(frame).overflow == (len(stamps) > max_hops)
        assert len(parse(frame).hops) == min(len(stamps), max_hops)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=40), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255))
    def test_on_malformed_tails(self, body, hop_count, flags, max_hops):
        """Every refusal, word for word: no magic, too short for a
        header, more hops than slots, no slots, a stack longer than
        the frame."""
        tail = bytes(8) + bytes([hop_count, flags, max_hops, 0]) + MAGIC
        for frame in (body, body + MAGIC, body + tail):
            assert outcome(parse, frame) == outcome(parse_by_slices, frame)

    def test_the_parsed_records_keep_their_fields(self):
        hop = IntHop(1, 2, 3, 4, True, 5)
        assert repr(hop) == ("IntHop(device_id=1, ingress=2, egress=3, "
                             "timestamp=4, rerouted=True, dead_ports=5)")
        assert hop == IntHop(device_id=1, ingress=2, egress=3, timestamp=4,
                             rerouted=True, dead_ports=5)
        assert IntStack(1, 2, False, False, 8, (hop,)).latencies() == (4,)
