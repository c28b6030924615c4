"""The SUME datapath side-band metadata (TUSER) convention.

Every packet travelling through a NetFPGA reference pipeline carries a
128-bit TUSER word on its first beat:

===========  =====  ==================================================
bits          name  meaning
===========  =====  ==================================================
[15:0]        len   packet length in bytes (excluding FCS)
[23:16]       src   source port, one-hot
[31:24]       dst   destination port(s), one-hot (0 = drop / not yet set)
[127:32]      user  free for project-specific use
===========  =====  ==================================================

The 8-bit one-hot port encoding interleaves physical and DMA ports, the
convention used by the NetFPGA-10G/SUME reference designs:

* bit 0, 2, 4, 6 — physical ports nf0..nf3 (the four SFP+ cages)
* bit 1, 3, 5, 7 — DMA queues 0..3 (the host CPU path)
"""

from __future__ import annotations

from repro.utils.bitfield import BitField

#: Width of the TUSER word in bits.
SUME_TUSER_WIDTH = 128

SUME_TUSER = BitField(
    SUME_TUSER_WIDTH,
    [
        ("len", 16),
        ("src_port", 8),
        ("dst_port", 8),
        ("user", 96),
    ],
)

#: Compiled packer for the ingress-side TUSER build — the one fixed
#: field pattern every behavioural forward and every injection executes.
#: ``pack_tuser_len_src(length, src_bit)`` ==
#: ``SUME_TUSER.pack(len=length, src_port=src_bit)``, including the
#: out-of-range errors.
pack_tuser_len_src = SUME_TUSER.packer("len", "src_port")
#: The two port fields every decision touches, compiled likewise:
#: ``tuser_dst_port(word)`` == ``SUME_TUSER.extract(word, "dst_port")``,
#: ``with_tuser_dst_port(word, bits)`` == ``SUME_TUSER.insert(...)``.
tuser_src_port = SUME_TUSER.accessors("src_port")[0]
tuser_dst_port, with_tuser_dst_port = SUME_TUSER.accessors("dst_port")

#: Number of physical (SFP+) ports on a SUME board.
NUM_PHYS_PORTS = 4
#: Number of DMA queues towards the host.
NUM_DMA_PORTS = 4

PHYS_PORT_BITS = tuple(1 << (2 * i) for i in range(NUM_PHYS_PORTS))
DMA_PORT_BITS = tuple(1 << (2 * i + 1) for i in range(NUM_DMA_PORTS))


def phys_port_bit(index: int) -> int:
    """One-hot bit for physical port ``nf<index>``."""
    if not 0 <= index < NUM_PHYS_PORTS:
        raise ValueError(f"physical port index out of range: {index}")
    return PHYS_PORT_BITS[index]


def dma_port_bit(index: int) -> int:
    """One-hot bit for DMA queue ``index``."""
    if not 0 <= index < NUM_DMA_PORTS:
        raise ValueError(f"DMA queue index out of range: {index}")
    return DMA_PORT_BITS[index]


def all_phys_ports_mask(exclude: int = 0) -> int:
    """One-hot mask of every physical port, minus the ``exclude`` mask.

    This is the broadcast/flood destination used by the learning switch.
    """
    bits = 0
    for bit in PHYS_PORT_BITS:
        bits |= bit
    return bits & ~exclude


def port_bits_to_indices(bits: int) -> list[tuple[str, int]]:
    """Decode a one-hot port mask into ``[("phys"|"dma", index), ...]``."""
    out: list[tuple[str, int]] = []
    for i, bit in enumerate(PHYS_PORT_BITS):
        if bits & bit:
            out.append(("phys", i))
    for i, bit in enumerate(DMA_PORT_BITS):
        if bits & bit:
            out.append(("dma", i))
    return out
