"""Bit-level packing helpers.

Hardware interfaces (the SUME TUSER side-band, register files, TCAM keys)
are specified as packed bit fields.  ``BitField`` gives those specifications
a single, well-tested home instead of ad-hoc shifting scattered through the
datapath cores.
"""

from __future__ import annotations

from dataclasses import dataclass


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits (``mask(4) == 0xF``)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bytes_to_bits(data: bytes) -> int:
    """Pack ``data`` little-endian-by-byte into an integer.

    Byte 0 of ``data`` occupies bits [7:0], matching how AXI4-Stream lanes
    map TDATA bytes onto the bus.
    """
    return int.from_bytes(data, "little")


def bits_to_bytes(value: int, length: int) -> bytes:
    """Inverse of :func:`bytes_to_bits`; truncates ``value`` to ``length`` bytes."""
    return (value & mask(length * 8)).to_bytes(length, "little")


@dataclass(frozen=True)
class _Field:
    name: str
    offset: int
    width: int


class BitField:
    """A named layout of contiguous bit fields inside a fixed-width word.

    Fields are declared lowest-offset first, exactly like a Verilog packed
    struct read bottom-up::

        TUSER = BitField(128, [("len", 16), ("src_port", 8), ("dst_port", 8)])
        word = TUSER.pack(len=64, src_port=0b01, dst_port=0b100)
        TUSER.unpack(word)["dst_port"]  # 0b100

    Unused high-order bits are permitted (the word may be wider than the sum
    of the fields); overlapping or oversized layouts raise at construction.
    """

    def __init__(self, width: int, fields: list[tuple[str, int]]):
        if width <= 0:
            raise ValueError(f"word width must be positive, got {width}")
        self.width = width
        self._fields: dict[str, _Field] = {}
        offset = 0
        for name, field_width in fields:
            if field_width <= 0:
                raise ValueError(f"field {name!r} must have positive width")
            if name in self._fields:
                raise ValueError(f"duplicate field name {name!r}")
            self._fields[name] = _Field(name, offset, field_width)
            offset += field_width
        if offset > width:
            raise ValueError(
                f"fields occupy {offset} bits but the word is only {width} wide"
            )

    @property
    def field_names(self) -> list[str]:
        return list(self._fields)

    def field_width(self, name: str) -> int:
        return self._fields[name].width

    def pack(self, **values: int) -> int:
        """Pack keyword field values into a single integer word.

        Unnamed fields default to zero.  A value wider than its field is an
        error rather than a silent truncation — truncation bugs in TUSER
        metadata are exactly what this class exists to prevent.
        """
        word = 0
        for name, value in values.items():
            field = self._fields.get(name)
            if field is None:
                raise KeyError(f"unknown field {name!r}; have {self.field_names}")
            if value < 0 or value > mask(field.width):
                raise ValueError(
                    f"value {value:#x} does not fit field {name!r} "
                    f"({field.width} bits)"
                )
            word |= value << field.offset
        return word

    def packer(self, *names: str):
        """Compile a positional fast packer for a fixed field subset.

        ``pack(**values)`` re-resolves field names and rebuilds a kwargs
        dict on every call — measurable on per-packet hot paths like the
        TUSER build in behavioural forwarding.  ``packer("len",
        "src_port")`` resolves the layout once and returns a closure
        taking the values positionally, with validation (and error
        messages) identical to :meth:`pack`.
        """
        specs = []
        for name in names:
            field = self._fields.get(name)
            if field is None:
                raise KeyError(f"unknown field {name!r}; have {self.field_names}")
            specs.append((name, field.offset, field.width, mask(field.width)))

        def pack(*values: int) -> int:
            if len(values) != len(specs):
                raise TypeError(
                    f"packer takes {len(specs)} values, got {len(values)}"
                )
            word = 0
            for (name, offset, width, field_mask), value in zip(specs, values):
                if value < 0 or value > field_mask:
                    raise ValueError(
                        f"value {value:#x} does not fit field {name!r} "
                        f"({width} bits)"
                    )
                word |= value << offset
            return word

        return pack

    def unpack(self, word: int) -> dict[str, int]:
        """Split ``word`` into a ``{field: value}`` dict."""
        if word < 0 or word > mask(self.width):
            raise ValueError(f"word {word:#x} does not fit in {self.width} bits")
        return {
            f.name: (word >> f.offset) & mask(f.width) for f in self._fields.values()
        }

    def extract(self, word: int, name: str) -> int:
        """Read a single field out of ``word``."""
        field = self._fields[name]
        return (word >> field.offset) & mask(field.width)

    def insert(self, word: int, name: str, value: int) -> int:
        """Return ``word`` with field ``name`` replaced by ``value``."""
        field = self._fields[name]
        if value < 0 or value > mask(field.width):
            raise ValueError(
                f"value {value:#x} does not fit field {name!r} ({field.width} bits)"
            )
        cleared = word & ~(mask(field.width) << field.offset)
        return cleared | (value << field.offset)

    def accessors(self, name: str):
        """Compile :meth:`extract` and :meth:`insert` for one field:
        ``(read(word), write(word, value))``, the layout resolved once
        (for per-packet callers); ``write`` raises as :meth:`insert`."""
        field = self._fields[name]
        offset, width, field_mask = field.offset, field.width, mask(field.width)

        def write(word: int, value: int) -> int:
            if value < 0 or value > field_mask:
                raise ValueError(
                    f"value {value:#x} does not fit field {name!r} ({width} bits)"
                )
            return word & ~(field_mask << offset) | (value << offset)

        return (lambda word: (word >> offset) & field_mask), write
