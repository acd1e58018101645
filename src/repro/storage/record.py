"""Fixed-width record serialization.

A :class:`RecordCodec` encodes a tuple of typed values into a fixed-width
byte record and back.  Field offsets are precomputed so a single field can
be decoded from a record slice without touching the others --
``decode_field`` is what lets the engine read one hidden attribute with a
cheap *partial* flash read instead of a full-page read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.types import DataType, TypeError_


@dataclass
class RecordCodec:
    """Encode/decode fixed-width records for a list of column types."""

    types: list[DataType]
    _offsets: list[int] = field(init=False)

    def __post_init__(self):
        if not self.types:
            raise TypeError_("a record needs at least one column")
        offsets = []
        pos = 0
        for dtype in self.types:
            offsets.append(pos)
            pos += dtype.width
        self._offsets = offsets
        self.width = pos

    @property
    def arity(self) -> int:
        return len(self.types)

    def encode(self, values) -> bytes:
        """Encode one row (sequence of values) to ``self.width`` bytes."""
        if len(values) != len(self.types):
            raise TypeError_(
                f"row has {len(values)} values but codec expects "
                f"{len(self.types)}"
            )
        return b"".join(
            dtype.encode(value) for dtype, value in zip(self.types, values)
        )

    def decode(self, data: bytes) -> tuple:
        """Decode a full record."""
        if len(data) != self.width:
            raise TypeError_(
                f"record of {len(data)} B does not match codec width "
                f"{self.width}"
            )
        return tuple(
            dtype.decode(data[off : off + dtype.width])
            for dtype, off in zip(self.types, self._offsets)
        )

    def decode_field(self, data: bytes, index: int):
        """Decode a single field from a full record's bytes."""
        dtype = self.types[index]
        off = self._offsets[index]
        return dtype.decode(data[off : off + dtype.width])

    def field_slice(self, index: int) -> tuple[int, int]:
        """(offset, width) of field ``index`` within a record."""
        return self._offsets[index], self.types[index].width
