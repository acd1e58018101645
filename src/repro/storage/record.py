"""Fixed-width record serialization.

A :class:`RecordCodec` encodes a tuple of typed values into a fixed-width
byte record and back.  Field offsets are precomputed so a single field can
be decoded from a record slice without touching the others --
``decode_field`` is what lets the engine read one hidden attribute with a
cheap *partial* flash read instead of a full-page read.

Each layout is compiled once: one big-endian ``struct.Struct`` for the
whole record and one per field, beside each field type's value/field
transforms (:mod:`repro.storage.types`).  A record then encodes with one
``pack`` and decodes with one ``unpack``, one transform per field.  The
compiled layouts live in a module cache keyed by the column types, not on
the codec: codecs are pickled with the session, and a ``struct.Struct``
cannot be (the reason :func:`repro.columns.ids_struct` lives in its
module too).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

from repro.storage.types import DataType, TypeError_


class _Layout:
    """One record layout, compiled: the record's struct, each field's
    struct and each field's transforms, all in column order."""

    __slots__ = ("record", "fields", "to_field", "from_field")

    def __init__(self, types: tuple[DataType, ...]):
        self.record = struct.Struct(">" + "".join(t.code for t in types))
        self.fields = tuple(struct.Struct(">" + t.code) for t in types)
        self.to_field = tuple(t.to_field for t in types)
        self.from_field = tuple(t.from_field for t in types)


@functools.cache
def _compile(types: tuple[DataType, ...]) -> _Layout:
    return _Layout(types)


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
        self._layout = _compile(tuple(self.types))

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_layout"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._layout = _compile(tuple(self.types))

    @property
    def arity(self) -> int:
        return len(self.types)

    def encode(self, values) -> bytes:
        """Encode one row (sequence of values) to ``self.width`` bytes."""
        layout = self._layout
        if len(values) != len(layout.to_field):
            raise TypeError_(
                f"row has {len(values)} values but codec expects "
                f"{len(self.types)}"
            )
        return layout.record.pack(
            *[to_field(value) for to_field, value in zip(layout.to_field, values)]
        )

    def decode(self, data: bytes) -> tuple:
        """Decode a full record."""
        if len(data) != self.width:
            raise TypeError_(
                f"record of {len(data)} B does not match codec width "
                f"{self.width}"
            )
        layout = self._layout
        return tuple([
            from_field(value)
            for from_field, value in zip(
                layout.from_field, layout.record.unpack(data)
            )
        ])

    def decode_field(self, data: bytes, index: int):
        """Decode a single field from a full record's bytes."""
        layout = self._layout
        return layout.from_field[index](
            layout.fields[index].unpack_from(data, self._offsets[index])[0]
        )

    def field_decoder(self, index: int):
        """``decode_field(·, index)`` with the field resolved once, for a
        scan that decodes the same field of many records."""
        unpack_from = self._layout.fields[index].unpack_from
        from_field = self._layout.from_field[index]
        offset = self._offsets[index]

        def decode(data: bytes):
            return from_field(unpack_from(data, offset)[0])

        return decode

    def field_slice(self, index: int) -> tuple[int, int]:
        """(offset, width) of field ``index`` within a record."""
        return self._offsets[index], self.types[index].width
