"""The packed-ID layout and typed columnar batch payloads.

An ID is an unsigned 32-bit integer, packed big-endian on flash (posting
lists, SKT records, spilled runs) and on the USB wire (``ids`` payloads
and the ID tail of a fetch request).  :data:`ID_WIDTH`, :data:`MAX_ID`,
:data:`ID_STRUCT` and :func:`ids_struct` (a run of IDs, such as an SKT
record) are that layout's one definition; every packer, unpacker and
observer imports them from here.

The batch protocol (:mod:`repro.engine.operators.base`) moves windows of
items between operators.  For the ID-heavy inner plans -- climbing
selections, conversions, SKT root streams -- those items are plain 32-bit
integers, and shipping them as Python lists of boxed ints makes the host
pay per-object overhead the simulated device never sees.  An
:class:`IdColumn` stores one window as a compact ``array`` buffer
instead.

Two contracts keep columns drop-in for every consumer:

* A column is a sequence: ``len()``, iteration, indexing and slicing all
  work, and iteration yields built-in Python ints.
* Columns are immutable once built.  Operators hand the same column (or
  a slice of it, which shares no mutable state) downstream without
  copying.

Batching remains purely a host-side execution detail: whether a window
travels as a list or a column must never change what the simulated
hardware does.
"""

from __future__ import annotations

import functools
import struct
import sys
from array import array
from itertools import islice

#: Width of a packed ID on flash / USB, in bytes (big-endian uint32).
ID_WIDTH = 4

#: The largest ID the packed layout holds.
MAX_ID = (1 << 32) - 1

#: Packs and unpacks one ID.
ID_STRUCT = struct.Struct(">I")


@functools.cache
def ids_struct(arity: int) -> struct.Struct:
    """Packs and unpacks ``arity`` consecutive IDs in one call (an SKT
    record): :data:`ID_STRUCT`'s layout, repeated.  Kept here rather
    than on the records' owner, which is pickled with its session."""
    byte_order, code = ID_STRUCT.format[:1], ID_STRUCT.format[1:]
    return struct.Struct(byte_order + code * arity)

# ``array`` typecodes are C types, so 'I' (unsigned int) is 4 bytes on
# every mainstream platform -- but pick by itemsize, not by faith.
_TYPECODE = next(
    code for code in ("I", "L") if array(code).itemsize == ID_WIDTH
)


class IdColumn:
    """An immutable vector of 32-bit IDs -- one columnar batch payload."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_ids(cls, ids) -> "IdColumn":
        """Build from an iterable of Python ints."""
        return cls(array(_TYPECODE, ids))

    @classmethod
    def from_be_bytes(cls, raw: bytes, count: int, offset: int = 0) -> "IdColumn":
        """Decode ``count`` big-endian uint32 values starting at
        ``offset`` of ``raw`` -- the packed on-flash / on-wire layout."""
        ids = array(_TYPECODE)
        ids.frombytes(raw[offset : offset + count * ID_WIDTH])
        if sys.byteorder == "little":
            ids.byteswap()
        return cls(ids)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return IdColumn(self._data[item])
        return self._data[item]

    def __bool__(self) -> bool:
        return len(self._data) > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IdColumn):
            other = other.tolist()
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in islice(self, 6))
        more = ", ..." if len(self) > 6 else ""
        return f"IdColumn([{head}{more}], n={len(self)})"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def tolist(self) -> list[int]:
        """The column as a list of built-in Python ints."""
        return self._data.tolist()

    def to_be_bytes(self) -> bytes:
        """Pack back to the big-endian wire/flash layout."""
        data = self._data
        if sys.byteorder == "little":
            data = array(_TYPECODE, data)
            data.byteswap()
        return data.tobytes()


def chunk_ids(iterator, cap: int):
    """Re-chunk a per-item ID iterator into :class:`IdColumn` payloads
    of at most ``cap`` items, closing the iterator on teardown.

    The iterator is advanced in exactly the same ``islice`` pattern the
    default batch protocol uses, so the hardware-op order is identical
    to shipping plain lists.
    """
    try:
        while True:
            block = list(islice(iterator, cap))
            if not block:
                return
            yield IdColumn.from_ids(block)
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
