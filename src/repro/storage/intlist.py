"""Packed sorted-integer lists on flash (posting lists).

Climbing-index postings and intermediate ID lists are sequences of 32-bit
unsigned IDs packed onto pages.  They are always *sorted*, which is the
paper's central storage invariant: conjunctions become streaming merges
needing one page buffer per input instead of hash tables that cannot fit
in tens of KB of RAM.
"""

from __future__ import annotations

from repro.columns import ID_STRUCT, ID_WIDTH, MAX_ID, IdColumn
from repro.hardware.device import SmartUsbDevice


class IntListWriter:
    """Appends 32-bit IDs, flushing full pages to flash."""

    def __init__(self, device: SmartUsbDevice, label: str):
        self.device = device
        self.label = label
        self.pages: list[int] = []
        self.count = 0
        self._ids_per_page = device.profile.page_size // ID_WIDTH
        self._buffer = bytearray()
        self._alloc = device.ram.allocate(device.profile.page_size, label)
        self._closed = False

    def append(self, value: int) -> None:
        if self._closed:
            raise ValueError(f"writer {self.label!r} is closed")
        if not 0 <= value <= MAX_ID:
            raise ValueError(f"ID {value} out of 32-bit unsigned range")
        self._buffer.extend(ID_STRUCT.pack(value))
        self.count += 1
        if len(self._buffer) >= self._ids_per_page * ID_WIDTH:
            self._flush()

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def _flush(self) -> None:
        if not self._buffer:
            return
        lpage = self.device.ftl.allocate()
        self.device.ftl.write(lpage, bytes(self._buffer))
        self.pages.append(lpage)
        self._buffer.clear()

    def close(self) -> None:
        if not self._closed:
            self._flush()
            self._alloc.release()
            self._closed = True

    def abort(self) -> None:
        """Drop the unflushed tail and release RAM; no flash I/O.

        Exception-unwind path: a faulted device must not keep
        programming flash while the error propagates (see
        ``PageWriter.abort``).
        """
        if not self._closed:
            self._buffer.clear()
            self._alloc.release()
            self._closed = True

    def __enter__(self) -> "IntListWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class IntListReader:
    """Streams a packed ID list back from flash, one page buffer of RAM."""

    def __init__(
        self,
        device: SmartUsbDevice,
        pages: list[int],
        count: int,
        label: str,
    ):
        self.device = device
        self.pages = pages
        self.count = count
        self.label = label
        self._ids_per_page = device.profile.page_size // ID_WIDTH
        self._alloc = device.ram.allocate(device.profile.page_size, label)
        self._closed = False

    def __iter__(self):
        remaining = self.count
        for lpage in self.pages:
            if remaining <= 0:
                break
            data = self.device.ftl.read(lpage)
            take = min(self._ids_per_page, remaining)
            # Columnar decode: the whole page's IDs in one typed-vector
            # conversion instead of a struct.unpack call per ID.
            yield from IdColumn.from_be_bytes(data, take)
            remaining -= take

    def read_all(self) -> list[int]:
        """Materialise the whole list in *host* memory (tests/benches)."""
        return list(self)

    def close(self) -> None:
        if not self._closed:
            self._alloc.release()
            self._closed = True

    def __enter__(self) -> "IntListReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def free_intlist(device: SmartUsbDevice, pages: list[int]) -> None:
    """Return a packed list's pages to the FTL."""
    for lpage in pages:
        device.ftl.free(lpage)
