"""The one extent format on flash.

Every device structure is an *extent*: fixed-width records packed onto
flash pages behind the FTL.  Heaps and their sparse-PK arrays, SKTs,
climbing-index posting lists, spilled sort runs and materialised
intermediates all use it.  Records never span pages, so record ``i``
lives at page ``i // slots_per_page``, slot ``i % slots_per_page`` --
pure arithmetic, no directory reads.

An open :class:`PageWriter` or :class:`PageReader` holds exactly one
page-sized buffer, *allocated from the device RAM budget*, which is how
the simulation keeps every storage access honest about memory.  A writer
whose block raises (the abort rule) drops its unflushed tail with no
flash I/O, frees the pages it already flushed and releases its buffer --
also when its final flush is what raised -- so a faulted device programs
no further page and the writer leaves nothing behind.

An extent's page list is small metadata that a real device would keep in
its internal stable storage; here it lives in the :class:`Extent` and is
not charged against query RAM.  A freed extent keeps its record count but
no pages, and any page read through it raises :class:`ExtentFreedError`:
a statement still reading a structure that another session's rebuild
replaced fails loudly instead of ending early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columns import ID_STRUCT, ID_WIDTH, IdColumn
from repro.hardware.flash import FlashError


class ExtentFreedError(FlashError):
    """A page read through an extent whose pages were freed."""


@dataclass(eq=False)
class Extent:
    """Handle to fixed-width records on flash pages (compared by
    identity: two empty extents are still two handles)."""

    record_width: int
    page_size: int
    pages: list[int] = field(default_factory=list)
    count: int = 0
    slots_per_page: int = field(init=False)
    freed: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.record_width <= 0:
            raise ValueError("record width must be positive")
        if self.record_width > self.page_size:
            raise FlashError(
                f"record of {self.record_width} B exceeds the "
                f"{self.page_size} B page"
            )
        self.slots_per_page = self.page_size // self.record_width

    @property
    def flash_bytes(self) -> int:
        """Flash footprint in whole pages."""
        return len(self.pages) * self.page_size

    def page(self, page_idx: int) -> int:
        """The logical page holding page ``page_idx`` of the extent."""
        if self.freed:
            raise ExtentFreedError(
                f"extent of {self.count} records read after its pages "
                "were freed"
            )
        return self.pages[page_idx]

    def locate(self, rowid: int) -> tuple[int, int]:
        """The logical page and byte offset of record ``rowid``."""
        if not 0 <= rowid < self.count:
            raise IndexError(f"rowid {rowid} out of range [0, {self.count})")
        page_idx, slot = divmod(rowid, self.slots_per_page)
        return self.page(page_idx), slot * self.record_width

    def read_id(self, ftl, rowid: int) -> int:
        """ID record ``rowid`` by one partial read, with no reader buffer:
        a binary-search probe of a sparse table's PK array."""
        lpage, offset = self.locate(rowid)
        return ID_STRUCT.unpack(ftl.read(lpage, offset, ID_WIDTH))[0]

    def free(self, ftl) -> None:
        """Return every page to the FTL (bookkeeping, no flash I/O).

        The handle is left with no pages, so a second free frees nothing,
        and marked freed, so a later read raises :class:`ExtentFreedError`.
        """
        pages, self.pages, self.freed = self.pages, [], True
        for lpage in pages:
            ftl.free(lpage)


class PageWriter:
    """Appends records to a new :class:`Extent`, flushing full pages.

    Usage::

        with PageWriter(device, codec.width, "load:visit") as writer:
            for row in rows:
                writer.append(codec.encode(row))
        extent = writer.extent
    """

    def __init__(self, device, record_width: int, label: str):
        self.extent = Extent(record_width, device.profile.page_size)
        self.label = label
        self._device = device
        self._page_bytes = self.extent.slots_per_page * record_width
        self._buffer = bytearray()
        self._alloc = device.ram.allocate(device.profile.page_size, label)
        self._closed = False

    def append(self, raw: bytes) -> None:
        """Append one encoded record."""
        if self._closed:
            raise ValueError(f"writer {self.label!r} is closed")
        if len(raw) != self.extent.record_width:
            raise ValueError(
                f"record of {len(raw)} B does not match declared width "
                f"{self.extent.record_width}"
            )
        self._buffer += raw
        self.extent.count += 1
        if len(self._buffer) >= self._page_bytes:
            self._flush(self._page_bytes)

    def append_ids(self, ids) -> None:
        """Append a sequence of IDs as 4-byte records (a posting list)."""
        if self._closed:
            raise ValueError(f"writer {self.label!r} is closed")
        if self.extent.record_width != ID_WIDTH:
            raise ValueError(f"writer {self.label!r} does not hold IDs")
        try:
            packed = IdColumn.from_ids(ids).to_be_bytes()
        except OverflowError:
            raise ValueError("ID out of 32-bit unsigned range") from None
        self._buffer += packed
        self.extent.count += len(packed) // ID_WIDTH
        while len(self._buffer) >= self._page_bytes:
            self._flush(self._page_bytes)

    def _flush(self, size: int) -> None:
        ftl = self._device.ftl
        lpage = ftl.allocate()
        ftl.write(lpage, bytes(self._buffer[:size]))
        self.extent.pages.append(lpage)
        del self._buffer[:size]

    def close(self) -> Extent:
        """Flush the tail page and release the buffer."""
        if not self._closed:
            if self._buffer:
                try:
                    self._flush(len(self._buffer))
                except BaseException:
                    self.abort()
                    raise
            self._closed = True
            self._alloc.release()
        return self.extent

    def abort(self) -> None:
        """Discard the output, also after :meth:`close`: drop the tail
        with no flash I/O, free the flushed pages, release the buffer."""
        self._closed = True
        self._buffer.clear()
        self._alloc.release()
        self.extent.free(self._device.ftl)

    def __enter__(self) -> "PageWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class PageReader:
    """Reads one extent, holding one page buffer of RAM while open."""

    def __init__(self, device, extent: Extent, label: str):
        self.extent = extent
        self._device = device
        self._alloc = device.ram.allocate(extent.page_size, label)

    def record(self, rowid: int) -> bytes:
        """Fetch one record; a cold fetch costs one partial page read.

        The device's buffer pool may serve it for free when the page was
        recently read in full; either way this reader holds no page
        state of its own -- caching lives in exactly one place.
        """
        return self.field(rowid, 0, self.extent.record_width)

    def field(self, rowid: int, offset: int, width: int) -> bytes:
        """Fetch one field of one record (cheapest possible flash read)."""
        lpage, base = self.extent.locate(rowid)
        return self._device.ftl.read(lpage, base + offset, width)

    def field_reader(self, offset: int, width: int, full_page: bool = False):
        """A function from a rowid to the ``width`` bytes at ``offset``
        of that record, for readers that fetch the same field of many
        records: the field's place in the record is resolved once, and
        each call makes exactly one FTL read.

        By default each call is a cheap partial read.  With
        ``full_page`` it reads the whole page through the buffer pool:
        a miss pays a full-page read, but every further record on the
        page is then served for free -- the right choice when hits are
        dense (at least two per page) *and* the pool is enabled.  With
        the pool disabled that degrades to one full read per call, so
        callers gate the choice on ``device.page_cache.enabled``.
        """
        locate, device = self.extent.locate, self._device
        if full_page:
            def read(rowid: int) -> bytes:
                lpage, base = locate(rowid)
                base += offset
                return device.ftl.read(lpage)[base : base + width]
        else:
            def read(rowid: int) -> bytes:
                lpage, base = locate(rowid)
                return device.ftl.read(lpage, base + offset, width)
        return read

    def scan(self, start: int = 0, stop: int | None = None):
        """Yield raw records in rowid order using full-page reads.

        Each page is read once per scan pass (a loop-local buffer, the
        one page this reader's RAM allocation stands for); re-scans hit
        the buffer pool when one is enabled.
        """
        extent = self.extent
        width, slots = extent.record_width, extent.slots_per_page
        stop = extent.count if stop is None else min(stop, extent.count)
        rowid = start
        while rowid < stop:
            page_idx, slot = divmod(rowid, slots)
            data = self._device.ftl.read(extent.page(page_idx))
            for s in range(slot, min(slots, stop - page_idx * slots)):
                yield data[s * width : (s + 1) * width]
            rowid = (page_idx + 1) * slots

    def ids(self, first: int, count: int):
        """Yield the posting list of ``count`` IDs from record ``first``.

        A page the list covers with at most a quarter page of IDs gets a
        cheap partial read; otherwise the full page goes through the
        buffer pool, so lists sharing a page -- or a re-read list -- hit
        it for free.
        """
        extent = self.extent
        slots, quarter = extent.slots_per_page, extent.page_size // 4
        rowid, stop = first, first + count
        while rowid < stop:
            page_idx, slot = divmod(rowid, slots)
            take = min(stop - rowid, slots - slot)
            lpage = extent.page(page_idx)
            if take * ID_WIDTH <= quarter:
                raw = self._device.ftl.read(
                    lpage, slot * ID_WIDTH, take * ID_WIDTH
                )
                yield from IdColumn.from_be_bytes(raw, take)
            else:
                data = self._device.ftl.read(lpage)
                yield from IdColumn.from_be_bytes(
                    data, take, offset=slot * ID_WIDTH
                )
            rowid += take

    def close(self) -> None:
        self._alloc.release()

    def __enter__(self) -> "PageReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
