"""Packed posting files: many sorted ID lists in one flash extent.

A climbing index stores, per distinct value and per level, a sorted list
of 32-bit IDs.  Most lists are short, so giving each its own page would
inflate the index's flash footprint (which the paper explicitly counts as
the price of its indexing model).  Instead, all lists of one (index,
level) live packed back to back in a single extent; the directory
remembers ``(start offset, count)`` per value.

Reading a list streams whole pages only when the list spans them and uses
cheap partial reads otherwise.  Merging many lists -- the union step of an
ID conversion -- respects the RAM budget by merging at a bounded fan-in
and spilling intermediate runs to flash, which is precisely the cost that
makes Post-filtering attractive for unselective predicates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.columns import ID_STRUCT, ID_WIDTH, MAX_ID, IdColumn
from repro.hardware.device import SmartUsbDevice
from repro.storage.runs import Run, RunReader, RunWriter


@dataclass(frozen=True)
class PostingRef:
    """Directory entry: where one value's ID list lives in the extent."""

    start: int  # byte offset within the posting file
    count: int  # number of IDs


class PostingFileWriter:
    """Packs consecutive sorted ID lists into one extent."""

    def __init__(self, device: SmartUsbDevice, label: str):
        self.device = device
        self.label = label
        self.pages: list[int] = []
        self._buffer = bytearray()
        self._offset = 0
        self._page_size = device.profile.page_size
        self._alloc = device.ram.allocate(self._page_size, label)
        self._closed = False
        self._list_open = False
        self._list_start = 0
        self._list_count = 0
        self._last_id: int | None = None

    def begin_list(self) -> None:
        if self._list_open:
            raise ValueError("previous posting list not finished")
        self._list_open = True
        self._list_start = self._offset
        self._list_count = 0
        self._last_id = None

    def append(self, value: int) -> None:
        if not self._list_open:
            raise ValueError("no posting list open")
        if not 0 <= value <= MAX_ID:
            raise ValueError(f"ID {value} out of 32-bit range")
        if self._last_id is not None and value < self._last_id:
            raise ValueError(
                f"posting lists must be sorted: {value} after {self._last_id}"
            )
        self._last_id = value
        self._buffer.extend(ID_STRUCT.pack(value))
        self._offset += ID_WIDTH
        self._list_count += 1
        if len(self._buffer) >= self._page_size:
            self._flush_page()

    def end_list(self) -> PostingRef:
        if not self._list_open:
            raise ValueError("no posting list open")
        self._list_open = False
        return PostingRef(start=self._list_start, count=self._list_count)

    def _flush_page(self) -> None:
        while len(self._buffer) >= self._page_size:
            chunk = bytes(self._buffer[: self._page_size])
            lpage = self.device.ftl.allocate()
            self.device.ftl.write(lpage, chunk)
            self.pages.append(lpage)
            del self._buffer[: self._page_size]

    def close(self) -> "PostingFileReaderFactory":
        if self._closed:
            raise ValueError("posting file already closed")
        if self._list_open:
            raise ValueError("a posting list is still open")
        if self._buffer:
            lpage = self.device.ftl.allocate()
            self.device.ftl.write(lpage, bytes(self._buffer))
            self.pages.append(lpage)
            self._buffer.clear()
        self._alloc.release()
        self._closed = True
        return PostingFileReaderFactory(
            device=self.device, pages=self.pages, total_bytes=self._offset
        )


@dataclass
class PostingFileReaderFactory:
    """Handle to a closed posting file; opens budget-charged readers."""

    device: SmartUsbDevice
    pages: list[int]
    total_bytes: int

    def open(self, label: str) -> "PostingFileReader":
        return PostingFileReader(self.device, self.pages, label)

    @property
    def flash_bytes(self) -> int:
        """Flash footprint (whole pages) -- the index storage cost."""
        return len(self.pages) * self.device.profile.page_size


class PostingFileReader:
    """Reads individual posting lists; holds one page buffer of RAM."""

    def __init__(self, device: SmartUsbDevice, pages: list[int], label: str):
        self.device = device
        self.pages = pages
        self.label = label
        self._page_size = device.profile.page_size
        self._alloc = device.ram.allocate(self._page_size, label)
        self._closed = False

    def read_list(self, ref: PostingRef):
        """Yield the IDs of one posting list, in sorted order.

        Each page the list spans is read once per call (full reads go
        through the device's buffer pool, so lists packed onto the same
        page -- or re-read lists -- hit it for free); small tails use
        cheap partial reads.
        """
        page_size = self._page_size
        remaining = ref.count
        offset = ref.start
        while remaining > 0:
            page_idx, in_page = divmod(offset, page_size)
            available = (page_size - in_page) // ID_WIDTH
            take = min(remaining, available)
            if take * ID_WIDTH <= page_size // 4:
                # Small tail: cheap partial read, not worth a full page.
                raw = self.device.ftl.read(
                    self.pages[page_idx], in_page, take * ID_WIDTH
                )
                yield from IdColumn.from_be_bytes(raw, take)
            else:
                data = self.device.ftl.read(self.pages[page_idx])
                yield from IdColumn.from_be_bytes(data, take, offset=in_page)
            offset += take * ID_WIDTH
            remaining -= take

    def close(self) -> None:
        if not self._closed:
            self._alloc.release()
            self._closed = True

    def __enter__(self) -> "PostingFileReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def merge_posting_streams(
    device: SmartUsbDevice,
    open_stream_factories,
    label: str,
    fan_in: int,
    dedup: bool = True,
):
    """Union many sorted ID streams under a bounded fan-in.

    ``open_stream_factories`` is a sequence of zero-argument callables,
    each returning ``(iterator, closer)`` for one sorted ID stream.  At
    most ``fan_in`` streams are open (each holding its page buffer) at any
    moment; larger inputs go through intermediate runs on flash -- paying
    the flash writes that make this the expensive path the paper's
    Post-filtering avoids.

    Yields the merged (optionally deduplicated) IDs in sorted order.
    """
    if fan_in < 2:
        raise ValueError("fan-in must be at least 2")
    factories = list(open_stream_factories)
    if not factories:
        return
    if len(factories) <= fan_in:
        yield from _heap_merge(device, factories, dedup)
        return
    # Too many streams: merge groups into temporary runs, then merge runs.
    # ``live`` owns every temporary run not yet freed, so a failure at
    # any point (e.g. RAM exhaustion opening a stream) releases both the
    # writer's RAM buffer (finish() in the finally) and the flash pages.
    live: list[Run] = []

    def merge_into_run(stream_factories) -> Run:
        writer = RunWriter(device, ID_WIDTH, f"convert-spill:{label}")
        try:
            for value in _heap_merge(device, stream_factories, dedup):
                writer.append(ID_STRUCT.pack(value))
        finally:
            run = writer.finish()
            live.append(run)
        return run

    try:
        level = []
        for start in range(0, len(factories), fan_in):
            level.append(merge_into_run(factories[start : start + fan_in]))
        while len(level) > fan_in:
            next_level: list[Run] = []
            for start in range(0, len(level), fan_in):
                group = level[start : start + fan_in]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                factories_r = [
                    _run_stream_factory(device, run, label) for run in group
                ]
                next_level.append(merge_into_run(factories_r))
                for run in group:
                    run.free(device)
                    live.remove(run)
            level = next_level
        factories_r = [_run_stream_factory(device, run, label) for run in level]
        yield from _heap_merge(device, factories_r, dedup)
    finally:
        for run in live:
            run.free(device)


def _run_stream_factory(device: SmartUsbDevice, run: Run, label: str):
    def open_stream():
        reader = RunReader(device, run, f"convert-merge:{label}")
        iterator = (ID_STRUCT.unpack(raw)[0] for raw in reader)
        return iterator, reader.close

    return open_stream


def _heap_merge(device: SmartUsbDevice, factories, dedup: bool):
    """K-way merge of the streams produced by ``factories``."""
    streams = []
    closers = []
    try:
        for factory in factories:
            iterator, closer = factory()
            streams.append(iterator)
            closers.append(closer)
        heap = []
        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heap.append((first, idx))
        heapq.heapify(heap)
        last = None
        while heap:
            value, idx = heapq.heappop(heap)
            device.chip.charge("merge_step")
            if not (dedup and value == last):
                yield value
                last = value
            nxt = next(streams[idx], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt, idx))
    finally:
        for closer in closers:
            closer()
