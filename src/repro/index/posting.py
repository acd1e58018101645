"""Bounded-fan-in unions of sorted posting streams.

A climbing index stores each posting list as a ``(first, count)`` slice
of a level's ID extent (:mod:`repro.index.climbing`); selections and ID
conversions union many such lists.  Merging them respects the RAM
budget by merging at a bounded fan-in and spilling intermediate runs to
flash, which is precisely the cost that makes Post-filtering attractive
for unselective predicates.
"""

from __future__ import annotations

import heapq

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import Extent, PageReader, PageWriter


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
    # ``live`` owns every finished temporary run not yet freed; a failure
    # at any point (e.g. RAM exhaustion opening a stream) aborts the open
    # spill writer -- no further flash program -- and frees them all.
    live: list[Extent] = []

    def merge_into_run(stream_factories) -> Extent:
        with PageWriter(device, ID_WIDTH, f"convert-spill:{label}") as writer:
            for value in _heap_merge(device, stream_factories, dedup):
                writer.append(ID_STRUCT.pack(value))
        live.append(writer.extent)
        return writer.extent

    try:
        level = []
        for start in range(0, len(factories), fan_in):
            level.append(merge_into_run(factories[start : start + fan_in]))
        while len(level) > fan_in:
            next_level: list[Extent] = []
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
                    run.free(device.ftl)
                    live.remove(run)
            level = next_level
        factories_r = [_run_stream_factory(device, run, label) for run in level]
        yield from _heap_merge(device, factories_r, dedup)
    finally:
        for run in live:
            run.free(device.ftl)


def _run_stream_factory(device: SmartUsbDevice, run: Extent, label: str):
    def open_stream():
        reader = PageReader(device, run, f"convert-merge:{label}")
        iterator = (ID_STRUCT.unpack(raw)[0] for raw in reader.scan())
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
