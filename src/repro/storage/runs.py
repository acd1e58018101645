"""Sorted runs and the one k-way merge under the RAM budget.

Several pieces of GhostDB need to sort or merge more data than fits in the
secure chip's RAM: sorting and grouping value rows, converting a long
visible ID list into root IDs (a union of many per-key posting lists),
and the hash-join baseline's spill path.  This module provides the
classical external-memory machinery, with all buffers charged to the
device RAM budget and all I/O to the flash -- so the *cost* of running
out of RAM is real, which is exactly the effect the paper's
Post-filtering strategy exists to avoid.

A *run* is an :class:`~repro.storage.pagestore.Extent` of fixed-width
records in non-decreasing key order, where the key is a byte slice of
the record (all codecs in :mod:`repro.storage.types` are
order-preserving, so byte order == value order).  :func:`merge_sorted`
is the only merge loop on the device; :func:`merge_runs` is the one
multi-pass ladder over runs.  :func:`make_runs` and :func:`merge_runs`
own the runs they hold: when a step raises, every run not yet freed is
freed before the error propagates.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack
from itertools import chain

from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import Extent, PageReader, PageWriter

#: Most streams one merge opens, however much RAM is free.
MAX_FAN_IN = 16

_NOTHING = object()


def fan_in_for(free_bytes: float, page_size: int) -> int:
    """The merge fan-in ``free_bytes`` of RAM affords: one page buffer
    per input stream plus one output buffer, with one page to spare,
    never above :data:`MAX_FAN_IN` and never below 2.  The executor
    grants it from the RAM free when a merge opens, and the cost model
    prices merges with it from the RAM the rest of the plan leaves."""
    return max(2, min(MAX_FAN_IN, int(free_bytes // page_size) - 2))


def merge_sorted(chip, streams, key=None, dedup=False):
    """K-way merge of sorted ``streams``, optionally deduplicated.

    The charge-order contract every merge on the device keeps: one
    ``merge_step`` per item taken off the merge front, ties broken by
    stream order, and a stream advanced only after its item was taken
    (and consumed downstream).  Every stream yields its first item in
    stream order on the first pull.  ``key`` maps an item to its sort
    key; with ``dedup`` an item whose key equals the previous item's is
    charged but not yielded.
    """
    charge = chip.charge
    last = _NOTHING
    for item in heapq.merge(*streams, key=key):
        charge("merge_step")
        if dedup:
            current = item if key is None else key(item)
            if current == last:
                continue
            last = current
        yield item


def make_runs(
    device: SmartUsbDevice,
    records,
    record_width: int,
    key,
    sort_buffer_bytes: int,
    label: str,
    declare=None,
) -> list[Extent]:
    """Partition ``records`` into sorted runs using a bounded sort buffer.

    ``key`` maps a raw record to its sort key (bytes).  The sort buffer is
    allocated from the RAM budget; each full buffer is sorted in place
    (CPU-charged at n log n comparisons) and written out as one run.
    Once the first record has opened the producer's readers, a buffer
    that leaves the run writer no page shrinks until it does.
    ``declare``, if given, is called once with the bytes the buffer
    keeps: ``sort_buffer_bytes``, or what it shrank to.
    """
    if sort_buffer_bytes < record_width:
        raise ValueError("sort buffer smaller than one record")
    capacity = max(1, sort_buffer_bytes // record_width)
    records = iter(records)
    runs: list[Extent] = []
    buffer: list[bytes] = []

    def flush():
        if not buffer:
            return
        comparisons = len(buffer).bit_length() * len(buffer)
        device.chip.charge("compare", comparisons)
        buffer.sort(key=key)
        with PageWriter(device, record_width, f"run:{label}") as writer:
            for raw in buffer:
                writer.append(raw)
        runs.append(writer.extent)
        buffer.clear()

    try:
        with device.ram.allocate(capacity * record_width, f"sort:{label}") as sort:
            kept = sort_buffer_bytes
            first = next(records, _NOTHING)
            if first is not _NOTHING:
                short = device.profile.page_size - device.ram.soft_available
                if short > 0:
                    drop = (short + record_width - 1) // record_width
                    capacity = max(1, capacity - drop)
                    sort.resize(capacity * record_width)
                    kept = sort.size
                records = chain((first,), records)
            if declare is not None:
                declare(kept)
            for raw in records:
                buffer.append(raw)
                if len(buffer) >= capacity:
                    flush()
            flush()
    except BaseException:
        for run in runs:
            run.free(device.ftl)
        raise
    return runs


def merge_runs(
    device: SmartUsbDevice,
    runs: list[Extent],
    label: str,
    fan_in: int,
    key=None,
    dedup: bool = False,
    until: int = 1,
) -> list[Extent]:
    """Merge ``runs`` ``fan_in`` at a time, pass after pass, until at
    most ``until`` runs remain; returns them in order.

    Each pass merges consecutive groups of ``fan_in`` runs into one run
    on flash (a lone trailing run passes through).  The input runs are
    consumed: each is freed once merged, and on failure every input and
    intermediate run still held is freed.
    """
    if fan_in < 2:
        raise ValueError("merge fan-in must be at least 2")
    ftl = device.ftl
    level: list[Extent] = []
    try:
        while len(runs) > until:
            level = []
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                if len(group) > 1:
                    merged = _merge_group(device, group, label, key, dedup)
                    for run in group:
                        run.free(ftl)
                    group = [merged]
                level.extend(group)
            runs = level
    except BaseException:
        for run in (*runs, *level):
            run.free(ftl)
        raise
    return runs


def _merge_group(device, group: list[Extent], label: str, key, dedup) -> Extent:
    with ExitStack() as stack:
        readers = [
            stack.enter_context(PageReader(device, run, f"merge-in:{label}"))
            for run in group
        ]
        writer = stack.enter_context(
            PageWriter(device, group[0].record_width, f"merge-out:{label}")
        )
        streams = [reader.scan() for reader in readers]
        for raw in merge_sorted(device.chip, streams, key, dedup):
            writer.append(raw)
    return writer.extent
