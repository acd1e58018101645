"""Sorted runs and external merging under the RAM budget.

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
order-preserving, so byte order == value order).  :func:`make_runs` and
:meth:`RunMerger.merge` own the runs they hold: when a step raises,
every run not yet freed is freed before the error propagates.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack

from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import Extent, PageReader, PageWriter


def make_runs(
    device: SmartUsbDevice,
    records,
    record_width: int,
    key,
    sort_buffer_bytes: int,
    label: str,
) -> list[Extent]:
    """Partition ``records`` into sorted runs using a bounded sort buffer.

    ``key`` maps a raw record to its sort key (bytes).  The sort buffer is
    allocated from the RAM budget; each full buffer is sorted in place
    (CPU-charged at n log n comparisons) and written out as one run.
    """
    if sort_buffer_bytes < record_width:
        raise ValueError("sort buffer smaller than one record")
    capacity = max(1, sort_buffer_bytes // record_width)
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
        with device.ram.allocate(capacity * record_width, f"sort:{label}"):
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


class RunMerger:
    """K-way merges sorted runs within a fan-in limit (multi-pass)."""

    def __init__(
        self,
        device: SmartUsbDevice,
        key,
        label: str,
        fan_in: int | None = None,
        dedup: bool = False,
    ):
        self.device = device
        self.key = key
        self.label = label
        self.dedup = dedup
        if fan_in is None:
            # One page buffer per input plus one for the output, inside
            # whatever RAM remains.
            page = device.profile.page_size
            fan_in = max(2, device.ram.soft_available // page - 1)
        if fan_in < 2:
            raise ValueError("merge fan-in must be at least 2")
        self.fan_in = fan_in
        #: Number of merge passes the last :meth:`merge` call performed.
        self.passes = 0

    def merge(self, runs: list[Extent]) -> Extent:
        """Merge ``runs`` into a single sorted run, multi-pass if needed.

        The input runs are consumed: each is freed once merged, and on
        failure every input and intermediate run still held is freed.
        """
        ftl = self.device.ftl
        if not runs:
            return PageWriter(self.device, 1, f"merge:{self.label}").close()
        self.passes = 0
        next_level: list[Extent] = []
        try:
            if len(runs) == 1 and self.dedup:
                # A lone run still needs its duplicates squeezed out.
                merged = self._merge_group(runs)
                runs[0].free(ftl)
                return merged
            while len(runs) > 1:
                self.passes += 1
                next_level = []
                for start in range(0, len(runs), self.fan_in):
                    group = runs[start : start + self.fan_in]
                    if len(group) == 1:
                        next_level.append(group[0])
                        continue
                    merged = self._merge_group(group)
                    for run in group:
                        run.free(ftl)
                    next_level.append(merged)
                runs = next_level
        except BaseException:
            for run in (*runs, *next_level):
                run.free(ftl)
            raise
        return runs[0]

    def _merge_group(self, group: list[Extent]) -> Extent:
        width = group[0].record_width
        with ExitStack() as stack:
            readers = [
                stack.enter_context(
                    PageReader(self.device, run, f"merge-in:{self.label}")
                )
                for run in group
            ]
            writer = stack.enter_context(
                PageWriter(self.device, width, f"merge-out:{self.label}")
            )
            streams = [r.scan() for r in readers]
            heap = []
            for idx, stream in enumerate(streams):
                raw = next(stream, None)
                if raw is not None:
                    heapq.heappush(heap, (self.key(raw), idx, raw))
            last_key = None
            while heap:
                k, idx, raw = heapq.heappop(heap)
                self.device.chip.charge("merge_step")
                if not (self.dedup and k == last_key):
                    writer.append(raw)
                    last_key = k
                nxt = next(streams[idx], None)
                if nxt is not None:
                    heapq.heappush(heap, (self.key(nxt), idx, nxt))
        return writer.extent


def external_merge(
    device: SmartUsbDevice,
    runs: list[Extent],
    key,
    label: str,
    fan_in: int | None = None,
    dedup: bool = False,
) -> Extent:
    """Convenience wrapper: merge ``runs`` into one sorted run."""
    merger = RunMerger(device, key, label, fan_in=fan_in, dedup=dedup)
    return merger.merge(runs)
