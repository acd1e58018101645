"""Bounded-fan-in unions of sorted posting streams.

A climbing index stores each posting list as a ``(first, count)`` slice
of a level's ID extent (:mod:`repro.index.climbing`); selections and ID
conversions union many such lists.  Merging them respects the RAM
budget by merging at a bounded fan-in and spilling intermediate runs to
flash, which is precisely the cost that makes Post-filtering attractive
for unselective predicates.
"""

from __future__ import annotations

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import PageReader, PageWriter
from repro.storage.runs import merge_runs, merge_sorted


def merge_posting_streams(
    device: SmartUsbDevice,
    open_stream_factories,
    label: str,
    fan_in: int,
):
    """Union many sorted ID streams under a bounded fan-in.

    ``open_stream_factories`` is a sequence of zero-argument callables,
    each returning ``(iterator, closer)`` for one sorted ID stream.  At
    most ``fan_in`` streams are open (each holding its page buffer) at any
    moment; larger inputs are unioned ``fan_in`` streams at a time into
    runs on flash, which :func:`~repro.storage.runs.merge_runs` merges
    down to ``fan_in`` runs for a last streaming pass -- paying the flash
    writes that make this the expensive path the paper's Post-filtering
    avoids.

    Yields the merged, deduplicated IDs in sorted order.
    """
    if fan_in < 2:
        raise ValueError("fan-in must be at least 2")
    factories = list(open_stream_factories)
    if len(factories) <= fan_in:
        yield from _union(device, factories)
        return
    # ``runs`` owns every finished run not yet freed; a failure at any
    # point (e.g. RAM exhaustion opening a stream) aborts the open spill
    # writer -- no further flash program -- and frees them all.
    runs = []
    try:
        for start in range(0, len(factories), fan_in):
            with PageWriter(
                device, ID_WIDTH, f"convert-spill:{label}"
            ) as writer:
                for value in _union(device, factories[start : start + fan_in]):
                    writer.append(ID_STRUCT.pack(value))
            runs.append(writer.extent)
        runs = merge_runs(device, runs, label, fan_in, dedup=True, until=fan_in)
        yield from _union(
            device, [_run_stream_factory(device, run, label) for run in runs]
        )
    finally:
        for run in runs:
            run.free(device.ftl)


def _run_stream_factory(device: SmartUsbDevice, run, label: str):
    def open_stream():
        reader = PageReader(device, run, f"convert-merge:{label}")
        iterator = (ID_STRUCT.unpack(raw)[0] for raw in reader.scan())
        return iterator, reader.close

    return open_stream


def _union(device: SmartUsbDevice, factories):
    """Deduplicating merge of the streams ``factories`` open, every one
    opened before the first is read."""
    closers = []
    try:
        streams = []
        for factory in factories:
            iterator, closer = factory()
            streams.append(iterator)
            closers.append(closer)
        yield from merge_sorted(device.chip, streams, dedup=True)
    finally:
        for closer in closers:
            closer()
