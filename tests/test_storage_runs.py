"""External sorting and bounded-fan-in merging."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import PageReader, PageWriter
from repro.storage.runs import RunMerger, external_merge, make_runs

_PACK = struct.Struct(">I")


def pack_all(values):
    return [_PACK.pack(v) for v in values]


def unpack_run(device, run):
    with PageReader(device, run, "check") as reader:
        return [_PACK.unpack(raw)[0] for raw in reader.scan()]


def test_run_writer_reader_roundtrip(device):
    with PageWriter(device, 4, "t") as writer:
        for value in range(100):
            writer.append(_PACK.pack(value))
    run = writer.extent
    assert run.count == 100
    assert unpack_run(device, run) == list(range(100))


def test_make_runs_partitions_and_sorts(device):
    records = pack_all([5, 3, 8, 1, 9, 2, 7, 4, 6, 0])
    runs = make_runs(
        device, records, 4, key=lambda r: r, sort_buffer_bytes=16, label="t"
    )
    assert len(runs) == 3  # 4 + 4 + 2 records
    for run in runs:
        values = unpack_run(device, run)
        assert values == sorted(values)


def test_make_runs_respects_ram_budget(device):
    """The sort buffer is a real allocation; an absurd request fails."""
    from repro.hardware.ram import RamExhaustedError

    with pytest.raises(RamExhaustedError):
        make_runs(
            device, [], 4, key=lambda r: r,
            sort_buffer_bytes=device.ram.capacity + 4, label="t",
        )


def test_external_merge_single_pass(device):
    runs = make_runs(
        device,
        pack_all([9, 1, 5, 3, 7, 2, 8, 4, 6, 0]),
        4, key=lambda r: r, sort_buffer_bytes=12, label="t",
    )
    merged = external_merge(device, runs, key=lambda r: r, label="t", fan_in=8)
    assert unpack_run(device, merged) == list(range(10))


def test_external_merge_multi_pass(device):
    """More runs than fan-in forces intermediate passes with spills."""
    values = list(range(199, -1, -1))
    runs = make_runs(
        device, pack_all(values), 4,
        key=lambda r: r, sort_buffer_bytes=8, label="t",  # 2 records/run
    )
    assert len(runs) == 100
    merger = RunMerger(device, key=lambda r: r, label="t", fan_in=3)
    writes_before = device.flash.stats.page_writes
    merged = merger.merge(runs)
    assert merger.passes > 1
    assert device.flash.stats.page_writes > writes_before
    assert unpack_run(device, merged) == sorted(values)


def test_merge_with_dedup(device):
    runs = make_runs(
        device, pack_all([1, 1, 2, 3, 3, 3, 4]), 4,
        key=lambda r: r, sort_buffer_bytes=100, label="t",
    )
    merged = external_merge(
        device, runs, key=lambda r: r, label="t", fan_in=4, dedup=True
    )
    assert unpack_run(device, merged) == [1, 2, 3, 4]


def test_merge_empty_input(device):
    merged = external_merge(device, [], key=lambda r: r, label="t", fan_in=4)
    assert merged.count == 0


def test_fan_in_below_two_rejected(device):
    with pytest.raises(ValueError, match="fan-in"):
        RunMerger(device, key=lambda r: r, label="t", fan_in=1)


def test_merge_frees_input_runs(device):
    runs = make_runs(
        device, pack_all(list(range(50))), 4,
        key=lambda r: r, sort_buffer_bytes=40, label="t",
    )
    mapped_with_runs = device.ftl.mapped_pages
    external_merge(device, runs, key=lambda r: r, label="t", fan_in=2)
    # Inputs were freed; only the final run remains (plus other state).
    assert device.ftl.mapped_pages < mapped_with_runs + len(runs)


def test_borrowed_runs_not_freed(device):
    with PageWriter(device, 4, "t") as writer:
        for value in range(10):
            writer.append(_PACK.pack(value))
    run = writer.extent
    other = make_runs(
        device, pack_all([3, 1, 2]), 4,
        key=lambda r: r, sort_buffer_bytes=64, label="t",
    )[0]
    run.free(device.ftl)
    run.free(device.ftl)
    # A second free returns nothing: the pages went back once and the
    # handle holds none, so no other extent's pages are disturbed.
    assert run.pages == [] and run.freed
    assert unpack_run(device, other) == [1, 2, 3]


def test_failed_input_frees_finished_runs(device):
    """A source failing after some runs were written frees them all."""

    def records():
        yield from pack_all(range(40))
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        make_runs(
            device, records(), 4,
            key=lambda r: r, sort_buffer_bytes=16, label="t",
        )
    assert device.ftl.mapped_pages == 0
    assert device.ram.used == 0


def test_failed_merge_frees_inputs_and_intermediates(device, monkeypatch):
    from repro.hardware.ftl import DeviceReadOnlyError

    runs = make_runs(
        device, pack_all(range(600, 0, -1)), 4,
        key=lambda r: r, sort_buffer_bytes=512, label="t",
    )
    real = device.ftl.write
    writes = []

    def refuse_third(lpage, data):
        writes.append(lpage)
        if len(writes) == 3:
            raise DeviceReadOnlyError("refused")
        return real(lpage, data)

    monkeypatch.setattr(device.ftl, "write", refuse_third)
    with pytest.raises(DeviceReadOnlyError):
        external_merge(device, runs, key=lambda r: r, label="t", fan_in=2)
    assert device.ftl.mapped_pages == 0
    assert device.ram.used - device.ram.reclaimable_used == 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), max_size=500),
    st.integers(2, 6),
)
def test_external_sort_property(values, fan_in):
    """Property: make_runs + merge == sorted, for any input and fan-in."""
    device = SmartUsbDevice()
    runs = make_runs(
        device, pack_all(values), 4,
        key=lambda r: r, sort_buffer_bytes=64, label="p",
    )
    merged = external_merge(
        device, runs, key=lambda r: r, label="p", fan_in=fan_in
    )
    assert unpack_run(device, merged) == sorted(values)
