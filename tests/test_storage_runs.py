"""External sorting, bounded-fan-in merging and the one k-way merge."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import PageReader, PageWriter
from repro.storage.runs import make_runs, merge_runs, merge_sorted

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
    [merged] = merge_runs(device, runs, "t", 8, key=lambda r: r)
    assert unpack_run(device, merged) == list(range(10))


def test_external_merge_multi_pass(device):
    """More runs than fan-in forces intermediate passes with spills."""
    values = list(range(199, -1, -1))
    runs = make_runs(
        device, pack_all(values), 4,
        key=lambda r: r, sort_buffer_bytes=8, label="t",  # 2 records/run
    )
    assert len(runs) == 100
    writes_before = device.flash.stats.page_writes
    # One pass merges 33 groups of three and passes the lone last run
    # through; every merged run fits one page.
    level = merge_runs(device, runs, "t", 3, key=lambda r: r, until=99)
    assert len(level) == 34
    assert device.flash.stats.page_writes - writes_before == 33
    # Four more passes (34 -> 12 -> 4 -> 2 -> 1) merge 11 + 4 + 1 + 1
    # groups, each written to flash again.
    [merged] = merge_runs(device, level, "t", 3, key=lambda r: r)
    assert device.flash.stats.page_writes - writes_before == 33 + 17
    assert unpack_run(device, merged) == sorted(values)


def test_merge_stops_at_until(device):
    """A ladder asked for ``until`` runs stops as soon as it has that
    many or fewer, and hands over fewer than ``until`` untouched."""
    runs = make_runs(
        device, pack_all(range(40, 0, -1)), 4,
        key=lambda r: r, sort_buffer_bytes=8, label="t",
    )
    assert len(runs) == 20
    level = merge_runs(device, runs, "t", 4, key=lambda r: r, until=4)
    assert len(level) == 2  # 20 -> 5 -> 2
    assert merge_runs(device, level, "t", 4, until=4) == level
    merged = [unpack_run(device, run) for run in level]
    assert sorted(merged[0] + merged[1]) == list(range(1, 41))


def test_merge_with_dedup(device):
    """Duplicates inside a run and across runs are dropped, over a
    multi-pass ladder."""
    runs = make_runs(
        device, pack_all([3, 1, 1, 2, 3, 3, 4, 2, 1, 4, 4, 5]), 4,
        key=lambda r: r, sort_buffer_bytes=8, label="t",
    )
    assert len(runs) == 6
    [merged] = merge_runs(device, runs, "t", 2, dedup=True)
    assert unpack_run(device, merged) == [1, 2, 3, 4, 5]


def test_merge_empty_input(device):
    assert merge_runs(device, [], "t", 4, key=lambda r: r) == []
    assert device.ram.used == 0


def test_fan_in_below_two_rejected(device):
    with pytest.raises(ValueError, match="fan-in"):
        merge_runs(device, [], "t", 1)


def test_merge_frees_input_runs(device):
    runs = make_runs(
        device, pack_all(list(range(50))), 4,
        key=lambda r: r, sort_buffer_bytes=40, label="t",
    )
    mapped_with_runs = device.ftl.mapped_pages
    merge_runs(device, runs, "t", 2, key=lambda r: r)
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
        merge_runs(device, runs, "t", 2, key=lambda r: r)
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
    merged = merge_runs(device, runs, "p", fan_in, key=lambda r: r)
    assert [v for run in merged for v in unpack_run(device, run)] == sorted(
        values
    )


# ---------------------------------------------------------------------------
# merge_sorted: the one merge loop.
# ---------------------------------------------------------------------------


class _CountingChip:
    """Stands in for the secure chip: counts each charge by primitive."""

    def __init__(self):
        self.ops: dict[str, int] = {}

    def charge(self, op: str, count: int = 1) -> None:
        self.ops[op] = self.ops.get(op, 0) + count


def _merged(lists, **kwargs):
    chip = _CountingChip()
    out = list(merge_sorted(chip, [iter(x) for x in lists], **kwargs))
    return out, chip.ops.get("merge_step", 0)


def test_merge_sorted_union_with_dedup():
    out, steps = _merged([[1, 3, 5], [2, 3, 6]], dedup=True)
    assert out == [1, 2, 3, 5, 6]
    assert steps == 6  # every item taken is charged, duplicates too


def test_merge_sorted_single_stream():
    assert _merged([[4, 5]], dedup=True) == ([4, 5], 2)


def test_merge_sorted_keeps_duplicates_without_dedup():
    assert _merged([[1, 2], [2, 3]]) == ([1, 2, 2, 3], 4)


def test_merge_sorted_key_breaks_ties_by_stream_order():
    """Equal keys come out in stream order; with dedup the first
    stream's item is the one kept."""
    lists = [[(1, "a"), (2, "a")], [(1, "b"), (2, "b")], [(2, "c")]]
    out, _ = _merged(lists, key=lambda item: item[0])
    assert out == [(1, "a"), (1, "b"), (2, "a"), (2, "b"), (2, "c")]
    out, steps = _merged(lists, key=lambda item: item[0], dedup=True)
    assert (out, steps) == ([(1, "a"), (2, "a")], 5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 60), max_size=40),
        min_size=1, max_size=5,
    )
)
def test_merge_sorted_union_property(sets):
    """Property: a deduplicating merge of sorted sets is their sorted
    union, charged one merge step per input item."""
    out, steps = _merged([sorted(s) for s in sets], dedup=True)
    assert out == sorted(set.union(*sets))
    assert steps == sum(len(s) for s in sets)
