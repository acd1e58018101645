"""Posting lists as slices of one ID extent, and bounded-fan-in unions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import ID_WIDTH
from repro.hardware.device import SmartUsbDevice
from repro.index.posting import merge_posting_streams
from repro.storage.pagestore import PageReader, PageWriter


def build_file(device, lists):
    """Pack ``lists`` back to back; return the extent and each list's
    ``(first, count)`` slice, as a climbing index level stores them."""
    refs = []
    with PageWriter(device, ID_WIDTH, "t") as writer:
        for ids in lists:
            refs.append((writer.extent.count, len(ids)))
            writer.append_ids(ids)
    return writer.extent, refs


def test_single_list_roundtrip(device):
    extent, refs = build_file(device, [[1, 5, 9, 200]])
    with PageReader(device, extent, "r") as reader:
        assert list(reader.ids(*refs[0])) == [1, 5, 9, 200]


def test_many_lists_packed_into_one_extent(device):
    lists = [[i, i + 1000, i + 2000] for i in range(100)]
    extent, refs = build_file(device, lists)
    # 300 ids x 4 B = 1200 B: everything fits on a single page.
    assert len(extent.pages) == 1
    with PageReader(device, extent, "r") as reader:
        for ids, ref in zip(lists, refs):
            assert list(reader.ids(*ref)) == ids


def test_list_spanning_pages(device):
    per_page = device.profile.page_size // 4
    big = list(range(per_page * 2 + 50))
    extent, refs = build_file(device, [[7], big, [9]])
    with PageReader(device, extent, "r") as reader:
        assert list(reader.ids(*refs[1])) == big
        assert list(reader.ids(*refs[0])) == [7]
        assert list(reader.ids(*refs[2])) == [9]


def test_small_list_uses_partial_read(device):
    extent, refs = build_file(device, [[1, 2, 3]])
    with PageReader(device, extent, "r") as reader:
        before = device.flash.stats.snapshot()
        list(reader.ids(*refs[0]))
        after = device.flash.stats
        assert after.page_reads_partial == before.page_reads_partial + 1
        assert after.page_reads_full == before.page_reads_full


def test_empty_list(device):
    extent, refs = build_file(device, [[]])
    assert refs[0] == (0, 0)
    with PageReader(device, extent, "r") as reader:
        assert list(reader.ids(*refs[0])) == []


def test_unsorted_list_rejected(monkeypatch):
    """The climbing build checks every posting list is sorted, and a
    refused build leaves no RAM reserved and no page mapped."""
    import heapq

    from repro.catalog.schema import Schema
    from repro.catalog.tree import SchemaTree
    from repro.engine.database import HiddenDatabase
    from repro.index.climbing import ClimbingIndex
    from repro.sql.ddl import create_table
    from repro.sql.parser import parse_statement
    from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
    from repro.workload.queries import DEMO_SCHEMA_DDL

    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    tree = SchemaTree(schema)
    data = MedicalDataGenerator(DatasetConfig(n_prescriptions=200)).generate()
    device = SmartUsbDevice()
    db = HiddenDatabase.load(device, tree, data, index_columns=[])
    mapped = device.ftl.mapped_lpages()
    sorted_merge = heapq.merge
    monkeypatch.setattr(
        heapq, "merge", lambda *lists: reversed(list(sorted_merge(*lists)))
    )
    with pytest.raises(ValueError, match="sorted"):
        ClimbingIndex.build(device, tree, db.heaps, "visit", "purpose")
    assert device.ram.used - device.ram.reclaimable_used == 0
    assert device.ftl.mapped_lpages() == mapped


def test_flash_bytes_reports_whole_pages(device):
    extent, _refs = build_file(device, [[1, 2, 3]])
    assert extent.flash_bytes == device.profile.page_size


class TestMergePostingStreams:
    @staticmethod
    def factories_for(device, lists):
        extent, refs = build_file(device, lists)

        def make(ref):
            def open_stream():
                reader = PageReader(device, extent, "m")
                return reader.ids(*ref), reader.close

            return open_stream

        return [make(ref) for ref in refs]

    def test_union_of_disjoint_lists(self, device):
        factories = self.factories_for(
            device, [[1, 4], [2, 5], [3, 6]]
        )
        out = list(merge_posting_streams(device, factories, "t", fan_in=8))
        assert out == [1, 2, 3, 4, 5, 6]

    def test_dedup_union(self, device):
        factories = self.factories_for(device, [[1, 2, 3], [2, 3, 4]])
        out = list(merge_posting_streams(device, factories, "t", fan_in=8))
        assert out == [1, 2, 3, 4]

    def test_fan_in_overflow_spills_to_flash(self, device):
        lists = [[i, i + 100] for i in range(20)]
        factories = self.factories_for(device, lists)
        writes_before = device.flash.stats.page_writes
        out = list(merge_posting_streams(device, factories, "t", fan_in=4))
        assert device.flash.stats.page_writes > writes_before
        expected = sorted({x for lst in lists for x in lst})
        assert out == expected

    def test_empty_input(self, device):
        assert list(merge_posting_streams(device, [], "t", fan_in=4)) == []

    def test_bad_fan_in_rejected(self, device):
        with pytest.raises(ValueError, match="fan-in"):
            list(merge_posting_streams(device, [], "t", fan_in=1))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 1000), max_size=40).map(
                lambda xs: sorted(set(xs))
            ),
            max_size=12,
        ),
        st.integers(2, 5),
    )
    def test_union_property(self, lists, fan_in):
        """Property: merged output equals the sorted set union, for any
        fan-in (single-pass or spilled)."""
        device = SmartUsbDevice()
        factories = self.factories_for(device, lists)
        out = list(
            merge_posting_streams(device, factories, "p", fan_in=fan_in)
        )
        assert out == sorted({x for lst in lists for x in lst})
