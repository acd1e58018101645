"""ID-ordered heap tables: loading, access, PK resolution."""

import datetime

import pytest

from repro.storage.heap import HeapTable, KeyNotFoundError
from repro.storage.pagestore import PageWriter
from repro.storage.record import RecordCodec
from repro.storage.types import CharType, DateType, IntegerType


@pytest.fixture
def codec():
    return RecordCodec([IntegerType(), CharType(16), DateType()])


def make_rows(pks):
    return [
        (pk, f"purpose-{pk % 5}", datetime.date(2006, 1, 1 + pk % 28))
        for pk in pks
    ]


def load_table(device, codec, pks, name="t"):
    table = HeapTable(device, name, codec, pk_field=0)
    table.load(make_rows(pks))
    return table


def test_load_and_scan(device, codec):
    table = load_table(device, codec, range(1, 401))
    rows = list(table.scan())
    assert len(rows) == 400
    assert rows[0][0] == 1
    assert rows[-1][0] == 400


def test_dense_pk_detection(device, codec):
    dense = load_table(device, codec, range(1, 101), "dense")
    assert dense.is_dense
    sparse = load_table(device, codec, range(2, 500, 5), "sparse")
    assert not sparse.is_dense


def test_dense_rowid_resolution_is_arithmetic(device, codec):
    table = load_table(device, codec, range(10, 110))
    before = device.flash.stats.snapshot()
    assert table.rowid_for_pk(10) == 0
    assert table.rowid_for_pk(109) == 99
    # No flash reads for dense resolution.
    assert device.flash.stats.page_reads == before.page_reads


def test_sparse_rowid_binary_search(device, codec):
    pks = list(range(3, 3000, 7))
    table = load_table(device, codec, pks, "sparse")
    for i in (0, 1, len(pks) // 2, len(pks) - 1):
        assert table.rowid_for_pk(pks[i]) == i


def test_missing_pk_raises(device, codec):
    dense = load_table(device, codec, range(1, 101), "dense")
    with pytest.raises(KeyNotFoundError):
        dense.rowid_for_pk(101)
    with pytest.raises(KeyNotFoundError):
        dense.rowid_for_pk(0)
    sparse = load_table(device, codec, range(2, 100, 5), "sparse")
    with pytest.raises(KeyNotFoundError):
        sparse.rowid_for_pk(3)


def test_pk_of_rowid_inverts_rowid_for_pk(device, codec):
    pks = list(range(5, 900, 11))
    table = load_table(device, codec, pks, "sparse")
    for i in (0, 7, len(pks) - 1):
        assert table.pk_of_rowid(i) == pks[i]
        assert table.rowid_for_pk(pks[i]) == i


def _programmed_labels(monkeypatch) -> list[str]:
    """The writer label of every page flushed from now on."""
    labels: list[str] = []
    flush = PageWriter._flush

    def recording_flush(writer, size):
        labels.append(writer.label)
        flush(writer, size)

    monkeypatch.setattr(PageWriter, "_flush", recording_flush)
    return labels


def test_dense_load_programs_no_pk_page(monkeypatch, device, codec):
    labels = _programmed_labels(monkeypatch)
    table = load_table(device, codec, range(1, 2001), "dense")
    assert table.is_dense
    assert labels and set(labels) == {"load:dense"}
    assert table.pk_extent.pages == []


def test_gap_after_a_long_dense_run_keeps_every_key(monkeypatch, device, codec):
    """The PK array opens at the first gap with the dense prefix before
    it, which spans several of its pages."""
    labels = _programmed_labels(monkeypatch)
    pks = list(range(1, 1501)) + list(range(2000, 2600, 3))
    table = load_table(device, codec, pks, "gap")
    assert not table.is_dense
    assert labels.count("load-pk:gap") == len(table.pk_extent.pages) > 2
    for rowid, pk in enumerate(pks):
        assert table.rowid_for_pk(pk) == rowid
        assert table.pk_of_rowid(rowid) == pk
    for missing in (0, 1501, 2001, 2600):
        with pytest.raises(KeyNotFoundError):
            table.rowid_for_pk(missing)


def test_row_and_field_access(device, codec):
    table = load_table(device, codec, range(1, 101))
    assert table.row(4) == (5, "purpose-0", datetime.date(2006, 1, 6))
    assert table.field(4, 1) == "purpose-0"


def test_field_access_is_partial_read(device, codec):
    table = load_table(device, codec, range(1, 101))
    before = device.flash.stats.snapshot()
    table.field(50, 1)
    after = device.flash.stats
    assert after.page_reads_partial == before.page_reads_partial + 1
    assert after.page_reads_full == before.page_reads_full


def test_unsorted_load_rejected(device, codec):
    table = HeapTable(device, "t", codec, pk_field=0)
    with pytest.raises(ValueError, match="sorted"):
        table.load(make_rows([3, 2, 1]))


def test_duplicate_pk_rejected(device, codec):
    table = HeapTable(device, "t", codec, pk_field=0)
    with pytest.raises(ValueError, match="sorted"):
        table.load(make_rows([1, 2, 2]))


def test_double_load_rejected(device, codec):
    table = load_table(device, codec, range(1, 10))
    with pytest.raises(ValueError, match="already loaded"):
        table.load(make_rows([100]))


def test_empty_table(device, codec):
    table = HeapTable(device, "t", codec, pk_field=0)
    table.load([])
    assert table.extent.count == 0
    assert list(table.scan()) == []
    with pytest.raises(KeyNotFoundError):
        table.rowid_for_pk(1)


def test_negative_pk_rejected(device, codec):
    table = HeapTable(device, "t", codec, pk_field=0)
    with pytest.raises(ValueError, match="32-bit"):
        table.load(make_rows([-5]))
