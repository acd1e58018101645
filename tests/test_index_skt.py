"""Subtree Key Tables: construction and semantics (Figure 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import ID_STRUCT, ID_WIDTH, MAX_ID
from repro.engine.database import HiddenDatabase
from repro.hardware.device import SmartUsbDevice
from repro.catalog.schema import Schema
from repro.catalog.tree import SchemaTree
from repro.index.skt import SubtreeKeyTable
from repro.sql.ddl import create_table
from repro.sql.parser import parse_statement
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL


@pytest.fixture(scope="module")
def loaded():
    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    tree = SchemaTree(schema)
    data = MedicalDataGenerator(DatasetConfig(n_prescriptions=800)).generate()
    device = SmartUsbDevice()
    db = HiddenDatabase.load(device, tree, data, index_columns=[])
    return device, tree, db, data


def full_row_index(data, table, pk):
    for row in data[table]:
        if row[0] == pk:
            return row
    raise KeyError(pk)


def test_skt_prescription_columns(loaded):
    """SKT_Prescription has PreID, MedID, VisID, DocID, PatID sorted by
    PreID (paper, Section 4)."""
    _device, _tree, db, _data = loaded
    skt = db.skts["prescription"]
    assert skt.tables[0] == "prescription"
    assert set(skt.tables) == {
        "prescription", "medicine", "visit", "doctor", "patient",
    }


def test_skt_visit_exists(loaded):
    _device, _tree, db, _data = loaded
    skt = db.skts["visit"]
    assert set(skt.tables) == {"visit", "doctor", "patient"}


def test_row_count_matches_root(loaded):
    _device, _tree, db, data = loaded
    assert db.skts["prescription"].extent.count == len(data["prescription"])
    assert db.skts["visit"].extent.count == len(data["visit"])


def test_rows_sorted_by_root_id(loaded):
    _device, _tree, db, _data = loaded
    skt = db.skts["prescription"]
    root_pos = skt.column_index("prescription")
    with skt.reader("t") as reader:
        ids = [skt.decode(raw)[root_pos] for raw in reader.scan()]
    assert ids == sorted(ids)


def test_skt_rows_denormalise_the_joins(loaded):
    """Each SKT row must equal the true join of the base tables: 'a query
    [can] directly associate a prescription with the patient to whom it
    was issued'."""
    _device, _tree, db, data = loaded
    skt = db.skts["prescription"]
    positions = {t: skt.column_index(t) for t in skt.tables}
    with skt.reader("t") as reader:
        for rowid in (0, 10, 399, skt.extent.count - 1):
            row = skt.decode(reader.record(rowid))
            pre = full_row_index(data, "prescription", row[positions["prescription"]])
            # Prescription row: (PreID, Quantity, Frequency, WhenWritten, MedID, VisID)
            assert row[positions["medicine"]] == pre[4]
            assert row[positions["visit"]] == pre[5]
            vis = full_row_index(data, "visit", pre[5])
            # Visit row: (VisID, Date, Purpose, DocID, PatID)
            assert row[positions["doctor"]] == vis[3]
            assert row[positions["patient"]] == vis[4]


def test_column_index_rejects_foreign_table(loaded):
    _device, _tree, db, _data = loaded
    with pytest.raises(KeyError):
        db.skts["visit"].column_index("medicine")


def test_tables_must_start_with_root():
    device = SmartUsbDevice()
    with pytest.raises(ValueError, match="start with the subtree root"):
        SubtreeKeyTable(device, "a", ["b", "a"])


def test_flash_footprint_reported(loaded):
    _device, _tree, db, data = loaded
    skt = db.skts["prescription"]
    minimum = skt.extent.count * skt.extent.record_width
    assert skt.extent.flash_bytes >= minimum


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, MAX_ID), min_size=1, max_size=5))
def test_decode_unpacks_like_per_id_reads(ids):
    """One precompiled unpack per record equals unpacking it ID by ID,
    for every subtree arity from 1 to 5."""
    tables = [f"t{i}" for i in range(len(ids))]
    skt = SubtreeKeyTable(SmartUsbDevice(), tables[0], tables)
    raw = b"".join(ID_STRUCT.pack(value) for value in ids)
    assert len(raw) == skt.extent.record_width
    assert skt.decode(raw) == tuple(
        ID_STRUCT.unpack_from(raw, i * ID_WIDTH)[0] for i in range(len(ids))
    )
