"""HiddenDatabase loading: placement, indexes, stats, storage report."""

import pytest

from repro.catalog.schema import Schema
from repro.catalog.tree import SchemaTree
from repro.engine.database import HiddenDatabase
from repro.hardware.device import SmartUsbDevice
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
    data = MedicalDataGenerator(DatasetConfig(n_prescriptions=600)).generate()
    device = SmartUsbDevice()
    db = HiddenDatabase.load(device, tree, data)
    return device, tree, db, data


def test_every_table_has_a_heap(loaded):
    _d, tree, db, data = loaded
    for table in tree.schema:
        name = table.name.lower()
        assert db.heaps[name].extent.count == len(data[name])


def test_heap_holds_device_columns_only(loaded):
    _d, tree, db, data = loaded
    heap = db.heaps["visit"]
    # Visit device columns: VisID, Purpose, DocID, PatID (not Date).
    assert heap.codec.arity == 4
    row = heap.row(0)
    source = data["visit"][0]
    assert row == (source[0], source[2], source[3], source[4])


def test_default_index_columns_are_hidden_attributes(loaded):
    _d, _t, db, _data = loaded
    indexed = set(db.climbing)
    assert indexed == {
        ("patient", "name"),
        ("patient", "bodymassindex"),
        ("visit", "purpose"),
        ("prescription", "quantity"),
        ("prescription", "whenwritten"),
    }


def test_key_indexes_on_every_non_root_table(loaded):
    _d, _t, db, _data = loaded
    assert set(db.key_indexes) == {"doctor", "patient", "medicine", "visit"}


def test_skts_for_internal_nodes(loaded):
    _d, _t, db, _data = loaded
    assert set(db.skts) == {"prescription", "visit"}


def test_stats_cover_device_columns(loaded):
    _d, _t, db, data = loaded
    stats = db.table_stats("visit")
    assert stats.row_count == len(data["visit"])
    assert "purpose" in stats.columns
    assert "docid" in stats.columns
    assert "date" not in stats.columns  # visible-only column


def test_missing_table_rows_rejected():
    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    tree = SchemaTree(schema)
    with pytest.raises(ValueError, match="no rows provided"):
        HiddenDatabase.load(SmartUsbDevice(), tree, {"visit": []})


def test_storage_report_accounts_every_structure(loaded):
    _d, _t, db, _data = loaded
    report = db.storage_report()
    assert set(report.heap_bytes) == set(db.heaps)
    assert report.base_total > 0
    assert report.index_total > 0
    assert "SKT_prescription" in report.skt_bytes
    assert "cidx:visit.purpose" in report.index_bytes
    assert "kidx:visit" in report.index_bytes


def test_explicit_index_columns_respected():
    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    tree = SchemaTree(schema)
    data = MedicalDataGenerator(DatasetConfig(n_prescriptions=200)).generate()
    db = HiddenDatabase.load(
        SmartUsbDevice(), tree, data, index_columns=[("visit", "purpose")]
    )
    assert set(db.climbing) == {("visit", "purpose")}


def test_row_count_helper(loaded):
    _d, _t, db, data = loaded
    assert db.row_count("prescription") == len(data["prescription"])
