"""First-class UPDATE / DELETE: binding, execution, constraints, leakage.

DML rides the crash-safe rebuild discipline of ``maintenance`` and
travels the secure channel: statements may name hidden values, so they
generate *zero* observable USB traffic (unlike SELECT, which announces
its text to the device over the spied link).
"""

from __future__ import annotations

import pytest

from repro.catalog.statistics import StatisticsCollector
from repro.core.ghostdb import GhostDB, SessionError
from repro.engine import dml
from repro.engine.dml import DmlError
from repro.engine.executor import DmlResult
from repro.engine.maintenance import rebuild_table
from repro.hardware.chip import CYCLES
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.reference import evaluate_reference, same_rows
from repro.sql.errors import BindError
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL

SCALE = 200


@pytest.fixture(scope="module")
def dml_data() -> dict[str, list]:
    return MedicalDataGenerator(
        DatasetConfig(n_prescriptions=SCALE)
    ).generate()


@pytest.fixture
def session(dml_data) -> GhostDB:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(dml_data)
    return db


def apply_update_to_reference(rows, tree, table, assign, match):
    """Host-side reference: apply ``assign`` where ``match(row)``."""
    tdef = tree.table(table)
    out = []
    for row in rows:
        if match(row, tdef):
            new = list(row)
            for name, value in assign.items():
                new[tdef.column_index(name)] = value
            out.append(tuple(new))
        else:
            out.append(row)
    return out


JOIN_SQL = (
    "SELECT Patient.Name, Quantity FROM Patient, Visit, Prescription "
    "WHERE Patient.PatID = Visit.PatID "
    "AND Visit.VisID = Prescription.VisID AND Quantity > 5"
)


class TestUpdate:
    def test_update_hidden_column_matches_reference(
        self, session, dml_data
    ):
        before = session.query(
            "SELECT Quantity FROM Prescription WHERE Quantity = 7"
        ).row_count
        assert before > 0
        result = session.execute(
            "UPDATE Prescription SET Quantity = 9 WHERE Quantity = 7"
        )
        assert isinstance(result, DmlResult)
        assert result.kind == "update"
        assert result.matched == before
        assert result.changed == before
        assert (
            session.query(
                "SELECT Quantity FROM Prescription WHERE Quantity = 7"
            ).row_count
            == 0
        )
        # Full-join parity against the host-side reference model.
        ref = {name: list(rows) for name, rows in dml_data.items()}
        qi = session.tree.table("prescription").column_index("Quantity")
        ref["prescription"] = [
            tuple(9 if (i == qi and v == 7) else v for i, v in enumerate(r))
            for r in ref["prescription"]
        ]
        bound = session.bind(JOIN_SQL)
        expected = evaluate_reference(session.tree, ref, bound)
        assert same_rows(session.query(JOIN_SQL).rows, expected)

    def test_update_visible_column_syncs_site(self, session):
        result = session.execute(
            "UPDATE Patient SET Age = 55 WHERE PatID = 1"
        )
        assert result.matched == 1
        assert session.site.fetch_values("patient", [1], ["age"]) == {
            1: (55,)
        }
        assert session.query(
            "SELECT Age FROM Patient WHERE PatID = 1"
        ).rows == [(55,)]

    def test_update_float_promotion(self, session):
        result = session.execute(
            "UPDATE Patient SET BodyMassIndex = 25 WHERE PatID = 1"
        )
        assert result.matched == 1
        got = session.query(
            "SELECT BodyMassIndex FROM Patient WHERE PatID = 1"
        ).rows
        assert got == [(25.0,)]
        assert isinstance(got[0][0], float)

    def test_no_match_is_a_noop(self, session):
        result = session.execute(
            "UPDATE Prescription SET Quantity = 1 WHERE Quantity = 424242"
        )
        assert result.matched == 0
        assert result.changed == 0
        assert result.metrics.flash_page_writes == 0

    def test_same_value_update_skips_rebuild(self, session):
        row = session.query(
            "SELECT Quantity FROM Prescription WHERE PreID = 1"
        ).rows
        quantity = row[0][0]
        result = session.execute(
            f"UPDATE Prescription SET Quantity = {quantity} "
            f"WHERE PreID = 1"
        )
        assert result.matched == 1
        assert result.changed == 0
        assert result.metrics.flash_page_writes == 0

    def test_update_charges_device_time(self, session):
        result = session.execute(
            "UPDATE Prescription SET Quantity = 8 WHERE Quantity = 6"
        )
        assert result.matched > 0
        assert result.metrics.flash_page_writes > 0
        assert result.metrics.elapsed_seconds > 0


class TestDelete:
    def test_delete_leaf_rows(self, session, dml_data):
        before = session.query(
            "SELECT Quantity FROM Prescription WHERE Quantity = 3"
        ).row_count
        assert before > 0
        result = session.execute(
            "DELETE FROM Prescription WHERE Quantity = 3"
        )
        assert result.kind == "delete"
        assert result.matched == before
        assert (
            session.query(
                "SELECT Quantity FROM Prescription WHERE Quantity = 3"
            ).row_count
            == 0
        )
        ref = {name: list(rows) for name, rows in dml_data.items()}
        qi = session.tree.table("prescription").column_index("Quantity")
        ref["prescription"] = [
            r for r in ref["prescription"] if r[qi] != 3
        ]
        bound = session.bind(JOIN_SQL)
        expected = evaluate_reference(session.tree, ref, bound)
        assert same_rows(session.query(JOIN_SQL).rows, expected)

    def test_delete_referenced_parent_restricted(self, session, dml_data):
        tdef = session.tree.table("prescription")
        med = dml_data["prescription"][0][tdef.column_index("MedID")]
        count_before = session.hidden.row_count("medicine")
        with pytest.raises(DmlError, match="referenced by"):
            session.execute(f"DELETE FROM Medicine WHERE MedID = {med}")
        # RESTRICT left everything untouched.
        assert session.hidden.row_count("medicine") == count_before
        assert session.site.row_count("medicine") == count_before

    def test_delete_unreferenced_parent_allowed(self, session, dml_data):
        tdef = session.tree.table("prescription")
        mi = tdef.column_index("MedID")
        used = {r[mi] for r in dml_data["prescription"]}
        free = sorted(
            {r[0] for r in dml_data["medicine"]} - used
        )
        assert free, "dataset has no unreferenced medicine"
        result = session.execute(
            f"DELETE FROM Medicine WHERE MedID = {free[0]}"
        )
        assert result.matched == 1
        assert (
            session.hidden.row_count("medicine")
            == len(dml_data["medicine"]) - 1
        )

    def test_delete_no_match_is_a_noop(self, session):
        result = session.execute(
            "DELETE FROM Prescription WHERE Quantity = 424242"
        )
        assert result.matched == 0
        assert result.metrics.flash_page_writes == 0

    def test_delete_all_rows(self, session):
        total = session.hidden.row_count("prescription")
        result = session.execute("DELETE FROM Prescription")
        assert result.matched == total
        assert session.hidden.row_count("prescription") == 0
        assert session.site.row_count("prescription") == 0
        # The empty table stays consistent across a remount.
        session.remount()
        assert (
            session.device.ftl.mapped_lpages()
            == session.hidden.referenced_pages()
        )
        assert session.hidden.row_count("prescription") == 0


def test_restrict_scan_decodes_only_the_foreign_key(
    monkeypatch, fresh_session, demo_data
):
    """Deleting an appended, unreferenced visit scans Prescription for
    references: one ``decode_field`` per row (its VisID), not one per
    device field."""
    db = fresh_session
    last = max(demo_data["visit"])
    new_id = last[0] + 1
    db.append("visit", [(new_id, *last[1:])])
    chip = db.device.chip
    charged = []
    check = dml._check_restrict

    def counting(db_, table_def, deleted):
        before = chip.stats.cycles_by_op.get("decode_field", 0)
        check(db_, table_def, deleted)
        after = chip.stats.cycles_by_op.get("decode_field", 0)
        charged.append((after - before) // CYCLES["decode_field"])

    monkeypatch.setattr(dml, "_check_restrict", counting)
    result = db.execute(f"DELETE FROM Visit WHERE VisID = {new_id}")
    assert result.changed == 1
    assert charged == [db.hidden.row_count("prescription")] == [2000]


def postings(index: ClimbingIndex) -> dict:
    """Every posting list of a climbing index, by (value, level)."""
    lists = {}
    for value in index._sorted_keys:
        for level in index.levels:
            ids, close = index.stream_eq(value, level)()
            lists[(value, level)] = list(ids)
            close()
    return lists


def skt_rows(skt: SubtreeKeyTable) -> list[tuple]:
    with skt.reader("test") as reader:
        return [skt.decode(raw) for raw in reader.scan()]


class TestColumnScopedUpdate:
    """An UPDATE rebuilds the heap and the assigned columns' indexes and
    statistics; SKTs, key indexes and other indexes hold only keys or
    untouched values, so they are kept as they are."""

    SQL = "UPDATE Prescription SET Quantity = 8 WHERE Quantity = 6"

    def test_structures_outside_the_scope_are_kept(self, session):
        hidden = session.hidden
        skts = dict(hidden.skts)
        key_indexes = dict(hidden.key_indexes)
        climbing = dict(hidden.climbing)
        heap = hidden.heaps["prescription"]
        assert session.execute(self.SQL).changed > 0
        assert hidden.heaps["prescription"] is not heap
        for root, skt in skts.items():
            assert hidden.skts[root] is skt
        for name, index in key_indexes.items():
            assert hidden.key_indexes[name] is index
        for key, index in climbing.items():
            if key == ("prescription", "quantity"):
                assert hidden.climbing[key] is not index
            else:
                assert hidden.climbing[key] is index, key

    def test_every_index_matches_a_rebuild_from_the_new_heaps(
        self, session
    ):
        session.execute(self.SQL)
        hidden = session.hidden
        device, tree = hidden.device, hidden.tree
        for (table, column), index in hidden.climbing.items():
            fresh = ClimbingIndex.build(
                device, tree, hidden.heaps, table, column
            )
            assert postings(index) == postings(fresh), (table, column)
        for name, index in hidden.key_indexes.items():
            fresh = ClimbingIndex.build(
                device, tree, hidden.heaps, name, tree.table(name).pk.name
            )
            assert postings(index) == postings(fresh), name
        for root, skt in hidden.skts.items():
            fresh = SubtreeKeyTable.build(device, tree, root, hidden.heaps)
            assert skt_rows(skt) == skt_rows(fresh), root
        quantity = hidden.climbing[("prescription", "quantity")]
        values = {value for value, _ in postings(quantity)}
        assert 6 not in values and 8 in values

    def test_stats_equal_a_full_pass_over_the_new_heap(self, session):
        session.execute(self.SQL)
        hidden = session.hidden
        columns = session.tree.table("prescription").device_columns()
        collector = StatisticsCollector(
            table="prescription",
            column_names=[c.name for c in columns],
        )
        for row in hidden.heaps["prescription"].scan():
            collector.add(row)
        assert hidden.stats["prescription"] == collector.finish()
        assert 6 not in hidden.stats["prescription"].column(
            "quantity"
        ).frequencies

    def test_visible_only_update_writes_no_flash(self, session):
        hidden = session.hidden
        heap = hidden.heaps["patient"]
        stats = hidden.stats["patient"]
        result = session.execute(
            "UPDATE Patient SET Age = 55 WHERE PatID = 1"
        )
        assert result.changed == 1
        assert result.metrics.flash_page_writes == 0
        assert hidden.heaps["patient"] is heap
        assert hidden.stats["patient"] is stats

    @pytest.mark.parametrize("column", ["PreID", "VisID"])
    def test_key_column_in_scope_rejected(self, session, column):
        hidden = session.hidden
        pages = hidden.device.ftl.mapped_lpages()
        with pytest.raises(ValueError, match="non-key"):
            rebuild_table(
                hidden,
                "prescription",
                hidden.heaps["prescription"].scan(),
                columns=[column],
            )
        assert hidden.device.ftl.mapped_lpages() == pages


class TestBindingErrors:
    def test_primary_key_assignment_rejected(self, session):
        with pytest.raises(BindError, match="primary key"):
            session.execute("UPDATE Prescription SET PreID = 1")

    def test_foreign_key_assignment_rejected(self, session):
        with pytest.raises(BindError, match="foreign key"):
            session.execute("UPDATE Prescription SET VisID = 1")

    def test_type_mismatch_rejected(self, session):
        with pytest.raises(BindError, match="does not fit"):
            session.execute("UPDATE Prescription SET Quantity = 'many'")

    def test_double_assignment_rejected(self, session):
        with pytest.raises(BindError, match="assigned twice"):
            session.execute(
                "UPDATE Prescription SET Quantity = 1, Quantity = 2"
            )

    def test_column_to_column_where_rejected(self, session):
        with pytest.raises(BindError, match="single-table"):
            session.execute(
                "DELETE FROM Prescription WHERE Quantity = VisID"
            )

    def test_query_rejects_dml(self, session):
        with pytest.raises(SessionError):
            session.query("DELETE FROM Prescription WHERE Quantity = 3")


class TestDmlLeakage:
    def test_dml_generates_no_usb_traffic(self, session):
        """The spied USB link sees nothing: DML uses the secure channel.

        This is what keeps every read scenario's leak signature
        byte-identical whether or not the workload also mutates data.
        """
        mark = len(session.device.usb.log)
        session.execute(
            "UPDATE Prescription SET Quantity = 11 WHERE Quantity = 4"
        )
        session.execute("DELETE FROM Prescription WHERE Quantity = 11")
        assert len(session.device.usb.log) == mark

    def test_select_after_dml_still_announces(self, session):
        session.execute(
            "UPDATE Prescription SET Quantity = 11 WHERE Quantity = 4"
        )
        mark = len(session.device.usb.log)
        session.query("SELECT Quantity FROM Prescription WHERE Quantity = 11")
        assert len(session.device.usb.log) > mark
