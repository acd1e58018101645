"""Exhaustive power-cut sweep over a mixed DML workload.

The atomicity contract for every UPDATE / DELETE: cut power at *any*
flash operation of the statement, remount, and the device holds either
the old or the new version of that statement -- never a torn mix.  With
the build-all-then-swap rebuild this is concretely the *old* version
(every flash write precedes the host-side commit), and all earlier
statements of the workload stay fully applied.  Each state check
compares the device rows against an independently maintained host-side
reference model.
"""

from __future__ import annotations

import pytest

from repro.core.ghostdb import GhostDB
from repro.faults import PowerCutError
from repro.soak import apply_dml_reference, expected_device_rows
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL
from tests.test_dml import postings, skt_rows

TINY = DatasetConfig(n_prescriptions=12)

#: The mixed workload under test: hidden + visible updates, subset and
#: cascade-free deletes, across two tables.
STATEMENTS = [
    "UPDATE Prescription SET Quantity = 42 WHERE PreID <= 6",
    "DELETE FROM Prescription WHERE PreID IN (2, 4)",
    "UPDATE Patient SET Age = 99, BodyMassIndex = 31.5 WHERE PatID = 1",
    "DELETE FROM Prescription WHERE Quantity = 42",
]


@pytest.fixture(scope="module")
def tiny_data() -> dict[str, list]:
    return MedicalDataGenerator(TINY).generate()


def build_session(data) -> GhostDB:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(data)
    return db


# ----------------------------------------------------------------------
# Host-side reference model (the soak harness's)
# ----------------------------------------------------------------------


def reference_after(tree, data, n_statements: int) -> dict[str, list]:
    ref = {name: list(rows) for name, rows in data.items()}
    for sql in STATEMENTS[:n_statements]:
        apply_dml_reference(tree, ref, sql)
    return ref


def assert_matches_reference(db: GhostDB, ref: dict[str, list]) -> None:
    for table in ("prescription", "patient", "visit", "medicine"):
        assert (
            list(db.hidden.heaps[table].scan())
            == expected_device_rows(db.tree, ref, table)
        ), f"device state of {table!r} diverged from the reference"
        assert db.site.row_count(table) == len(ref[table])
    assert db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()


# ----------------------------------------------------------------------
# Op counting
# ----------------------------------------------------------------------


def statement_boundaries(data) -> list[int]:
    """Clean run: cumulative flash-op count after each statement."""
    db = build_session(data)
    injector = db.set_faults("none", seed=0)
    boundaries = []
    for sql in STATEMENTS:
        db.execute(sql)
        boundaries.append(injector.flash_ops)
    return boundaries


class TestDmlPowerCutSweep:
    def test_cut_at_every_flash_op_keeps_old_or_new_version(
        self, tiny_data
    ):
        boundaries = statement_boundaries(tiny_data)
        total = boundaries[-1]
        assert total > 60, "workload too small to be a meaningful sweep"

        # Sanity: the reference model agrees with a clean run end state.
        clean = build_session(tiny_data)
        for sql in STATEMENTS:
            clean.execute(sql)
        assert_matches_reference(
            clean, reference_after(clean.tree, tiny_data, len(STATEMENTS))
        )

        for cut_at in range(total):
            db = build_session(tiny_data)
            injector = db.set_faults("none", seed=0)
            injector.schedule_power_cut(at_flash_op=cut_at)
            # The statement whose op range contains the cut.
            victim = next(
                k for k, b in enumerate(boundaries) if cut_at < b
            )
            completed = 0
            with pytest.raises(PowerCutError):
                for sql in STATEMENTS:
                    db.execute(sql)
                    completed += 1
            assert completed == victim, (
                f"cut at op {cut_at} interrupted statement "
                f"{completed}, expected {victim}"
            )
            db.set_faults("none", seed=0)  # drop the consumed schedule
            db.remount()
            # Atomicity: earlier statements fully applied, the cut
            # statement fully rolled back (the old version) -- and
            # never a torn mix, which the row-for-row comparison with
            # the reference model would catch.
            assert_matches_reference(
                db, reference_after(db.tree, tiny_data, victim)
            )
            # The workload can resume and reach the clean end state.
            for sql in STATEMENTS[victim:]:
                db.execute(sql)
            assert_matches_reference(
                db, reference_after(db.tree, tiny_data, len(STATEMENTS))
            )


class TestDmlFaultSession:
    def test_queries_blocked_until_remount(self, tiny_data):
        db = build_session(tiny_data)
        injector = db.set_faults("none", seed=0)
        # Cut halfway through statement 0, wherever its ops end.
        injector.schedule_power_cut(
            at_flash_op=statement_boundaries(tiny_data)[0] // 2
        )
        with pytest.raises(PowerCutError):
            db.execute(STATEMENTS[0])
        from repro.core.ghostdb import SessionError

        with pytest.raises(SessionError, match="remount"):
            db.execute(STATEMENTS[1])
        with pytest.raises(SessionError, match="remount"):
            db.query("SELECT Quantity FROM Prescription WHERE Quantity = 1")
        db.set_faults("none", seed=0)
        db.remount()
        db.execute(STATEMENTS[0])  # works again

    def test_aborted_dml_counted(self, tiny_data):
        db = build_session(tiny_data)
        injector = db.set_faults("none", seed=0)
        # Cut halfway through statement 0, wherever its ops end.
        injector.schedule_power_cut(
            at_flash_op=statement_boundaries(tiny_data)[0] // 2
        )
        with pytest.raises(PowerCutError):
            db.execute(STATEMENTS[0])
        aborted = db.obs.registry.counter(
            "ghostdb_recovery_aborted_queries_total"
        )
        assert aborted.total() == 1


class TestScopedUpdatePowerCut:
    def test_cut_leaves_every_structure_readable(self, tiny_data):
        """A cut anywhere in a column-scoped UPDATE (statement 0) leaves
        the catalog on the old structures, and the orphan sweep frees
        only the new pages: every index, SKT and statistic still reads
        back exactly as before the statement."""
        clean = build_session(tiny_data).hidden
        indexes = {
            key: postings(index)
            for key, index in (
                *clean.climbing.items(), *clean.key_indexes.items()
            )
        }
        skts = {root: skt_rows(skt) for root, skt in clean.skts.items()}
        for cut_at in range(statement_boundaries(tiny_data)[0]):
            db = build_session(tiny_data)
            injector = db.set_faults("none", seed=0)
            injector.schedule_power_cut(at_flash_op=cut_at)
            with pytest.raises(PowerCutError):
                db.execute(STATEMENTS[0])
            db.set_faults("none", seed=0)
            db.remount()
            hidden = db.hidden
            assert indexes == {
                key: postings(index)
                for key, index in (
                    *hidden.climbing.items(), *hidden.key_indexes.items()
                )
            }, f"cut at op {cut_at}"
            assert skts == {
                root: skt_rows(skt) for root, skt in hidden.skts.items()
            }
            assert hidden.stats == clean.stats
