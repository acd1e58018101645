"""Crash atomicity of ``maintenance.append_rows`` (build-all-then-swap).

The rebuild discipline puts every flash write *before* the host-side
catalog swap, so a power cut at any flash operation of an append must
leave the device holding exactly the old state: after remount (which
runs the orphan sweep) the table reads back as if the append never
happened, the FTL map matches the catalog, and re-issuing the append
succeeds.  The sweep below proves it for every cut index.
"""

from __future__ import annotations

import datetime

import pytest

from repro.core.ghostdb import GhostDB
from repro.faults import PowerCutError
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL

#: Tiny dataset: the sweep runs one fresh session per flash operation.
TINY = DatasetConfig(n_prescriptions=12)


@pytest.fixture(scope="module")
def tiny_data() -> dict[str, list]:
    return MedicalDataGenerator(TINY).generate()


def build_session(data) -> GhostDB:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(data)
    return db


def new_prescriptions(db: GhostDB, n: int = 3) -> list[tuple]:
    """Fresh rows with keys above the current maximum."""
    heap = db.hidden.heaps["prescription"]
    max_pk = heap.pk_of_rowid(heap.extent.count - 1)
    visits = db.hidden.heaps["visit"]
    vis_pk = visits.pk_of_rowid(visits.extent.count - 1)
    return [
        (
            max_pk + i,
            5 + i,
            "1x daily",
            datetime.date(2026, 1, 1),
            50,
            vis_pk,
        )
        for i in range(1, n + 1)
    ]


def device_rows(db: GhostDB, table: str) -> list[tuple]:
    """The table's device rows, read back off flash."""
    return list(db.hidden.heaps[table].scan())


def attach_spy(db: GhostDB):
    """A 'none' injector whose flash decisions are counted."""
    injector = db.set_faults("none", seed=0)
    ops: list[str] = []
    original = injector.flash_decision

    def spying(op, data_len=0):
        ops.append(op)
        return original(op, data_len)

    injector.flash_decision = spying
    return injector, ops


def count_append_ops(data) -> int:
    """Clean run: flash ops consumed by one append batch.

    Warms the page cache exactly like each sweep trial does (the
    pre-append snapshot scan), so the counted op sequence matches the
    trials' op sequence index for index.
    """
    db = build_session(data)
    device_rows(db, "prescription")
    injector, ops = attach_spy(db)
    db.append("prescription", new_prescriptions(db))
    assert "program" in ops, "append wrote nothing?"
    return injector.flash_ops


class TestAppendPowerCutSweep:
    def test_cut_at_every_flash_op_keeps_old_state(self, tiny_data):
        total = count_append_ops(tiny_data)
        assert total > 20, "append too small to be a meaningful sweep"
        for cut_at in range(total):
            db = build_session(tiny_data)
            before_rows = device_rows(db, "prescription")
            before_site = db.site.row_count("prescription")
            injector = db.set_faults("none", seed=0)
            injector.schedule_power_cut(at_flash_op=cut_at)
            rows = new_prescriptions(db)
            with pytest.raises(PowerCutError):
                db.append("prescription", rows)
            assert injector.events[-1].op_index == cut_at
            db.set_faults("none", seed=0)  # drop the consumed schedule
            db.remount()
            # Old state, never a torn mix: all append flash ops precede
            # the catalog swap, so the cut statement fully rolls back.
            assert device_rows(db, "prescription") == before_rows
            assert db.site.row_count("prescription") == before_site
            # The orphan sweep reclaimed every uncommitted page.
            assert (
                db.device.ftl.mapped_lpages()
                == db.hidden.referenced_pages()
            ), f"orphaned pages after cut at op {cut_at}"
            # The device accepts the same append again.
            report = db.append("prescription", rows)
            assert report.appended_rows == len(rows)
            assert device_rows(db, "prescription") == before_rows + sorted(
                [
                    tuple(
                        r[db.tree.table("prescription").column_index(c.name)]
                        for c in db.tree.table(
                            "prescription"
                        ).device_columns()
                    )
                    for r in rows
                ],
                key=lambda r: r[0],
            )


class TestAppendAbortCleanup:
    def test_failed_append_frees_built_pages(self, tiny_data):
        """A host-side build failure frees the new pages immediately."""
        db = build_session(tiny_data)
        mapped_before = set(db.device.ftl.mapped_lpages())
        rows = new_prescriptions(db)
        # Poison the last row so the heap load fails mid-build.
        bad = rows[:-1] + [(rows[-1][0] - 99,) + rows[-1][1:]]
        with pytest.raises(ValueError):
            db.append("prescription", bad)
        assert set(db.device.ftl.mapped_lpages()) == mapped_before
        assert (
            db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()
        )

    def test_remount_after_clean_append_is_a_noop_sweep(self, tiny_data):
        db = build_session(tiny_data)
        db.append("prescription", new_prescriptions(db))
        before = device_rows(db, "prescription")
        db.remount()
        assert device_rows(db, "prescription") == before
        assert (
            db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()
        )
