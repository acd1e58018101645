"""A failed statement leaves nothing behind.

Every temporary or rebuilt structure on flash is an extent written by
one :class:`~repro.storage.pagestore.PageWriter`.  When a step fails --
here the k-th flash page program, for every k a clean run issues --
the statement must leave no firm RAM reserved and no page mapped that
the catalog does not reference, and a faulted device must program no
further page while the error propagates.
"""

from __future__ import annotations

import datetime

import pytest

from repro.baselines import run_hash_join_query, run_join_index_query
from repro.core.ghostdb import GhostDB, SessionError
from repro.demo import figure5_postfilter_plan
from repro.engine.maintenance import MaintenanceError
from repro.faults import PowerCutError
from repro.hardware.device import SmartUsbDevice
from repro.hardware.ftl import DeviceReadOnlyError
from repro.index.posting import merge_posting_streams
from repro.storage.heap import HeapTable
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL, demo_query

#: An external sort with several runs and a merge pass at scale 2,000.
ORDER_BY = "SELECT Vis.VisID, Vis.Purpose FROM Visit Vis ORDER BY Vis.Purpose"


def build(n_prescriptions: int) -> GhostDB:
    data = MedicalDataGenerator(
        DatasetConfig(n_prescriptions=n_prescriptions)
    ).generate()
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(data)
    return db


def firm_ram(db: GhostDB) -> int:
    """RAM reserved outside the reclaimable page cache."""
    return db.device.ram.used - db.device.ram.reclaimable_used


def new_prescriptions(db: GhostDB, n: int = 3) -> list[tuple]:
    """Fresh rows with keys above the current maximum."""
    pres = db.hidden.heaps["prescription"]
    max_pk = pres.pk_of_rowid(pres.extent.count - 1)
    visits = db.hidden.heaps["visit"]
    vis_pk = visits.pk_of_rowid(visits.extent.count - 1)
    return [
        (max_pk + i, 5 + i, "1x daily", datetime.date(2026, 1, 1), 50, vis_pk)
        for i in range(1, n + 1)
    ]


def run_heap_load(db: GhostDB) -> None:
    """Load a sparse-keyed copy of Visit straight through HeapTable.load,
    so the sparse-PK writer's final flush is the last page program."""
    visits = db.hidden.heaps["visit"]
    f = visits.pk_field
    rows = [row[:f] + (2 * row[f],) + row[f + 1 :] for row in visits.scan()]
    HeapTable(db.device, "visit-copy", visits.codec, f).load(rows)


def run_append(db: GhostDB) -> None:
    db.append("Prescription", new_prescriptions(db))


def run_order_by(db: GhostDB) -> None:
    db.query(ORDER_BY)


def run_store_plan(db: GhostDB) -> None:
    plan = figure5_postfilter_plan(db.hidden, db.bind(demo_query()))
    db.optimizer.annotate(plan)
    db.execute_plan(plan)


def run_hash_join(db: GhostDB) -> None:
    run_hash_join_query(db, demo_query())


def run_join_index(db: GhostDB) -> None:
    run_join_index_query(db, demo_query())


def run_demo_query(db: GhostDB) -> None:
    db.query(demo_query())


def count_writes(monkeypatch, db: GhostDB, statement) -> int:
    ftl = db.device.ftl
    real = ftl.write
    calls = []

    def counting(lpage, data):
        calls.append(lpage)
        return real(lpage, data)

    with monkeypatch.context() as patch:
        patch.setattr(ftl, "write", counting)
        statement(db)
    return len(calls)


def fail_write(monkeypatch, db: GhostDB, statement, k: int) -> None:
    """Run ``statement`` with its k-th page program refused."""
    ftl = db.device.ftl
    real = ftl.write
    calls = []

    def failing(lpage, data):
        calls.append(lpage)
        if len(calls) == k:
            raise DeviceReadOnlyError(f"write {k} refused")
        return real(lpage, data)

    with monkeypatch.context() as patch:
        patch.setattr(ftl, "write", failing)
        with pytest.raises(DeviceReadOnlyError):
            statement(db)


@pytest.mark.parametrize(
    "scale, statement",
    [
        (300, run_heap_load),
        (300, run_append),
        (2_000, run_order_by),
        (2_000, run_store_plan),
        (2_000, run_hash_join),
    ],
    ids=[
        "heap-load",
        "append-rebuild",
        "order-by-sort",
        "figure5-store",
        "hash-join",
    ],
)
def test_failed_write_leaves_nothing_behind(monkeypatch, scale, statement):
    """Fail every page program of a clean run in turn: each failure
    leaves no firm RAM and an FTL map equal to the catalog's pages."""
    writes = count_writes(monkeypatch, build(scale), statement)
    assert writes > 0
    db = build(scale)
    for k in range(1, writes + 1):
        fail_write(monkeypatch, db, statement, k)
        assert firm_ram(db) == 0, f"write {k}: {db.device.ram.by_label}"
        assert db.device.ftl.mapped_lpages() == db.hidden.referenced_pages(), (
            f"write {k}"
        )


@pytest.mark.parametrize(
    "statement",
    [run_demo_query, run_store_plan, run_join_index, run_hash_join, run_append],
    ids=["query", "execute-plan", "join-index", "hash-join", "append"],
)
def test_power_cut_is_booked_on_every_plan_path(statement):
    """A hand-built plan, a baseline or an append books a fault as the
    statement pipeline does: a power cut demands a remount and counts
    one aborted query, so the same statement and the next query are
    refused before they read a flash page."""
    db = build(2_000)
    db.set_faults("none", 0).schedule_power_cut(3)
    with pytest.raises(PowerCutError):
        statement(db)
    assert db.needs_remount
    aborted = db.obs.registry.counter("ghostdb_recovery_aborted_queries_total")
    assert aborted.value(reason="PowerCutError") == 1
    db.clear_faults()
    reads = db.device.counters().flash.page_reads
    with pytest.raises(SessionError, match="remount"):
        statement(db)
    with pytest.raises(SessionError, match="remount"):
        db.query(demo_query())
    assert db.device.counters().flash.page_reads == reads


def test_duplicate_appended_key_is_refused_before_any_write():
    db = build(300)
    row = new_prescriptions(db, 1)[0]
    device_before = list(db.hidden.heaps["prescription"].scan())
    visible_before = db.query(
        "SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre"
    ).rows
    writes = db.device.counters().flash.page_writes
    with pytest.raises(MaintenanceError, match="given twice"):
        db.append("Prescription", [row, row])
    assert db.device.counters().flash.page_writes == writes
    assert firm_ram(db) == 0
    assert list(db.hidden.heaps["prescription"].scan()) == device_before
    assert db.query(
        "SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre"
    ).rows == visible_before


def test_spill_fault_programs_no_further_page():
    """A stream faulting mid-spill must not have its partial spill page
    programmed while the error propagates."""
    device = SmartUsbDevice()
    programs_at_fault = []

    def stream(values, fail_after=None):
        def produce():
            for i, value in enumerate(values):
                if i == fail_after:
                    programs_at_fault.append(device.flash.stats.page_writes)
                    raise PowerCutError("power lost mid-spill")
                yield value

        return lambda: (produce(), lambda: None)

    factories = [
        stream(range(0, 200, 2)),
        stream(range(1, 200, 2)),
        stream(range(1000, 2000), fail_after=600),
    ]
    with pytest.raises(PowerCutError):
        list(merge_posting_streams(device, factories, "t", fan_in=2))
    assert programs_at_fault == [2]
    assert device.flash.stats.page_writes == 2
    assert device.ram.used - device.ram.reclaimable_used == 0
    assert device.ftl.mapped_pages == 0
