"""DML statements against their per-field, full-row references.

Three host-side rewrites of the write path must be invisible to the
device, and each keeps the route it replaced here as its reference:

* ``RecordCodec`` packs and unpacks a whole record with one compiled
  ``struct`` layout.  ``ReferenceRecordCodec`` encodes and decodes field
  by field through each column type, and its per-scan field decoder is
  one ``decode_field`` call per record.
* ``run_update``/``run_delete`` work on device rows and fetch from the
  visible site only the public columns they need.
  ``reference_update``/``reference_delete`` materialise full rows, every
  public column joined in, and re-sync the visible site after every
  UPDATE that changes a row.
* ``StatisticsCollector`` keeps value counts only.
  ``ReferenceCollector`` also tracks a running min/max per column.

Every statement must give the same changed count, rows or typed error,
the same device counters and fault-injector position, and the run the
same flight journal, device statistics, visible statistics and visible
rows -- under faults and with power cuts inside the rebuild.

CI's chaos job runs this file with the other fixed-seed fault tests.
"""

from __future__ import annotations

import datetime
import pickle

import pytest

from repro.catalog.schema import TableDef
from repro.catalog.statistics import (
    EXACT_THRESHOLD,
    ColumnStats,
    StatisticsCollector,
    TableStats,
)
from repro.engine import dml, maintenance
from repro.engine.dml import DmlError, _check_restrict
from repro.engine.maintenance import MaintenanceError, rebuild_table
from repro.faults import GhostDBFaultError
from repro.storage.record import RecordCodec
from repro.storage.types import TypeError_
from repro.visible import site as site_module

from tests.conftest import build_demo_session

APPEND_ROWS = 32
#: Frequencies are visible, Quantity and WhenWritten hidden.
STATEMENTS = (
    "UPDATE Prescription SET Quantity = 4242 WHERE Quantity = 6",
    "UPDATE Prescription SET Quantity = 6 WHERE Quantity = 4242",
    "APPEND",
    "DELETE FROM Prescription WHERE PreID > {max_pk}",
    "UPDATE Prescription SET Quantity = 11 WHERE Frequency = 'weekly'",
    "UPDATE Prescription SET Frequency = 'as needed' WHERE Quantity = 3",
    "UPDATE Prescription SET Quantity = 2, Frequency = 'at bedtime' "
    "WHERE Frequency = 'once daily' AND Quantity > 8",
    "UPDATE Prescription SET Quantity = 5 WHERE Quantity = 5",
    "DELETE FROM Visit WHERE VisID < 40",
    "DELETE FROM Prescription WHERE Frequency = 'weekly' AND PreID > 1900",
    "SELECT Pre.PreID, Pre.Quantity, Pre.Frequency FROM Prescription Pre "
    "WHERE Pre.Quantity > 9",
)
FAULTS = ((None, 0), ("flash", 3), ("mixed", 7))
#: Power cuts, as fractions of a write's flash operations: past the heap
#: scan's reads, among the rebuild's writes and index scans.
CUT_FRACTIONS = (0.6, 0.75, 0.9, 0.97)
#: ``(set-up, write cut short, clean-up)``: an UPDATE, an append and a
#: DELETE, each put back by its clean-up whether or not it committed.
CUT_WRITES = (
    (None, STATEMENTS[0], STATEMENTS[1]),
    (None, "APPEND", STATEMENTS[3]),
    ("APPEND", STATEMENTS[3], STATEMENTS[3]),
)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


class ReferenceRecordCodec(RecordCodec):
    """The per-field codec: every field through its type's own codec."""

    def encode(self, values) -> bytes:
        if len(values) != len(self.types):
            raise TypeError_(
                f"row has {len(values)} values but codec expects "
                f"{len(self.types)}"
            )
        return b"".join(
            dtype.encode(value) for dtype, value in zip(self.types, values)
        )

    def decode(self, data: bytes) -> tuple:
        if len(data) != self.width:
            raise TypeError_(
                f"record of {len(data)} B does not match codec width "
                f"{self.width}"
            )
        return tuple(
            dtype.decode(data[off : off + dtype.width])
            for dtype, off in zip(self.types, self._offsets)
        )

    def decode_field(self, data: bytes, index: int):
        dtype = self.types[index]
        off = self._offsets[index]
        return dtype.decode(data[off : off + dtype.width])

    def field_decoder(self, index: int):
        return lambda data: self.decode_field(data, index)


class ReferenceCollector(StatisticsCollector):
    """Counts plus a running ``(min, max)`` tuple per column, rebuilt
    for every value."""

    def __init__(self, table: str, column_names: list[str]):
        super().__init__(table, column_names)
        self._minmax: list[tuple | None] = [None] * len(column_names)

    def add(self, row) -> None:
        self._row_count += 1
        for i, value in enumerate(row):
            mm = self._minmax[i]
            if mm is None:
                self._minmax[i] = (value, value)
            else:
                lo, hi = mm
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
                self._minmax[i] = (lo, hi)
            counts = self._counts[i]
            counts[value] = counts.get(value, 0) + 1

    def finish(self) -> TableStats:
        stats = TableStats(table=self.table, row_count=self._row_count)
        for i, name in enumerate(self.names):
            counts = self._counts[i]
            mm = self._minmax[i]
            col = ColumnStats(
                column=name,
                row_count=self._row_count,
                n_distinct=len(counts),
                min_value=mm[0] if mm else None,
                max_value=mm[1] if mm else None,
            )
            if len(counts) <= EXACT_THRESHOLD:
                col.frequencies = dict(counts)
            else:
                col.histogram = self._build_histogram(counts, *mm)
            stats.columns[name] = col
        return stats


def _full_rows(db, site, table_def) -> list[tuple]:
    """Full rows (schema column order): device columns off the heap,
    every public-only column joined in from the visible site."""
    table = table_def.name.lower()
    device_cols = table_def.device_columns()
    device_pos = {c.name.lower(): i for i, c in enumerate(device_cols)}
    fetch_cols = [
        c.name.lower()
        for c in table_def.columns
        if c.name.lower() not in device_pos
    ]
    device_rows = list(db.heaps[table].scan())
    public: dict[int, tuple] = {}
    if fetch_cols:
        public = site.fetch_values(
            table, [r[0] for r in device_rows], fetch_cols
        )
    fetch_pos = {name: i for i, name in enumerate(fetch_cols)}
    rows: list[tuple] = []
    for drow in device_rows:
        pub = public.get(drow[0], ())
        rows.append(
            tuple(
                drow[device_pos[c.name.lower()]]
                if c.name.lower() in device_pos
                else pub[fetch_pos[c.name.lower()]]
                for c in table_def.columns
            )
        )
    return rows


def reference_update(db, site, bound) -> tuple[int, int]:
    table_def = bound.table_def
    table = bound.table
    rows = _full_rows(db, site, table_def)
    col_pos = {c.name.lower(): i for i, c in enumerate(table_def.columns)}
    pk_index = table_def.column_index(table_def.pk.name)
    pred_idx = [(col_pos[p.column], p) for p in bound.predicates]
    assign_idx = [
        (col_pos[a.column.name.lower()], a.column, a.value)
        for a in bound.assignments
    ]
    chip = db.device.chip
    matched = changed = 0
    out_rows: list[tuple] = []
    touched: dict[int, tuple] = {}
    for row in rows:
        if pred_idx:
            chip.charge("compare", len(pred_idx))
        if all(p.matches(row[i]) for i, p in pred_idx):
            matched += 1
            new_row = list(row)
            for i, column, value in assign_idx:
                new_row[i] = column.dtype.validate(value)
            new_row = tuple(new_row)
            if new_row != row:
                changed += 1
                touched[new_row[pk_index]] = new_row
            out_rows.append(new_row)
        else:
            out_rows.append(row)
    if not touched:
        return matched, 0
    device_idx = [
        table_def.column_index(c.name) for c in table_def.device_columns()
    ]
    rebuild_table(
        db,
        table,
        (tuple(r[i] for i in device_idx) for r in out_rows),
        columns=[c.name for _, c, _ in assign_idx if c.on_device],
    )
    site.update_rows(table, touched)
    return matched, changed


def reference_delete(db, site, bound) -> tuple[int, int]:
    table_def = bound.table_def
    table = bound.table
    rows = _full_rows(db, site, table_def)
    col_pos = {c.name.lower(): i for i, c in enumerate(table_def.columns)}
    pk_index = table_def.column_index(table_def.pk.name)
    pred_idx = [(col_pos[p.column], p) for p in bound.predicates]
    chip = db.device.chip
    kept: list[tuple] = []
    deleted: set[int] = set()
    for row in rows:
        if pred_idx:
            chip.charge("compare", len(pred_idx))
        if all(p.matches(row[i]) for i, p in pred_idx):
            deleted.add(row[pk_index])
        else:
            kept.append(row)
    if not deleted:
        return 0, 0
    _check_restrict(db, table_def, deleted)
    device_idx = [
        table_def.column_index(c.name) for c in table_def.device_columns()
    ]
    rebuild_table(db, table, (tuple(r[i] for i in device_idx) for r in kept))
    site.delete_rows(table, sorted(deleted))
    return len(deleted), len(deleted)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def loaded(demo_data) -> bytes:
    """A loaded demo session, pickled: every run starts from a copy."""
    return pickle.dumps(build_demo_session(demo_data))


@pytest.fixture(scope="module")
def appended(demo_data) -> tuple[int, list[tuple]]:
    """The largest Prescription key and a write-mix append batch."""
    max_pk = demo_data["prescription"][-1][0]
    first_day = datetime.date(2007, 7, 1)
    rows = [
        (
            max_pk + 1 + k,
            1 + k % 10,
            ("weekly", "twice daily")[k % 2],
            first_day + datetime.timedelta(days=5 * k),
            1 + 7 * k % len(demo_data["medicine"]),
            1 + 37 * k % len(demo_data["visit"]),
        )
        for k in range(APPEND_ROWS)
    ]
    return max_pk, rows


def _session(monkeypatch, loaded: bytes, reference: bool):
    """A fresh copy of the session, on the references or not."""
    db = pickle.loads(loaded)
    if reference:
        monkeypatch.setattr(dml, "run_update", reference_update)
        monkeypatch.setattr(dml, "run_delete", reference_delete)
        monkeypatch.setattr(maintenance, "StatisticsCollector", ReferenceCollector)
        monkeypatch.setattr(site_module, "StatisticsCollector", ReferenceCollector)
        monkeypatch.setattr(
            TableDef,
            "device_codec",
            lambda self: ReferenceRecordCodec(
                [c.dtype for c in self.device_columns()]
            ),
        )
        for heap in db.hidden.heaps.values():
            heap.codec = ReferenceRecordCodec(heap.codec.types)
    return db


def _statement(db, sql: str, appended) -> tuple:
    """Run one statement from zeroed measurements: its changed count,
    rows or typed error, its counters and the injector's position."""
    max_pk, rows = appended
    db.reset_measurements()
    try:
        if sql == "APPEND":
            outcome = ("appended", db.append("Prescription", rows).appended_rows)
        elif sql.startswith("SELECT"):
            outcome = ("rows", db.query(sql).rows)
        else:
            result = db.execute(sql.format(max_pk=max_pk))
            outcome = ("changed", result.matched, result.changed)
    except (GhostDBFaultError, DmlError, MaintenanceError) as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    injector = db.fault_injector
    observed = (
        outcome,
        db.device.counters(),
        injector.flash_ops if injector else None,
    )
    if db.needs_remount:
        db.remount()
    return observed


def _state(db) -> tuple:
    """What the statements leave behind: the flight journal, the device
    and visible statistics, and the visible rows."""
    tables = [t.name.lower() for t in db.schema]
    return (
        db.obs.flight.signature(),
        db.hidden.stats,
        {t: db.site.statistics(t) for t in tables},
        {t: db.site._tables[t].rows for t in tables},
    )


def _run(monkeypatch, loaded, appended, reference, fault, seed) -> tuple:
    db = _session(monkeypatch, loaded, reference)
    if fault is not None:
        db.set_faults(fault, seed)
    outcomes = [_statement(db, sql, appended) for sql in STATEMENTS]
    return outcomes, _state(db)


def _power_cuts(monkeypatch, loaded, appended, reference) -> tuple:
    """Each write cut at several of its flash operations, then cleaned
    up, so the next cut meets the same statement again."""
    db = _session(monkeypatch, loaded, reference)
    outcomes = []
    for setup, sql, cleanup in CUT_WRITES:
        for fraction in CUT_FRACTIONS:
            if setup is not None:
                outcomes.append(_statement(db, setup, appended))
            injector = db.set_faults("none")
            outcomes.append(_statement(db, sql, appended))
            total = injector.flash_ops
            outcomes.append(_statement(db, cleanup, appended))
            if setup is not None:
                outcomes.append(_statement(db, setup, appended))
            injector = db.set_faults("none")
            injector.schedule_power_cut(int(total * fraction))
            outcomes.append(("cut", *_statement(db, sql, appended)))
            db.set_faults("none")  # a scheduled cut stays armed
            outcomes.append(_statement(db, cleanup, appended))
    return outcomes, _state(db)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_the_statements_cover_every_path(monkeypatch, loaded, appended):
    outcomes, _ = _run(monkeypatch, loaded, appended, False, None, 0)
    results = dict(zip(STATEMENTS, (o[0] for o in outcomes)))
    changed = {
        sql: result[1:] for sql, result in results.items()
        if result[0] == "changed"
    }
    # The no-op matches rows and changes none; every other UPDATE and
    # DELETE changes rows.
    noop = STATEMENTS[7]
    assert changed.pop(noop)[1] == 0 < results[noop][1]
    assert len(changed) == 7
    assert all(n_changed > 0 for _, n_changed in changed.values())
    assert results["APPEND"] == ("appended", APPEND_ROWS)
    assert results[STATEMENTS[8]][:2] == ("error", "DmlError")
    assert results[STATEMENTS[-1]][0] == "rows"


@pytest.mark.parametrize("fault,seed", FAULTS)
def test_dml_matches_the_full_row_reference(
    monkeypatch, loaded, appended, fault, seed
):
    reference = _run(monkeypatch, loaded, appended, True, fault, seed)
    monkeypatch.undo()
    resolved = _run(monkeypatch, loaded, appended, False, fault, seed)
    assert resolved[0] == reference[0]
    assert resolved[1] == reference[1]


def test_power_cuts_inside_the_rebuild_match_the_reference(
    monkeypatch, loaded, appended
):
    reference = _power_cuts(monkeypatch, loaded, appended, True)
    monkeypatch.undo()
    resolved = _power_cuts(monkeypatch, loaded, appended, False)
    cuts = [o for o in reference[0] if o[0] == "cut"]
    assert len(cuts) == len(CUT_WRITES) * len(CUT_FRACTIONS)
    # Every cut aborts its write after the rebuild wrote a page.
    assert all(outcome[0] == "error" for _, outcome, *_ in cuts)
    assert all(counters.flash.page_writes > 0 for _, _, counters, _ in cuts)
    assert resolved == reference
