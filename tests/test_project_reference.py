"""The projection against its per-row reference.

``ProjectOp`` resolves each column's tuple position, heap, field slice,
read routes and decoder once per execution.  ``ReferenceProjectOp``
below is the route it replaced: every field of every row re-resolves
the table's tuple position, the column's device index and field slice,
and the reader, then reads, charges and decodes.  The two must be
indistinguishable to the device: the same rows or the same typed error,
the same counters, flight journal, fault-injector position and clock --
also when a fault or a power cut aborts a statement part-way, which is
what pins down *when* each read happens relative to the consumer's own
charges (an Aggregate hashes each row as it pulls it).

``WindowAheadProjectOp`` reads a whole ``fetch_batch`` window before
yielding its first row.  It returns the same rows with the same
end-of-statement totals, and the comparison must still catch it.

CI's chaos job runs this file with the other fixed-seed fault tests.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import executor as executor_module
from repro.engine import plan as lp
from repro.engine.operators import ProjectOp
from repro.engine.operators.base import PlanExecutionError
from repro.faults import GhostDBFaultError
from repro.storage.heap import KeyNotFoundError
from repro.visible.link import Fetch

from tests.conftest import build_demo_session

#: The five olap-scan shapes (hidden BETWEEN, deep BMI join, GROUP BY
#: over a hidden date window, Med.Type join, hidden date window) and a
#: residual ``<>`` the indexes cannot answer, at the demo scale.
GROUP_BY = (
    "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) "
    "FROM Prescription Pre, Visit Vis "
    "WHERE Vis.VisID = Pre.VisID "
    "AND Vis.Date BETWEEN DATE '2006-01-14' AND DATE '2007-01-13' "
    "GROUP BY Vis.Purpose"
)
RESIDUAL = (
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
    "WHERE Pre.Quantity <> 3 AND Pre.PreID < 300"
)
QUERIES = (
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
    "WHERE Pre.Quantity BETWEEN 3 AND 5 AND Pre.PreID <= 1975",
    "SELECT Pre.Quantity, Pat.Age "
    "FROM Prescription Pre, Visit Vis, Patient Pat "
    "WHERE Pat.BodyMassIndex > 33.009 "
    "AND Pre.VisID = Vis.VisID AND Vis.PatID = Pat.PatID",
    GROUP_BY,
    "SELECT Med.Name, Pre.Quantity FROM Medicine Med, Prescription Pre "
    "WHERE Med.Type = 'Antibiotic' AND Med.MedID > 40 "
    "AND Med.MedID = Pre.MedID",
    "SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre "
    "WHERE Pre.WhenWritten BETWEEN DATE '2006-08-18' AND DATE '2006-11-17'",
    RESIDUAL,
)

#: Buffer-pool sizes in pages: off, one page, the e2e benchmark's
#: eight, and unbounded (the RAM budget is the only limit).
POOLS = (0, 1, 8, None)
WINDOWS = (1, 7, 256)
#: Fault profiles at fixed seeds.  A fault run pins the execution window
#: to 1 whatever ``exec_batch`` says (``Executor._effective_batch``).
FAULTS = ((None, 0), ("flash", 3), ("mixed", 7))
#: Scheduled power cuts, as fractions of the GROUP BY statement's flash
#: operations: most land in the projection's field reads.
CUT_FRACTIONS = (0.2, 0.4, 0.55, 0.7, 0.85)


def _read_field(reader, rowid: int, offset: int, width: int, cached: bool):
    """One field read the pre-resolution way: locate, then a partial
    read, or a full-page read through the buffer pool."""
    lpage, base = reader.extent.locate(rowid)
    ftl = reader._device.ftl
    if cached:
        return ftl.read(lpage)[base + offset : base + offset + width]
    return ftl.read(lpage, base + offset, width)


class ReferenceProjectOp(ProjectOp):
    """The per-row projection: every field re-resolves its metadata."""

    def _position(self, table: str) -> int:
        return self.tables.index(table)

    def _produce(self):
        ctx = self.ctx
        db = ctx.db
        batch_size = ctx.link.fetch_batch
        hidden_tables = {t for t, c in self.projections if c.hidden}
        hidden_tables |= {p.table for p in self.residual_hidden}
        readers = {
            t: db.heaps[t].reader(f"project:{t}") for t in hidden_tables
        }
        visible_cols: dict[str, list[str]] = {}
        for table, column in self.projections:
            if not column.hidden and not column.primary_key:
                visible_cols.setdefault(table, []).append(
                    column.name.lower()
                )
        recheck_by_table: dict[str, list] = {}
        for predicate in self.visible_recheck:
            recheck_by_table.setdefault(predicate.table, []).append(predicate)
        fetch_tables = sorted(set(visible_cols) | set(recheck_by_table))
        try:
            batch: list[tuple] = []
            for row in self.child.rows():
                batch.append(row)
                if len(batch) >= batch_size:
                    yield from self._emit_batch(
                        batch, readers, visible_cols, recheck_by_table,
                        fetch_tables,
                    )
                    batch = []
            if batch:
                yield from self._emit_batch(
                    batch, readers, visible_cols, recheck_by_table,
                    fetch_tables,
                )
        finally:
            for reader in readers.values():
                reader.close()

    def _emit_batch(
        self, batch, readers, visible_cols, recheck_by_table, fetch_tables
    ):
        ctx = self.ctx
        db = ctx.db
        dense_tables = set()
        pool = ctx.device.page_cache
        pool_fits = pool.enabled and (
            pool.capacity_pages is None
            or pool.capacity_pages >= max(1, len(readers))
        )
        if pool_fits:
            for table, reader in readers.items():
                extent = reader.extent
                if len(batch) * extent.slots_per_page >= 2 * extent.count:
                    dense_tables.add(table)
        fetches = [
            Fetch(
                table,
                sorted({row[self._position(table)] for row in batch}),
                visible_cols.get(table, []),
                recheck_by_table.get(table, []),
            )
            for table in fetch_tables
        ]
        fetched = dict(zip(fetch_tables, ctx.link.fetch_values(fetches)))
        for row in batch:
            dropped = False
            for table in fetch_tables:
                if row[self._position(table)] not in fetched[table]:
                    dropped = True
                    break
            if dropped:
                if self.visible_recheck:
                    ctx.bump("bloom_recheck_dropped")
                continue
            for predicate in self.residual_hidden:
                value = self._hidden_value(
                    readers, predicate.table,
                    row[self._position(predicate.table)],
                    db.tree.table(predicate.table).device_column_index(
                        predicate.column
                    ),
                    cached=predicate.table in dense_tables,
                )
                ctx.device.chip.charge("compare")
                if not predicate.matches(value):
                    dropped = True
                    break
            if dropped:
                continue
            out = []
            for table, column in self.projections:
                key = row[self._position(table)]
                if column.primary_key:
                    out.append(key)
                elif column.hidden:
                    field_idx = db.tree.table(table).device_column_index(
                        column.name
                    )
                    out.append(
                        self._hidden_value(
                            readers, table, key, field_idx,
                            cached=table in dense_tables,
                        )
                    )
                else:
                    col_pos = visible_cols[table].index(column.name.lower())
                    out.append(fetched[table][key][col_pos])
            yield tuple(out)

    def _hidden_value(self, readers, table, pk, field_idx, cached=False):
        heap = self.ctx.db.heaps[table]
        try:
            rowid = heap.rowid_for_pk(pk)
        except KeyNotFoundError:
            raise PlanExecutionError(
                f"dangling key {pk} for table {table!r} during projection"
            ) from None
        off, width = heap.codec.field_slice(field_idx)
        raw = _read_field(readers[table], rowid, off, width, cached)
        self.ctx.device.chip.charge("decode_field")
        return heap.codec.types[field_idx].decode(raw)


class WindowAheadProjectOp(ReferenceProjectOp):
    """Reads every row of a ``fetch_batch`` window before yielding any."""

    def _emit_batch(self, *args):
        yield from list(super()._emit_batch(*args))


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def loaded(demo_data) -> bytes:
    """A loaded demo session, pickled: every run starts from a copy."""
    return pickle.dumps(build_demo_session(demo_data))


def _session(loaded: bytes, pool, window: int):
    db = pickle.loads(loaded)
    if pool is None:
        db.device.page_cache.resize(None)
    else:
        db.set_cache(pool)
    db.executor.config.exec_batch = window
    return db


def _statement(db, sql: str) -> tuple:
    """Run one statement from zeroed measurements: its rows or typed
    error, its counters (the clock up to an abort included) and the
    fault injector's flash-op position."""
    db.reset_measurements()
    try:
        outcome = ("rows", db.query(sql).rows)
    except (GhostDBFaultError, PlanExecutionError) as exc:
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


def _run(monkeypatch, operator, loaded, pool, window, fault, seed) -> tuple:
    """Every query on a fresh copy under one configuration."""
    monkeypatch.setattr(executor_module, "ProjectOp", operator)
    db = _session(loaded, pool, window)
    if fault is not None:
        db.set_faults(fault, seed)
    outcomes = [_statement(db, sql) for sql in QUERIES]
    return outcomes, db.obs.flight.signature()


def _power_cuts(monkeypatch, operator, loaded, pool) -> tuple:
    """The GROUP BY statement cut at several of its flash operations."""
    monkeypatch.setattr(executor_module, "ProjectOp", operator)
    db = _session(loaded, pool, 256)
    injector = db.set_faults("none")
    clean = _statement(db, GROUP_BY)
    assert clean[0][0] == "rows"
    total = injector.flash_ops
    outcomes = [clean]
    for fraction in CUT_FRACTIONS:
        injector = db.set_faults("none")
        injector.schedule_power_cut(int(total * fraction))
        outcomes.append(_statement(db, GROUP_BY))
        outcomes.append(_statement(db, GROUP_BY))
    return outcomes, db.obs.flight.signature()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_the_queries_cover_residuals_and_a_per_row_consumer(loaded):
    db = pickle.loads(loaded)
    plans = {sql: db.query(sql).plan for sql in QUERIES}
    projects = [
        node for plan in plans.values() for node in plan.walk()
        if isinstance(node, lp.Project)
    ]
    assert any(node.residual_hidden for node in projects)
    assert isinstance(plans[GROUP_BY], lp.Aggregate)


@pytest.mark.parametrize("fault,seed", FAULTS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("pool", POOLS)
def test_projection_matches_per_row_reference(
    monkeypatch, loaded, pool, window, fault, seed
):
    reference = _run(
        monkeypatch, ReferenceProjectOp, loaded, pool, window, fault, seed
    )
    resolved = _run(monkeypatch, ProjectOp, loaded, pool, window, fault, seed)
    assert resolved[0] == reference[0]
    assert resolved[1] == reference[1]
    if fault is None:
        assert all(outcome[0] == "rows" for outcome, *_ in resolved[0])


@pytest.mark.parametrize("pool", POOLS)
def test_power_cuts_abort_at_the_reference_point(monkeypatch, loaded, pool):
    reference = _power_cuts(monkeypatch, ReferenceProjectOp, loaded, pool)
    resolved = _power_cuts(monkeypatch, ProjectOp, loaded, pool)
    assert any(outcome[0] == "error" for outcome, *_ in reference[0])
    assert resolved == reference


def test_reading_a_window_ahead_is_caught(monkeypatch, loaded):
    """Same rows and the same per-statement counters, but the flight
    journal stamps fault events at other simulated times, and a power
    cut finds fewer of the Aggregate's hash charges made."""
    reference = _run(
        monkeypatch, ReferenceProjectOp, loaded, 8, 256, "flash", 3
    )
    ahead = _run(monkeypatch, WindowAheadProjectOp, loaded, 8, 256, "flash", 3)
    assert ahead[0] == reference[0]
    assert ahead[1] != reference[1]
    reference = _power_cuts(monkeypatch, ReferenceProjectOp, loaded, 8)
    ahead = _power_cuts(monkeypatch, WindowAheadProjectOp, loaded, 8)
    assert ahead[0][0] == reference[0][0]
    assert ahead[0][1:] != reference[0][1:]
