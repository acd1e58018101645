"""Incremental maintenance: rebuilding table extents after the load.

The paper loads the device once "in a secure setting"; real deployments
need re-synchronisation sessions (the authors' follow-up system, PlugDB,
made this a first-class feature).  This module implements batch appends
-- and the rebuild transaction UPDATE/DELETE ride on -- with the storage
model we have: NAND flash forbids in-place writes, so a mutation
*rebuilds* each affected structure.  All of that cost is charged to the
device, making maintenance measurable (the T6 extension bench).

Rebuild scope follows what the statement changed.  A batch append or a
DELETE changes the table's key set, so it rebuilds the heap, every SKT
whose subtree contains the table and every climbing/key index with the
table among its levels.  An UPDATE may only assign non-key columns, and
SKTs and key indexes hold only keys, so it is *column-scoped*: the heap,
the climbing indexes keyed on the assigned device columns and those
columns' statistics are rebuilt; every other structure is kept as is.
An UPDATE that assigns visible columns only has an empty device scope:
its rebuild is skipped and does no flash I/O (only the UPDATE's WHERE
scan reads the heap).

Crash atomicity (:func:`rebuild_table`) follows a strict build-all-then-
swap discipline.  Every flash write happens while the catalog still
points at the old extents; the commit -- swapping catalog dicts and
freeing old pages -- is pure host-side bookkeeping with no flash I/O, so
no fault decision (power cut, bad block, read-only latch) can land
inside it.  A failure during the build frees exactly the orphaned new
pages and re-raises, leaving the old state untouched; a power cut leaves
the new pages unreferenced, where the mount-time orphan sweep reclaims
them.  Either way, recovery sees the old version or the new version of
a statement -- never a torn mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.catalog.statistics import StatisticsCollector, TableStats
from repro.engine.database import HiddenDatabase
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.obs.log import get_logger
from repro.storage.heap import HeapTable, KeyNotFoundError

log = get_logger(__name__)


class MaintenanceError(ValueError):
    """An append violated the storage invariants."""


@dataclass
class MaintenanceReport:
    """What one append batch rebuilt."""

    table: str
    appended_rows: int
    rebuilt_skts: list[str]
    rebuilt_indexes: list[str]

    def summary(self) -> str:
        return (
            f"appended {self.appended_rows} rows to {self.table}; "
            f"rebuilt SKTs {self.rebuilt_skts or '[]'} and "
            f"{len(self.rebuilt_indexes)} indexes"
        )


def append_rows(
    db: HiddenDatabase, table: str, new_rows: list[tuple]
) -> MaintenanceReport:
    """Append full rows (schema column order) to one table's hidden part.

    The rows come checked by ``TableDef.validate_row``.  New primary keys
    must exceed every existing key (appends model new entities -- visits
    that happened, prescriptions written; updates to historical rows are
    out of scope, as in the paper).
    """
    table = table.lower()
    if table not in db.heaps:
        raise MaintenanceError(f"unknown table {table!r}")
    if not new_rows:
        return MaintenanceReport(table, 0, [], [])
    table_def = db.tree.table(table)
    device_cols = table_def.device_columns()
    source_idx = [table_def.column_index(c.name) for c in device_cols]
    reduced = [tuple(row[i] for i in source_idx) for row in new_rows]
    reduced.sort(key=lambda r: r[0])

    for prev, row in zip(reduced, reduced[1:]):
        if row[0] == prev[0]:
            raise MaintenanceError(
                f"{table}: appended key {row[0]} is given twice"
            )
    old_heap = db.heaps[table]
    last = old_heap.extent.count - 1
    if last >= 0 and reduced[0][0] <= old_heap.pk_of_rowid(last):
        raise MaintenanceError(
            f"{table}: appended keys must exceed the current maximum "
            f"({old_heap.pk_of_rowid(last)})"
        )
    _check_references(db, table, device_cols, reduced)
    rebuilt_skts, rebuilt_indexes = rebuild_table(
        db, table, chain(old_heap.scan(), reduced)
    )

    log.info(
        "appended %d rows to %s (rebuilt %d SKTs, %d indexes)",
        len(reduced), table, len(rebuilt_skts), len(rebuilt_indexes),
    )
    return MaintenanceReport(
        table=table,
        appended_rows=len(reduced),
        rebuilt_skts=rebuilt_skts,
        rebuilt_indexes=rebuilt_indexes,
    )


def _check_references(
    db: HiddenDatabase, table: str, device_cols, rows: list[tuple]
) -> None:
    """Refuse appended rows whose foreign keys name no parent row.

    Checked before anything is written: the SKT build would otherwise
    meet the dangling key halfway through the rebuild.  A dense parent
    heap answers each probe arithmetically, with no flash I/O.
    """
    for i, column in enumerate(device_cols):
        if column.references is None:
            continue
        parent = db.heaps[column.references.table.lower()]
        for row in rows:
            try:
                parent.rowid_for_pk(row[i])
            except KeyNotFoundError:
                raise MaintenanceError(
                    f"{table}: foreign key {column.name} = {row[i]} names "
                    f"no row of {parent.name}"
                ) from None


def rebuild_table(
    db: HiddenDatabase, table: str, device_rows, columns=None
) -> tuple[list[str], list[str]]:
    """Atomically replace ``table``'s device extents with ``device_rows``.

    ``device_rows`` is an iterable of *device* rows (device-column
    order, primary key first, sorted ascending).  ``columns`` is the
    rebuild scope: ``None`` (appends, DELETE) means the key set may have
    changed, so the heap, every SKT containing the table and every
    climbing/key index over it are rebuilt, with the table's full
    statistics.  A collection of device column names (UPDATE) promises
    the same keys in the same order with only those columns changed:
    the heap, the climbing indexes keyed on those columns and their
    column statistics are rebuilt, and everything else is kept.  An
    empty scope rebuilds nothing and touches no flash; a key column in
    the scope raises :class:`MaintenanceError` (a ``ValueError``).

    Everything in scope is built into fresh extents first -- the catalog
    untouched, the old pages still live -- and only then swapped in
    during a flash-free commit.  On any build failure the freshly
    written pages are freed and the exception re-raised: the old state
    stays fully intact.

    Returns ``(rebuilt_skts, rebuilt_indexes)`` labels for reporting.
    """
    table_def = db.tree.table(table)
    device_cols = table_def.device_columns()
    if columns is None:
        stats_cols = device_cols
    else:
        scope = {name.lower() for name in columns}
        stats_cols = [c for c in device_cols if c.name.lower() in scope]
        misfits = scope - {
            c.name.lower() for c in stats_cols
            if not c.primary_key and c.references is None
        }
        if misfits:
            raise MaintenanceError(
                f"{table}: a column-scoped rebuild takes non-key device "
                f"columns only, not {sorted(misfits)}"
            )
        if not scope:
            return [], []
    device = db.device
    ftl = device.ftl
    positions = [table_def.device_column_index(c.name) for c in stats_cols]
    collector = StatisticsCollector(
        table=table,
        column_names=[c.name for c in stats_cols],
    )

    def collected():
        for row in device_rows:
            collector.add([row[i] for i in positions])
            yield row

    def in_scope(index: ClimbingIndex) -> bool:
        # A key index is keyed on a primary key, never in a column scope.
        if columns is None:
            return table in index.levels
        return index.table == table and index.column in scope

    before = ftl.mapped_lpages()
    try:
        # Build phase: every flash write lands here, into pages the
        # catalog does not reference yet.
        new_heap = HeapTable(
            device, table, table_def.device_codec(), pk_field=0
        )
        new_heap.load(collected())
        heaps_view = {**db.heaps, table: new_heap}

        new_skts = {}
        for root, skt in db.skts.items():
            if columns is None and table in skt.tables:
                new_skts[root] = SubtreeKeyTable.build(
                    device, db.tree, root, heaps_view
                )

        edge_cache: dict = {}
        new_climbing = {}
        for key, index in db.climbing.items():
            if in_scope(index):
                new_climbing[key] = ClimbingIndex.build(
                    device, db.tree, heaps_view, key[0], key[1], edge_cache
                )
        new_key_indexes = {}
        for name, index in db.key_indexes.items():
            if in_scope(index):
                new_key_indexes[name] = ClimbingIndex.build(
                    device, db.tree, heaps_view, name,
                    db.tree.table(name).pk.name, edge_cache,
                )
    except BaseException:
        # Abort: free exactly the pages this build orphaned.  free() is
        # host-side bookkeeping (no flash I/O), so the abort itself
        # cannot fault.  After a power cut the same cleanup happens via
        # the mount-time orphan sweep instead.
        for lpage in ftl.mapped_lpages() - before:
            ftl.free(lpage)
        raise

    # Commit phase: swap the catalog and free the old extents.  Pure
    # host-side dict/bookkeeping operations -- no flash I/O, so no
    # fault decision can interleave; the statement is atomic.
    _free(db, db.heaps[table])
    db.heaps[table] = new_heap
    stats = collector.finish()
    if columns is not None:
        # Same rows, same keys: only the scoped columns' stats moved.
        old = db.stats[table]
        stats = TableStats(
            table=table,
            row_count=old.row_count,
            columns={**old.columns, **stats.columns},
        )
    db.stats[table] = stats
    rebuilt_skts = []
    for root, skt in new_skts.items():
        _free(db, db.skts[root])
        db.skts[root] = skt
        rebuilt_skts.append(f"SKT_{root}")
    rebuilt_indexes = []
    for key, index in new_climbing.items():
        _free(db, db.climbing[key])
        db.climbing[key] = index
        rebuilt_indexes.append(f"cidx:{key[0]}.{key[1]}")
    for name, index in new_key_indexes.items():
        _free(db, db.key_indexes[name])
        db.key_indexes[name] = index
        rebuilt_indexes.append(f"kidx:{name}")
    db.version += 1
    return rebuilt_skts, rebuilt_indexes


def _free(db: HiddenDatabase, structure) -> None:
    """Free every extent of a replaced heap, SKT or index."""
    for extent in structure.extents:
        extent.free(db.device.ftl)
