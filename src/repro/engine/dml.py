"""UPDATE / DELETE execution against the hidden database.

DML statements arrive over the secure channel (like appends -- they may
name hidden values, so they are never announced on the spied USB link)
and run as a rebuild transaction: matching rows are found by a
device-charged heap scan, the survivors are streamed through
:func:`repro.engine.maintenance.rebuild_table`'s build-all-then-swap
discipline (an UPDATE scoped to its assigned device columns), and only
after the flash-free commit is the visible site re-synchronised.  A power cut at any flash operation therefore leaves
the statement either fully applied or not at all -- never a torn mix.

DELETE enforces RESTRICT semantics: deleting rows still referenced by a
child table's foreign keys is refused (the schema tree's edges stay
consistent), checked with device-charged scans of the child heaps.
"""

from __future__ import annotations

from repro.engine.database import HiddenDatabase
from repro.engine.maintenance import rebuild_table
from repro.obs.log import get_logger
from repro.sql.binder import BoundDelete, BoundUpdate
from repro.visible.site import VisibleSite

log = get_logger(__name__)


class DmlError(ValueError):
    """A DML statement violated a storage or referential constraint."""


def run_update(
    db: HiddenDatabase, site: VisibleSite, bound: BoundUpdate
) -> tuple[int, int]:
    """Apply a bound UPDATE; returns ``(matched, changed)``.

    ``matched`` counts rows satisfying the WHERE clause; ``changed``
    counts those whose stored values actually differ afterwards.  A
    statement that matches nothing -- or assigns values already in
    place -- is a no-op: no rebuild, no flash writes.
    """
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
        log.info("update on %s: %d matched, nothing changed", table, matched)
        return matched, 0

    device_idx = [
        table_def.column_index(c.name) for c in table_def.device_columns()
    ]
    # Assignments never touch keys (the binder refuses them), so only
    # the assigned device columns' structures need rebuilding.
    rebuild_table(
        db,
        table,
        (tuple(r[i] for i in device_idx) for r in out_rows),
        columns=[c.name for _, c, _ in assign_idx if c.on_device],
    )
    # Only after the flash-free commit: a power cut during the rebuild
    # must leave the public side in step with the (old) device state.
    site.update_rows(table, touched)
    log.info("update on %s: %d matched, %d changed", table, matched, changed)
    return matched, changed


def run_delete(
    db: HiddenDatabase, site: VisibleSite, bound: BoundDelete
) -> tuple[int, int]:
    """Apply a bound DELETE; returns ``(matched, matched)``."""
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
        log.info("delete on %s: nothing matched", table)
        return 0, 0

    _check_restrict(db, table_def, deleted)

    device_idx = [
        table_def.column_index(c.name) for c in table_def.device_columns()
    ]
    rebuild_table(
        db, table, (tuple(r[i] for i in device_idx) for r in kept)
    )
    site.delete_rows(table, sorted(deleted))
    log.info("delete on %s: %d rows removed", table, len(deleted))
    return len(deleted), len(deleted)


def _full_rows(
    db: HiddenDatabase, site: VisibleSite, table_def
) -> list[tuple]:
    """Materialise full rows (schema column order) for one table.

    Device columns stream off the heap -- sequential flash reads and
    per-field decode charges, exactly what the secure chip would pay.
    Public-only columns are joined back in from the visible site, which
    costs nothing in the paper's model (host CPU is free).
    """
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


def _check_restrict(
    db: HiddenDatabase, table_def, deleted: set[int]
) -> None:
    """RESTRICT: refuse deletion of rows referenced by child tables.

    Foreign keys are always device columns, so each child check is one
    device-charged heap scan over the child's FK values.
    """
    target = table_def.name.lower()
    chip = db.device.chip
    for child_def in db.tree.schema:
        for column in child_def.columns:
            ref = column.references
            if ref is None or ref.table.lower() != target:
                continue
            device_cols = child_def.device_columns()
            fk_pos = next(
                i
                for i, c in enumerate(device_cols)
                if c.name.lower() == column.name.lower()
            )
            for row in db.heaps[child_def.name.lower()].scan():
                chip.charge("compare")
                if row[fk_pos] in deleted:
                    raise DmlError(
                        f"cannot delete {table_def.name} key "
                        f"{row[fk_pos]}: referenced by "
                        f"{child_def.name}.{column.name}"
                    )
