"""UPDATE / DELETE execution against the hidden database.

DML statements arrive over the secure channel (like appends -- they may
name hidden values, so they are never announced on the spied USB link)
and run as a rebuild transaction: matching rows are found by a
device-charged heap scan, the survivors are streamed through
:func:`repro.engine.maintenance.rebuild_table`'s build-all-then-swap
discipline (an UPDATE scoped to its assigned device columns), and only
after the flash-free commit is the visible site re-synchronised.  A power cut at any flash operation therefore leaves
the statement either fully applied or not at all -- never a torn mix.

A statement works on the heap's device rows (primary key first, then
the table's other device columns).  Its :class:`_RowPlan`, resolved once,
says where each column it names lives and which public-only columns it
fetches from the visible site: those its predicates name, or all of them
when it assigns one, because the site's re-sync takes whole rows.  An
UPDATE that assigns no public column leaves the visible site untouched.

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

#: Where a column's value sits in a row's ``(device row, public values)``.
_DEVICE, _PUBLIC = 0, 1


class DmlError(ValueError):
    """A DML statement violated a storage or referential constraint."""


class _RowPlan:
    """One statement's columns, located once in ``(device row, public
    values)`` pairs: a device-resident column is read from the device
    row, a public-only one from the values fetched for the row."""

    def __init__(self, table_def, predicates, assignments=()):
        device_pos = {
            c.name.lower(): i for i, c in enumerate(table_def.device_columns())
        }
        public_only = [
            c.name.lower() for c in table_def.columns
            if c.name.lower() not in device_pos
        ]
        #: Whether an assignment names a public column (a site re-sync).
        self.public_assigned = any(
            not a.column.on_device for a in assignments
        )
        named = {p.column for p in predicates}
        #: The public-only columns fetched from the visible site.
        self.fetch = [
            c for c in public_only if self.public_assigned or c in named
        ]
        fetch_pos = {name: i for i, name in enumerate(self.fetch)}

        def locate(name: str) -> tuple[int, int]:
            if name in device_pos:
                return _DEVICE, device_pos[name]
            return _PUBLIC, fetch_pos[name]

        self.predicates = [(*locate(p.column), p) for p in predicates]
        self.assignments = [
            (*locate(a.column.name.lower()), a.column.dtype, a.value)
            for a in assignments
        ]
        #: The rebuild's column scope: the assigned device columns.
        self.device_scope = [
            a.column.name for a in assignments if a.column.on_device
        ]
        #: Every column in schema order, for the site re-sync's full rows.
        self.columns = [
            locate(c.name.lower()) for c in table_def.columns
        ] if self.public_assigned else []

    def rows(self, db: HiddenDatabase, site: VisibleSite, table: str):
        """Yield each row of ``table`` as ``(device row, public values)``.

        The device rows come off the heap first, in one pass -- sequential
        flash reads and per-field decode charges, exactly what the secure
        chip would pay.  The public values come from the visible site,
        which costs nothing in the paper's model (host CPU is free).
        """
        device_rows = list(db.heaps[table].scan())
        public: dict[int, tuple] = {}
        if self.fetch:
            public = site.fetch_values(
                table, [r[0] for r in device_rows], self.fetch
            )
        for row in device_rows:
            yield row, public.get(row[0], ())

    def matches(self, parts: tuple[tuple, tuple]) -> bool:
        """Whether a row satisfies every predicate (charged by callers)."""
        for side, i, predicate in self.predicates:
            if not predicate.matches(parts[side][i]):
                return False
        return True


def run_update(
    db: HiddenDatabase, site: VisibleSite, bound: BoundUpdate
) -> tuple[int, int]:
    """Apply a bound UPDATE; returns ``(matched, changed)``.

    ``matched`` counts rows satisfying the WHERE clause; ``changed``
    counts those whose stored values actually differ afterwards.  A
    statement that matches nothing -- or assigns values already in
    place -- is a no-op: no rebuild, no flash writes.
    """
    table = bound.table
    plan = _RowPlan(bound.table_def, bound.predicates, bound.assignments)
    charge, n_preds = db.device.chip.charge, len(plan.predicates)
    matched = 0
    out_rows: list[tuple] = []
    #: pk -> new full row (schema order), for the visible site's re-sync.
    touched: dict[int, tuple] = {}
    changed = 0
    for parts in plan.rows(db, site, table):
        if n_preds:
            charge("compare", n_preds)
        row = parts[_DEVICE]
        if plan.matches(parts):
            matched += 1
            new = [list(row), list(parts[_PUBLIC])]
            for side, i, dtype, value in plan.assignments:
                new[side][i] = dtype.validate(value)
            new_parts = (tuple(new[_DEVICE]), tuple(new[_PUBLIC]))
            if new_parts != parts:
                changed += 1
                if plan.public_assigned:
                    touched[row[0]] = tuple(
                        new_parts[side][i] for side, i in plan.columns
                    )
            row = new_parts[_DEVICE]
        out_rows.append(row)
    if not changed:
        log.info("update on %s: %d matched, nothing changed", table, matched)
        return matched, 0

    # Assignments never touch keys (the binder refuses them), so only
    # the assigned device columns' structures need rebuilding.
    rebuild_table(db, table, out_rows, columns=plan.device_scope)
    # Only after the flash-free commit: a power cut during the rebuild
    # must leave the public side in step with the (old) device state.
    if plan.public_assigned:
        site.update_rows(table, touched)
    log.info("update on %s: %d matched, %d changed", table, matched, changed)
    return matched, changed


def run_delete(
    db: HiddenDatabase, site: VisibleSite, bound: BoundDelete
) -> tuple[int, int]:
    """Apply a bound DELETE; returns ``(matched, matched)``."""
    table = bound.table
    plan = _RowPlan(bound.table_def, bound.predicates)
    charge, n_preds = db.device.chip.charge, len(plan.predicates)
    kept: list[tuple] = []
    deleted: set[int] = set()
    for parts in plan.rows(db, site, table):
        if n_preds:
            charge("compare", n_preds)
        row = parts[_DEVICE]
        if plan.matches(parts):
            deleted.add(row[0])
        else:
            kept.append(row)
    if not deleted:
        log.info("delete on %s: nothing matched", table)
        return 0, 0

    _check_restrict(db, bound.table_def, deleted)

    rebuild_table(db, table, kept)
    site.delete_rows(table, sorted(deleted))
    log.info("delete on %s: %d rows removed", table, len(deleted))
    return len(deleted), len(deleted)


def _check_restrict(
    db: HiddenDatabase, table_def, deleted: set[int]
) -> None:
    """RESTRICT: refuse deletion of rows referenced by child tables.

    Foreign keys are always device columns, so each child check is one
    device-charged heap scan that decodes only the FK field of each row
    (one ``decode_field`` and one ``compare`` per row).
    """
    target = table_def.name.lower()
    charge = db.device.chip.charge
    for child_def in db.tree.schema:
        for column in child_def.columns:
            ref = column.references
            if ref is None or ref.table.lower() != target:
                continue
            child = child_def.name.lower()
            heap = db.heaps[child]
            fk_of = heap.codec.field_decoder(
                child_def.device_column_index(column.name)
            )
            with heap.reader(f"restrict-scan:{child}") as reader:
                for raw in reader.scan():
                    fk = fk_of(raw)
                    charge("decode_field")
                    charge("compare")
                    if fk in deleted:
                        raise DmlError(
                            f"cannot delete {table_def.name} key {fk}: "
                            f"referenced by {child_def.name}.{column.name}"
                        )
