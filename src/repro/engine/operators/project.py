"""Projection: assemble final result rows from subtree key tuples.

For each surviving key tuple the projection

* serves primary keys straight from the tuple,
* reads hidden attributes from the device heaps through a persistent
  per-table reader: each field's place, read routes and decoder are
  resolved once per execution, so a row pays only its rowid, one field
  read (partial, or a full page through the buffer pool when the window
  is dense) and one decode,
* fetches visible attributes from the PC, one fetch round per
  ``fetch_batch`` window covering every table the window needs, with
  the visible predicates re-checked host-side -- which is also what
  eliminates Bloom false positives: an ID that fails the re-check
  simply comes back absent and its tuple is dropped,
* evaluates residual hidden predicates (e.g. <>) the indexes could not.

The assembled rows never leave the device over the untrusted link; the
session hands them to the secure rendering path.
"""

from __future__ import annotations

from repro.catalog.schema import ColumnDef
from repro.columns import ID_WIDTH
from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.sql.binder import Predicate
from repro.storage.heap import KeyNotFoundError
from repro.visible.link import Fetch


class ProjectOp(Operator):
    name = "project"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        tables: list[str],
        projections: list[tuple[str, ColumnDef]],
        visible_recheck: list[Predicate] | None = None,
        residual_hidden: list[Predicate] | None = None,
    ):
        super().__init__(
            ctx,
            detail=", ".join(f"{t}.{c.name}" for t, c in projections),
            children=(child,),
        )
        self.child = child
        self.tables = [t.lower() for t in tables]
        self.projections = [(t.lower(), c) for t, c in projections]
        self.visible_recheck = visible_recheck or []
        self.residual_hidden = residual_hidden or []
        for table, _column in self.projections:
            if table not in self.tables:
                raise PlanExecutionError(
                    f"projection references {table!r} but the plan's "
                    f"tuples only cover {self.tables}"
                )
        for predicate in self.residual_hidden:
            if predicate.table not in self.tables:
                raise PlanExecutionError(
                    f"residual predicate on {predicate.table!r} not "
                    f"covered by plan tuples {self.tables}"
                )

    def _open(self):
        self.reserve(self.ctx.link.fetch_batch * len(self.tables) * ID_WIDTH)

    def _produce(self):
        ctx = self.ctx
        db = ctx.db
        # Fetch grouping stays at ``fetch_batch`` regardless of the
        # execution batch size: the groups decide the observable fetch
        # rounds, which must not depend on host batching.
        batch_size = ctx.link.fetch_batch

        # Persistent readers for tables we read hidden fields from.
        hidden_tables = {t for t, c in self.projections if c.hidden}
        hidden_tables |= {p.table for p in self.residual_hidden}
        readers = {
            t: db.heaps[t].reader(f"project:{t}") for t in hidden_tables
        }
        try:
            plan = self._resolve(readers)
            batch: list[tuple] = []
            for row in self.child.rows():
                batch.append(row)
                if len(batch) >= batch_size:
                    yield from self._emit_batch(batch, readers, plan)
                    batch = []
            if batch:
                yield from self._emit_batch(batch, readers, plan)
        finally:
            for reader in readers.values():
                reader.close()

    def _resolve(self, readers) -> tuple:
        """Work out, once per execution, everything the per-row loop
        needs: each fetch table's request and tuple position, each
        residual predicate as ``(tuple position, hidden field,
        matcher)``, and each output column as ``(tuple position, hidden
        field, fetch index, value index)`` (a key column has neither
        field nor fetch index).  A hidden field is ``(table, getters)``:
        one ``pk -> value`` getter per read route, partial then
        full-page.

        Only plain data and this execution's bound methods are held, so
        every statement looks its callees up afresh.
        """
        db = self.ctx.db
        charge = self.ctx.device.chip.charge
        position = {table: i for i, table in enumerate(self.tables)}
        # Group visible needs per table.
        visible_cols: dict[str, list[str]] = {}
        for table, column in self.projections:
            if not column.hidden and not column.primary_key:
                visible_cols.setdefault(table, []).append(
                    column.name.lower()
                )
        recheck_by_table: dict[str, list[Predicate]] = {}
        for predicate in self.visible_recheck:
            recheck_by_table.setdefault(predicate.table, []).append(predicate)
        # Tables we must consult the host about (values or recheck-only).
        fetch_tables = sorted(set(visible_cols) | set(recheck_by_table))
        fetches = [
            (
                table,
                position[table],
                visible_cols.get(table, []),
                recheck_by_table.get(table, []),
            )
            for table in fetch_tables
        ]

        def hidden_field(table: str, column: str) -> tuple:
            heap = db.heaps[table]
            index = db.tree.table(table).device_column_index(column)
            offset, width = heap.codec.field_slice(index)
            getters = tuple(
                _field_getter(
                    table,
                    heap.rowid_for_pk,
                    readers[table].field_reader(offset, width, full_page),
                    heap.codec.types[index].decode,
                    charge,
                )
                for full_page in (False, True)
            )
            return table, getters

        residuals = [
            (position[p.table], hidden_field(p.table, p.column), p.matches)
            for p in self.residual_hidden
        ]
        columns = []
        for table, column in self.projections:
            if column.primary_key:
                columns.append((position[table], None, None, 0))
            elif column.hidden:
                field = hidden_field(table, column.name)
                columns.append((position[table], field, None, 0))
            else:
                columns.append((
                    position[table],
                    None,
                    fetch_tables.index(table),
                    visible_cols[table].index(column.name.lower()),
                ))
        return fetches, residuals, columns

    def _emit_batch(self, batch, readers, plan):
        ctx = self.ctx
        fetches, residuals, columns = plan
        # Hidden-field fetch route per table: dense row sets go through
        # the buffer pool (one full-page read serves every field on the
        # page), sparse ones stay on cheap partial reads.  Same density
        # gate as SKT access; ``batch`` is a ``fetch_batch`` window, so
        # the choice is independent of the host-side execution batch.
        dense_tables = set()
        pool = ctx.device.page_cache
        pool_fits = pool.enabled and (
            pool.capacity_pages is None
            or pool.capacity_pages >= max(1, len(readers))
        )
        if pool_fits:
            for table, reader in readers.items():
                if len(batch) * reader.extent.slots_per_page >= 2 * reader.extent.count:
                    dense_tables.add(table)
        # 1. Fetch visible values (and presence under recheck) of every
        #    table in one round.
        fetched = ctx.link.fetch_values([
            Fetch(table, sorted({row[pos] for row in batch}), cols, recheck)
            for table, pos, cols, recheck in fetches
        ])
        present = [
            (pos, values)
            for (_table, pos, _cols, _recheck), values in zip(fetches, fetched)
        ]

        def route(field):
            table, getters = field
            return getters[table in dense_tables]

        checks = [
            (pos, route(field), matches) for pos, field, matches in residuals
        ]
        out_columns = [
            (
                pos,
                None if field is None else route(field),
                None if fetch_i is None else fetched[fetch_i],
                value_i,
            )
            for pos, field, fetch_i, value_i in columns
        ]
        charge = ctx.device.chip.charge
        # 2. Assemble rows, dropping tuples that failed a recheck or a
        #    residual hidden predicate.  Each row's reads happen right
        #    before it is yielded, never a window ahead: a consumer that
        #    charges per row (Aggregate's hash) sees the same device
        #    state at every read as under per-row pulls.
        for row in batch:
            dropped = False
            for pos, values in present:
                if row[pos] not in values:
                    dropped = True
                    break
            if dropped:
                # Under a recheck this is (almost always) a Bloom false
                # positive surviving post-filtering; count it for the
                # cross-query metrics.
                if self.visible_recheck:
                    ctx.bump("bloom_recheck_dropped")
                continue
            for pos, get, matches in checks:
                value = get(row[pos])
                charge("compare")
                if not matches(value):
                    dropped = True
                    break
            if dropped:
                continue
            out = []
            for pos, get, values, value_i in out_columns:
                key = row[pos]
                if get is not None:
                    out.append(get(key))
                elif values is not None:
                    out.append(values[key][value_i])
                else:
                    out.append(key)
            yield tuple(out)


def _field_getter(table: str, rowid_for_pk, read, decode, charge):
    """``pk -> value`` for one hidden field on one read route: the
    rowid, one field read, one ``decode_field`` charge and one decode."""

    def get(pk: int):
        try:
            rowid = rowid_for_pk(pk)
        except KeyNotFoundError:
            raise PlanExecutionError(
                f"dangling key {pk} for table {table!r} during projection"
            ) from None
        raw = read(rowid)
        charge("decode_field")
        return decode(raw)

    return get
