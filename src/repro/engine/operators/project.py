"""Projection: assemble final result rows from subtree key tuples.

For each surviving key tuple the projection

* serves primary keys straight from the tuple,
* reads hidden attributes from the device heaps (cheap partial reads via
  a persistent per-table reader),
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

    def _position(self, table: str) -> int:
        return self.tables.index(table)

    def _open(self):
        self.reserve(self.ctx.fetch_batch * len(self.tables) * ID_WIDTH)

    def _produce(self):
        ctx = self.ctx
        db = ctx.db
        # Fetch grouping stays at ``fetch_batch`` regardless of the
        # execution batch size: the groups decide the observable fetch
        # rounds, which must not depend on host batching.
        batch_size = ctx.fetch_batch

        # Persistent readers for tables we read hidden fields from.
        hidden_tables = {t for t, c in self.projections if c.hidden}
        hidden_tables |= {p.table for p in self.residual_hidden}
        readers = {
            t: db.heaps[t].reader(f"project:{t}") for t in hidden_tables
        }
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
        # 2. Assemble rows, dropping tuples that failed a recheck or a
        #    residual hidden predicate.
        for row in batch:
            dropped = False
            for table in fetch_tables:
                if row[self._position(table)] not in fetched[table]:
                    dropped = True
                    break
            if dropped:
                # Under a recheck this is (almost always) a Bloom false
                # positive surviving post-filtering; count it for the
                # cross-query metrics.
                if self.visible_recheck:
                    self.ctx.bump("bloom_recheck_dropped")
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

    def _hidden_value(
        self, readers, table: str, pk: int, field_idx: int,
        cached: bool = False,
    ):
        db = self.ctx.db
        heap = db.heaps[table]
        try:
            rowid = heap.rowid_for_pk(pk)
        except KeyNotFoundError:
            raise PlanExecutionError(
                f"dangling key {pk} for table {table!r} during projection"
            ) from None
        off, width = heap.codec.field_slice(field_idx)
        reader = readers[table]
        fetch = reader.field_cached if cached else reader.field
        raw = fetch(rowid, off, width)
        self.ctx.device.chip.charge("decode_field")
        return heap.codec.types[field_idx].decode(raw)
