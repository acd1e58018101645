"""The visible site: the PC and/or public server holding visible data.

Stores each table's public columns keyed by primary key, evaluates
visible selections (free of device cost -- the paper delegates "as much
work as possible to the PC and the server"), serves value fetches for
projections, and computes visible-column statistics that it shares with
the device's optimizer at plug-in time.

Selections are answered from a value-ordered index per (table, column):
the column's values and their PKs, sorted by value.  An index is built
on the first selection that needs it and dropped by every write (load,
append, update, delete), so it never holds stale rows.  It is host
bookkeeping only: the IDs it yields, and so every byte on the link,
are the ones a row scan would give.

Nothing here is trusted: the spy is assumed to read all of it anyway.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.catalog.schema import Schema, SchemaError, TableDef
from repro.catalog.statistics import StatisticsCollector, TableStats
from repro.sql.binder import EQ, IN, NEQ, Predicate


@dataclass
class _VisibleTable:
    definition: TableDef
    #: public column names, in storage order (PK included when visible).
    columns: list[str]
    #: pk -> tuple of public column values.
    rows: dict[int, tuple] = field(default_factory=dict)
    #: column position -> (values, pks), both in (value, pk) order.
    #: Built on first use, dropped by every write, never pickled.
    indexes: dict[int, tuple[list, list[int]]] = field(default_factory=dict)

    def index(self, col: int) -> tuple[list, list[int]]:
        built = self.indexes.get(col)
        if built is None:
            order = sorted(
                self.rows.items(), key=lambda item: (item[1][col], item[0])
            )
            built = (
                [row[col] for _pk, row in order],
                [pk for pk, _row in order],
            )
            self.indexes[col] = built
        return built

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["indexes"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.indexes = {}


def _runs(values: list, predicate: Predicate) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` runs of the sorted ``values`` that ``predicate``
    matches.  NEQ matches the two sides of its EQ run."""
    kind = predicate.kind
    if kind in (EQ, NEQ):
        lo = bisect_left(values, predicate.value)
        hi = bisect_right(values, predicate.value, lo)
        return [(lo, hi)] if kind == EQ else [(0, lo), (hi, len(values))]
    if kind == IN:
        return [
            (bisect_left(values, v), bisect_right(values, v))
            for v in set(predicate.values)
        ]
    lo, hi = 0, len(values)
    if predicate.low is not None:
        cut = bisect_left if predicate.low_inclusive else bisect_right
        lo = cut(values, predicate.low)
    if predicate.high is not None:
        cut = bisect_right if predicate.high_inclusive else bisect_left
        hi = cut(values, predicate.high)
    return [(lo, max(lo, hi))]


class VisibleSite:
    """In-memory store of all visible columns, keyed by primary key."""

    #: Statistics generation, bumped whenever a write recomputes a
    #: table's statistics.  A plan priced at one generation is stale at
    #: the next; the class default is the first generation.
    version = 0

    def __init__(self, schema: Schema):
        self.schema = schema
        self._tables: dict[str, _VisibleTable] = {}
        self._stats: dict[str, TableStats] = {}
        for table in schema:
            columns = [c.name.lower() for c in table.public_columns()]
            self._tables[table.name.lower()] = _VisibleTable(
                definition=table, columns=columns
            )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, table_name: str, full_rows) -> None:
        """Load full rows (all columns); keeps only the visible ones.

        ``full_rows`` are tuples in schema column order.  The hidden
        columns are dropped here -- in a real deployment they would never
        have reached this machine; the loader splits before shipping.
        A short row or a key already present (or given twice) raises
        :class:`SchemaError` before any row is stored.
        """
        vtable = self._table(table_name)
        vtable.rows.update(self._split(vtable, full_rows))
        self._rows_changed(vtable)

    def append(self, table_name: str, full_rows) -> None:
        """Add rows after the initial load (re-synchronisation session).

        The visible side is an ordinary store: appending is a load onto
        the stored rows, and statistics are recomputed from all of them.
        """
        self.load(table_name, full_rows)

    def update_rows(self, table_name: str, full_rows: dict[int, tuple]) -> None:
        """Replace the public part of existing rows (DML re-sync).

        ``full_rows`` maps pk -> full row tuple in schema column order;
        hidden values are dropped here, like :meth:`load`.
        """
        vtable = self._table(table_name)
        tdef = vtable.definition
        keep = [i for i, c in enumerate(tdef.columns) if c.on_public]
        for pk, row in full_rows.items():
            if pk not in vtable.rows:
                raise SchemaError(f"{tdef.name}: key {pk} does not exist")
            vtable.rows[pk] = tuple(row[i] for i in keep)
        self._rows_changed(vtable)

    def delete_rows(self, table_name: str, pks) -> None:
        """Remove rows by primary key (DML re-sync)."""
        vtable = self._table(table_name)
        tdef = vtable.definition
        for pk in pks:
            if pk not in vtable.rows:
                raise SchemaError(f"{tdef.name}: key {pk} does not exist")
            del vtable.rows[pk]
        self._rows_changed(vtable)

    @staticmethod
    def _split(vtable: _VisibleTable, full_rows) -> dict[int, tuple]:
        """pk -> public part of each new row, all checked first."""
        tdef = vtable.definition
        pk_index = next(
            i for i, c in enumerate(tdef.columns) if c.primary_key
        )
        keep = [i for i, c in enumerate(tdef.columns) if c.on_public]
        public_rows: dict[int, tuple] = {}
        for row in full_rows:
            if len(row) != len(tdef.columns):
                raise SchemaError(
                    f"{tdef.name}: row has {len(row)} values, expected "
                    f"{len(tdef.columns)}"
                )
            pk = row[pk_index]
            if pk in vtable.rows or pk in public_rows:
                raise SchemaError(
                    f"{tdef.name}: key {pk} already exists"
                )
            public_rows[pk] = tuple(row[i] for i in keep)
        return public_rows

    def _rows_changed(self, vtable: _VisibleTable) -> None:
        """Drop the table's stale indexes and recompute its statistics."""
        self.version += 1
        vtable.indexes.clear()
        tdef = vtable.definition
        keep = [i for i, c in enumerate(tdef.columns) if c.on_public]
        collector = StatisticsCollector(
            table=tdef.name.lower(),
            column_names=[tdef.columns[i].name for i in keep],
        )
        for public in vtable.rows.values():
            collector.add(public)
        self._stats[tdef.name.lower()] = collector.finish()

    # ------------------------------------------------------------------
    # Serving (called by the link's host endpoint)
    # ------------------------------------------------------------------

    def select_ids(self, table_name: str, predicate: Predicate) -> list[int]:
        """All PKs whose row satisfies a visible predicate, sorted."""
        values, pks = self._index(table_name, predicate.column)
        matched: list[int] = []
        for lo, hi in _runs(values, predicate):
            matched += pks[lo:hi]
        matched.sort()
        return matched

    def count_ids(self, table_name: str, predicate: Predicate) -> int:
        values, _pks = self._index(table_name, predicate.column)
        return sum(hi - lo for lo, hi in _runs(values, predicate))

    def fetch_values(
        self,
        table_name: str,
        pks: list[int],
        columns: list[str],
        recheck: list[Predicate] | None = None,
    ) -> dict[int, tuple]:
        """Values of ``columns`` for each pk that exists and passes
        ``recheck`` (the visible predicates re-verified server-side; this
        is what silently removes Bloom-filter false positives)."""
        vtable = self._table(table_name)
        col_indexes = [self._public_index(vtable, c) for c in columns]
        recheck = recheck or []
        recheck_idx = [
            (self._public_index(vtable, p.column), p) for p in recheck
        ]
        result: dict[int, tuple] = {}
        for pk in pks:
            row = vtable.rows.get(pk)
            if row is None:
                continue
            if any(not p.matches(row[i]) for i, p in recheck_idx):
                continue
            result[pk] = tuple(row[i] for i in col_indexes)
        return result

    def statistics(self, table_name: str) -> TableStats:
        """Visible-column statistics (shared with the device optimizer)."""
        try:
            return self._stats[table_name.lower()]
        except KeyError:
            raise SchemaError(
                f"no visible data loaded for table {table_name!r}"
            ) from None

    def row_count(self, table_name: str) -> int:
        return len(self._table(table_name).rows)

    def _index(self, table_name: str, column: str) -> tuple[list, list[int]]:
        vtable = self._table(table_name)
        return vtable.index(self._public_index(vtable, column))

    # ------------------------------------------------------------------

    def _table(self, name: str) -> _VisibleTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    @staticmethod
    def _public_index(vtable: _VisibleTable, column: str) -> int:
        try:
            return vtable.columns.index(column.lower())
        except ValueError:
            raise SchemaError(
                f"{vtable.definition.name}.{column} is not visible; the "
                f"public side cannot touch it"
            ) from None
