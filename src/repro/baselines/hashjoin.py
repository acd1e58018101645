"""Grace hash join: the "last resort" baseline (paper, Section 4).

Joins on the device without SKTs or climbing indexes: each joined table
contributes a qualifying-ID set (from a device scan for hidden
predicates, from the PC for visible ones); the root table is scanned and
filtered by hash-set membership on its foreign keys.

The tiny RAM is the whole story.  A membership set that fits the budget
is built in RAM like any hash join would; one that does not triggers
grace partitioning -- both sides are hashed into partitions *written to
flash* and joined partition by partition.  Flash writes are 3-10x reads,
so this is precisely the behaviour the paper calls unacceptable, and the
benchmarks show it.

A query runs under the session's statement guard
(:meth:`~repro.core.session.SessionContext.statement`), as hand-built
plans and appends do: an unusable session is refused before any device
work, a leased session works inside its own partition, and a typed
fault is booked on the session (a power cut demands a remount).  When a
step raises, every temporary run the query wrote is freed before the
error propagates.  Heap scans filter through the device scan
operator's :func:`~repro.engine.operators.scan.scan_matching`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.engine.executor import QueryResult
from repro.engine.metrics import ExecutionMetrics, OperatorStats
from repro.engine.operators.scan import scan_matching
from repro.engine.plan import PlanNode
from repro.hardware.ram import RamExhaustedError
from repro.sql.binder import BoundQuery, NEQ, Predicate
from repro.storage.pagestore import Extent, PageReader, PageWriter
from repro.visible.link import Fetch

#: Modeled bytes of device RAM per entry of an in-RAM hash set
#: (4 B key + bucket pointer overhead on a 32-bit chip).
HASH_SET_ENTRY_BYTES = 12


@dataclass
class _HashJoinPlanStub(PlanNode):
    """Placeholder so QueryResult.plan renders something meaningful."""

    description: str = "grace hash join baseline"

    def label(self) -> str:
        return self.description


@dataclass
class HashJoinBaseline:
    """Executes one bound query with hash joins on a session."""

    session: "SessionContext"  # noqa: F821
    stats: list[OperatorStats] = field(default_factory=list)
    #: Every temporary-run writer opened so far; a failed query aborts
    #: them all, which frees each run that is not freed yet.
    _writers: list[PageWriter] = field(default_factory=list)

    # ------------------------------------------------------------------

    def execute(self, query: BoundQuery) -> QueryResult:
        device = self.session.device
        tree = self.session.core.tree
        root = query.root

        for table, _column in query.projections:
            if table != root and tree.parent_of(table)[0] != root:
                raise ValueError(
                    "the hash-join baseline projects root and depth-1 "
                    f"tables only; {table!r} is deeper"
                )

        # Each run reports its own RAM peak, as Executor._measured does.
        device.ram.reset_high_water()
        before = device.counters()
        try:
            rows = self._run(query)
        except BaseException:
            for writer in self._writers:
                writer.abort()
            raise
        after = device.counters()
        metrics = ExecutionMetrics.from_counters(
            before, after, self.stats, len(rows)
        )
        columns = [f"{t}.{c.name}" for t, c in query.projections]
        return QueryResult(
            rows=rows,
            columns=columns,
            metrics=metrics,
            plan=_HashJoinPlanStub(),
        )

    def _run(self, query: BoundQuery) -> list:
        # 1. Qualifying-ID sets per non-root table, computed bottom-up so
        #    deep predicates propagate through their parents.
        id_lists = self._qualifying_ids(query)

        # 2. Scan the root, apply root predicates, keep FK tuples.
        root_tuples, tables = self._filtered_root_tuples(query)

        # 3. Membership-join against each child's ID list.
        for child_table, ids in id_lists.items():
            if child_table == query.root:
                continue
            if child_table not in tables:
                continue
            position = tables.index(child_table)
            root_tuples = self._membership_join(
                root_tuples, position, ids, label=child_table
            )

        # 4. Project.
        return self._project(query, root_tuples, tables)

    # ------------------------------------------------------------------
    # Phase 1: per-table qualifying IDs
    # ------------------------------------------------------------------

    def _qualifying_ids(self, query: BoundQuery) -> dict[str, Extent | None]:
        """table -> run of sorted qualifying IDs (None = unconstrained).

        Constraints from descendant tables are folded into their parents
        (a visit qualifies only if its doctor qualifies), so the final
        root scan only needs depth-1 membership tests.
        """
        tree = self.session.core.tree
        runs: dict[str, Extent | None] = {}
        # Bottom-up: deepest tables first.
        order = sorted(
            (t for t in query.tables if t != query.root),
            key=lambda t: -len(tree.path_to_root(t)),
        )
        for table in order:
            hidden, visible = _split(query, table)
            child_constraints = [
                (child, runs[child])
                for _fk, child in tree.children_of(table)
                if runs.get(child) is not None
            ]
            if not hidden and not visible and not child_constraints:
                runs[table] = None
                continue
            runs[table] = self._table_ids(
                table, hidden, visible, child_constraints
            )
        return runs

    def _table_ids(
        self,
        table: str,
        hidden: list[Predicate],
        visible: list[Predicate],
        child_constraints,
    ) -> Extent:
        """Scan ``table`` (and ask the PC) for qualifying IDs."""
        device = self.session.device
        op = OperatorStats(
            name="hj-select", detail=f"qualify {table}"
        )
        self.stats.append(op)
        heap = self.session.core.hidden.heaps[table]

        # Visible side first: one sorted ID run from the PC.
        visible_run = self._visible_run(table, visible) if visible else None

        # Device scan applying hidden predicates and child memberships.
        child_sets = [
            (self._fk_index(table, child), run)
            for child, run in child_constraints
        ]
        writer = self._writer(ID_WIDTH, f"hj-ids:{table}")
        scan_tuples = scan_matching(
            heap, self.session.core.tree.table(table), hidden,
            (heap.pk_field, *(idx for idx, _run in child_sets)),
            f"hj-scan:{heap.name}",
        )
        if child_sets:
            arity = 1 + len(child_sets)
            run = self._materialise(scan_tuples, arity)
            for i, (_idx, child_run) in enumerate(child_sets):
                run = self._membership_join(
                    run, 1 + i, child_run, label=f"{table}-child"
                )
            scan_tuples = self._replay(run, arity)
        for tup in scan_tuples:
            writer.append(ID_STRUCT.pack(tup[0]))
            op.tuples_out += 1
        scanned = writer.close()

        if visible_run is None:
            return scanned
        # Intersect the scanned run with the visible run (sorted merge).
        merged = self._intersect_runs(scanned, visible_run, table)
        scanned.free(device.ftl)
        visible_run.free(device.ftl)
        return merged

    # ------------------------------------------------------------------
    # Root scan
    # ------------------------------------------------------------------

    def _filtered_root_tuples(self, query: BoundQuery):
        tree = self.session.core.tree
        root = query.root
        heap = self.session.core.hidden.heaps[root]
        table_def = tree.table(root)
        hidden, visible = _split(query, root)
        fk_children = [
            (table_def.device_column_index(fk), child)
            for fk, child in tree.children_of(root)
            if child in query.tables
        ]
        tables = [root] + [child for _idx, child in fk_children]
        op = OperatorStats(name="hj-root-scan", detail=root)
        self.stats.append(op)

        tuples = scan_matching(
            heap, table_def, hidden,
            (heap.pk_field, *(idx for idx, _child in fk_children)),
            f"hj-scan:{heap.name}",
        )
        run = self._materialise(tuples, len(tables), count_into=op)
        if visible:
            # Root visible predicates: intersect with the PC's ID run.
            run = self._membership_join(
                run, 0, self._visible_run(root, visible), label=root
            )
        return run, tables

    # ------------------------------------------------------------------
    # Membership join with grace spilling
    # ------------------------------------------------------------------

    def _membership_join(
        self, tuples_run: Extent, key_position: int, ids_run: Extent | None,
        label: str,
    ) -> Extent:
        """Filter a tuple run by membership of one field in an ID run.

        Both input runs are consumed: their pages are freed before the
        filtered run is returned.
        """
        device = self.session.device
        if ids_run is None:
            return tuples_run
        op = OperatorStats(name="hj-membership", detail=label)
        self.stats.append(op)
        needed = ids_run.count * HASH_SET_ENTRY_BYTES
        try:
            alloc = device.ram.allocate(needed, f"hj-set:{label}")
        except RamExhaustedError:
            op.detail += " [grace spill]"
            return self._grace_join(
                tuples_run, key_position, ids_run, label, op
            )
        try:
            op.ram_bytes = needed
            result = self._build_and_probe(
                ids_run, tuples_run, key_position, op,
                (f"hj-ids:{label}", f"hj-in:{label}"),
                lambda: self._writer(tuples_run.record_width, f"hj-out:{label}"),
            ).close()
        finally:
            alloc.release()
        tuples_run.free(device.ftl)
        ids_run.free(device.ftl)
        return result

    def _grace_join(
        self, tuples_run: Extent, key_position: int, ids_run: Extent | None,
        label: str, op: OperatorStats,
    ) -> Extent:
        """Partition both sides to flash, join partition by partition.

        Like :meth:`_membership_join`, frees both input runs."""
        device = self.session.device
        budget = max(ID_WIDTH * 64, device.ram.soft_available // 2)
        partitions = max(
            2,
            math.ceil(ids_run.count * HASH_SET_ENTRY_BYTES / budget),
        )
        # One page buffer per open partition writer: the fan-out itself
        # is RAM-limited, so huge inputs recurse instead (multi-level
        # grace partitioning, as on real hardware).
        page = device.profile.page_size
        max_fanout = max(2, device.ram.soft_available // (2 * page) - 1)
        partitions = min(partitions, max_fanout)
        op.ram_bytes = budget

        def partition_run(run: Extent, pos: int, tag: str) -> list[Extent]:
            writers = [
                self._writer(run.record_width, f"hj-part:{tag}:{p}")
                for p in range(partitions)
            ]
            with PageReader(device, run, f"hj-split:{tag}") as reader:
                for raw in reader.scan():
                    device.chip.charge("hash")
                    key = ID_STRUCT.unpack_from(raw, pos * ID_WIDTH)[0]
                    writers[key % partitions].append(raw)
            return [w.close() for w in writers]

        id_parts = partition_run(ids_run, 0, f"{label}-ids")
        tuple_parts = partition_run(tuples_run, key_position, f"{label}-tup")
        tuples_run.free(device.ftl)
        ids_run.free(device.ftl)
        out = self._writer(tuple_parts[0].record_width, f"hj-out:{label}")
        for id_part, tuple_part in zip(id_parts, tuple_parts):
            needed = max(1, id_part.count) * HASH_SET_ENTRY_BYTES
            try:
                alloc = device.ram.allocate(needed, f"hj-set:{label}")
            except RamExhaustedError:
                # Partition still too big for RAM: recurse (multi-level
                # grace partitioning).
                sub = self._grace_join(
                    tuple_part, key_position, id_part, f"{label}*", op
                )
                with PageReader(device, sub, "hj-cat") as reader:
                    for raw in reader.scan():
                        out.append(raw)
                sub.free(device.ftl)
                continue
            try:
                self._build_and_probe(
                    id_part, tuple_part, key_position, op,
                    ("hj-p-ids", "hj-p-tup"), lambda: out,
                )
            finally:
                alloc.release()
            id_part.free(device.ftl)
            tuple_part.free(device.ftl)
        return out.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _build_and_probe(
        self, ids_run: Extent, tuples_run: Extent, key_position: int,
        op: OperatorStats, labels: tuple[str, str], out,
    ) -> PageWriter:
        """Load ``ids_run`` into an in-RAM set, then append each tuple of
        ``tuples_run`` whose key is a member to the writer ``out()``
        returns between the phases; ``labels`` name the two readers."""
        device = self.session.device
        members = set()
        with PageReader(device, ids_run, labels[0]) as reader:
            for raw in reader.scan():
                device.chip.charge("hash")
                members.add(ID_STRUCT.unpack(raw)[0])
        writer = out()
        offset = key_position * ID_WIDTH
        with PageReader(device, tuples_run, labels[1]) as reader:
            for raw in reader.scan():
                device.chip.charge("hash")
                if ID_STRUCT.unpack_from(raw, offset)[0] in members:
                    writer.append(raw)
                    op.tuples_out += 1
        return writer

    def _visible_run(self, table: str, predicates: list[Predicate]) -> Extent:
        """The sorted IDs of ``table`` meeting every visible predicate,
        as a run: the PC answers each predicate, the device intersects."""
        writer = self._writer(ID_WIDTH, f"hj-vis:{table}")
        ids = None
        for predicate in predicates:
            got = set(self.session.link.select_ids(table, predicate))
            ids = got if ids is None else ids & got
        for pk in sorted(ids):
            writer.append(ID_STRUCT.pack(pk))
        return writer.close()

    def _fk_index(self, table: str, child: str) -> int:
        tree = self.session.core.tree
        table_def = tree.table(table)
        for fk, ch in tree.children_of(table):
            if ch == child:
                return table_def.device_column_index(fk)
        raise KeyError(f"{table} has no FK to {child}")

    def _writer(self, record_width: int, label: str) -> PageWriter:
        """Open a writer for a temporary run of this query."""
        writer = PageWriter(self.session.device, record_width, label)
        self._writers.append(writer)
        return writer

    def _materialise(self, tuples, arity: int, count_into=None) -> Extent:
        writer = self._writer(arity * ID_WIDTH, "hj-materialise")
        for tup in tuples:
            writer.append(b"".join(ID_STRUCT.pack(v) for v in tup))
            if count_into is not None:
                count_into.tuples_out += 1
        return writer.close()

    def _replay(self, run: Extent, arity: int):
        device = self.session.device
        with PageReader(device, run, "hj-replay") as reader:
            for raw in reader.scan():
                yield tuple(
                    ID_STRUCT.unpack_from(raw, i * ID_WIDTH)[0]
                    for i in range(arity)
                )
        run.free(device.ftl)

    def _intersect_runs(self, a: Extent, b: Extent, label: str) -> Extent:
        device = self.session.device
        out = self._writer(ID_WIDTH, f"hj-intersect:{label}")
        with PageReader(device, a, "hj-a") as ra, PageReader(
            device, b, "hj-b"
        ) as rb:
            ia, ib = ra.scan(), rb.scan()
            va, vb = next(ia, None), next(ib, None)
            while va is not None and vb is not None:
                device.chip.charge("compare")
                if va == vb:
                    out.append(va)
                    va, vb = next(ia, None), next(ib, None)
                elif va < vb:
                    va = next(ia, None)
                else:
                    vb = next(ib, None)
        return out.close()

    def _project(self, query: BoundQuery, tuples_run: Extent, tables) -> list:
        session = self.session
        device = session.device
        op = OperatorStats(name="hj-project")
        self.stats.append(op)
        arity = len(tables)
        visible_cols: dict[str, list[str]] = {}
        for table, column in query.projections:
            if not column.hidden and not column.primary_key:
                visible_cols.setdefault(table, []).append(column.name.lower())
        readers = {}
        rows = []
        try:
            batch = list(self._replay(tuples_run, arity))
            fetches = [
                Fetch(table, sorted({t[tables.index(table)] for t in batch}), cols)
                for table, cols in visible_cols.items()
            ]
            fetched = dict(
                zip(visible_cols, session.link.fetch_values(fetches))
            )
            for tup in batch:
                out = []
                usable = True
                for table, column in query.projections:
                    position = tables.index(table)
                    key = tup[position]
                    if column.primary_key:
                        out.append(key)
                    elif column.hidden:
                        heap = session.core.hidden.heaps[table]
                        if table not in readers:
                            readers[table] = heap.reader(f"hj-proj:{table}")
                        field_idx = session.core.tree.table(
                            table
                        ).device_column_index(column.name)
                        off, width = heap.codec.field_slice(field_idx)
                        rowid = heap.rowid_for_pk(key)
                        raw = readers[table].field(rowid, off, width)
                        device.chip.charge("decode_field")
                        out.append(heap.codec.types[field_idx].decode(raw))
                    else:
                        values = fetched[table].get(key)
                        if values is None:
                            usable = False
                            break
                        col_pos = visible_cols[table].index(
                            column.name.lower()
                        )
                        out.append(values[col_pos])
                if usable:
                    rows.append(tuple(out))
                    op.tuples_out += 1
        finally:
            for reader in readers.values():
                reader.close()
        return rows


def _split(query: BoundQuery, table: str):
    """``table``'s hidden and visible predicates, in query order."""
    mine = [p for p in query.predicates if p.table == table]
    return [p for p in mine if p.hidden], [p for p in mine if not p.hidden]


def run_hash_join_query(session, sql: str) -> QueryResult:
    """Execute ``sql`` on a loaded session via the baseline, under the
    session's statement guard."""
    with session.statement():
        bound = session.bind(sql)
        for predicate in bound.predicates:
            if predicate.kind == NEQ:
                raise ValueError(
                    "the hash-join baseline does not evaluate <> predicates"
                )
        return HashJoinBaseline(session).execute(bound)
