"""Logical query execution plans (QEPs).

These are the high-level operators the demo GUI lets visitors rearrange
(Figure 6): climbing-index selections, visible selections, ID conversion,
merges, SKT access, Bloom probes, store and project.  A plan is a tree of
:class:`PlanNode` dataclasses; the executor lowers it onto physical
operators.  Plans are cheap, declarative and printable -- ``render()``
draws the operator tree the way the demo GUI does.

Two stream kinds flow between nodes:

* **ID streams** -- sorted IDs of a single table;
* **tuple streams** -- subtree key tuples aligned with an SKT's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.binder import BoundDelete, BoundUpdate, Predicate


class PlanError(ValueError):
    """A structurally invalid plan."""


@dataclass
class PlanNode:
    """Base class.  ``output_table`` for ID streams, ``output_tables``
    for tuple streams; exactly one is non-None."""

    def children(self) -> list["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    @property
    def output_table(self) -> str | None:
        return None

    @property
    def output_tables(self) -> list[str] | None:
        return None

    def render(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# ID-stream producers
# ----------------------------------------------------------------------


@dataclass
class ClimbingSelect(PlanNode):
    """Hidden predicate -> IDs at ``target_table`` via a climbing index."""

    predicate: Predicate
    target_table: str

    def label(self) -> str:
        return (
            f"ClimbingSelect[{self.predicate.describe()} -> "
            f"{self.target_table} ids]"
        )

    @property
    def output_table(self) -> str:
        return self.target_table.lower()


@dataclass
class VisibleSelect(PlanNode):
    """Visible predicate evaluated on the PC -> IDs of its own table."""

    predicate: Predicate

    def label(self) -> str:
        return f"VisibleSelect[{self.predicate.describe()}]"

    @property
    def output_table(self) -> str:
        return self.predicate.table


@dataclass
class DeviceScanSelect(PlanNode):
    """Fallback: scan a device heap, filter, emit PKs."""

    table: str
    predicates: list[Predicate]

    def label(self) -> str:
        preds = " AND ".join(p.describe() for p in self.predicates)
        return f"DeviceScanSelect[{self.table}: {preds or 'true'}]"

    @property
    def output_table(self) -> str:
        return self.table.lower()


# ----------------------------------------------------------------------
# ID-stream transformers
# ----------------------------------------------------------------------


@dataclass
class ConvertIds(PlanNode):
    """Climb an ID stream to an ancestor table via the key index."""

    child: PlanNode
    target_table: str

    def __post_init__(self):
        if self.child.output_table is None:
            raise PlanError("ConvertIds requires an ID-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return (
            f"ConvertIds[{self.child.output_table} -> "
            f"{self.target_table} ids]"
        )

    @property
    def output_table(self) -> str:
        return self.target_table.lower()


@dataclass
class MergeIntersect(PlanNode):
    """Streaming intersection of same-table sorted ID streams."""

    inputs: list[PlanNode]

    def __post_init__(self):
        tables = {c.output_table for c in self.inputs}
        if None in tables or len(tables) != 1:
            raise PlanError(
                f"MergeIntersect inputs must be ID streams of one table, "
                f"got {tables}"
            )

    def children(self) -> list[PlanNode]:
        return list(self.inputs)

    def label(self) -> str:
        return f"MergeIntersect[{len(self.inputs)} inputs]"

    @property
    def output_table(self) -> str:
        return self.inputs[0].output_table


# ----------------------------------------------------------------------
# Tuple-stream nodes
# ----------------------------------------------------------------------


@dataclass
class SktAccess(PlanNode):
    """Root IDs -> subtree key tuples (or a full SKT scan if no child)."""

    skt_root: str
    child: PlanNode | None = None
    expected_count: int | None = None
    #: filled by the executor from the SKT definition.
    _tables: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.child is not None and self.child.output_table is None:
            raise PlanError("SktAccess requires an ID-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child is not None else []

    def label(self) -> str:
        mode = "full scan" if self.child is None else "by root ids"
        return f"SktAccess[SKT_{self.skt_root}, {mode}]"

    @property
    def output_tables(self) -> list[str]:
        return self._tables


@dataclass
class IdsToTuples(PlanNode):
    """Adapter for single-table plans: IDs become 1-tuples."""

    child: PlanNode

    def __post_init__(self):
        if self.child.output_table is None:
            raise PlanError("IdsToTuples requires an ID-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"IdsToTuples[{self.child.output_table}]"

    @property
    def output_tables(self) -> list[str]:
        return [self.child.output_table]


@dataclass
class BloomProbe(PlanNode):
    """Post-filter a tuple stream by a visible predicate's Bloom filter."""

    child: PlanNode
    predicate: Predicate
    expected_ids: int | None = None

    def __post_init__(self):
        if self.child.output_tables is None:
            raise PlanError("BloomProbe requires a tuple-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"BloomProbe[{self.predicate.describe()}]"

    @property
    def output_tables(self) -> list[str]:
        return self.child.output_tables


@dataclass
class Store(PlanNode):
    """Materialise a tuple stream on flash and replay it."""

    child: PlanNode

    def __post_init__(self):
        if self.child.output_tables is None:
            raise PlanError("Store requires a tuple-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Store"

    @property
    def output_tables(self) -> list[str]:
        return self.child.output_tables


@dataclass
class Project(PlanNode):
    """Assemble value rows from key tuples (the SPJ plan root)."""

    child: PlanNode
    #: (table, ColumnDef) per output column.
    projections: list[tuple]
    visible_recheck: list[Predicate] = field(default_factory=list)
    residual_hidden: list[Predicate] = field(default_factory=list)

    def __post_init__(self):
        if self.child.output_tables is None:
            raise PlanError("Project requires a tuple-stream child")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        cols = ", ".join(f"{t}.{c.name}" for t, c in self.projections)
        return f"Project[{cols}]"

    @property
    def output_tables(self) -> list[str]:
        return self.child.output_tables

    def output_labels(self) -> list[str]:
        return [f"{t}.{c.name}" for t, c in self.projections]


# ----------------------------------------------------------------------
# DML roots
# ----------------------------------------------------------------------


@dataclass
class UpdatePlan(PlanNode):
    """Root of an UPDATE: scan-match-rebuild as one atomic transaction."""

    bound: BoundUpdate

    def label(self) -> str:
        sets = ", ".join(
            f"{a.column.name}=?" for a in self.bound.assignments
        )
        preds = " AND ".join(p.describe() for p in self.bound.predicates)
        return (
            f"Update[{self.bound.table} SET {sets}"
            f"{' WHERE ' + preds if preds else ''}]"
        )


@dataclass
class DeletePlan(PlanNode):
    """Root of a DELETE: scan-match-rebuild as one atomic transaction."""

    bound: BoundDelete

    def label(self) -> str:
        preds = " AND ".join(p.describe() for p in self.bound.predicates)
        return (
            f"Delete[{self.bound.table}"
            f"{' WHERE ' + preds if preds else ''}]"
        )


#: Plan nodes whose output is *value rows* (post-projection).  They can
#: stack above a Project in any order the builder chooses.
class RowNode(PlanNode):
    """Base for nodes that transform value-row streams."""

    def output_labels(self) -> list[str]:
        raise NotImplementedError


@dataclass
class Aggregate(RowNode):
    """GROUP BY + aggregate functions over a Project's value rows.

    ``group_indexes`` select the key columns within the child's rows;
    ``aggregates`` are :class:`repro.sql.binder.BoundAggregate`;
    ``output_items`` is the select-list recipe (("key", child column
    index) or ("agg", aggregate index)).
    """

    child: PlanNode
    group_indexes: list[int]
    aggregates: list  # list[BoundAggregate]
    output_items: list[tuple[str, int]]
    labels: list[str] = field(default_factory=list)
    #: dtypes of the child's value rows (for the spill codec).
    input_dtypes: list = field(default_factory=list)
    #: HAVING conditions: ("agg"|"key", index, op, literal).
    having: list[tuple[str, int, str, object]] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.child, (Project,)):
            raise PlanError("Aggregate must sit directly above Project")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        aggs = ", ".join(a.label() for a in self.aggregates)
        keys = ", ".join(str(i) for i in self.group_indexes)
        return f"Aggregate[keys=({keys}); {aggs or 'distinct'}]"

    def output_labels(self) -> list[str]:
        return list(self.labels)


@dataclass
class OrderBy(RowNode):
    """Sort value rows by output columns (device-side external sort)."""

    child: PlanNode
    #: (output column index, ascending) in significance order.
    keys: list[tuple[int, bool]]
    #: dtypes of the rows being sorted (for the run codec).
    row_dtypes: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.child, (Project, Aggregate)):
            raise PlanError("OrderBy sorts Project or Aggregate output")
        if not self.keys:
            raise PlanError("OrderBy needs at least one key")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(
            f"#{i} {'asc' if asc else 'desc'}" for i, asc in self.keys
        )
        return f"OrderBy[{keys}]"

    def output_labels(self) -> list[str]:
        return self.child.output_labels()


@dataclass
class Limit(RowNode):
    """Truncate a value-row stream (stops pulling early).

    Plans containing a Limit run with per-tuple demand: the executor
    pins the batch window to 1 (see ``QueryExecutor._effective_batch``)
    so the truncated subtree is advanced exactly as far as the old
    per-tuple pipeline would have -- hardware counters stay identical
    to the unbatched execution.
    """

    child: PlanNode
    count: int

    def __post_init__(self):
        if not isinstance(self.child, (Project, Aggregate, OrderBy)):
            raise PlanError("Limit applies to value-row streams")
        if self.count < 0:
            raise PlanError("Limit cannot be negative")

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit[{self.count}]"

    def output_labels(self) -> list[str]:
        return self.child.output_labels()
