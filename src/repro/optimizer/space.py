"""Plan-space enumeration: Pre-, Post- and Cross-filtering candidates.

A *strategy* assigns each visible predicate to PRE (evaluate on the PC,
ship the IDs, climb them to the query root before the SKT access) or POST
(apply after the hidden joins through a Bloom filter).  Hidden predicates
always run on the device: through their climbing index when one exists,
through a heap scan otherwise, or as residual checks during projection
when they cannot drive an ID list (e.g. ``<>``).

Cross-filtering falls out of plan construction: whenever a table
contributes several PRE-side ID streams (hidden index output, visible ID
lists, scan output), they are intersected *at that table's level* before
a single conversion climbs to the root -- "the selectivities of visible
and hidden selections can be combined before accessing a climbing index".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.engine import plan as lp
from repro.engine.database import HiddenDatabase
from repro.sql.binder import BoundQuery, EQ, IN, NEQ, RANGE, Predicate

PRE = "pre"
POST = "post"


@dataclass(frozen=True)
class Strategy:
    """One PRE/POST assignment for a query's visible predicates."""

    assignments: tuple[str, ...]

    def label(self, query: BoundQuery) -> str:
        if not self.assignments:
            return "no visible predicates"
        parts = [
            f"{p.table}.{p.column}={choice}"
            for p, choice in zip(query.visible_predicates, self.assignments)
        ]
        return ", ".join(parts)

    @classmethod
    def all_pre(cls, query: BoundQuery) -> "Strategy":
        return cls(tuple(PRE for _ in query.visible_predicates))

    @classmethod
    def all_post(cls, query: BoundQuery) -> "Strategy":
        return cls(tuple(POST for _ in query.visible_predicates))


def enumerate_strategies(query: BoundQuery) -> list[Strategy]:
    """Every PRE/POST assignment (2^v candidates)."""
    v = len(query.visible_predicates)
    return [
        Strategy(assignment)
        for assignment in itertools.product((PRE, POST), repeat=v)
    ]


class PlanBuilder:
    """Builds an executable plan for one (query, strategy) pair."""

    def __init__(self, db: HiddenDatabase, query: BoundQuery):
        self.db = db
        self.tree = db.tree
        self.query = query
        self.root = query.root

    # ------------------------------------------------------------------

    def build(self, strategy: Strategy) -> lp.PlanNode:
        if len(strategy.assignments) != len(self.query.visible_predicates):
            raise ValueError(
                "strategy arity does not match the query's visible "
                "predicates"
            )
        pre_visible: list[Predicate] = []
        post_visible: list[Predicate] = []
        for predicate, choice in zip(
            self.query.visible_predicates, strategy.assignments
        ):
            if choice == PRE:
                pre_visible.append(predicate)
            elif choice == POST:
                post_visible.append(predicate)
            else:
                raise ValueError(f"unknown strategy choice {choice!r}")

        residual: list[Predicate] = []
        indexed: dict[str, list[Predicate]] = {}
        scanned: dict[str, list[Predicate]] = {}
        for predicate in self.query.hidden_predicates:
            if predicate.kind == NEQ:
                residual.append(predicate)
                continue
            index = self.db.climbing_index(predicate.table, predicate.column)
            if index is not None and predicate.kind in (EQ, RANGE, IN):
                indexed.setdefault(predicate.table, []).append(predicate)
            else:
                scanned.setdefault(predicate.table, []).append(predicate)

        visible_by_table: dict[str, list[Predicate]] = {}
        for predicate in pre_visible:
            visible_by_table.setdefault(predicate.table, []).append(predicate)

        arms = self._build_arms(indexed, scanned, visible_by_table)
        tuple_stream = self._tuple_stream(arms)
        for predicate in sorted(
            post_visible, key=lambda p: p.column
        ):
            tuple_stream = lp.BloomProbe(tuple_stream, predicate)
        plan: lp.PlanNode = lp.Project(
            child=tuple_stream,
            projections=list(self.query.projections),
            visible_recheck=list(post_visible),
            residual_hidden=residual,
        )
        query = self.query
        if query.is_grouped:
            plan = lp.Aggregate(
                child=plan,
                group_indexes=list(query.group_by_indexes),
                aggregates=list(query.aggregates),
                output_items=list(query.output_items),
                labels=list(query.output_labels),
                input_dtypes=[c.dtype for _t, c in query.projections],
                having=list(query.having),
            )
        if query.order_by:
            plan = lp.OrderBy(
                child=plan,
                keys=list(query.order_by),
                row_dtypes=list(query.output_dtypes),
            )
        if query.limit is not None:
            plan = lp.Limit(child=plan, count=query.limit)
        return plan

    # ------------------------------------------------------------------

    def _build_arms(
        self,
        indexed: dict[str, list[Predicate]],
        scanned: dict[str, list[Predicate]],
        visible_by_table: dict[str, list[Predicate]],
    ) -> list[lp.PlanNode]:
        """One root-level sorted ID stream per predicate group."""
        arms: list[lp.PlanNode] = []
        tables = set(indexed) | set(scanned) | set(visible_by_table)
        for table in sorted(tables):
            local_streams: list[lp.PlanNode] = []
            for predicate in visible_by_table.get(table, []):
                local_streams.append(lp.VisibleSelect(predicate))
            if table in scanned:
                local_streams.append(
                    lp.DeviceScanSelect(table, scanned[table])
                )
            index_preds = indexed.get(table, [])
            cross = len(local_streams) > 0 and table != self.root
            if cross and index_preds:
                # Cross-filtering: bring the hidden index output down to
                # this table's level and intersect before converting once.
                for predicate in index_preds:
                    local_streams.append(
                        lp.ClimbingSelect(predicate, target_table=table)
                    )
                index_preds = []
            for predicate in index_preds:
                arms.append(self._index_arm(predicate))
            if not local_streams:
                continue
            if len(local_streams) == 1:
                combined = local_streams[0]
            else:
                combined = lp.MergeIntersect(local_streams)
            if table != self.root:
                combined = self._convert_to_root(combined)
            arms.append(combined)
        return arms

    def _index_arm(self, predicate: Predicate) -> lp.PlanNode:
        """Plain pre-filtering: the climbing index jumps straight to the
        query root in a single traversal, no conversion needed."""
        return lp.ClimbingSelect(predicate, target_table=self.root)

    def _convert_to_root(self, node: lp.PlanNode) -> lp.PlanNode:
        """Climb an ID stream to the query root in one jump (the key
        climbing index precomputes the whole path)."""
        return lp.ConvertIds(node, target_table=self.root)

    def _tuple_stream(self, arms: list[lp.PlanNode]) -> lp.PlanNode:
        root_ids: lp.PlanNode | None
        if not arms:
            root_ids = None
        elif len(arms) == 1:
            root_ids = arms[0]
        else:
            root_ids = lp.MergeIntersect(arms)
        single_table = len(self.query.tables) == 1
        if single_table:
            if root_ids is None:
                root_ids = lp.DeviceScanSelect(self.root, [])
            return lp.IdsToTuples(root_ids)
        skt = self.db.skt_for_root(self.root)
        if skt is None:
            raise ValueError(
                f"query root {self.root!r} has no SKT; cannot plan a "
                f"multi-table query"
            )
        node = lp.SktAccess(skt_root=self.root, child=root_ids)
        node._tables = skt.tables
        return node
