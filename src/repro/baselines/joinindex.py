"""Binary join indices: the classical indexing baseline.

A traditional join index precomputes one join edge.  Executing a deep
selection then means *walking* the tree: Doctor IDs become Visit IDs,
Visit IDs become Prescription IDs, with a full union merge (and its
directory probes, and possibly its flash spills) at every intermediate
level.  The climbing index's entire advantage is skipping those
intermediate materialisations by storing root-level postings directly.

:class:`StepwisePlanBuilder` reuses the regular plan space but forces
every climb to proceed edge by edge, which is exactly what binary join
indices can do.
"""

from __future__ import annotations

from repro.engine import plan as lp
from repro.engine.executor import QueryResult
from repro.optimizer.space import PlanBuilder, Strategy
from repro.sql.binder import Predicate


class StepwisePlanBuilder(PlanBuilder):
    """Plan builder restricted to one-edge (binary join index) climbs."""

    def _index_arm(self, predicate: Predicate) -> lp.PlanNode:
        # A binary index can only answer at the indexed table's own
        # level; the rest of the climb is explicit conversions.
        node: lp.PlanNode = lp.ClimbingSelect(
            predicate, target_table=predicate.table
        )
        return self._convert_to_root(node)

    def _convert_to_root(self, node: lp.PlanNode) -> lp.PlanNode:
        table = node.output_table
        path = self.tree.path_to_root(table)
        root_pos = path.index(self.root)
        for upper in path[1 : root_pos + 1]:
            node = lp.ConvertIds(node, target_table=upper)
        return node


def run_join_index_query(session, sql: str, strategy=None) -> QueryResult:
    """Execute ``sql`` using binary-join-index plans on a session.

    ``strategy`` defaults to all-PRE (join indices have no Post-filtering
    story of their own; the Bloom machinery is GhostDB's).
    """
    bound = session.bind(sql)
    if strategy is None:
        strategy = Strategy.all_pre(bound)
    builder = StepwisePlanBuilder(session.core.hidden, bound)
    plan = builder.build(strategy)
    session.optimizer.annotate(plan)
    return session.execute_plan(plan)
