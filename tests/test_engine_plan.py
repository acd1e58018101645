"""Logical plan node validation and rendering."""

import pytest

from repro.engine import plan as lp
from repro.workload.queries import demo_query


@pytest.fixture
def bound(demo_session):
    return demo_session.bind(demo_query())


def hidden_pred(bound):
    return next(p for p in bound.predicates if p.hidden)


def visible_pred(bound):
    return next(p for p in bound.predicates if not p.hidden)


class TestStreamKindValidation:
    def test_convert_requires_id_stream(self, bound):
        skt = lp.SktAccess(skt_root="prescription")
        with pytest.raises(lp.PlanError, match="ID-stream"):
            lp.ConvertIds(skt, target_table="prescription")

    def test_skt_access_requires_id_stream_child(self, bound):
        skt = lp.SktAccess(skt_root="prescription")
        with pytest.raises(lp.PlanError, match="ID-stream"):
            lp.SktAccess(skt_root="prescription", child=skt)

    def test_ids_to_tuples_requires_id_stream(self, bound):
        skt = lp.SktAccess(skt_root="prescription")
        with pytest.raises(lp.PlanError, match="ID-stream"):
            lp.IdsToTuples(skt)

    def test_bloom_requires_tuple_stream(self, bound):
        select = lp.VisibleSelect(visible_pred(bound))
        with pytest.raises(lp.PlanError, match="tuple-stream"):
            lp.BloomProbe(select, visible_pred(bound))

    def test_store_requires_tuple_stream(self, bound):
        select = lp.VisibleSelect(visible_pred(bound))
        with pytest.raises(lp.PlanError, match="tuple-stream"):
            lp.Store(select)

    def test_merge_intersect_same_table(self, bound):
        a = lp.ClimbingSelect(hidden_pred(bound), target_table="visit")
        b = lp.ClimbingSelect(hidden_pred(bound), target_table="prescription")
        with pytest.raises(lp.PlanError, match="one table"):
            lp.MergeIntersect([a, b])


class TestRowNodeValidation:
    def project(self, bound):
        return lp.Project(
            child=lp.SktAccess(skt_root="prescription"),
            projections=list(bound.projections),
        )

    def test_aggregate_must_sit_on_project(self, bound):
        skt = lp.SktAccess(skt_root="prescription")
        with pytest.raises(lp.PlanError, match="above Project"):
            lp.Aggregate(
                child=skt, group_indexes=[], aggregates=[],
                output_items=[],
            )

    def test_order_by_needs_keys(self, bound):
        with pytest.raises(lp.PlanError, match="at least one key"):
            lp.OrderBy(child=self.project(bound), keys=[])

    def test_order_by_rejects_id_streams(self, bound):
        select = lp.VisibleSelect(visible_pred(bound))
        with pytest.raises(lp.PlanError):
            lp.OrderBy(child=select, keys=[(0, True)])

    def test_limit_rejects_negative(self, bound):
        with pytest.raises(lp.PlanError, match="negative"):
            lp.Limit(child=self.project(bound), count=-1)

    def test_limit_stacks_on_order_by(self, bound):
        order = lp.OrderBy(child=self.project(bound), keys=[(0, True)])
        limit = lp.Limit(child=order, count=5)
        assert limit.output_labels() == self.project(bound).output_labels()


class TestRendering:
    def test_walk_visits_every_node(self, demo_session, bound):
        plan = demo_session.optimizer.optimize(bound).plan
        nodes = list(plan.walk())
        assert nodes[0] is plan
        labels = {n.label() for n in nodes}
        assert any("Project" in l for l in labels)
        assert len(nodes) >= 4

    def test_render_indents_children(self, demo_session, bound):
        plan = demo_session.optimizer.optimize(bound).plan
        text = plan.render()
        lines = text.splitlines()
        assert lines[0].startswith("Project") or lines[0][0] != " "
        assert any(line.startswith("  ") for line in lines[1:])

    def test_labels_are_informative(self, bound):
        select = lp.VisibleSelect(visible_pred(bound))
        assert "date" in select.label() or "type" in select.label()
        climbing = lp.ClimbingSelect(
            hidden_pred(bound), target_table="prescription"
        )
        assert "purpose" in climbing.label()
        assert "prescription" in climbing.label()
