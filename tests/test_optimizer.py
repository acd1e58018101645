"""Optimizer: strategy space, cost model sanity, plan choice quality."""

import datetime

import pytest

from repro.engine import plan as lp
from repro.optimizer.cost import StatsProvider
from repro.optimizer.space import (
    PlanBuilder,
    Strategy,
    enumerate_strategies,
)
from repro.workload.queries import demo_query, query_date_selectivity


@pytest.fixture
def session(demo_session):
    demo_session.reset_measurements()
    return demo_session


class TestStrategySpace:
    def test_enumeration_is_exponential_in_visible_preds(self, session):
        bound = session.bind(demo_query())
        assert len(bound.visible_predicates) == 2
        strategies = enumerate_strategies(bound)
        assert len(strategies) == 4
        assert len({s.assignments for s in strategies}) == 4

    def test_no_visible_predicates_single_strategy(self, session):
        bound = session.bind(
            "SELECT Quantity FROM Prescription WHERE Quantity = 5"
        )
        strategies = enumerate_strategies(bound)
        assert len(strategies) == 1
        assert strategies[0].assignments == ()

    def test_labels_are_descriptive(self, session):
        bound = session.bind(demo_query())
        label = Strategy.all_pre(bound).label(bound)
        assert "visit.date=pre" in label
        assert "medicine.type=pre" in label


class TestPlanShapes:
    def test_all_pre_has_no_blooms(self, session):
        bound = session.bind(demo_query())
        plan = PlanBuilder(session.hidden, bound).build(
            Strategy.all_pre(bound)
        )
        kinds = {type(n).__name__ for n in plan.walk()}
        assert "BloomProbe" not in kinds
        assert "VisibleSelect" in kinds
        assert "SktAccess" in kinds

    def test_all_post_blooms_every_visible(self, session):
        bound = session.bind(demo_query())
        plan = PlanBuilder(session.hidden, bound).build(
            Strategy.all_post(bound)
        )
        blooms = [n for n in plan.walk() if isinstance(n, lp.BloomProbe)]
        assert len(blooms) == 2
        # Post plans re-check their predicates at projection.
        assert len(plan.visible_recheck) == 2

    def test_cross_filtering_emerges_on_shared_table(self, session):
        """Date (visible) and Purpose (hidden) both live on Visit: with
        date=PRE the builder intersects at the visit level and converts
        once -- the paper's Cross-filtering."""
        bound = session.bind(query_date_selectivity(datetime.date(2006, 6, 1)))
        plan = PlanBuilder(session.hidden, bound).build(
            Strategy(("pre",))
        )
        converts = [n for n in plan.walk() if isinstance(n, lp.ConvertIds)]
        assert len(converts) == 1
        child = converts[0].child
        assert isinstance(child, lp.MergeIntersect)
        kinds = {type(n).__name__ for n in child.walk()}
        assert {"ClimbingSelect", "VisibleSelect"} <= kinds
        # The climbing select was pulled down to the visit level.
        climbing = next(
            n for n in child.walk() if isinstance(n, lp.ClimbingSelect)
        )
        assert climbing.target_table == "visit"

    def test_hidden_only_plan_climbs_straight_to_root(self, session):
        bound = session.bind(
            "SELECT Pre.Quantity FROM Prescription Pre, Visit Vis "
            "WHERE Vis.Purpose = 'Sclerosis' AND Vis.VisID = Pre.VisID"
        )
        plan = PlanBuilder(session.hidden, bound).build(Strategy(()))
        climbing = next(
            n for n in plan.walk() if isinstance(n, lp.ClimbingSelect)
        )
        assert climbing.target_table == "prescription"
        assert not any(
            isinstance(n, lp.ConvertIds) for n in plan.walk()
        )

    def test_no_predicates_full_scan(self, session):
        bound = session.bind(
            "SELECT Med.Type, Pre.Quantity FROM Medicine Med, "
            "Prescription Pre WHERE Med.MedID = Pre.MedID"
        )
        plan = PlanBuilder(session.hidden, bound).build(Strategy(()))
        skt = next(n for n in plan.walk() if isinstance(n, lp.SktAccess))
        assert skt.child is None  # full SKT scan

    def test_strategy_arity_checked(self, session):
        bound = session.bind(demo_query())
        with pytest.raises(ValueError, match="arity"):
            PlanBuilder(session.hidden, bound).build(Strategy(("pre",)))


class TestCostModel:
    def test_estimates_follow_selectivity(self, session):
        """A more selective visible predicate must make the PRE arm
        cheaper."""
        model = session.optimizer.cost_model
        bound_tight = session.bind(
            query_date_selectivity(datetime.date(2007, 6, 1))
        )
        bound_loose = session.bind(
            query_date_selectivity(datetime.date(2005, 2, 1))
        )
        tight = model.estimate(
            PlanBuilder(session.hidden, bound_tight).build(Strategy(("pre",)))
        )
        loose = model.estimate(
            PlanBuilder(session.hidden, bound_loose).build(Strategy(("pre",)))
        )
        assert tight.seconds < loose.seconds

    def test_post_beats_pre_for_unselective_lone_visible(self, session):
        """An unselective visible predicate on a table with no hidden
        companion (so Cross-filtering cannot rescue it) should cost less
        as a Bloom post-filter than as a converted ID list -- the paper's
        motivation for Post-filtering."""
        from repro.workload.queries import demo_query as dq

        model = session.optimizer.cost_model
        # Antidiabetic matches ~30% of medicines; Sclerosis stays the
        # selective hidden anchor on the other branch.
        sql = dq(
            date_cutoff=datetime.date(2007, 6, 29),
            med_type="Antidiabetic",
        )
        bound = session.bind(sql)
        type_index = next(
            i for i, p in enumerate(bound.visible_predicates)
            if p.column == "type"
        )
        choices_pre = ["pre", "pre"]
        choices_post = ["pre", "pre"]
        choices_post[type_index] = "post"
        pre = model.estimate(
            PlanBuilder(session.hidden, bound).build(
                Strategy(tuple(choices_pre))
            )
        )
        post = model.estimate(
            PlanBuilder(session.hidden, bound).build(
                Strategy(tuple(choices_post))
            )
        )
        assert post.seconds < pre.seconds

    def test_estimate_positive_and_finite(self, session):
        bound = session.bind(demo_query())
        for ranked in session.optimizer.rank(bound):
            assert 0 < ranked.estimate.seconds < 10
            assert ranked.estimate.ram_bytes >= 0

    def test_stats_provider_spans_both_sides(self, session):
        provider = StatsProvider(session.hidden, session.site)
        bound = session.bind(demo_query())
        for predicate in bound.predicates:
            sel = provider.selectivity(predicate)
            assert 0 <= sel <= 1


class TestOptimizerChoice:
    def test_rank_orders_by_estimate(self, session):
        ranked = session.rank_plans(demo_query())
        estimates = [r.estimate.seconds for r in ranked]
        assert estimates == sorted(estimates)

    def test_optimizer_choice_is_near_best_measured(self, session):
        """The chosen plan must be within 2x of the measured-fastest
        candidate (estimates are estimates, but rankings should hold)."""
        bound = session.bind(demo_query())
        measured = {}
        for strategy in enumerate_strategies(bound):
            session.reset_measurements()
            result = session.query_with_strategy(demo_query(), strategy)
            measured[strategy.assignments] = result.metrics.elapsed_seconds
        best_measured = min(measured.values())
        chosen = session.optimizer.optimize(bound)
        assert measured[chosen.strategy.assignments] <= best_measured * 2

    def test_annotation_fills_runtime_hints(self, session):
        bound = session.bind(demo_query())
        plan = PlanBuilder(session.hidden, bound).build(
            Strategy.all_post(bound)
        )
        session.optimizer.annotate(plan)
        blooms = [n for n in plan.walk() if isinstance(n, lp.BloomProbe)]
        assert all(b.expected_ids is not None for b in blooms)

    def test_explain_renders_estimates(self, session):
        text = session.explain(demo_query())
        assert "Project" in text
        assert "ms" in text and "out" in text


class TestRamAwareChoice:
    def test_tiny_device_prefers_a_fitting_plan(self, demo_data):
        """On a 16 KB chip the optimizer must pass over estimated-faster
        plans whose working set would not fit, and the chosen plan must
        actually run inside the budget."""
        from repro.core.ghostdb import GhostDB
        from repro.hardware.profiles import TINY_DEVICE
        from repro.workload.queries import DEMO_SCHEMA_DDL, demo_query

        db = GhostDB(profile=TINY_DEVICE)
        for ddl in DEMO_SCHEMA_DDL:
            db.execute(ddl)
        db.load(demo_data)
        bound = db.bind(demo_query())
        chosen = db.optimizer.optimize(bound)
        assert chosen.estimate.ram_bytes <= 0.8 * TINY_DEVICE.ram_bytes
        db.reset_measurements()
        result = db.execute_plan(chosen.plan)
        assert result.metrics.ram_high_water <= TINY_DEVICE.ram_bytes

    @pytest.mark.parametrize(
        "cutoff, purpose, med_type",
        [
            (datetime.date(2007, 6, 23), "Hypertension", "Antihypertensive"),
            (datetime.date(2007, 6, 8), "Foot examination", "Insulin"),
        ],
        ids=["hypertension", "foot-examination"],
    )
    def test_served_demo_shape_plans_for_its_lease(
        self, cutoff, purpose, med_type
    ):
        """A served client's quarter-RAM lease prices the demo shape with
        its own link batches and the buffers the plan holds at its peak:
        two of the hot served demo texts (scale 20,000) pick the pre/post
        plan, which fits the lease, over a double Bloom post-filter that
        measures about four times slower."""
        from repro.core.factory import build_session

        db, _data = build_session(scale=20_000)
        lease = db.open_session("served", db.profile.ram_bytes // 4)
        sql = demo_query(cutoff, purpose, med_type)
        bound = lease.bind(sql)
        chosen = lease.optimizer.optimize(bound)
        assert chosen.strategy.label(bound) == (
            "visit.date=pre, medicine.type=post"
        )
        lease.reset_measurements()
        picked = lease.query(sql).metrics.elapsed_seconds
        lease.reset_measurements()
        post = lease.query_with_strategy(sql, Strategy.all_post(bound))
        assert 3 * picked < post.metrics.elapsed_seconds

    def test_pk_predicates_are_visible_selections(self, session):
        """Primary keys are public: a PK range predicate is delegated to
        the PC and returns root IDs directly."""
        bound = session.bind(
            "SELECT Quantity FROM Prescription WHERE PreID <= 50"
        )
        predicate = bound.predicates[0]
        assert not predicate.hidden
        result = session.query(
            "SELECT PreID, Quantity FROM Prescription WHERE PreID <= 50"
        )
        assert result.row_count == 50
        assert all(row[0] <= 50 for row in result.rows)
