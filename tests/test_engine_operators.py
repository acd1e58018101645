"""Physical operators in isolation: merges, store, scan, adapters,
time attribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.operators import (
    DeviceScanSelectOp,
    ExecContext,
    MergeIntersectOp,
    Operator,
    PlanExecutionError,
    StoreOp,
)
from repro.engine.operators.adapt import IdsToTuplesOp
from repro.engine.operators.base import TimeAttribution


class ListSource(Operator):
    """Test helper: emits a fixed list, optionally charging CPU."""

    name = "list-source"

    def __init__(self, ctx, items, charge=None):
        super().__init__(ctx)
        self.items = items
        self.charge_op = charge

    def _produce(self):
        for item in self.items:
            if self.charge_op:
                self.ctx.device.chip.charge(self.charge_op)
            yield item


def bare_context() -> ExecContext:
    """A context over a fresh device; enough for pure-ID operators."""
    from repro.hardware.device import SmartUsbDevice

    return ExecContext(device=SmartUsbDevice(), link=None, db=None)


@pytest.fixture
def ctx(fresh_session):
    session = fresh_session
    session.reset_measurements()
    return ExecContext(
        device=session.device, link=session.link, db=session.hidden
    )


class TestMergeIntersect:
    def test_basic(self, ctx):
        op = MergeIntersectOp(
            ctx,
            [
                ListSource(ctx, [1, 3, 5, 7, 9]),
                ListSource(ctx, [3, 4, 5, 9]),
                ListSource(ctx, [1, 3, 5, 9, 11]),
            ],
        )
        assert list(op.rows()) == [3, 5, 9]

    def test_empty_input_short_circuits(self, ctx):
        op = MergeIntersectOp(
            ctx, [ListSource(ctx, []), ListSource(ctx, [1, 2])]
        )
        assert list(op.rows()) == []

    def test_disjoint(self, ctx):
        op = MergeIntersectOp(
            ctx, [ListSource(ctx, [1, 2]), ListSource(ctx, [3, 4])]
        )
        assert list(op.rows()) == []

    def test_requires_two_inputs(self, ctx):
        with pytest.raises(PlanExecutionError):
            MergeIntersectOp(ctx, [ListSource(ctx, [1])])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 60), max_size=40),
            min_size=2, max_size=5,
        )
    )
    def test_intersection_property(self, sets):
        ctx = bare_context()
        op = MergeIntersectOp(
            ctx, [ListSource(ctx, sorted(s)) for s in sets]
        )
        expected = sorted(set.intersection(*sets)) if sets else []
        assert list(op.rows()) == expected


class TestStore:
    def test_materialise_and_replay(self, ctx):
        tuples = [(i, i * 2, i * 3) for i in range(500)]
        op = StoreOp(ctx, ListSource(ctx, tuples), arity=3)
        writes_before = ctx.device.flash.stats.page_writes
        assert list(op.rows()) == tuples
        assert ctx.device.flash.stats.page_writes > writes_before

    def test_store_frees_its_extent(self, ctx):
        mapped_before = ctx.device.ftl.mapped_pages
        op = StoreOp(ctx, ListSource(ctx, [(1, 2)] * 100), arity=2)
        list(op.rows())
        assert ctx.device.ftl.mapped_pages == mapped_before

    def test_arity_mismatch_rejected(self, ctx):
        op = StoreOp(ctx, ListSource(ctx, [(1, 2, 3)]), arity=2)
        with pytest.raises(ValueError, match="2-id tuples"):
            list(op.rows())


class TestDeviceScan:
    def test_scan_with_predicate(self, ctx, demo_data):
        predicates = []
        # purpose == Sclerosis, evaluated by scanning the visit heap.
        from repro.sql.binder import EQ, Predicate

        table_def = ctx.db.tree.table("visit")
        predicates.append(
            Predicate(
                table="visit", column="purpose",
                column_def=table_def.column("purpose"),
                kind=EQ, value="Sclerosis",
            )
        )
        op = DeviceScanSelectOp(ctx, "visit", predicates)
        expected = sorted(
            r[0] for r in demo_data["visit"] if r[2] == "Sclerosis"
        )
        assert list(op.rows()) == expected

    def test_scan_without_predicates_yields_all(self, ctx, demo_data):
        op = DeviceScanSelectOp(ctx, "medicine", [])
        assert list(op.rows()) == [r[0] for r in demo_data["medicine"]]


class TestAdapters:
    def test_ids_to_tuples(self, ctx):
        op = IdsToTuplesOp(ctx, ListSource(ctx, [1, 2, 3]), "t")
        assert list(op.rows()) == [(1,), (2,), (3,)]


class TestStatsCollection:
    def test_tuples_out_counted(self, ctx):
        source = ListSource(ctx, [1, 2, 3])
        list(source.rows())
        assert source.stats.tuples_out == 3
        assert source.stats.finished

    def test_self_time_excludes_children(self, ctx):
        """A parent that does no charged work gets ~zero self time even
        when its child burns simulated time."""
        child = ListSource(ctx, list(range(100)), charge="hash")
        parent = IdsToTuplesOp(ctx, child, "t")
        list(parent.rows())
        assert child.stats.self_seconds > 0
        assert parent.stats.self_seconds == pytest.approx(0.0, abs=1e-9)

    def test_attribution_stack_detects_corruption(self, ctx):
        attribution = TimeAttribution(ctx.device)
        a = ListSource(ctx, [])
        b = ListSource(ctx, [])
        attribution.enter(a.stats)
        with pytest.raises(PlanExecutionError, match="corrupted"):
            attribution.exit(b.stats)

    def test_operators_registered_in_context(self, ctx):
        before = len(ctx.operators)
        ListSource(ctx, [])
        assert len(ctx.operators) == before + 1
