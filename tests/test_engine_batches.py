"""Batch-oriented execution protocol: equivalence, lifecycle, marks.

The hard invariant of the vectorized refactor: the batch window is a
host-side execution detail, so result rows, the simulated clock and
every hardware counter must be identical at any window size -- only the
host-side overhead (attribution marks, wall time) may change.  The
per-tuple run (``exec_batch=1``) is the reference semantics the old
Volcano pipeline implemented.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghostdb import GhostDB, SessionConfig
from repro.engine import plan as lp
from repro.engine.executor import ExecConfig
from repro.engine.metrics import ExecutionMetrics
from repro.engine.operators import (
    BloomProbeOp,
    ClimbingSelectOp,
    ConvertIdsOp,
    DeviceScanSelectOp,
    ExecContext,
    MergeIntersectOp,
    Operator,
    PlanExecutionError,
    ProjectOp,
    SktAccessOp,
    SktScanOp,
    StoreOp,
    VisibleSelectOp,
)
from repro.engine.operators.adapt import IdsToTuplesOp
from repro.engine.operators.base import TimeAttribution
from repro.engine.operators.rows import AggregateOp, LimitOp, OrderByOp
from repro.hardware.device import SmartUsbDevice
from repro.optimizer.space import Strategy
from repro.reference import evaluate_reference, same_rows
from repro.workload.queries import (
    DEMO_SCHEMA_DDL,
    demo_query,
    query_purpose_only,
)

from tests.test_property_random import RandomSchema

BATCH_SIZES = (1, 2, 7, 256)


def session_with_batch(batch: int, **config) -> GhostDB:
    return GhostDB(
        config=SessionConfig(
            exec_config=ExecConfig(exec_batch=batch), **config
        )
    )


def hardware_counters(metrics) -> tuple:
    """Every integer counter the simulated device exposes per query."""
    return (
        metrics.flash_page_reads,
        metrics.flash_page_writes,
        metrics.flash_block_erases,
        metrics.usb_messages,
        metrics.usb_bytes_to_device,
        metrics.usb_bytes_to_host,
        metrics.ram_high_water,
        metrics.cache_hits,
        metrics.cache_misses,
    )


# ---------------------------------------------------------------------------
# Property: any batch size is bit-identical to the per-tuple reference.
# ---------------------------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=1, max_value=500))
def test_batch_sizes_equivalent_on_random_queries(seed):
    schema = RandomSchema(seed)
    ddl = schema.ddl()
    data = schema.data()
    query_rng = random.Random(seed * 1000)
    queries = [schema.random_query(query_rng) for _ in range(2)]

    runs: dict[int, list] = {}
    for batch in BATCH_SIZES:
        db = session_with_batch(batch)
        for statement in ddl:
            db.execute(statement)
        db.load(data)
        outcomes = []
        for sql in queries:
            db.reset_measurements()
            result = db.query(sql)
            outcomes.append((result.rows, result.metrics))
        runs[batch] = outcomes

    reference = runs[1]  # per-tuple pulls: the old pipeline's semantics
    for batch in BATCH_SIZES[1:]:
        for q, ((ref_rows, ref_m), (rows, m)) in enumerate(
            zip(reference, runs[batch])
        ):
            label = f"seed={seed} batch={batch} query#{q}"
            assert rows == ref_rows, label
            assert hardware_counters(m) == hardware_counters(ref_m), label
            # Integer clock ticks per category: exact at every window.
            assert m.time == ref_m.time, label


# ---------------------------------------------------------------------------
# Per-item producers exist only where an exact-demand edge reaches them.
# ---------------------------------------------------------------------------

#: Subtree-key-tuple streams: no plan shape puts one under MergeIntersect,
#: ConvertIds, Aggregate or Limit, so they are only ever drained whole.
TUPLE_STREAM_OPERATORS = (
    IdsToTuplesOp, BloomProbeOp, SktAccessOp, SktScanOp, StoreOp,
)

#: ID streams and value rows, which ``unbatched()`` or
#: ``batches(limit=...)`` may pull one item at a time, plus Limit, whose
#: only producer is per item.
PER_ITEM_OPERATORS = (
    ClimbingSelectOp, VisibleSelectOp, DeviceScanSelectOp, ConvertIdsOp,
    MergeIntersectOp, ProjectOp, AggregateOp, OrderByOp,
    LimitOp,
)


def test_only_exact_demand_operators_define_a_per_item_producer():
    for cls in TUPLE_STREAM_OPERATORS:
        assert "_produce" not in vars(cls), cls.__name__
        assert "_produce_batches" in vars(cls), cls.__name__
    for cls in PER_ITEM_OPERATORS:
        assert "_produce" in vars(cls), cls.__name__


def test_exact_demand_pull_of_a_tuple_stream_raises():
    ctx = bare_context()
    op = IdsToTuplesOp(ctx, ValueSource(ctx, [1, 2]), "t")
    with pytest.raises(PlanExecutionError, match="no per-item producer"):
        next(op.unbatched())
    with pytest.raises(PlanExecutionError, match="no per-item producer"):
        next(op.batches(limit=1))
    op.close()
    assert list(IdsToTuplesOp(ctx, ValueSource(ctx, [1, 2]), "t").rows()) == [
        (1,), (2,),
    ]


#: Age is visible and BodyMassIndex hidden: without a climbing index on
#: BodyMassIndex the optimizer intersects the PC's Age IDs with a device
#: scan, which MergeIntersect pulls through ``unbatched()``.
DEVICE_SCAN_SQL = (
    "SELECT Pat.PatID, Pat.Age FROM Patient Pat "
    "WHERE Pat.Age > 50 AND Pat.BodyMassIndex > 30"
)


#: The demo schema's default climbing indexes, minus Patient.BodyMassIndex.
INDEXES_BUT_BMI = [
    ("patient", "name"),
    ("visit", "purpose"),
    ("prescription", "quantity"),
    ("prescription", "whenwritten"),
]


def unindexed_bmi_session(data, batch: int = 256) -> GhostDB:
    db = session_with_batch(batch, index_columns=INDEXES_BUT_BMI)
    for statement in DEMO_SCHEMA_DDL:
        db.execute(statement)
    db.load(data)
    return db


def test_device_scan_under_merge_matches_reference_at_every_window(demo_data):
    runs = {}
    for batch in BATCH_SIZES:
        db = unindexed_bmi_session(demo_data, batch)
        db.reset_measurements()
        result = db.query(DEVICE_SCAN_SQL)
        merges = [
            node for node in result.plan.walk()
            if isinstance(node, lp.MergeIntersect)
        ]
        assert merges and any(
            isinstance(arm, lp.DeviceScanSelect) for arm in merges[0].inputs
        ), result.plan.label()
        expected = evaluate_reference(
            db.tree, demo_data, db.bind(DEVICE_SCAN_SQL)
        )
        assert same_rows(result.rows, expected), batch
        assert result.rows
        runs[batch] = (result.rows, result.metrics)
    ref_rows, ref_m = runs[1]
    for batch in BATCH_SIZES[1:]:
        rows, m = runs[batch]
        assert rows == ref_rows, batch
        assert hardware_counters(m) == hardware_counters(ref_m), batch
        assert m.time == ref_m.time, batch


def test_device_scan_producers_charge_identical_costs(demo_data):
    """DeviceScanSelectOp keeps two hand-written producers; draining it
    through ``rows()`` (windows) or ``unbatched()`` (per item) must cost
    the device the same."""
    db = unindexed_bmi_session(demo_data)
    predicate = next(
        p for p in db.bind(DEVICE_SCAN_SQL).predicates
        if p.column == "bodymassindex"
    )
    drained = {}
    for surface in ("rows", "unbatched"):
        db.reset_measurements()
        ctx = ExecContext(device=db.device, link=db.link, db=db.hidden)
        op = DeviceScanSelectOp(ctx, "patient", [predicate])
        before = db.device.counters()
        with db.statement():
            ids = list(getattr(op, surface)())
            op.close()
        drained[surface] = (
            ids,
            ExecutionMetrics.from_counters(
                before, db.device.counters(), [], len(ids)
            ),
        )
    (batched_ids, batched), (item_ids, per_item) = drained.values()
    assert batched_ids == item_ids and batched_ids
    assert batched.time == per_item.time
    assert batched.time.ticks["cpu"] > 0
    assert batched.flash_page_reads == per_item.flash_page_reads > 0
    assert (batched.cache_hits, batched.cache_misses) == (
        per_item.cache_hits, per_item.cache_misses,
    )


# ---------------------------------------------------------------------------
# Attribution overhead: batching must cut marks by >= 10x on the demo.
# ---------------------------------------------------------------------------


#: A demo workload mixing the paper's Section 4 query, a hidden-only
#: selection and a full projection scan (the mark-heavy shape).
MARK_WORKLOAD = (
    demo_query(),
    query_purpose_only(),
    "SELECT Pre.Quantity, Pre.Frequency FROM Prescription Pre",
)


def _marks_for(demo_data, batch: int, monkeypatch) -> int:
    created: list[TimeAttribution] = []
    orig_init = TimeAttribution.__init__

    def recording_init(self, device):
        orig_init(self, device)
        created.append(self)

    db = session_with_batch(batch)
    for statement in DEMO_SCHEMA_DDL:
        db.execute(statement)
    db.load(demo_data)
    with monkeypatch.context() as patch:
        patch.setattr(TimeAttribution, "__init__", recording_init)
        for sql in MARK_WORKLOAD:
            db.query(sql)
    return sum(attribution.marks for attribution in created)


def test_batching_cuts_attribution_marks_10x(demo_data, monkeypatch):
    per_tuple = _marks_for(demo_data, 1, monkeypatch)
    batched = _marks_for(demo_data, 256, monkeypatch)
    assert batched * 10 <= per_tuple, (
        f"batched run marked {batched}x vs {per_tuple} per-tuple -- "
        f"expected at least a 10x reduction"
    )


# ---------------------------------------------------------------------------
# Regression: LIMIT over a multi-input merge stamps every pulled operator.
# ---------------------------------------------------------------------------


def test_limit_over_merge_stamps_all_pulled_operators(demo_session):
    db = demo_session
    db.reset_measurements()
    sql = demo_query() + " LIMIT 1"
    strategy = Strategy.all_pre(db.bind(sql))
    result = db.query_with_strategy(sql, strategy)
    assert len(result.rows) == 1
    assert any(
        isinstance(node, lp.MergeIntersect) for node in result.plan.walk()
    ), "all-PRE demo plan should intersect multiple ID streams"
    pulled = [
        op for op in result.metrics.operators if op.started_sim is not None
    ]
    assert pulled
    # The limit stopped early, so some subtree was short-circuited ...
    assert any(not op.finished for op in pulled)
    # ... and close() must still have stamped every pulled operator.
    for op in pulled:
        assert op.ended_sim is not None, op.name
        assert op.ended_wall is not None, op.name
        assert op.ended_sim >= op.started_sim, op.name


# ---------------------------------------------------------------------------
# Lifecycle: open/close semantics and reservation bookkeeping.
# ---------------------------------------------------------------------------


class ValueSource(Operator):
    """Test helper: emits fixed values, reserving 64 B when opened."""

    name = "value-source"

    def __init__(self, ctx, values):
        super().__init__(ctx)
        self.values = list(values)

    def _open(self):
        self.reserve(64)

    def _produce(self):
        yield from self.values


def bare_context(batch: int = 256) -> ExecContext:
    return ExecContext(
        device=SmartUsbDevice(), link=None, db=None, exec_batch=batch
    )


class TestLifecycle:
    def test_batches_respect_window_size(self):
        ctx = bare_context(batch=4)
        src = ValueSource(ctx, range(10))
        assert [len(b) for b in src.batches()] == [4, 4, 2]
        assert src.stats.batches_out == 3
        assert src.stats.tuples_out == 10
        assert src.stats.finished

    def test_batches_limit_bounds_demand_exactly(self):
        ctx = bare_context(batch=4)
        src = ValueSource(ctx, range(10))
        got = list(src.batches(limit=5))
        assert [len(b) for b in got] == [4, 1]
        assert [v for b in got for v in b] == [0, 1, 2, 3, 4]

    def test_batches_limit_zero_never_pulls(self):
        ctx = bare_context()
        src = ValueSource(ctx, range(5))
        assert list(src.batches(limit=0)) == []
        assert src.stats.started_sim is None

    def test_open_declares_and_close_releases_reservations(self):
        """``open()`` declares each child's reservation as a peak on its
        stats; ``close()`` tears the tree down and the peaks survive it,
        for EXPLAIN ANALYZE and the operator spans to report."""
        ctx = bare_context()
        sources = [ValueSource(ctx, [1, 2, 3]), ValueSource(ctx, [2, 3])]
        op = MergeIntersectOp(ctx, sources)
        op.open()
        assert [s.stats.ram_bytes for s in sources] == [64, 64]
        assert list(op.rows()) == [2, 3]
        op.close()
        assert [s.stats.ram_bytes for s in sources] == [64, 64]
        op.close()  # idempotent
        assert [s.stats.ram_bytes for s in sources] == [64, 64]

    def test_close_tears_down_live_producers(self):
        ctx = bare_context(batch=2)
        src = ValueSource(ctx, range(100))
        gen = src.batches()
        assert next(gen) == [0, 1]
        src.close()
        with pytest.raises(StopIteration):
            next(gen)
        assert src.stats.ended_sim is not None

    def test_never_pulled_operator_keeps_unpulled_marker(self):
        ctx = bare_context()
        src = ValueSource(ctx, [1])
        src.open()
        src.close()
        assert src.stats.started_sim is None
        assert src.stats.ended_sim is None
        assert src.stats.ram_bytes == 64
