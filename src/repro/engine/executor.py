"""Plan lowering and execution.

The executor turns a logical plan into physical operators bound to one
device, runs it to completion, and returns the result rows together with
the full measurement picture (hardware counter diffs plus per-operator
stats).  Results are handed back in host memory -- this models the secure
rendering path (device display / secure socket), *not* the untrusted USB
link, which the result never crosses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine import plan as lp
from repro.engine.database import HiddenDatabase
from repro.engine.metrics import ExecutionMetrics, OperatorStats
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
from repro.faults.errors import GhostDBFaultError
from repro.hardware.device import SmartUsbDevice
from repro.index.bloom import BLOOM_FP_TARGET
from repro.obs import Observability, get_logger
from repro.obs.flight import plan_fingerprint
from repro.visible.link import DeviceLink

log = get_logger(__name__)


@dataclass
class ExecConfig:
    """Tunables for one execution (the session's link holds the USB
    batch sizes)."""

    bloom_fp_target: float = BLOOM_FP_TARGET
    #: Items per attribution-marked operator batch window.  Purely a
    #: host-side setting: any value must produce bit-identical rows and
    #: simulated hardware counters, larger values just cross the
    #: enter/exit accounting boundary less often.
    exec_batch: int = 256


@dataclass
class QueryResult:
    """Rows plus the full measurement record of one plan execution."""

    rows: list[tuple]
    columns: list[str]
    metrics: ExecutionMetrics
    plan: lp.PlanNode
    #: This run's operator stats per plan node, keyed by ``id(node)``
    #: (a node lowered to a no-op shares its child's).  They live here,
    #: not on the plan, because a session's stored plan runs again.
    measured: dict[int, OperatorStats] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return len(self.rows)


@dataclass
class DmlResult:
    """Outcome of one UPDATE or DELETE statement."""

    table: str
    kind: str  # "update" | "delete"
    matched: int
    changed: int
    metrics: ExecutionMetrics
    plan: lp.PlanNode


def drain(steps):
    """Run a step generator to completion and return its return value
    (``StopIteration.value``)."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


class _Measurement:
    """A body's side of :meth:`Executor._measured`: the open span, and
    :meth:`finish`, which hands back the metrics and ``_end`` fields."""

    def __init__(self, device, before, span):
        self.span = span
        self._device = device
        self._before = before

    def finish(self, operators, result_rows: int, **outcome) -> ExecutionMetrics:
        self.metrics = ExecutionMetrics.from_counters(
            self._before, self._device.counters(), operators, result_rows
        )
        self.outcome = outcome
        return self.metrics


class Executor:
    """Lowers and runs logical plans on one device."""

    def __init__(
        self,
        device: SmartUsbDevice,
        link: DeviceLink,
        db: HiddenDatabase,
        config: ExecConfig,
        obs: Observability,
    ):
        self.device = device
        self.link = link
        self.db = db
        self.config = config
        self.obs = obs

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, root: lp.PlanNode) -> QueryResult:
        """Run a plan to completion and collect measurements."""
        return drain(self.execute_steps(root))

    def execute_steps(self, root: lp.PlanNode):
        """Generator variant of :meth:`execute` for cooperative scheduling.

        Yields ``None`` once after every drained batch window -- the
        natural preemption point: between windows no operator is
        mid-pull, the attribution stack is empty, and foreign work done
        while suspended is not attributed to this plan's operators.  The
        :class:`QueryResult` is the generator's return value
        (``StopIteration.value``); :meth:`execute` drains it inline, so
        serial behaviour is unchanged.  Closing the generator early
        (``GeneratorExit``) tears the operator tree down through the
        same ``finally`` as any abort, releasing RAM reservations.
        """
        if not isinstance(root, (lp.Project, lp.RowNode)):
            raise PlanExecutionError(
                "plan root must be a Project (or a row node above one)"
            )
        ctx = ExecContext(
            device=self.device,
            link=self.link,
            db=self.db,
            bloom_fp_target=self.config.bloom_fp_target,
            exec_batch=self._effective_batch(root),
        )
        tracer = self.obs.tracer
        with self._measured(
            root, "query", "executor.execute", ctx.operators,
            query=self.obs.ledger.next_index,
        ) as run:
            with tracer.span("executor.lower", category="engine") as lspan:
                operator = self.lower(root, ctx)
                lspan.set("operators", len(ctx.operators))
            operator.open()
            rows = []
            try:
                for batch in operator.batches():
                    rows.extend(batch)
                    yield
            finally:
                # Deterministic teardown on every exit path, a fault
                # included: stamps end times on short-circuited subtrees
                # and releases RAM reservations -- before the counter
                # snapshot, so close-time charges stay inside it.
                operator.close()
            metrics = run.finish(ctx.operators, len(rows), rows=len(rows))
            span = run.span
            if tracer.enabled:
                self._record_operator_spans(
                    root, ctx.measured, span, tracer, set()
                )
            span.set("result_rows", len(rows))
            span.set("flash_page_reads", metrics.flash_page_reads)
            span.set("flash_page_writes", metrics.flash_page_writes)
            span.set("flash_block_erases", metrics.flash_block_erases)
            span.set("usb_messages", metrics.usb_messages)
            span.set("usb_bytes_to_device", metrics.usb_bytes_to_device)
            span.set("usb_bytes_to_host", metrics.usb_bytes_to_host)
            span.set("ram_high_water", metrics.ram_high_water)
            for counter, amount in sorted(ctx.counters.items()):
                span.set(counter, amount)
        self.obs.registry.counter("ghostdb_bloom_false_positives_total").inc(
            ctx.counters.get("bloom_recheck_dropped", 0)
        )
        log.debug(
            "executed plan: %d operators, %d rows, %.3f ms simulated",
            len(ctx.operators), len(rows), metrics.elapsed_seconds * 1e3,
        )
        return QueryResult(
            rows=rows,
            columns=root.output_labels(),
            metrics=metrics,
            plan=root,
            measured=ctx.measured,
        )

    def execute_dml(
        self, root: lp.UpdatePlan | lp.DeletePlan, site
    ) -> DmlResult:
        """Run a DML plan: scan-match-rebuild with full measurement.

        The statement executes as a rebuild transaction (see
        :mod:`repro.engine.dml`) inside the same measurement envelope
        as a query, so DML cost shows up in benches, the ledger and the
        flight recorder.
        """
        from repro.engine import dml

        kind = "update" if isinstance(root, lp.UpdatePlan) else "delete"
        table = root.bound.table
        run_dml = dml.run_update if kind == "update" else dml.run_delete
        with self._measured(
            root, "dml", "executor.dml", [], statement=kind, table=table
        ) as run:
            span = run.span
            span.set("kind", kind)
            span.set("table", table)
            matched, changed = run_dml(self.db, site, root.bound)
            metrics = run.finish([], matched, matched=matched, changed=changed)
            span.set("matched", matched)
            span.set("changed", changed)
            span.set("flash_page_reads", metrics.flash_page_reads)
            span.set("flash_page_writes", metrics.flash_page_writes)
            span.set("flash_block_erases", metrics.flash_block_erases)
            span.set("ram_high_water", metrics.ram_high_water)
        log.debug(
            "executed %s on %s: %d matched, %d changed, %.3f ms simulated",
            kind, table, matched, changed, metrics.elapsed_seconds * 1e3,
        )
        return DmlResult(
            table=table,
            kind=kind,
            matched=matched,
            changed=changed,
            metrics=metrics,
            plan=root,
        )

    @contextmanager
    def _measured(self, root, kind: str, span_name: str, operators, **fields):
        """The one measurement envelope of a query or DML body.

        Resets the RAM high-water mark (each statement reports its own
        peak), snapshots the counters, journals ``<kind>_begin`` and
        opens the span.  A finished body journals ``<kind>_end`` and
        files its metrics; a fault is booked on the span, in the ledger
        (its real consumption) and as ``<kind>_abort``.  ``fields`` lead
        every event's fields.
        """
        self.device.ram.reset_high_water()
        obs = self.obs
        fingerprint = plan_fingerprint(root)
        wall_start = time.perf_counter()
        before = self.device.counters()
        obs.flight.record(f"{kind}_begin", **fields, fingerprint=fingerprint)
        with obs.tracer.span(span_name, category="engine") as span:
            run = _Measurement(self.device, before, span)
            try:
                yield run
            except GhostDBFaultError as exc:
                reason = type(exc).__name__
                span.set("aborted", reason)
                consumed = ExecutionMetrics.from_counters(
                    before, self.device.counters(), operators, 0
                )
                obs.record_aborted_query(
                    consumed, fingerprint, time.perf_counter() - wall_start,
                    reason=reason,
                )
                obs.flight.record(
                    f"{kind}_abort", **fields, fingerprint=fingerprint,
                    reason=reason,
                )
                raise
        obs.flight.record(
            f"{kind}_end", **fields, fingerprint=fingerprint, **run.outcome
        )
        obs.record_query_metrics(
            run.metrics, fingerprint, time.perf_counter() - wall_start
        )

    def _effective_batch(self, root: lp.PlanNode) -> int:
        """The batch-window size this plan actually runs with.

        Two plan shapes get pinned to 1 (faithful per-tuple pulls):

        * plans containing a ``Limit`` -- the limit truncates demand at
          an arbitrary point, and a batch window would run the subtree
          up to a window ahead of that point, changing what the
          simulated hardware (and the spy) observes;
        * runs with a fault injector attached -- fault schedules fire on
          exact hardware-operation indices, so even a reordering of
          operations within a window would change which operation a
          scheduled fault hits.

        Everything else runs at the configured window size, where every
        batched edge is drained completely and totals are order-independent.
        """
        if self.device.faults is not None:
            return 1
        if any(isinstance(node, lp.Limit) for node in root.walk()):
            return 1
        return max(1, self.config.exec_batch)

    def _record_operator_spans(
        self, node: lp.PlanNode, measured: dict, parent, tracer, seen: set
    ) -> None:
        """Rebuild the operator tree as nested trace spans.

        Uses the first-pull / last-exit stamps collected by
        :class:`~repro.engine.operators.base.TimeAttribution`; those
        intervals nest by plan structure, so the trace mirrors the plan.
        A plan node lowered to a no-op shares its child's stats object
        and is skipped (``seen`` tracks stats identity, not node
        identity).
        """
        stats = measured.get(id(node))
        span = None
        if stats is not None and id(stats) not in seen:
            seen.add(id(stats))
            attrs = {
                "detail": stats.detail,
                "tuples_out": stats.tuples_out,
                "self_sim_ms": stats.self_seconds * 1e3,
                "self_wall_ms": stats.self_wall_seconds * 1e3,
                "ram_bytes": stats.ram_bytes,
                "finished": stats.finished,
            }
            attrs.update(stats.attrs)
            if stats.started_sim is None:
                # Registered but never pulled (e.g. short-circuited by a
                # parent): a zero-length marker at the parent's start.
                attrs["pulled"] = False
                start_sim = end_sim = parent.start_sim
                start_wall = end_wall = parent.start_wall
            else:
                start_sim = stats.started_sim
                end_sim = (
                    stats.ended_sim
                    if stats.ended_sim is not None
                    else stats.started_sim
                )
                start_wall = stats.started_wall
                end_wall = (
                    stats.ended_wall
                    if stats.ended_wall is not None
                    else stats.started_wall
                )
            span = tracer.record(
                f"op:{stats.name}",
                "operator",
                start_sim=start_sim,
                end_sim=end_sim,
                start_wall=start_wall,
                end_wall=end_wall,
                attrs=attrs,
                parent=parent,
            )
        for child in node.children():
            self._record_operator_spans(
                child,
                measured,
                span if span is not None else parent,
                tracer,
                seen,
            )

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def lower(self, node: lp.PlanNode, ctx: ExecContext) -> Operator:
        operator = self._lower(node, ctx)
        # Record the physical stats against the logical node so EXPLAIN
        # ANALYZE can show estimated-vs-measured side by side.
        ctx.measured[id(node)] = operator.stats
        return operator

    def _lower(self, node: lp.PlanNode, ctx: ExecContext) -> Operator:
        if isinstance(node, lp.ClimbingSelect):
            index = self.db.climbing_index(
                node.predicate.table, node.predicate.column
            )
            if index is None:
                raise PlanExecutionError(
                    f"no climbing index on "
                    f"{node.predicate.table}.{node.predicate.column}"
                )
            return ClimbingSelectOp(ctx, index, node.predicate, node.target_table)

        if isinstance(node, lp.VisibleSelect):
            return VisibleSelectOp(ctx, node.predicate)

        if isinstance(node, lp.DeviceScanSelect):
            return DeviceScanSelectOp(ctx, node.table, node.predicates)

        if isinstance(node, lp.ConvertIds):
            child = self.lower(node.child, ctx)
            from_table = node.child.output_table
            if from_table == node.target_table.lower():
                return child
            key_index = self.db.key_index(from_table)
            if key_index is None:
                raise PlanExecutionError(
                    f"no key climbing index on {from_table!r}"
                )
            return ConvertIdsOp(ctx, child, key_index, node.target_table)

        if isinstance(node, lp.MergeIntersect):
            children = [self.lower(c, ctx) for c in node.inputs]
            return MergeIntersectOp(ctx, children)

        if isinstance(node, lp.SktAccess):
            skt = self.db.skt_for_root(node.skt_root)
            if skt is None:
                raise PlanExecutionError(
                    f"no SKT rooted at {node.skt_root!r}"
                )
            node._tables = skt.tables
            if node.child is None:
                return SktScanOp(ctx, skt)
            child = self.lower(node.child, ctx)
            if node.child.output_table != skt.root:
                raise PlanExecutionError(
                    f"SKT_{skt.root} needs {skt.root} ids, got "
                    f"{node.child.output_table!r}"
                )
            return SktAccessOp(ctx, skt, child, node.expected_count)

        if isinstance(node, lp.IdsToTuples):
            child = self.lower(node.child, ctx)
            return IdsToTuplesOp(ctx, child, node.child.output_table)

        if isinstance(node, lp.BloomProbe):
            child = self.lower(node.child, ctx)
            tables = node.child.output_tables
            try:
                position = tables.index(node.predicate.table)
            except ValueError:
                raise PlanExecutionError(
                    f"BloomProbe on {node.predicate.table!r} but tuples "
                    f"cover {tables}"
                ) from None
            return BloomProbeOp(
                ctx, child, node.predicate, position, node.expected_ids
            )

        if isinstance(node, lp.Store):
            child = self.lower(node.child, ctx)
            return StoreOp(ctx, child, arity=len(node.child.output_tables))

        if isinstance(node, lp.Project):
            child = self.lower(node.child, ctx)
            return ProjectOp(
                ctx,
                child,
                tables=node.child.output_tables,
                projections=node.projections,
                visible_recheck=node.visible_recheck,
                residual_hidden=node.residual_hidden,
            )

        if isinstance(node, lp.Aggregate):
            from repro.engine.operators.rows import AggregateOp

            child = self.lower(node.child, ctx)
            return AggregateOp(
                ctx,
                child,
                group_indexes=node.group_indexes,
                aggregates=node.aggregates,
                output_items=node.output_items,
                input_dtypes=node.input_dtypes,
                having=node.having,
            )

        if isinstance(node, lp.OrderBy):
            from repro.engine.operators.rows import OrderByOp

            child = self.lower(node.child, ctx)
            return OrderByOp(
                ctx, child, keys=node.keys, row_dtypes=node.row_dtypes
            )

        if isinstance(node, lp.Limit):
            from repro.engine.operators.rows import LimitOp

            child = self.lower(node.child, ctx)
            return LimitOp(ctx, child, count=node.count)

        raise PlanExecutionError(f"unknown plan node {type(node).__name__}")
