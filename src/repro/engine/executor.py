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


class Executor:
    """Lowers and runs logical plans on one device."""

    def __init__(
        self,
        device: SmartUsbDevice,
        link: DeviceLink,
        db: HiddenDatabase,
        config: ExecConfig | None = None,
        obs: Observability | None = None,
    ):
        self.device = device
        self.link = link
        self.db = db
        self.config = config or ExecConfig()
        self.obs = obs or Observability(clock=device.clock)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, root: lp.PlanNode) -> QueryResult:
        """Run a plan to completion and collect measurements."""
        steps = self.execute_steps(root)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

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
        # Snapshot-reset the RAM high-water mark so each query reports
        # its *own* peak: without this the second query on a session
        # inherits the first query's high water from the shared budget.
        self.device.ram.reset_high_water()
        tracer = self.obs.tracer
        flight = self.obs.flight
        fingerprint = plan_fingerprint(root)
        query_index = self.obs.ledger.next_index
        wall_start = time.perf_counter()
        before = self.device.counters()
        flight.record(
            "query_begin", query=query_index, fingerprint=fingerprint
        )
        with tracer.span("executor.execute", category="engine") as span:
            with tracer.span("executor.lower", category="engine") as lspan:
                operator = self.lower(root, ctx)
                lspan.set("operators", len(ctx.operators))
            try:
                operator.open()
                rows = []
                try:
                    for batch in operator.batches():
                        rows.extend(batch)
                        yield
                finally:
                    # Deterministic teardown on every exit path: stamps
                    # end times on short-circuited subtrees and releases
                    # RAM reservations -- before the counter snapshot,
                    # so close-time charges stay inside the measurement.
                    operator.close()
            except GhostDBFaultError as exc:
                # A clean abort: operator close (plus generator
                # unwinding) releases every RAM allocation; the caller
                # decides whether a remount is needed.
                self._record_abort(
                    exc, span, before, ctx.operators, fingerprint,
                    wall_start, "query_abort", query=query_index,
                )
                raise
            after = self.device.counters()
            metrics = ExecutionMetrics.from_counters(
                before, after, ctx.operators, len(rows)
            )
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
        flight.record(
            "query_end",
            query=query_index,
            fingerprint=fingerprint,
            rows=len(rows),
        )
        self.obs.record_query_metrics(
            metrics, fingerprint, time.perf_counter() - wall_start
        )
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
        :mod:`repro.engine.dml`); hardware counter diffs are collected
        the same way :meth:`execute` does for queries, so DML cost shows
        up in benches, the ledger and the flight recorder.
        """
        from repro.engine import dml

        kind = "update" if isinstance(root, lp.UpdatePlan) else "delete"
        self.device.ram.reset_high_water()
        flight = self.obs.flight
        fingerprint = plan_fingerprint(root)
        wall_start = time.perf_counter()
        before = self.device.counters()
        flight.record(
            "dml_begin", statement=kind, table=root.bound.table,
            fingerprint=fingerprint,
        )
        with self.obs.tracer.span("executor.dml", category="engine") as span:
            span.set("kind", kind)
            span.set("table", root.bound.table)
            try:
                if kind == "update":
                    matched, changed = dml.run_update(
                        self.db, site, root.bound
                    )
                else:
                    matched, changed = dml.run_delete(
                        self.db, site, root.bound
                    )
            except GhostDBFaultError as exc:
                self._record_abort(
                    exc, span, before, [], fingerprint, wall_start,
                    "dml_abort", statement=kind, table=root.bound.table,
                )
                raise
            after = self.device.counters()
            metrics = ExecutionMetrics.from_counters(before, after, [], matched)
            span.set("matched", matched)
            span.set("changed", changed)
            span.set("flash_page_reads", metrics.flash_page_reads)
            span.set("flash_page_writes", metrics.flash_page_writes)
            span.set("flash_block_erases", metrics.flash_block_erases)
            span.set("ram_high_water", metrics.ram_high_water)
        flight.record(
            "dml_end",
            statement=kind,
            table=root.bound.table,
            fingerprint=fingerprint,
            matched=matched,
            changed=changed,
        )
        self.obs.record_query_metrics(
            metrics, fingerprint, time.perf_counter() - wall_start
        )
        log.debug(
            "executed %s on %s: %d matched, %d changed, %.3f ms simulated",
            kind, root.bound.table, matched, changed,
            metrics.elapsed_seconds * 1e3,
        )
        return DmlResult(
            table=root.bound.table,
            kind=kind,
            matched=matched,
            changed=changed,
            metrics=metrics,
            plan=root,
        )

    def _record_abort(
        self, exc, span, before, operators, fingerprint, wall_start,
        event: str, **fields,
    ) -> None:
        """Book a fault-aborted statement: the span records what killed
        it, the ledger keeps its (real) consumption up to the fault, and
        the flight recorder journals ``event`` for the postmortem."""
        reason = type(exc).__name__
        span.set("aborted", reason)
        consumed = ExecutionMetrics.from_counters(
            before, self.device.counters(), operators, 0
        )
        self.obs.record_aborted_query(
            consumed, fingerprint, time.perf_counter() - wall_start,
            reason=reason,
        )
        self.obs.flight.record(
            event, **fields, fingerprint=fingerprint, reason=reason
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
