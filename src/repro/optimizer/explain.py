"""EXPLAIN: render a plan tree with per-node estimates.

The demo GUI shows the operator tree and, per operator, estimated and
measured statistics; this module produces the textual equivalent.
``EXPLAIN ANALYZE`` additionally grades the cost model per node: the
model's estimates are cumulative (each node's estimate absorbs its
children), so the node's *own* predicted cost is the estimate minus the
children's, which is then lined up against the per-operator flash/USB/
RAM measurements attributed by the executor.  Nodes whose own time was
mispredicted by more than :data:`MISESTIMATE_THRESHOLD` either way are
flagged -- the scorecard in :mod:`repro.bench.scorecard` applies the
same threshold per candidate plan.

A node its consumer pulls through ``Operator.unbatched()`` has its costs
attributed to that consumer, so its own measured time is not its cost:
it is marked ``(cost on consumer)`` and never flagged, and the consumer
is graded against its own estimate plus those of its unbatched inputs.

Measurements come from the :class:`~repro.engine.executor.QueryResult`,
never from the plan: a session's stored plan runs again, and each run
keeps its own per-node statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import plan as lp
from repro.optimizer.cost import CostEstimate, CostModel

if TYPE_CHECKING:
    from repro.engine.executor import QueryResult

#: Estimate and measurement disagreeing by more than this factor either
#: way flags the node (and counts a scorecard misestimate).
MISESTIMATE_THRESHOLD = 2.0

#: Self times below this (seconds) are too small to grade honestly.
_MIN_FLAG_SECONDS = 1e-4


def explain_plan(plan: lp.PlanNode, cost_model: CostModel | None = None) -> str:
    """A printable plan tree, optionally annotated with cost estimates."""
    lines: list[str] = []
    estimates = cost_model.estimate_nodes(plan) if cost_model else None
    _render(plan, estimates, 0, lines)
    return "\n".join(lines)


def _render(
    node: lp.PlanNode,
    estimates: dict | None,
    depth: int,
    lines: list[str],
) -> None:
    prefix = "  " * depth
    if estimates is not None:
        est = estimates[id(node)]
        lines.append(
            f"{prefix}{node.label()}  "
            f"[~{est.out_count:.0f} out, ~{est.seconds * 1000:.2f} ms, "
            f"~{est.ram_bytes / 1024:.1f} KiB]"
        )
    else:
        lines.append(f"{prefix}{node.label()}")
    for child in node.children():
        _render(child, estimates, depth + 1, lines)


def self_estimate(node: lp.PlanNode, estimates: dict) -> CostEstimate:
    """The node's *own* estimated cost: cumulative minus children, with
    the RAM of its own buffers.

    ``estimates`` is :meth:`CostModel.estimate_nodes` of the plan.
    Times are clamped at zero per category -- the model prices a parent
    from its children's output cardinalities, so small negative residues
    can appear when a child over-absorbs.
    """
    est = estimates[id(node)]
    own = CostEstimate(
        flash_read_s=est.flash_read_s,
        flash_write_s=est.flash_write_s,
        usb_s=est.usb_s,
        cpu_s=est.cpu_s,
        out_count=est.out_count,
        ram_bytes=est.own_ram_bytes,
    )
    for child in node.children():
        sub = estimates[id(child)]
        if sub is est:
            # A pass-through node shares its child's estimate and owns
            # no buffers.
            own.ram_bytes = 0.0
        own.flash_read_s -= sub.flash_read_s
        own.flash_write_s -= sub.flash_write_s
        own.usb_s -= sub.usb_s
        own.cpu_s -= sub.cpu_s
    own.flash_read_s = max(0.0, own.flash_read_s)
    own.flash_write_s = max(0.0, own.flash_write_s)
    own.usb_s = max(0.0, own.usb_s)
    own.cpu_s = max(0.0, own.cpu_s)
    return own


def _charged_estimate(
    node: lp.PlanNode, estimates: dict, stats_by_node: dict
) -> CostEstimate:
    """The estimate to hold against the node's measured self time: its
    own, plus (recursively) that of every input pulled through
    ``Operator.unbatched()``, whose costs land on this node."""
    own = self_estimate(node, estimates)
    for child in node.children():
        measured = stats_by_node.get(id(child))
        if measured is not None and measured.cost_on_consumer:
            sub = _charged_estimate(child, estimates, stats_by_node)
            own.flash_read_s += sub.flash_read_s
            own.flash_write_s += sub.flash_write_s
            own.usb_s += sub.usb_s
            own.cpu_s += sub.cpu_s
    return own


def explain_analyze(result: QueryResult, cost_model: CostModel) -> str:
    """Estimated vs measured, per node, for one execution's result.

    The per-node operator statistics are the ones
    :meth:`repro.engine.executor.Executor.execute` recorded on
    ``result``; another run of the same plan does not change them.
    """
    lines: list[str] = []
    estimates = cost_model.estimate_nodes(result.plan)
    _render_analyzed(result.plan, estimates, result.measured, 0, lines)
    return "\n".join(lines)


def _render_analyzed(
    node: lp.PlanNode,
    estimates: dict,
    stats_by_node: dict,
    depth: int,
    lines: list[str],
) -> None:
    prefix = "  " * depth
    est = estimates[id(node)]
    own = _charged_estimate(node, estimates, stats_by_node)
    est_flash_ms = (own.flash_read_s + own.flash_write_s) * 1000
    estimate = (
        f"est ~{est.out_count:.0f} out, ~{own.seconds * 1000:.2f} ms self, "
        f"flash ~{est_flash_ms:.2f} ms, usb ~{own.usb_s * 1000:.2f} ms, "
        f"ram ~{own.ram_bytes / 1024:.1f} KiB"
    )
    measured = stats_by_node.get(id(node))
    if measured is None:
        lines.append(f"{prefix}{node.label()}  [{estimate} | (not executed)]")
    elif measured.cost_on_consumer:
        lines.append(
            f"{prefix}{node.label()}  [{estimate} | actual "
            f"{measured.tuples_out} out, (cost on consumer), "
            f"ram {measured.ram_bytes} B]"
        )
    else:
        lookups = measured.cache_hits + measured.cache_misses
        if lookups:
            cache = f", cache {measured.cache_hits / lookups:.0%} hit"
        else:
            cache = ""
        actual = (
            f"actual {measured.tuples_out} out, "
            f"{measured.self_seconds * 1000:.2f} ms self, "
            f"flash {measured.self_flash_seconds * 1000:.2f} ms "
            f"({measured.flash_page_reads}r/{measured.flash_page_writes}w), "
            f"usb {measured.self_usb_seconds * 1000:.2f} ms "
            f"({measured.usb_messages} msgs), "
            f"ram {measured.ram_bytes} B{cache}"
        )
        flag = _misestimate_flag(own.seconds, measured.self_seconds)
        lines.append(f"{prefix}{node.label()}  [{estimate} | {actual}]{flag}")
    for child in node.children():
        _render_analyzed(child, estimates, stats_by_node, depth + 1, lines)


def _misestimate_flag(est_seconds: float, meas_seconds: float) -> str:
    """`` <- MISESTIMATE (Nx)`` when the node's own time was badly off."""
    if max(est_seconds, meas_seconds) < _MIN_FLAG_SECONDS:
        return ""
    ratio = est_seconds / max(meas_seconds, 1e-12)
    if 1 / MISESTIMATE_THRESHOLD <= ratio <= MISESTIMATE_THRESHOLD:
        return ""
    return f"  <- MISESTIMATE ({ratio:.2f}x est/meas)"
