"""Sorted-ID merge operator: streaming intersection.

The core RAM trick of the paper: every predicate arm yields IDs of the
same table in sorted order, so a conjunction is a multi-way merge that
holds one cursor per arm -- "merging all these PreID lists" costs O(1)
working memory per input regardless of list length.  Unions of sorted
ID streams (ranges, IN lists, ID conversion) are
:func:`~repro.index.posting.merge_posting_streams`.
"""

from __future__ import annotations

from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError

_SENTINEL = object()


class MergeIntersectOp(Operator):
    """Intersection of k sorted duplicate-free ID streams."""

    name = "merge-intersect"

    def __init__(self, ctx: ExecContext, children: list[Operator]):
        if len(children) < 2:
            raise PlanExecutionError("intersection needs at least 2 inputs")
        super().__init__(
            ctx, detail=f"{len(children)} inputs", children=children
        )
        self.stats.attrs["inputs"] = len(children)

    def _produce(self):
        # Per-item pulls: the intersection abandons every arm the moment
        # one of them runs dry, so demand must be exact -- a batch window
        # would run the arms ahead and change the hardware counters.
        streams = [child.unbatched() for child in self.children]
        currents = []
        for stream in streams:
            value = next(stream, _SENTINEL)
            if value is _SENTINEL:
                return  # an empty input empties the intersection
            currents.append(value)
        chip = self.ctx.device.chip
        while True:
            high = max(currents)
            chip.charge("compare", len(currents))
            if all(c == high for c in currents):
                yield high
                for i, stream in enumerate(streams):
                    value = next(stream, _SENTINEL)
                    if value is _SENTINEL:
                        return
                    currents[i] = value
                continue
            for i, stream in enumerate(streams):
                while currents[i] < high:
                    chip.charge("merge_step")
                    value = next(stream, _SENTINEL)
                    if value is _SENTINEL:
                        return
                    currents[i] = value
