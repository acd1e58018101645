"""Climbing-index selection: a hidden predicate -> sorted IDs at a level.

This is the paper's Pre-filtering primitive for hidden predicates: "using
the climbing index on Vis.Purpose to deliver the list of PreID associated
to the value 'Sclerosis'".  Equality predicates read one posting list;
range predicates union the posting lists of every qualifying value under
the RAM-bounded fan-in (spilling to flash when the range matches many
values).
"""

from __future__ import annotations

from repro.columns import chunk_ids
from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.index.climbing import ClimbingIndex
from repro.index.posting import merge_posting_streams
from repro.sql.binder import EQ, IN, RANGE, Predicate


class ClimbingSelectOp(Operator):
    name = "climbing-select"

    def __init__(
        self,
        ctx: ExecContext,
        index: ClimbingIndex,
        predicate: Predicate,
        target_table: str,
    ):
        super().__init__(
            ctx,
            detail=f"{predicate.describe()} -> {target_table} ids",
        )
        if predicate.kind not in (EQ, RANGE, IN):
            raise PlanExecutionError(
                f"climbing indexes serve equality, range and IN "
                f"predicates, not {predicate.kind!r}"
            )
        self.index = index
        self.predicate = predicate
        self.target_table = target_table.lower()

    def _produce(self):
        page = self.ctx.device.profile.page_size
        if self.predicate.kind == EQ:
            factory = self.index.stream_eq(
                self.predicate.value, self.target_table
            )
            if factory is None:
                return
            self.reserve(page)
            iterator, closer = factory()
            try:
                yield from iterator
            finally:
                closer()
            return
        if self.predicate.kind == IN:
            # One posting per listed value, unioned like a range.
            factories = [
                self.index.stream_eq(value, self.target_table)
                for value in self.predicate.values
            ]
            factories = [f for f in factories if f is not None]
        else:
            factories = self.index.streams_range(
                self.predicate.low,
                self.predicate.low_inclusive,
                self.predicate.high,
                self.predicate.high_inclusive,
                self.target_table,
            )
        if not factories:
            return
        fan_in = self.ctx.fan_in()
        self.reserve(min(len(factories), fan_in) * page + page)
        yield from merge_posting_streams(
            self.ctx.device,
            factories,
            label=f"{self.index.table}.{self.index.column}",
            fan_in=fan_in,
        )

    def _produce_batches(self, cap: int):
        # Posting-list IDs travel as typed columns; the underlying
        # stream is advanced in the default islice pattern, so flash
        # reads and merge charges are position-for-position identical.
        yield from chunk_ids(self._produce(), cap)
