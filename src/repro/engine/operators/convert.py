"""ID conversion: climb a sorted ID list to an ancestor level.

"...receiving the two resulting lists of VisID and MedID from outside and
transforming these lists into lists of PreID thanks to the climbing index
on Vis.VisID and Med.MedID" (paper, Section 4).

Each incoming ID costs a directory probe; its posting list (the root IDs
of its subtree partners) joins a bounded-fan-in union.  When the incoming
list is long this degenerates into a multi-pass external merge with flash
spills -- the exact cost that makes Pre-filtering "a poor choice" for
unselective visible predicates and motivates Post-filtering.
"""

from __future__ import annotations

from repro.columns import chunk_ids
from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.index.climbing import ClimbingIndex
from repro.index.posting import merge_posting_streams


class ConvertIdsOp(Operator):
    name = "convert-ids"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        key_index: ClimbingIndex,
        target_table: str,
    ):
        super().__init__(
            ctx,
            detail=(
                f"{key_index.table} ids -> {target_table} ids "
                f"via {key_index.table}.{key_index.column}"
            ),
            children=(child,),
        )
        if not key_index.is_key_index:
            raise PlanExecutionError(
                f"{key_index.table}.{key_index.column} is not a key "
                f"climbing index"
            )
        self.child = child
        self.key_index = key_index
        self.target_table = target_table.lower()

    def _produce(self):
        if self.target_table == self.key_index.table:
            # Converting to the same level is the identity: per-item
            # pass-through so the parent's demand stays exact.
            yield from self.child.unbatched()
            return
        factories = []
        for value in self.child.rows():
            factory = self.key_index.stream_eq(value, self.target_table)
            if factory is not None:
                factories.append(factory)
        if not factories:
            return
        fan_in = self.ctx.fan_in()
        page = self.ctx.device.profile.page_size
        self.reserve(min(len(factories), fan_in) * page + page)
        yield from merge_posting_streams(
            self.ctx.device,
            factories,
            label=f"convert:{self.key_index.table}",
            fan_in=fan_in,
        )

    def _produce_batches(self, cap: int):
        # The merged (or identity pass-through) ID stream re-chunked into
        # typed columns; the producer is advanced in the same islice
        # pattern as the default path, so hardware behaviour is untouched.
        yield from chunk_ids(self._produce(), cap)
