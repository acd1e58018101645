"""Visible selection: delegate a predicate to the PC, receive IDs.

The paper "delegates as much work as possible to the PC and the server as
long as this processing does not compromise hidden data": the predicate
itself is visible (the spy learns the query anyway) and the matching IDs
stream back over USB in sorted order, ready for merging.
"""

from __future__ import annotations

from repro.columns import ID_WIDTH
from repro.engine.operators.base import ExecContext, Operator
from repro.sql.binder import Predicate


class VisibleSelectOp(Operator):
    name = "visible-select"

    def __init__(self, ctx: ExecContext, predicate: Predicate):
        super().__init__(ctx, detail=predicate.describe())
        self.predicate = predicate

    def _open(self):
        self.reserve(self.ctx.link.id_batch * ID_WIDTH)

    def _produce(self):
        # The link already delivers IDs one USB message (``id_batch``
        # ids) at a time; consuming whole message batches keeps the
        # per-item loop out of the hot path without changing when each
        # message crosses the observable channel.
        link = self.ctx.link
        for chunk in link.select_id_batches(
            self.predicate.table, self.predicate
        ):
            yield from chunk

    def _produce_batches(self, cap: int):
        """Vectorized: each USB message arrives as one typed column,
        sliced to ``cap``.  Message timing is unchanged -- a message is
        requested when its first ID is demanded either way."""
        link = self.ctx.link
        for column in link.select_id_batches(
            self.predicate.table, self.predicate
        ):
            for start in range(0, len(column), cap):
                yield column[start : start + cap]
