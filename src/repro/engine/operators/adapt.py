"""Small adapter operators."""

from __future__ import annotations

from repro.engine.operators.base import ExecContext, Operator


class IdsToTuplesOp(Operator):
    """Wrap a sorted ID stream as 1-tuples (single-table plans)."""

    name = "ids-to-tuples"

    def __init__(self, ctx: ExecContext, child: Operator, table: str):
        super().__init__(ctx, detail=table, children=(child,))
        self.child = child

    def _produce_batches(self, cap: int):
        # Child windows are bounded by the same ``exec_batch``, so each
        # payload already respects ``cap``.
        for batch in self.child.batches():
            yield [(value,) for value in batch]
