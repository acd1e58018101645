"""Store: materialise an intermediate result on flash (Figure 5's Store).

The Post-filtering QEP of Figure 5 stores the (PreID, MedID, VisID)
stream coming out of the SKT access before running it through the Bloom
filters.  Materialising costs flash writes now and reads later, but frees
the plan to build each Bloom filter with the whole remaining RAM -- the
kind of trade the demo invites visitors to experiment with.

Tuples are packed as fixed-width 32-bit ID records; the extent is freed
once the consumer exhausts the replay.
"""

from __future__ import annotations

import struct

from repro.engine.operators.base import ExecContext, Operator
from repro.storage.runs import Run, RunReader, RunWriter


class StoreOp(Operator):
    name = "store"

    def __init__(self, ctx: ExecContext, child: Operator, arity: int):
        super().__init__(
            ctx, detail=f"materialise {arity}-id tuples", children=(child,)
        )
        self.child = child
        self.arity = arity

    def _open(self):
        self.reserve(self.ctx.device.profile.page_size)

    def _produce_batches(self, cap: int):
        """Pack whole child windows, replay the run in ``cap``-sized
        windows of decoded tuples.  Flash writes happen in record order
        during the drain and reads in record order during the replay,
        whatever ``cap`` is."""
        record = struct.Struct(f">{self.arity}I")
        writer = RunWriter(self.ctx.device, record.size, "store")
        for batch in self.child.batches():
            for row in batch:
                if len(row) != self.arity:
                    raise ValueError(
                        f"store expected {self.arity}-id tuples, got {row!r}"
                    )
                writer.append(record.pack(*row))
        run: Run = writer.finish()
        try:
            with RunReader(self.ctx.device, run, "store-replay") as reader:
                out: list[tuple] = []
                for raw in reader:
                    out.append(record.unpack(raw))
                    if len(out) >= cap:
                        yield out
                        out = []
                if out:
                    yield out
        finally:
            run.free(self.ctx.device)
