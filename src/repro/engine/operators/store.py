"""Store: materialise an intermediate result on flash (Figure 5's Store).

The Post-filtering QEP of Figure 5 stores the (PreID, MedID, VisID)
stream coming out of the SKT access before running it through the Bloom
filters.  Materialising costs flash writes now and reads later, but frees
the plan to build each Bloom filter with the whole remaining RAM -- the
kind of trade the demo invites visitors to experiment with.

Tuples are packed as fixed-width 32-bit ID records; the extent is freed
once the consumer exhausts or abandons the replay, and a failure while
materialising leaves no page behind (the writer's abort rule).
"""

from __future__ import annotations

import struct

from repro.engine.operators.base import ExecContext, Operator
from repro.storage.pagestore import PageReader, PageWriter


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
        device = self.ctx.device
        record = struct.Struct(f">{self.arity}I")
        with PageWriter(device, record.size, "store") as writer:
            for batch in self.child.batches():
                for row in batch:
                    if len(row) != self.arity:
                        raise ValueError(
                            f"store expected {self.arity}-id tuples, "
                            f"got {row!r}"
                        )
                    writer.append(record.pack(*row))
        run = writer.extent
        try:
            with PageReader(device, run, "store-replay") as reader:
                out: list[tuple] = []
                for raw in reader.scan():
                    out.append(record.unpack(raw))
                    if len(out) >= cap:
                        yield out
                        out = []
                if out:
                    yield out
        finally:
            run.free(device.ftl)
