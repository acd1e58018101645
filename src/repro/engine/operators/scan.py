"""Device-side table scan with predicate: the indexless fallback.

A hidden predicate whose column has no climbing index can still be
answered by scanning the table's device heap and filtering -- paying a
full sequential read of the extent.  The operator exists both as a
correctness fallback and as a baseline the benchmarks compare climbing
indexes against.
"""

from __future__ import annotations

from itertools import islice

from repro.columns import IdColumn
from repro.engine.operators.base import ExecContext, Operator
from repro.sql.binder import Predicate


def scan_matching(heap, table_def, predicates, fields, label: str):
    """Yield the ``fields`` of each row of ``heap`` meeting every
    predicate, as a tuple.  Per row: one ``decode_field`` and one
    ``compare`` charge per predicate tested up to the first that fails,
    then one ``decode_field`` charge per field yielded."""
    tests = [(p, table_def.device_column_index(p.column)) for p in predicates]
    decode = heap.codec.decode_field
    chip = heap.device.chip
    with heap.reader(label) as reader:
        for raw in reader.scan():
            for predicate, index in tests:
                value = decode(raw, index)
                chip.charge("decode_field")
                chip.charge("compare")
                if not predicate.matches(value):
                    break
            else:
                row = tuple(decode(raw, index) for index in fields)
                chip.charge("decode_field", len(fields))
                yield row


class DeviceScanSelectOp(Operator):
    """Scan one device heap, yield PKs of rows matching all predicates."""

    name = "device-scan"

    def __init__(self, ctx: ExecContext, table: str, predicates: list[Predicate]):
        detail = f"{table}: " + (
            " AND ".join(p.describe() for p in predicates)
            if predicates
            else "all rows"
        )
        super().__init__(ctx, detail=detail)
        self.table = table.lower()
        self.predicates = predicates

    def _open(self):
        self.reserve(self.ctx.device.profile.page_size)

    def _produce(self):
        heap = self.ctx.db.heaps[self.table]
        table_def = self.ctx.db.tree.table(self.table)
        fields, label = (heap.pk_field,), f"scan:{self.table}"
        for (pk,) in scan_matching(heap, table_def, self.predicates, fields, label):
            yield pk

    def _produce_batches(self, cap: int):
        """Vectorized scan: evaluate predicates column-at-a-time over one
        page's worth of records, emit surviving PKs as :class:`IdColumn`
        payloads.

        Hardware equivalence with the per-item path: flash reads stay one
        full read per page in the same order (yields only happen once
        ``cap`` survivors are buffered, exactly when the per-item window
        would fill), and CPU charges are the per-item totals bulked --
        predicate ``k`` is charged once per record that survived
        predicates ``1..k-1``, which is precisely what per-record
        short-circuiting pays.
        """
        heap = self.ctx.db.heaps[self.table]
        table_def = self.ctx.db.tree.table(self.table)
        plan = [
            (p, table_def.device_column_index(p.column))
            for p in self.predicates
        ]
        chip = self.ctx.device.chip
        codec = heap.codec
        pk_field = heap.pk_field
        out: list[int] = []
        with heap.reader(f"scan:{self.table}") as reader:
            slots, count = reader.extent.slots_per_page, reader.extent.count
            scan = reader.scan()
            try:
                rowid = 0
                while rowid < count:
                    take = min(slots, count - rowid)
                    # Pulling exactly the page's records leaves the scan
                    # generator suspended before the next page read.
                    alive = list(islice(scan, take))
                    rowid += take
                    for predicate, fidx in plan:
                        if not alive:
                            break
                        n = len(alive)
                        chip.charge("decode_field", n)
                        chip.charge("compare", n)
                        alive = [
                            raw
                            for raw in alive
                            if predicate.matches(codec.decode_field(raw, fidx))
                        ]
                    if alive:
                        chip.charge("decode_field", len(alive))
                        out.extend(
                            codec.decode_field(raw, pk_field) for raw in alive
                        )
                    while len(out) >= cap:
                        yield IdColumn.from_ids(out[:cap])
                        del out[:cap]
            finally:
                scan.close()
        if out:
            yield IdColumn.from_ids(out)
