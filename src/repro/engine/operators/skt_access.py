"""SKT access: turn qualifying root IDs into full subtree key tuples.

"...finally accessing the SKT_Prescription to get the resulting tuples."
The incoming root IDs are sorted, so SKT rows are fetched in storage
order; dense hit patterns amortise full-page reads across many hits,
sparse ones use cheap partial reads.  The operator picks per page.
"""

from __future__ import annotations

from itertools import islice

from repro.engine.operators.base import ExecContext, Operator
from repro.index.skt import SubtreeKeyTable
from repro.storage.heap import KeyNotFoundError


class SktAccessOp(Operator):
    """Fetch SKT rows for a sorted stream of root IDs."""

    name = "access-skt"

    def __init__(
        self,
        ctx: ExecContext,
        skt: SubtreeKeyTable,
        child: Operator,
        expected_count: int | None = None,
    ):
        super().__init__(ctx, detail=f"SKT_{skt.root}", children=(child,))
        self.skt = skt
        self.child = child
        self.expected_count = expected_count

    def _open(self):
        self.reserve(self.ctx.device.profile.page_size)

    def _produce_batches(self, cap: int):
        """Resolve and fetch one child window of root IDs, then
        bulk-decode the subtree key tuples.

        Flash operations (PK binary-search probes, record fetches) happen
        per ID in child-stream order; only the per-record decode charges
        are bulked, so no window size moves a flash read.
        """
        skt = self.skt
        root_heap = self.ctx.db.heaps[skt.root]
        rows_per_page = skt.extent.slots_per_page
        # Dense enough that >=2 hits land on each page?  Then full-page
        # reads through the buffer pool win over per-row partial reads
        # -- but only when a pool exists to hold the page between hits.
        expected = self.expected_count
        use_cache = (
            self.ctx.device.page_cache.enabled
            and expected is not None
            and skt.extent.count > 0
            and expected / skt.extent.count >= 2 / rows_per_page
        )
        chip = self.ctx.device.chip
        ntables = len(skt.tables)
        rowid_for_pk = root_heap.rowid_for_pk
        with skt.reader("skt-access") as reader:
            fetch = reader.field_reader(
                0, reader.extent.record_width, full_page=use_cache
            )
            out: list[tuple] = []
            for batch in self.child.batches():
                raws = []
                for root_id in batch:
                    try:
                        rowid = rowid_for_pk(root_id)
                    except KeyNotFoundError:
                        continue
                    raws.append(fetch(rowid))
                if not raws:
                    continue
                chip.charge("decode_field", len(raws) * ntables)
                out.extend(map(skt.decode, raws))
                while len(out) >= cap:
                    yield out[:cap]
                    del out[:cap]
            if out:
                yield out


class SktScanOp(Operator):
    """Full SKT scan: the root of a pure Post-filtering plan.

    When no predicate produces a root ID list cheaply, the plan streams
    every subtree key tuple and lets Bloom probes do the filtering.
    """

    name = "scan-skt"

    def __init__(self, ctx: ExecContext, skt: SubtreeKeyTable):
        super().__init__(ctx, detail=f"SKT_{skt.root} (full scan)")
        self.skt = skt

    def _open(self):
        self.reserve(self.ctx.device.profile.page_size)

    def _produce_batches(self, cap: int):
        """One page's records at a time, decode charges bulked per
        page.  Page reads stay one full read per page in scan order, and a
        window is only ever cut at a page boundary."""
        skt = self.skt
        chip = self.ctx.device.chip
        ntables = len(skt.tables)
        out: list[tuple] = []
        with skt.reader("skt-scan") as reader:
            slots, count = reader.extent.slots_per_page, reader.extent.count
            scan = reader.scan()
            try:
                rowid = 0
                while rowid < count:
                    take = min(slots, count - rowid)
                    raws = list(islice(scan, take))
                    rowid += take
                    chip.charge("decode_field", len(raws) * ntables)
                    out.extend(map(skt.decode, raws))
                    while len(out) >= cap:
                        yield out[:cap]
                        del out[:cap]
            finally:
                scan.close()
        if out:
            yield out
