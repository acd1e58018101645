"""Bloom-filter post-filtering (paper, Figure 5).

On first pull the operator asks the PC to evaluate the visible predicate
and folds the returned ID stream into a RAM-resident Bloom filter (sized
for the expected cardinality at the context's target false-positive
rate).  It then streams its child's subtree key tuples through the
filter, keeping tuples whose key for the filtered table *may* match.

False positives survive here by design; projection removes them when the
PC re-checks the predicate while serving visible values.  False negatives
are impossible, so results stay complete.
"""

from __future__ import annotations

from repro.columns import ID_WIDTH
from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.index.bloom import BloomFilter
from repro.sql.binder import Predicate


class BloomProbeOp(Operator):
    name = "bloom-filter"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        predicate: Predicate,
        key_position: int,
        expected_ids: int | None = None,
    ):
        super().__init__(ctx, detail=predicate.describe(), children=(child,))
        if predicate.hidden:
            raise PlanExecutionError(
                f"{predicate.describe()} is hidden; Bloom filters are "
                f"built from *visible* selections only"
            )
        self.child = child
        self.predicate = predicate
        self.key_position = key_position
        self.expected_ids = expected_ids
        #: Exposed after execution for the demo popups.
        self.bloom_stats: dict | None = None

    def _build_filter(self) -> BloomFilter:
        link = self.ctx.link
        expected = self.expected_ids
        if expected is None:
            # Ask the host for the exact cardinality: one tiny round trip
            # that lets the device size the filter correctly.
            expected = link.count_ids(self.predicate.table, self.predicate)
        bloom = BloomFilter.for_expected(
            self.ctx.device,
            max(1, expected),
            target_fp=self.ctx.bloom_fp_target,
            label=f"bloom:{self.predicate.table}.{self.predicate.column}",
        )
        self.reserve(bloom.ram_bytes + link.id_batch * ID_WIDTH)
        # One bulk insert per USB message: identical cycle totals and
        # message timing, without the per-ID call overhead on the host.
        for chunk in link.select_id_batches(self.predicate.table, self.predicate):
            bloom.insert_many(chunk)
        self.bloom_stats = {
            "bits": bloom.bits,
            "hashes": bloom.hashes,
            "inserted": bloom.inserted,
            "expected_fp_rate": bloom.expected_fp_rate(),
            "ram_bytes": bloom.ram_bytes,
        }
        self.stats.attrs.update(self.bloom_stats)
        return bloom

    def _produce_batches(self, cap: int):
        """One bulk Bloom probe per child window (the cycle totals of
        per-row probes), survivors buffered and re-windowed to ``cap``."""
        bloom = self._build_filter()
        probed = passed = 0
        key_position = self.key_position
        out: list = []
        try:
            for batch in self.child.batches():
                rows = list(batch) if not isinstance(batch, list) else batch
                probed += len(rows)
                verdicts = bloom.probe_many(row[key_position] for row in rows)
                kept = [row for row, ok in zip(rows, verdicts) if ok]
                passed += len(kept)
                out.extend(kept)
                while len(out) >= cap:
                    yield out[:cap]
                    del out[:cap]
            if out:
                yield out
        finally:
            bloom.close()
            self.stats.attrs["probed"] = probed
            self.stats.attrs["passed"] = passed
            self.ctx.bump("bloom_probed", probed)
            self.ctx.bump("bloom_passed", passed)
