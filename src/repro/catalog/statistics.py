"""Per-column statistics for the cost model.

The optimizer's Pre-vs-Post-filtering decision hinges on *selectivity*
estimates (paper, Section 4: "If, however, the selectivity of a visible
selection is low, traversing the climbing indexes may be a poor choice").
We collect the classical minimum: row counts, per-column distinct counts,
min/max, and either an exact value-frequency map (low-cardinality columns)
or an equi-width histogram (everything else).

Statistics describe *visible* columns too: the PC computes them at load
time and shares them with the optimizer.  That reveals nothing new -- the
spy already sees all visible data.
"""

from __future__ import annotations

import datetime
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.storage.types import date_to_days

#: Columns with at most this many distinct values keep exact frequencies.
EXACT_THRESHOLD = 64

#: Number of buckets in equi-width histograms.
HISTOGRAM_BUCKETS = 32


def _as_number(value) -> float:
    """Map a value to the number line for histogram bucketing."""
    if isinstance(value, datetime.date):
        return float(date_to_days(value))
    if isinstance(value, str):
        # Strings only ever get exact frequency maps; this fallback keys
        # the histogram on a coarse prefix ordering just in case.
        raw = value.encode("utf-8")[:8].ljust(8, b"\x00")
        return float(int.from_bytes(raw, "big"))
    return float(value)


@dataclass
class ColumnStats:
    """Summary of one column's value distribution."""

    column: str
    row_count: int = 0
    n_distinct: int = 0
    min_value: object = None
    max_value: object = None
    #: value -> count, only for low-cardinality columns.
    frequencies: dict | None = None
    #: equi-width bucket counts over [min, max], otherwise.
    histogram: list[int] | None = None

    def selectivity_eq(self, value) -> float:
        """Estimated fraction of rows where column = value."""
        if self.row_count == 0:
            return 0.0
        if self.frequencies is not None:
            return self.frequencies.get(value, 0) / self.row_count
        if self.n_distinct:
            return 1.0 / self.n_distinct
        return 0.0

    def selectivity_range(self, low, high, include_low=True, include_high=True) -> float:
        """Estimated fraction of rows with low <= column <= high.

        ``low``/``high`` may be ``None`` for open ends.  Inclusivity only
        matters for the exact-frequency path.
        """
        if self.row_count == 0:
            return 0.0
        if self.frequencies is not None:
            total = 0
            for value, count in self.frequencies.items():
                above_low = (
                    low is None
                    or value > low
                    or (include_low and value == low)
                )
                below_high = (
                    high is None
                    or value < high
                    or (include_high and value == high)
                )
                if above_low and below_high:
                    total += count
            return total / self.row_count
        if self.histogram is None or self.min_value is None:
            return 1.0
        lo_n = _as_number(self.min_value)
        hi_n = _as_number(self.max_value)
        if hi_n <= lo_n:
            within = (low is None or _as_number(low) <= lo_n) and (
                high is None or _as_number(high) >= hi_n
            )
            return 1.0 if within else 0.0
        buckets = len(self.histogram)
        span = (hi_n - lo_n) / buckets
        q_lo = _as_number(low) if low is not None else -math.inf
        q_hi = _as_number(high) if high is not None else math.inf
        # Bucket edges rise with i, so the buckets the range overlaps
        # are one run: those ending above q_lo and starting below q_hi.
        # Every other bucket adds nothing, and the run is summed in
        # bucket order, so skipping the rest leaves the estimate exact.
        first = bisect_right(
            range(buckets), q_lo, key=lambda i: lo_n + i * span + span
        )
        end = bisect_left(range(buckets), q_hi, key=lambda i: lo_n + i * span)
        total = 0.0
        for i in range(first, end):
            b_lo = lo_n + i * span
            b_hi = b_lo + span
            overlap = max(0.0, min(b_hi, q_hi) - max(b_lo, q_lo))
            if overlap > 0:
                total += self.histogram[i] * (overlap / span)
        return min(1.0, total / self.row_count)


@dataclass
class TableStats:
    """Row count plus per-column stats for one table."""

    table: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise KeyError(
                f"no statistics for {self.table}.{name}"
            ) from None


class StatisticsCollector:
    """Single-pass stats builder: feed rows, then :meth:`finish`.

    A pass keeps only each column's value counts; :meth:`finish` takes
    min and max from the distinct values, which gives the bounds a
    running comparison of every value would.
    """

    def __init__(self, table: str, column_names: list[str]):
        self.table = table
        self.names = [n.lower() for n in column_names]
        self._counts: list[dict] = [{} for _ in column_names]
        self._row_count = 0

    def add(self, row) -> None:
        self._row_count += 1
        for counts, value in zip(self._counts, row):
            counts[value] = counts.get(value, 0) + 1

    def finish(self) -> TableStats:
        stats = TableStats(table=self.table, row_count=self._row_count)
        for name, counts in zip(self.names, self._counts):
            lo, hi = (min(counts), max(counts)) if counts else (None, None)
            col = ColumnStats(
                column=name,
                row_count=self._row_count,
                n_distinct=len(counts),
                min_value=lo,
                max_value=hi,
            )
            if len(counts) <= EXACT_THRESHOLD:
                col.frequencies = dict(counts)
            else:
                col.histogram = self._build_histogram(counts, lo, hi)
            stats.columns[name] = col
        return stats

    @staticmethod
    def _build_histogram(counts: dict, low, high) -> list[int]:
        lo = _as_number(low)
        hi = _as_number(high)
        buckets = [0] * HISTOGRAM_BUCKETS
        if hi <= lo:
            buckets[0] = sum(counts.values())
            return buckets
        span = (hi - lo) / HISTOGRAM_BUCKETS
        for value, count in counts.items():
            idx = int((_as_number(value) - lo) / span)
            idx = min(idx, HISTOGRAM_BUCKETS - 1)
            buckets[idx] += count
        return buckets
