"""Column statistics and selectivity estimation."""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.statistics import (
    EXACT_THRESHOLD,
    HISTOGRAM_BUCKETS,
    ColumnStats,
    StatisticsCollector,
    _as_number,
)


def collect(values, name="c"):
    collector = StatisticsCollector("t", [name])
    for value in values:
        collector.add((value,))
    return collector.finish().column(name)


class TestExactFrequencies:
    def test_low_cardinality_keeps_exact_counts(self):
        col = collect(["a", "b", "a", "a"])
        assert col.frequencies == {"a": 3, "b": 1}
        assert col.n_distinct == 2
        assert col.row_count == 4

    def test_eq_selectivity_exact(self):
        col = collect(["a"] * 30 + ["b"] * 70)
        assert col.selectivity_eq("a") == pytest.approx(0.3)
        assert col.selectivity_eq("b") == pytest.approx(0.7)
        assert col.selectivity_eq("missing") == 0.0

    def test_range_selectivity_exact(self):
        col = collect([1, 2, 3, 4, 5] * 10)
        assert col.selectivity_range(2, 4) == pytest.approx(0.6)
        assert col.selectivity_range(None, 3) == pytest.approx(0.6)
        assert col.selectivity_range(3, None) == pytest.approx(0.6)
        assert col.selectivity_range(
            2, 4, include_low=False, include_high=False
        ) == pytest.approx(0.2)


class TestHistogram:
    def test_high_cardinality_uses_histogram(self):
        col = collect(list(range(1000)))
        assert col.frequencies is None
        assert col.histogram is not None
        assert col.n_distinct == 1000

    def test_uniform_range_estimate_close(self):
        col = collect(list(range(1000)))
        estimated = col.selectivity_range(250, 500)
        assert estimated == pytest.approx(0.25, abs=0.05)

    def test_open_range_estimates(self):
        col = collect(list(range(1000)))
        assert col.selectivity_range(None, None) == pytest.approx(1.0, abs=0.01)
        assert col.selectivity_range(900, None) == pytest.approx(0.1, abs=0.05)

    def test_date_histogram(self):
        values = [
            datetime.date(2006, 1, 1) + datetime.timedelta(days=i)
            for i in range(365)
        ]
        col = collect(values)
        estimated = col.selectivity_range(
            datetime.date(2006, 10, 1), None
        )
        assert estimated == pytest.approx(92 / 365, abs=0.05)

    def test_eq_on_histogram_uses_distinct_count(self):
        col = collect(list(range(500)))
        assert col.selectivity_eq(42) == pytest.approx(1 / 500)


class TestEdgeCases:
    def test_empty_column(self):
        col = collect([])
        assert col.selectivity_eq(1) == 0.0
        assert col.selectivity_range(None, None) == 0.0
        assert col.min_value is None

    def test_single_value(self):
        col = collect([7] * 10)
        assert col.min_value == 7 and col.max_value == 7
        assert col.selectivity_eq(7) == pytest.approx(1.0)
        assert col.selectivity_range(0, 100) == pytest.approx(1.0)
        assert col.selectivity_range(8, 100) == 0.0

    def test_min_max_tracked(self):
        col = collect([5, -3, 18, 0])
        assert col.min_value == -3
        assert col.max_value == 18

    def test_threshold_boundary(self):
        exact = collect(list(range(EXACT_THRESHOLD)))
        assert exact.frequencies is not None
        histo = collect(list(range(EXACT_THRESHOLD + 1)))
        assert histo.frequencies is None


@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=300),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_range_selectivity_is_a_probability(values, a, b):
    """Property: every estimate lies in [0, 1], whatever the data."""
    low, high = min(a, b), max(a, b)
    col = collect(values)
    sel = col.selectivity_range(low, high)
    assert 0.0 <= sel <= 1.0


@given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
def test_eq_selectivities_sum_to_one(values):
    """Property: exact frequencies sum to 1 over observed values."""
    col = collect(values)
    if col.frequencies is not None:
        total = sum(col.selectivity_eq(v) for v in set(values))
        assert total == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The histogram path equals the per-bucket loop it replaced
# ----------------------------------------------------------------------


def reference_histogram_range(col: ColumnStats, low, high) -> float:
    """``selectivity_range``'s former histogram path, kept as the
    reference: every bucket visited, both bounds converted per bucket."""
    if col.row_count == 0:
        return 0.0
    lo_n = _as_number(col.min_value)
    hi_n = _as_number(col.max_value)
    if hi_n <= lo_n:
        within = (low is None or _as_number(low) <= lo_n) and (
            high is None or _as_number(high) >= hi_n
        )
        return 1.0 if within else 0.0
    span = (hi_n - lo_n) / len(col.histogram)
    total = 0.0
    for i, count in enumerate(col.histogram):
        b_lo = lo_n + i * span
        b_hi = b_lo + span
        q_lo = _as_number(low) if low is not None else b_lo
        q_hi = _as_number(high) if high is not None else b_hi
        overlap = max(0.0, min(b_hi, q_hi) - max(b_lo, q_lo))
        if overlap > 0:
            total += count * (overlap / span)
    return min(1.0, total / col.row_count)


_DAY0 = datetime.date(2000, 1, 1)
_HISTOGRAM_VALUES = {
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(-1e9, 1e9, allow_nan=False),
    "date": st.integers(0, 20_000).map(
        lambda d: _DAY0 + datetime.timedelta(days=d)
    ),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_HISTOGRAM_VALUES)), data=st.data())
def test_histogram_range_equals_the_bucket_loop(kind, data):
    """Collected histograms: estimates are bit-identical (``==``) to the
    reference loop, for open, closed, inverted and out-of-range bounds."""
    values = data.draw(
        st.lists(
            _HISTOGRAM_VALUES[kind], min_size=EXACT_THRESHOLD + 1,
            max_size=300, unique=True,
        )
    )
    col = collect(values)
    assert col.histogram is not None
    bound = st.none() | st.sampled_from(values) | _HISTOGRAM_VALUES[kind]
    for _ in range(8):
        low, high = data.draw(bound), data.draw(bound)
        assert col.selectivity_range(low, high) == reference_histogram_range(
            col, low, high
        )


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e18, 1e18, allow_nan=False),
    width=st.floats(0, 1e18, allow_nan=False) | st.floats(0, 1e-6),
    histogram=st.lists(st.integers(0, 50), min_size=1, max_size=40),
    bounds=st.lists(
        st.none() | st.floats(-2e18, 2e18, allow_nan=False), min_size=2,
        max_size=2,
    ),
)
def test_histogram_range_exact_at_float_edges(lo, width, histogram, bounds):
    """Hand-built histograms over huge magnitudes, hair-thin spans and
    ``min == max``: the bucket run never drops a contributing bucket."""
    col = ColumnStats(
        column="c", row_count=sum(histogram) or 1, n_distinct=100,
        min_value=lo, max_value=lo + width, histogram=histogram,
    )
    low, high = bounds
    assert col.selectivity_range(low, high) == reference_histogram_range(
        col, low, high
    )


def test_histogram_range_with_min_equal_max():
    col = ColumnStats(
        column="c", row_count=10, n_distinct=100, min_value=5, max_value=5,
        histogram=[10] + [0] * (HISTOGRAM_BUCKETS - 1),
    )
    for low, high in ((None, None), (5, 5), (0, 4), (6, None), (None, 5)):
        assert col.selectivity_range(low, high) == reference_histogram_range(
            col, low, high
        )
