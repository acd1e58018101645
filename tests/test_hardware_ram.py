"""RAM budget enforcement: the tiny-RAM constraint made real."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.pagecache import CacheStats, PageCache
from repro.hardware.ram import Allocation, RamBudget, RamExhaustedError
from repro.obs.flight import FlightRecorder


def test_allocate_and_release():
    budget = RamBudget(capacity=1000)
    alloc = budget.allocate(400, "op")
    assert budget.used == 400
    assert budget.available == 600
    alloc.release()
    assert budget.used == 0


def test_exceeding_budget_raises_with_context():
    budget = RamBudget(capacity=100)
    budget.allocate(80, "first")
    with pytest.raises(RamExhaustedError) as err:
        budget.allocate(40, "second")
    assert err.value.requested == 40
    assert err.value.available == 20
    assert err.value.label == "second"


def test_exact_fit_is_allowed():
    budget = RamBudget(capacity=100)
    budget.allocate(100, "all")
    assert budget.available == 0
    with pytest.raises(RamExhaustedError):
        budget.allocate(1, "one more byte")


def test_high_water_mark_tracks_peak():
    budget = RamBudget(capacity=1000)
    a = budget.allocate(600, "a")
    a.release()
    budget.allocate(300, "b")
    assert budget.high_water == 600


def test_context_manager_releases_on_exception():
    budget = RamBudget(capacity=100)
    with pytest.raises(RuntimeError):
        with budget.allocate(50, "cm"):
            raise RuntimeError("boom")
    assert budget.used == 0


def test_double_release_is_idempotent():
    budget = RamBudget(capacity=100)
    alloc = budget.allocate(50, "x")
    alloc.release()
    alloc.release()
    assert budget.used == 0


def test_resize_grow_and_shrink():
    budget = RamBudget(capacity=100)
    alloc = budget.allocate(20, "buf")
    alloc.resize(60)
    assert budget.used == 60
    alloc.resize(10)
    assert budget.used == 10
    alloc.release()
    assert budget.used == 0


def test_resize_beyond_budget_raises_and_preserves_state():
    budget = RamBudget(capacity=100)
    alloc = budget.allocate(50, "buf")
    with pytest.raises(RamExhaustedError):
        alloc.resize(200)
    assert budget.used == 50
    assert alloc.size == 50


def test_resize_after_release_rejected():
    budget = RamBudget(capacity=100)
    alloc = budget.allocate(10, "buf")
    alloc.release()
    with pytest.raises(ValueError, match="already released"):
        alloc.resize(20)


def test_negative_allocation_rejected():
    budget = RamBudget(capacity=100)
    with pytest.raises(ValueError):
        budget.allocate(-1, "neg")


def test_by_label_tracks_current_reservations():
    budget = RamBudget(capacity=1000)
    a = budget.allocate(100, "bloom")
    b = budget.allocate(50, "bloom")
    assert budget.by_label["bloom"] == 150
    a.release()
    assert budget.by_label["bloom"] == 50
    b.release()
    assert budget.by_label["bloom"] == 0


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=50)
)
def test_alloc_release_sequence_conserves_budget(sizes):
    """Property: after releasing everything, used returns to zero and
    high water never exceeded capacity."""
    budget = RamBudget(capacity=10_000)
    allocations: list[Allocation] = []
    for size in sizes:
        allocations.append(budget.allocate(size, "prop"))
    assert budget.used == sum(sizes)
    assert budget.high_water <= budget.capacity
    for alloc in allocations:
        alloc.release()
    assert budget.used == 0


def test_only_firm_refusals_journal_exhaustion():
    """A full budget refusing the buffer pool a page is the pool declining
    to cache it, not an exhaustion: only firm refusals are journalled."""
    flight = FlightRecorder()
    budget = RamBudget(capacity=4096, flight=flight)
    pool = PageCache(budget, page_size=2048, capacity_pages=None)
    held = budget.allocate(4096, "scan-buffer")
    pool.admit(7, b"\x00" * 2048)
    assert pool.stats == CacheStats()  # declined: nothing cached
    assert [e.kind for e in flight.events()] == []
    with pytest.raises(RamExhaustedError):
        budget.allocate(1024, "sort-buffer")
    kinds = [(e.kind, dict(e.data).get("label")) for e in flight.events()]
    # The pool holds no page to shed, so the firm refusal still raises.
    assert kinds == [
        ("ram_pressure", "sort-buffer"),
        ("ram_exhausted", "sort-buffer"),
    ]
    held.release()
