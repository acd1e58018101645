"""The device-side buffer pool (LRU page cache).

Three layers of guarantees:

* **Policy** (unit, direct :class:`PageCache`): admission and LRU
  promotion happen only on full-page reads; partial probes are served
  for free but never mutate cache state; invalidation, shedding and
  resizing keep the RAM-budget accounting exact.
* **Transparency** (hypothesis sweep): rows and observable USB traffic
  are bit-identical across every cache size x batch size combination --
  the pool is a device-private optimisation the wire must not betray.
* **Attribution and lifetime** (demo session): cold fills stamp the
  reading operator; the pool drops everything across remount and
  power-cut recovery (cached contents are volatile RAM).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghostdb import GhostDB, SessionConfig
from repro.engine.executor import ExecConfig
from repro.faults import PowerCutError
from repro.hardware.pagecache import CACHE_LABEL, PageCache
from repro.hardware.ram import RamBudget, RamExhaustedError
from repro.optimizer.space import enumerate_strategies
from repro.workload.queries import QUERY_FAMILIES, demo_query

from tests.test_engine_batches import hardware_counters
from tests.test_property_random import RandomSchema

PAGE = 512  # small unit-test page size; real profiles use 2048


def make_pool(capacity_pages, budget_pages=8):
    budget = RamBudget(capacity=budget_pages * PAGE)
    return PageCache(budget, PAGE, capacity_pages), budget


def fill(pool, lpages):
    for lpage in lpages:
        pool.admit(lpage, bytes([lpage % 251]) * PAGE)


# ---------------------------------------------------------------------------
# Policy: LRU over full-page reads only.
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_miss_admit_hit(self):
        pool, _ = make_pool(capacity_pages=4)
        assert pool.lookup(7, promote=True) is None
        fill(pool, [7])
        assert pool.lookup(7, promote=True) == bytes([7]) * PAGE
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)
        assert pool.stats.hit_rate == 0.5

    def test_full_read_promotes_lru(self):
        pool, _ = make_pool(capacity_pages=2)
        fill(pool, [1, 2])
        pool.lookup(1, promote=True)  # 1 becomes MRU
        fill(pool, [3])  # evicts 2, not 1
        assert pool.lookup(1, promote=True) is not None
        assert pool.lookup(2, promote=True) is None
        assert pool.stats.evictions == 1

    def test_partial_probe_never_reorders(self):
        pool, _ = make_pool(capacity_pages=2)
        fill(pool, [1, 2])
        # A partial probe is served but must not refresh page 1 ...
        assert pool.lookup(1, promote=False) is not None
        fill(pool, [3])  # ... so page 1 is still LRU and gets evicted
        assert pool.lookup(1, promote=False) is None
        assert pool.lookup(2, promote=False) is not None

    def test_admit_is_idempotent(self):
        pool, budget = make_pool(capacity_pages=4)
        fill(pool, [5])
        used = budget.used
        fill(pool, [5])
        assert pool.page_count == 1
        assert budget.used == used

    def test_admit_beyond_capacity_evicts_lru_first(self):
        pool, _ = make_pool(capacity_pages=3)
        fill(pool, [1, 2, 3, 4])
        assert pool.page_count == 3
        assert pool.lookup(1, promote=False) is None  # the LRU page went
        assert pool.lookup(4, promote=False) is not None

    def test_disabled_pool_never_caches(self):
        pool, budget = make_pool(capacity_pages=0)
        assert not pool.enabled
        fill(pool, [1])
        assert pool.page_count == 0
        assert budget.used == 0
        assert pool.lookup(1, promote=True) is None
        # A disabled pool does not even count misses: lookups would
        # otherwise differ cache-on vs cache-off in per-query metrics.
        assert pool.stats.lookups == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_pool(capacity_pages=-1)
        pool, _ = make_pool(capacity_pages=2)
        with pytest.raises(ValueError):
            pool.resize(-3)


# ---------------------------------------------------------------------------
# Invalidation, shedding, resizing: RAM accounting stays exact.
# ---------------------------------------------------------------------------


class TestRamAccounting:
    def test_invalidate_frees_budget(self):
        pool, budget = make_pool(capacity_pages=4)
        fill(pool, [1, 2])
        assert budget.used == 2 * PAGE
        pool.invalidate(1)
        assert pool.page_count == 1
        assert budget.used == PAGE
        assert pool.stats.invalidations == 1
        pool.invalidate(99)  # absent page: a no-op
        assert pool.stats.invalidations == 1

    def test_clear_drops_everything(self):
        pool, budget = make_pool(capacity_pages=4)
        fill(pool, [1, 2, 3])
        pool.clear()
        assert pool.page_count == 0
        assert budget.used == 0
        assert pool.stats.invalidations == 3

    def test_resize_down_evicts_lru_first(self):
        pool, budget = make_pool(capacity_pages=4)
        fill(pool, [1, 2, 3, 4])
        pool.resize(2)
        assert pool.page_count == 2
        assert budget.used == 2 * PAGE
        assert pool.lookup(1, promote=False) is None
        assert pool.lookup(4, promote=False) is not None

    def test_resize_zero_disables_and_clears(self):
        pool, budget = make_pool(capacity_pages=4)
        fill(pool, [1, 2])
        pool.resize(0)
        assert not pool.enabled
        assert pool.page_count == 0
        assert budget.used == 0

    def test_unbounded_pool_is_bounded_by_the_budget(self):
        pool, budget = make_pool(capacity_pages=None, budget_pages=4)
        fill(pool, range(6))
        assert pool.page_count == 4  # all the budget allows
        assert budget.used == budget.capacity
        assert pool.stats.evictions == 2  # LRU made room for the rest
        assert pool.lookup(0, promote=False) is None
        assert pool.lookup(5, promote=False) is not None

    def test_capacity_for_costing(self):
        pool, _ = make_pool(capacity_pages=3)
        assert pool.capacity_for_costing == 3
        pool.resize(0)
        assert pool.capacity_for_costing == 0
        pool.resize(None)
        assert pool.capacity_for_costing == 8  # budget // page size

    def test_cached_pages_excluded_from_high_water(self):
        pool, budget = make_pool(capacity_pages=None, budget_pages=4)
        fill(pool, range(4))
        assert budget.used == 4 * PAGE
        assert budget.high_water == 0  # reclaimable use is not working set
        with budget.allocate(PAGE, "operator"):
            assert budget.high_water == PAGE

    def test_firm_allocation_sheds_lru_pages(self):
        pool, budget = make_pool(capacity_pages=None, budget_pages=4)
        fill(pool, range(4))
        alloc = budget.allocate(2 * PAGE, "operator")  # pressure-hook shed
        assert pool.stats.shed_pages == 2
        assert pool.page_count == 2
        assert pool.lookup(0, promote=False) is None  # LRU went first
        assert pool.lookup(3, promote=False) is not None
        assert budget.used == budget.capacity
        alloc.release()

    def test_shedding_everything_still_raises_when_short(self):
        pool, budget = make_pool(capacity_pages=None, budget_pages=4)
        fill(pool, range(4))
        with pytest.raises(RamExhaustedError):
            budget.allocate(5 * PAGE, "operator")
        assert pool.page_count == 0  # the pool gave all it had
        assert pool.stats.shed_pages == 4
        assert budget.by_label[CACHE_LABEL] == 0


# ---------------------------------------------------------------------------
# Device integration: the FTL admits, serves and invalidates.
# ---------------------------------------------------------------------------


class TestFtlIntegration:
    def test_full_read_admits_and_rereads_hit(self, device):
        lpage = device.ftl.allocate()
        device.ftl.write(lpage, b"\xab" * device.profile.page_size)
        device.ftl.read(lpage)  # cold: flash pays, pool fills
        reads_after_cold = device.flash.stats.page_reads
        assert device.page_cache.page_count == 1
        data = device.ftl.read(lpage)  # warm: flash untouched
        assert data == b"\xab" * device.profile.page_size
        assert device.flash.stats.page_reads == reads_after_cold
        assert device.page_cache.stats.hits == 1

    def test_partial_read_served_from_pool_without_admitting(self, device):
        cold = device.ftl.allocate()
        device.ftl.write(cold, b"\xcd" * device.profile.page_size)
        # Partial probe of an uncached page: flash pays, pool stays empty.
        assert device.ftl.read(cold, 4, 8) == b"\xcd" * 8
        assert device.page_cache.page_count == 0
        # After a full read the same probe is free.
        device.ftl.read(cold)
        reads = device.flash.stats.page_reads
        assert device.ftl.read(cold, 4, 8) == b"\xcd" * 8
        assert device.flash.stats.page_reads == reads

    def test_write_invalidates_stale_content(self, device):
        lpage = device.ftl.allocate()
        device.ftl.write(lpage, b"\x01" * device.profile.page_size)
        device.ftl.read(lpage)
        device.ftl.write(lpage, b"\x02" * device.profile.page_size)
        assert device.page_cache.stats.invalidations == 1
        assert device.ftl.read(lpage) == (
            b"\x02" * device.profile.page_size
        )

    def test_free_invalidates(self, device):
        lpage = device.ftl.allocate()
        device.ftl.write(lpage, b"\x03" * device.profile.page_size)
        device.ftl.read(lpage)
        assert device.page_cache.page_count == 1
        device.ftl.free(lpage)
        assert device.page_cache.page_count == 0


# ---------------------------------------------------------------------------
# Transparency: cache size never changes rows or the wire; batch size
# never changes hardware behaviour at any cache size.
# ---------------------------------------------------------------------------

#: ``None`` in a spec means "resize to unbounded after load".
CACHE_SPECS = (0, 1, 8, None)
SWEEP_BATCHES = (1, 7, 256)


def _session(cache_spec, batch: int) -> GhostDB:
    db = GhostDB(
        config=SessionConfig(
            exec_config=ExecConfig(exec_batch=batch),
            cache_pages=cache_spec if cache_spec is not None else 0,
        )
    )
    return db


def _apply_unbounded(db: GhostDB) -> None:
    db.device.page_cache.resize(None)
    db.optimizer.cost_model.cache_pages = (
        db.device.page_cache.capacity_for_costing
    )


def usb_counters(metrics) -> tuple:
    return (
        metrics.usb_messages,
        metrics.usb_bytes_to_device,
        metrics.usb_bytes_to_host,
    )


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=1, max_value=500))
def test_cache_and_batch_sweep_on_random_queries(seed):
    """Rows and USB traffic are invariant across {cache x batch}; all
    hardware counters and the simulated clock are invariant across batch
    sizes within a cache size.

    The execution strategy is pinned to the first enumerated candidate:
    the cost model legitimately prefers different plans at different
    cache sizes, and USB bit-identity is a per-plan guarantee.
    """
    schema = RandomSchema(seed)
    ddl = schema.ddl()
    data = schema.data()
    query_rng = random.Random(seed * 1000)
    queries = [schema.random_query(query_rng) for _ in range(2)]

    runs = {}
    for cache_spec in CACHE_SPECS:
        for batch in SWEEP_BATCHES:
            db = _session(cache_spec, batch)
            for statement in ddl:
                db.execute(statement)
            db.load(data)
            if cache_spec is None:
                _apply_unbounded(db)
            outcomes = []
            for sql in queries:
                db.reset_measurements()
                bound = db.bind(sql)
                strategy = enumerate_strategies(bound)[0]
                result = db.query_with_strategy(sql, strategy)
                outcomes.append((result.rows, result.metrics))
            runs[(cache_spec, batch)] = outcomes

    ref_rows, ref_usb = None, None
    for (cache_spec, batch), outcomes in runs.items():
        for q, (rows, metrics) in enumerate(outcomes):
            label = f"seed={seed} cache={cache_spec} batch={batch} q#{q}"
            if ref_rows is None:
                ref_rows, ref_usb = {}, {}
            if q not in ref_rows:
                ref_rows[q], ref_usb[q] = rows, usb_counters(metrics)
            assert rows == ref_rows[q], label
            assert usb_counters(metrics) == ref_usb[q], label

    for cache_spec in CACHE_SPECS:
        reference = runs[(cache_spec, SWEEP_BATCHES[0])]
        for batch in SWEEP_BATCHES[1:]:
            for q, ((_, ref_m), (_, m)) in enumerate(
                zip(reference, runs[(cache_spec, batch)])
            ):
                label = f"seed={seed} cache={cache_spec} batch={batch} q#{q}"
                assert hardware_counters(m) == hardware_counters(ref_m), label
                assert (m.cache_hits, m.cache_misses) == (
                    ref_m.cache_hits,
                    ref_m.cache_misses,
                ), label
                assert math.isclose(
                    m.elapsed_seconds,
                    ref_m.elapsed_seconds,
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                ), label


def test_disabled_cache_records_no_lookups(fresh_session):
    fresh_session.set_cache(0)
    fresh_session.reset_measurements()
    result = fresh_session.query(demo_query())
    assert result.metrics.cache_hits == 0
    assert result.metrics.cache_misses == 0


# ---------------------------------------------------------------------------
# Attribution: cold fills stamp the operator that did the reading.
# ---------------------------------------------------------------------------


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def _run_measured(session, sql):
    bound = session.bind(sql)
    ranked = session.optimizer.optimize(bound)
    result = session.execute_plan(ranked.plan)
    return ranked.plan, result


def test_cache_lookups_attributed_to_reading_operators(fresh_session):
    sql = QUERY_FAMILIES["hidden-range"]
    fresh_session.reset_measurements()
    plan, result = _run_measured(fresh_session, sql)
    assert result.metrics.cache_hits > 0, "query must exercise the pool"

    node_hits = node_misses = 0
    for node in _walk(plan):
        measured = result.measured.get(id(node))
        if measured is None:
            continue
        node_hits += measured.cache_hits
        node_misses += measured.cache_misses
        # A cold fill is a flash read: any operator stamped with misses
        # must also be stamped with the reads that filled the pool.
        if measured.cache_misses:
            assert measured.flash_page_reads >= 1, node.label()
    assert node_hits == result.metrics.cache_hits
    assert node_misses == result.metrics.cache_misses


def test_no_cache_attribution_with_pool_disabled(fresh_session):
    fresh_session.set_cache(0)
    fresh_session.reset_measurements()
    plan, result = _run_measured(fresh_session, QUERY_FAMILIES["hidden-range"])
    assert result.measured
    for node in _walk(plan):
        measured = result.measured.get(id(node))
        if measured is None:
            continue
        assert measured.cache_hits == 0, node.label()
        assert measured.cache_misses == 0, node.label()


# ---------------------------------------------------------------------------
# Lifetime: cached pages are volatile RAM and die with the power.
# ---------------------------------------------------------------------------


def _warm_pool(session, n_pages=3):
    """Fill the pool with full reads of real heap pages.

    Queries may legitimately end with nothing resident (their own firm
    reservations shed the pool), so lifetime tests warm it directly.
    """
    heap = session.hidden.heaps["prescription"]
    with session.statement():
        for lpage in heap.extent.pages[:n_pages]:
            session.device.ftl.read(lpage)
    assert session.device.page_cache.page_count > 0


def test_remount_drops_the_pool(fresh_session):
    session = fresh_session
    reference = session.query(demo_query())
    _warm_pool(session)
    session.remount()
    assert session.device.page_cache.page_count == 0
    result = session.query(demo_query())
    assert result.rows == reference.rows


def test_power_cut_recovery_invalidates_the_pool(fresh_session):
    session = fresh_session
    reference = session.query(demo_query())
    _warm_pool(session)

    injector = session.set_faults("none", seed=0)
    injector.schedule_power_cut(at_flash_op=8)
    with pytest.raises(PowerCutError):
        session.query(demo_query())
    session.clear_faults()
    session.remount()
    assert session.device.page_cache.page_count == 0

    result = session.query(demo_query())
    assert result.rows == reference.rows


def test_power_loss_empties_every_sessions_pool(fresh_session):
    """A lease's pool is volatile RAM too: after a power cut and a
    remount it is empty, silently, and its re-run costs what a fresh
    lease's first run costs."""
    db = fresh_session
    sql = QUERY_FAMILIES["hidden-range"]
    warm = db.open_session("warm", 16384)
    warm.query(sql)
    assert warm.device.page_cache.page_count > 0

    db.set_faults("none").schedule_power_cut(at_flash_op=3)
    with pytest.raises(PowerCutError):
        warm.query(sql)
    db.clear_faults()
    invalidations = warm.device.page_cache.stats.invalidations
    events = len(db.obs.flight)
    db.remount()
    assert warm.device.page_cache.page_count == 0
    assert warm.lease.ram.used == 0
    assert warm.device.page_cache.stats.invalidations == invalidations
    assert all(
        event.kind != "cache_invalidate"
        for event in db.obs.flight.events()[events:]
    )

    rerun = warm.query(sql)
    first = db.open_session("cold", 16384).query(sql)
    assert rerun.rows == first.rows
    assert hardware_counters(rerun.metrics) == hardware_counters(first.metrics)
    assert rerun.metrics.time == first.metrics.time


def test_reset_measurements_starts_cold(fresh_session):
    session = fresh_session
    session.query(demo_query())
    _warm_pool(session)
    session.reset_measurements()
    assert session.device.page_cache.page_count == 0
    assert session.device.page_cache.stats.lookups == 0
