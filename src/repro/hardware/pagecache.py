"""Device-side buffer pool: an LRU cache of logical flash pages.

The secure chip's RAM is the scarcest resource on the key, but whatever
slice of it a query leaves idle can hold recently read flash pages -- the
climbing-index posting extents and SKT pages that dominate re-scan-heavy
workloads are re-read from simulated NAND on every pass otherwise.  The
cache lives *inside* the :class:`~repro.hardware.ram.RamBudget` as a
reclaimable allocation: it competes with operator reservations, is shed
page-by-page when a firm reservation needs the room, and is excluded
from the high-water mark (opportunistic reuse of idle RAM must not
change a query's reported working set).

Privacy: the cache sits strictly below the FTL's logical-page interface,
on the device side of the USB link.  A hit skips the flash read (no
simulated-time charge, no flash counter, no fault-injection decision)
but never changes what crosses the wire -- observable USB traffic is
bit-identical cache-on vs cache-off, which the leakage meter's gate
verifies.

Policy: pages are admitted and LRU-promoted only on *full-page* reads;
partial reads (single-record probes) may be served from a cached page
for free but never mutate cache state.  This keeps hit/miss behaviour a
function of the *set* of pages fully read, not of the interleaving of
partial probes -- and operator interleaving is the one thing the
host-side batch window is allowed to change, so this is what keeps
hardware counters bit-identical across batch sizes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.hardware.ram import Allocation, RamBudget, RamExhaustedError
from repro.obs.registry import MetricsRegistry

#: RAM-budget label under which the pool's pages are accounted.
CACHE_LABEL = "page-cache"


@dataclass
class CacheStats:
    """Integer counters, cheap enough to sample per batch window."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    shed_pages: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        looked = self.lookups
        return self.hits / looked if looked else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            shed_pages=self.shed_pages,
        )


class PageCache:
    """LRU pool of full logical pages, allocated from the RAM budget.

    ``capacity_pages`` bounds the pool: ``0`` disables caching entirely,
    ``None`` means unbounded (the RAM budget is then the only limit).
    Either way the pool never holds RAM the budget did not grant.
    """

    def __init__(
        self,
        budget: RamBudget,
        page_size: int,
        capacity_pages: int | None,
        metrics: MetricsRegistry | None = None,
    ):
        if capacity_pages is not None and capacity_pages < 0:
            raise ValueError("cache capacity cannot be negative")
        self.page_size = page_size
        self.capacity_pages = capacity_pages
        self.metrics = metrics
        #: Optional session flight recorder; journals shed and
        #: invalidation episodes for postmortems (set by the device).
        self.flight = None
        self.stats = CacheStats()
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._alloc: Allocation | None = None
        # Bound counter children -- one registry resolution per name
        # instead of one per event.
        self._bound: dict = {}
        # The pool is probed per flash read, so a lookup only bumps
        # these plain integers; :meth:`settle_metrics` folds them into
        # the hit and miss families before every registry read.
        self._unsettled_hits = 0
        self._unsettled_misses = 0
        if metrics is not None:
            metrics.add_settler(self.settle_metrics)
        self._attach(budget)

    # ------------------------------------------------------------------
    # Budget wiring
    # ------------------------------------------------------------------

    def _attach(self, budget: RamBudget) -> None:
        self.budget = budget
        self._alloc = budget.allocate(0, CACHE_LABEL, reclaimable=True)
        budget.pressure_hook = self.shed

    def rewire(self, budget: RamBudget) -> None:
        """Adopt a fresh budget after a remount.

        The old budget object (and the allocation registered with it) is
        discarded wholesale by the remount, so only this side needs
        resetting; cached contents are volatile RAM and are gone.
        """
        self._pages.clear()
        self._attach(budget)
        self._gauge()

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.capacity_pages != 0

    @property
    def capacity_for_costing(self) -> int:
        """Capacity as a plain int for the cost model: ``0`` when the
        pool is off, a budget-sized bound when it is unbounded."""
        if self.capacity_pages is None:
            return max(1, self.budget.capacity // self.page_size)
        return self.capacity_pages

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def lookup(self, lpage: int, promote: bool) -> bytes | None:
        """The cached content of ``lpage``, or None on a miss.

        ``promote`` marks full-page reads: only those refresh LRU order
        (and only those admit on a miss, via :meth:`admit`).  Partial
        probes are served for free but leave the LRU order untouched, so
        cache state depends only on which pages were fully read.
        """
        if not self.enabled:
            return None
        data = self._pages.get(lpage)
        if data is None:
            self.stats.misses += 1
            self._unsettled_misses += 1
            return None
        if promote:
            self._pages.move_to_end(lpage)
        self.stats.hits += 1
        self._unsettled_hits += 1
        return data

    def admit(self, lpage: int, data: bytes) -> None:
        """Insert a fully read page, evicting LRU pages as needed.

        Admission is best-effort: if the RAM budget cannot grant another
        page even after evicting everything else, the page simply is not
        cached (correctness never depends on a hit).
        """
        if not self.enabled or lpage in self._pages:
            return
        if (
            self.capacity_pages is not None
            and len(self._pages) >= self.capacity_pages
        ):
            self._evict_lru(count=len(self._pages) - self.capacity_pages + 1)
        while True:
            try:
                self._alloc.resize(self._alloc.size + self.page_size)
                break
            except RamExhaustedError:
                if not self._pages:
                    return
                self._evict_lru(count=1)
        self._pages[lpage] = data
        self._gauge()

    # ------------------------------------------------------------------
    # Invalidation / shedding
    # ------------------------------------------------------------------

    def invalidate(self, lpage: int) -> None:
        """Drop ``lpage`` (its logical content changed or was freed)."""
        if self._pages.pop(lpage, None) is not None:
            self.stats.invalidations += 1
            self._count("ghostdb_cache_invalidations_total")
            if self.flight is not None:
                self.flight.record("cache_invalidate", pages=1)
            self._alloc.resize(self._alloc.size - self.page_size)
            self._gauge()

    def clear(self) -> None:
        """Drop every cached page (remount, measurement reset)."""
        dropped = len(self._pages)
        self._pages.clear()
        if dropped:
            self.stats.invalidations += dropped
            self._count("ghostdb_cache_invalidations_total", dropped)
            if self.flight is not None:
                self.flight.record("cache_invalidate", pages=dropped)
        if self._alloc is not None and not self._alloc.released:
            self._alloc.resize(0)
        self._gauge()

    def shed(self, nbytes: int) -> int:
        """Free at least ``nbytes`` by evicting LRU pages, if possible.

        Registered as the budget's pressure hook: a firm reservation
        that would overflow the budget sheds cache pages first and only
        raises :class:`RamExhaustedError` if the cache cannot cover it.
        """
        freed = 0
        while freed < nbytes and self._pages:
            self._pages.popitem(last=False)
            self._alloc.resize(self._alloc.size - self.page_size)
            freed += self.page_size
            self.stats.shed_pages += 1
            self._count("ghostdb_cache_shed_pages_total")
        if freed:
            if self.flight is not None:
                self.flight.record(
                    "cache_shed",
                    pages=freed // self.page_size,
                    bytes=freed,
                )
            self._gauge()
        return freed

    def resize(self, capacity_pages: int | None) -> None:
        """Change the page bound; ``0`` disables and drops everything."""
        if capacity_pages is not None and capacity_pages < 0:
            raise ValueError("cache capacity cannot be negative")
        self.capacity_pages = capacity_pages
        if capacity_pages == 0:
            self.clear()
        elif (
            capacity_pages is not None and len(self._pages) > capacity_pages
        ):
            self._evict_lru(count=len(self._pages) - capacity_pages)
            self._gauge()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _evict_lru(self, count: int) -> None:
        for _ in range(count):
            if not self._pages:
                return
            self._pages.popitem(last=False)
            self._alloc.resize(self._alloc.size - self.page_size)
            self.stats.evictions += 1
            self._count("ghostdb_cache_evictions_total")

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is None:
            return
        bound = self._bound.get(name)
        if bound is None:
            bound = self.metrics.counter(name).labelled()
            self._bound[name] = bound
        bound.inc(amount)

    def settle_metrics(self) -> None:
        """Fold the unsettled lookup tallies into the registry.  Both
        families register with the first lookup counted, hit or miss."""
        hits, misses = self._unsettled_hits, self._unsettled_misses
        if not (hits or misses):
            return
        self._unsettled_hits = self._unsettled_misses = 0
        hit_family = self.metrics.counter("ghostdb_cache_hits_total")
        miss_family = self.metrics.counter("ghostdb_cache_misses_total")
        if hits:
            hit_family.inc(hits)
        if misses:
            miss_family.inc(misses)

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("ghostdb_cache_pages").set(len(self._pages))

    def __repr__(self) -> str:
        cap = (
            "unbounded"
            if self.capacity_pages is None
            else f"{self.capacity_pages}p"
        )
        return (
            f"PageCache({len(self._pages)} pages, cap={cap}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
