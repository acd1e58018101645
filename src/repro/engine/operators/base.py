"""Operator base class, execution context and time attribution.

Physical operators are pull-based generators producing *batches*: the
transport surface is :meth:`Operator.batches`, which drains the
operator's ``_produce_batches()`` into windows of at most
``ExecContext.exec_batch`` items (default 256).  All costs land on the
device's single simulated clock; to produce the per-operator "popup"
statistics the demo shows, the executor attributes clock advances to
whichever operator is currently on top of the execution stack -- a parent
iterating its child is off the top while the child runs, so each operator
accumulates only its *own* time.  Attribution marks happen once per
batch window, not once per tuple, which is what makes large scans cheap
on the host: batching is purely a host-side execution detail and must
never change what the simulated device does.

Operators follow an explicit lifecycle: ``open()`` (declare static RAM
reservations, recursively), ``batches()`` / ``unbatched()`` / ``rows()``
(produce), ``close()`` (deterministically tear down every live producer
-- including subtrees short-circuited by a parent such as ``Limit`` --
and stamp end times).  A declared reservation is a peak kept on the
operator's stats; it outlives ``close()``.

Consumers choose between two pull surfaces:

* :meth:`Operator.batches` / :meth:`Operator.rows` -- attribution-marked
  windows.  A window pulls up to ``exec_batch`` items from the producer,
  so it may run the producer *ahead* of the consumer; only correct when
  the consumer drains the operator completely (or bounds demand exactly
  via ``batches(limit=...)``).
* :meth:`Operator.unbatched` -- unmarked per-item pulls whose costs
  attribute to whichever operator currently holds the attribution stack.
  For consumers with data-dependent demand (merge-intersect abandoning
  arms, aggregation breaking on RAM exhaustion) where running the
  producer ahead would change hardware counters.

The two exact-demand edges (``unbatched()`` and ``batches(limit=...)``)
pull the per-item ``_produce()``.  The plan shapes
(:mod:`repro.engine.plan`) only put ID streams and value rows on them,
so the subtree-key-tuple operators define ``_produce_batches()`` alone;
pulling one of them with exact demand raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from repro.engine.metrics import OperatorStats
from repro.hardware.clock import TICKS_PER_SECOND
from repro.hardware.device import SmartUsbDevice
from repro.index.bloom import BLOOM_FP_TARGET
from repro.storage.runs import fan_in_for
from repro.visible.link import DeviceLink

if TYPE_CHECKING:
    from repro.engine.database import HiddenDatabase


class PlanExecutionError(RuntimeError):
    """A plan could not be executed (bad shape, missing index, ...)."""


class TimeAttribution:
    """Attributes simulated-clock (and wall-clock) advances to the
    active operator, and stamps each operator's first-pull / last-exit
    times on both timelines so the tracer can rebuild nested spans."""

    def __init__(self, device: SmartUsbDevice):
        self.device = device
        self._stack: list[OperatorStats] = []
        self._clock = device.clock
        #: How many times :meth:`_mark` has run -- the per-batch (was:
        #: per-tuple) overhead the batch protocol exists to amortise.
        self.marks = 0
        # Simulated readings are integer clock ticks: deltas are exact,
        # so per-operator self times partition elapsed time exactly.
        self._last_wall = time.perf_counter()
        self._last = 0
        self._last_flash = 0
        self._last_usb = 0
        self._last_reads = 0
        self._last_writes = 0
        self._last_msgs = 0
        self._last_hits = 0
        self._last_misses = 0
        self._mark()

    def _mark(self) -> None:
        self.marks += 1
        ticks = self._clock.live_ticks()
        flash_now = (
            ticks["flash_read"] + ticks["flash_write"] + ticks["flash_erase"]
        )
        usb_now = ticks["usb"]
        now = flash_now + usb_now + ticks["cpu"]
        wall = time.perf_counter()
        flash_stats = self.device.flash.stats
        reads = flash_stats.page_reads
        writes = flash_stats.page_writes
        msgs = self.device.usb.message_count
        # Sample the buffer pool through the device, not a cached object:
        # reset_measurements() swaps in fresh stats objects.
        cache_stats = self.device.page_cache.stats
        hits = cache_stats.hits
        misses = cache_stats.misses
        if self._stack:
            top = self._stack[-1]
            top.self_seconds += (now - self._last) / TICKS_PER_SECOND
            top.self_wall_seconds += wall - self._last_wall
            top.self_flash_seconds += (
                (flash_now - self._last_flash) / TICKS_PER_SECOND
            )
            top.self_usb_seconds += (usb_now - self._last_usb) / TICKS_PER_SECOND
            top.flash_page_reads += reads - self._last_reads
            top.flash_page_writes += writes - self._last_writes
            top.usb_messages += msgs - self._last_msgs
            top.cache_hits += hits - self._last_hits
            top.cache_misses += misses - self._last_misses
        self._last = now
        self._last_wall = wall
        self._last_flash = flash_now
        self._last_usb = usb_now
        self._last_reads = reads
        self._last_writes = writes
        self._last_msgs = msgs
        self._last_hits = hits
        self._last_misses = misses

    def sim_now(self) -> float:
        """The simulated clock right now, without attributing anything."""
        return self._clock.now

    def stamp_start(self, stats: OperatorStats) -> None:
        """Stamp an operator's first pull without an attribution window.

        Used by :meth:`Operator.unbatched`, whose per-item costs attribute
        to the consumer on the stack but whose span still needs bounds.
        """
        if stats.started_sim is None:
            stats.started_sim = self.sim_now()
            stats.started_wall = time.perf_counter()

    def stamp_end(self, stats: OperatorStats) -> None:
        """Stamp an operator's last activity (exhaustion or teardown)."""
        if stats.started_sim is not None:
            stats.ended_sim = self.sim_now()
            stats.ended_wall = time.perf_counter()

    def enter(self, stats: OperatorStats) -> None:
        self._mark()
        if stats.started_sim is None:
            stats.started_sim = self._last / TICKS_PER_SECOND
            stats.started_wall = self._last_wall
        self._stack.append(stats)

    def exit(self, stats: OperatorStats) -> None:
        self._mark()
        if not self._stack or self._stack[-1] is not stats:
            raise PlanExecutionError(
                f"time-attribution stack corrupted around {stats.name!r}"
            )
        stats.ended_sim = self._last / TICKS_PER_SECOND
        stats.ended_wall = self._last_wall
        self._stack.pop()


@dataclass
class ExecContext:
    """Everything an operator needs to run on the hidden side."""

    device: SmartUsbDevice
    link: DeviceLink | None
    db: HiddenDatabase | None
    attribution: TimeAttribution | None = None
    operators: list[OperatorStats] = field(default_factory=list)
    #: Each lowered plan node's operator stats, keyed by ``id(node)``.
    #: The execution owns its measurements; the plan stays read-only.
    measured: dict[int, OperatorStats] = field(default_factory=dict)
    #: Free-form execution counters operators bump (Bloom probe counts,
    #: recheck drops, ...); the executor folds them into the metrics
    #: registry and the query span.
    counters: dict[str, int] = field(default_factory=dict)
    #: Target false-positive rate when sizing Bloom filters.
    bloom_fp_target: float = BLOOM_FP_TARGET
    #: Items per attribution-marked batch window (host-side only: must
    #: never change simulated behaviour).  The executor pins this to 1
    #: for plans whose demand is data-dependent (LIMIT, fault runs).
    exec_batch: int = 256

    def __post_init__(self):
        if self.attribution is None:
            self.attribution = TimeAttribution(self.device)

    def fan_in(self) -> int:
        """Merge fan-in affordable right now
        (:func:`~repro.storage.runs.fan_in_for` of the free RAM)."""
        # soft_available: clean cache pages shed on demand, so sizing
        # (and thus plan shape) never depends on cache occupancy.
        return fan_in_for(
            self.device.ram.soft_available, self.device.profile.page_size
        )

    def register(self, stats: OperatorStats) -> None:
        self.operators.append(stats)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Accumulate one named execution counter for this query."""
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Operator:
    """Base class: subclasses implement ``_produce()`` and/or
    ``_produce_batches()`` as generators and pass their input operators
    as ``children`` so the lifecycle (``open``/``close``) can recurse
    the physical tree."""

    name = "operator"

    def __init__(
        self,
        ctx: ExecContext,
        detail: str = "",
        children: tuple[Operator, ...] | list[Operator] = (),
    ):
        self.ctx = ctx
        self.children: tuple[Operator, ...] = tuple(children)
        self.stats = OperatorStats(name=self.name, detail=detail)
        #: Producer generators handed out and not yet torn down.
        self._live: list = []
        self._opened = False
        self._closed = False
        ctx.register(self.stats)

    def _produce(self):
        """Hook: the per-item producer behind the exact-demand edges
        (:meth:`unbatched`, ``batches(limit=...)``)."""
        raise PlanExecutionError(
            f"{self.name} has no per-item producer: pull it through "
            f"batches() or rows()"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> None:
        """Declare static RAM reservations, recursively.  Idempotent;
        called eagerly by the executor and lazily by the pull surfaces
        so operators built directly in tests behave identically."""
        if self._opened:
            return
        self._opened = True
        self._open()
        for child in self.children:
            child.open()

    def _open(self) -> None:
        """Hook: declare reservations whose size is statically known.
        Data-dependent reservations stay in ``_produce``."""

    def close(self) -> None:
        """Tear down every live producer and stamp end times; recurses
        into children.  Idempotent, and safe on operators that were
        never pulled (their spans stay unpulled markers).  Teardown of a
        pulled operator runs inside one final attribution window so
        generator-cleanup costs (freeing stored runs, releasing buffers)
        still land on this operator and the sum of per-operator self
        times stays equal to elapsed time."""
        if self._closed:
            return
        self._closed = True
        attribution = self.ctx.attribution
        live, self._live = self._live, []
        if live and self.stats.started_sim is not None:
            attribution.enter(self.stats)
            try:
                for gen in live:
                    gen.close()
            finally:
                attribution.exit(self.stats)
        else:
            for gen in live:
                gen.close()
        for child in self.children:
            child.close()
        if self.stats.started_sim is not None and self.stats.ended_sim is None:
            attribution.stamp_end(self.stats)

    # ------------------------------------------------------------------
    # Pull surfaces
    # ------------------------------------------------------------------

    def _produce_batches(self, cap: int):
        """Hook: yield batch payloads of at most ``cap`` items each.

        The default re-chunks the per-item ``_produce()`` generator into
        plain lists.  Vectorized operators override this to emit typed
        columnar payloads (:mod:`repro.columns`); any payload supporting
        ``len()`` and per-item iteration is a valid batch.

        Overrides MUST respect ``cap`` (the executor pins it to 1 for
        fault runs and data-dependent plans) and MUST charge the same
        simulated-hardware costs, with flash/USB operations in the same
        order, at every ``cap``.  An operator that also defines
        ``_produce()`` (``VisibleSelectOp``, ``DeviceScanSelectOp``)
        MUST match its per-item path too -- batching and payload
        representation are host-side details only.
        """
        inner = self._produce()
        try:
            while True:
                batch = list(islice(inner, cap))
                if not batch:
                    return
                yield batch
        finally:
            inner.close()

    def batches(self, limit: int | None = None):
        """Iterate this operator's output as attribution-marked batch
        windows (payloads of up to ``ctx.exec_batch`` items -- plain
        lists by default, typed columns for vectorized operators).

        ``limit`` bounds demand exactly: the producer is advanced at
        most ``limit`` items in total (the last window shrinks), so a
        ``Limit`` parent never over-produces its subtree.  The bounded
        path always pulls per item from ``_produce()``; only unbounded
        iteration goes through :meth:`_produce_batches`.
        """
        self.open()
        attribution = self.ctx.attribution
        stats = self.stats
        cap = max(1, self.ctx.exec_batch)
        if limit is not None:
            inner = self._produce()
            self._live.append(inner)
            remaining = limit
            try:
                while remaining > 0:
                    n = min(cap, remaining)
                    attribution.enter(stats)
                    try:
                        batch = list(islice(inner, n))
                    except BaseException:
                        attribution.exit(stats)
                        raise
                    attribution.exit(stats)
                    if not batch:
                        stats.finished = True
                        return
                    stats.tuples_out += len(batch)
                    stats.batches_out += 1
                    remaining -= len(batch)
                    yield batch
            finally:
                inner.close()
                if inner in self._live:
                    self._live.remove(inner)
            return
        source = self._produce_batches(cap)
        self._live.append(source)
        try:
            while True:
                attribution.enter(stats)
                try:
                    batch = next(source, None)
                except BaseException:
                    attribution.exit(stats)
                    raise
                attribution.exit(stats)
                if batch is None:
                    stats.finished = True
                    return
                size = len(batch)
                if size == 0:
                    continue
                stats.tuples_out += size
                stats.batches_out += 1
                yield batch
        finally:
            source.close()
            if source in self._live:
                self._live.remove(source)

    def rows(self):
        """Iterate this operator's output item by item (batch windows
        underneath -- full-consumption parents and tests use this)."""
        for batch in self.batches():
            yield from batch

    def unbatched(self):
        """Iterate item by item *without* attribution windows: costs
        land on whichever operator currently holds the attribution
        stack (the consumer).  For consumers whose demand is exact and
        data-dependent -- running the producer a window ahead would
        change what the simulated hardware does."""
        self.open()
        attribution = self.ctx.attribution
        stats = self.stats
        inner = self._produce()
        self._live.append(inner)
        stats.cost_on_consumer = True
        attribution.stamp_start(stats)
        try:
            for item in inner:
                stats.tuples_out += 1
                yield item
            stats.finished = True
        finally:
            attribution.stamp_end(stats)
            inner.close()
            if inner in self._live:
                self._live.remove(inner)

    # ------------------------------------------------------------------
    # RAM accounting
    # ------------------------------------------------------------------

    def reserve(self, nbytes: int) -> None:
        """Declare this operator's RAM reservation: bookkeeping only,
        keeping the peak on its stats (allocation is ``device.ram``'s)."""
        self.stats.ram_bytes = max(self.stats.ram_bytes, nbytes)
