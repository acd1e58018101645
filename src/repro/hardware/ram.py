"""A hard-budget RAM allocator for the secure chip.

"Security factors imply that the RAM must be small" (paper, Section 3): the
demo device has tens of KB.  Every device-side query operator must acquire
its working memory from a :class:`RamBudget`; an allocation that would
exceed the budget raises :class:`RamExhaustedError`.  This is what makes
the paper's design pressure *real* in the simulation -- e.g. the hash-join
baseline genuinely cannot build its table in RAM and must spill to flash.

Allocations are labelled so RAM-exhaustion errors and high-water-mark
reports say *which operator* was responsible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.registry import MetricsRegistry


class RamExhaustedError(MemoryError):
    """An allocation would exceed the secure chip's RAM budget."""

    def __init__(self, requested: int, available: int, label: str):
        self.requested = requested
        self.available = available
        self.label = label
        super().__init__(
            f"RAM exhausted: {label!r} requested {requested} B "
            f"but only {available} B of budget remain"
        )


@dataclass
class Allocation:
    """A live reservation of device RAM.

    Use as a context manager (``with budget.allocate(...) as a:``) or call
    :meth:`release` explicitly.  :meth:`resize` supports operators whose
    working-set size evolves (e.g. a growing merge buffer).
    """

    budget: "RamBudget"
    size: int
    label: str
    released: bool = False
    #: Reclaimable memory (e.g. clean cache pages) can be shed on demand
    #: and is excluded from the high-water mark -- it is opportunistic
    #: use of otherwise-idle RAM, not part of a query's working set.
    reclaimable: bool = False

    def resize(self, new_size: int) -> None:
        """Grow or shrink this allocation in place."""
        if self.released:
            raise ValueError(f"allocation {self.label!r} already released")
        if new_size < 0:
            raise ValueError("allocation size cannot be negative")
        delta = new_size - self.size
        if delta > 0:
            self.budget._reserve(delta, self.label, self.reclaimable)
        else:
            self.budget._unreserve(-delta, self.reclaimable)
        self.budget.by_label[self.label] = (
            self.budget.by_label.get(self.label, 0) + delta
        )
        self.size = new_size

    def release(self) -> None:
        if not self.released:
            self.budget._unreserve(self.size, self.reclaimable)
            self.budget.by_label[self.label] = (
                self.budget.by_label.get(self.label, 0) - self.size
            )
            self.released = True

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass
class RamBudget:
    """Tracks RAM reservations against a fixed byte budget."""

    capacity: int
    used: int = 0
    high_water: int = 0
    #: Bytes of :attr:`used` held by reclaimable allocations.  They are
    #: excluded from the high-water mark (opportunistic cache use must
    #: not change a query's reported working set) and can be shed via
    #: :attr:`pressure_hook` when a firm reservation needs the room.
    reclaimable_used: int = 0
    #: Count of allocations ever made, for diagnostics.
    allocation_count: int = 0
    #: label -> currently reserved bytes, for per-operator reporting.
    by_label: dict[str, int] = field(default_factory=dict)
    #: Optional device-lifetime metrics sink.
    metrics: MetricsRegistry | None = None
    #: Called with the byte shortfall when a firm reservation would
    #: overflow; sheds reclaimable memory (returns bytes freed) so the
    #: reservation can be retried before raising.
    pressure_hook: Callable[[int], int] | None = None
    #: Optional session :class:`~repro.obs.flight.FlightRecorder`;
    #: journals pressure episodes and exhaustion.  Host-side diagnostic
    #: state -- recording never changes what the budget grants.
    flight: object | None = None

    @property
    def available(self) -> int:
        return self.capacity - self.used

    @property
    def soft_available(self) -> int:
        """Bytes obtainable counting reclaimable memory as free.

        Sizing decisions (operator fan-in, sort buffers) use this so
        that plans and buffer shapes do not depend on how much of the
        budget the page cache happens to occupy right now.
        """
        return self.capacity - self.used + self.reclaimable_used

    def allocate(
        self, size: int, label: str, reclaimable: bool = False
    ) -> Allocation:
        """Reserve ``size`` bytes, or raise :class:`RamExhaustedError`."""
        if size < 0:
            raise ValueError("allocation size cannot be negative")
        self._reserve(size, label, reclaimable)
        self.allocation_count += 1
        alloc = Allocation(
            budget=self, size=size, label=label, reclaimable=reclaimable
        )
        self.by_label[label] = self.by_label.get(label, 0) + size
        return alloc

    def _reserve(self, size: int, label: str, reclaimable: bool = False) -> None:
        if self.used + size > self.capacity:
            if not reclaimable and self.pressure_hook is not None:
                shortfall = self.used + size - self.capacity
                if self.flight is not None:
                    self.flight.record(
                        "ram_pressure", label=label, shortfall=shortfall
                    )
                self.pressure_hook(shortfall)
            if self.used + size > self.capacity:
                # A refused reclaimable reservation is how the buffer
                # pool declines to cache a page, not an exhaustion.
                if self.flight is not None and not reclaimable:
                    self.flight.record(
                        "ram_exhausted",
                        label=label,
                        requested=size,
                        available=self.available,
                    )
                raise RamExhaustedError(size, self.available, label)
        self.used += size
        if reclaimable:
            self.reclaimable_used += size
        self.high_water = max(self.high_water, self.used - self.reclaimable_used)
        if self.metrics is not None:
            self.metrics.gauge("ghostdb_device_ram_used_bytes").set(self.used)
            self.metrics.gauge(
                "ghostdb_device_ram_high_water_bytes"
            ).set_max(self.high_water)

    def _unreserve(self, size: int, reclaimable: bool = False) -> None:
        if size > self.used:
            raise ValueError(
                f"releasing {size} B but only {self.used} B are reserved"
            )
        self.used -= size
        if reclaimable:
            self.reclaimable_used -= size
        if self.metrics is not None:
            self.metrics.gauge("ghostdb_device_ram_used_bytes").set(self.used)

    def fresh(self) -> "RamBudget":
        """An empty budget like this one: RAM contents die with power."""
        return RamBudget(self.capacity, metrics=self.metrics, flight=self.flight)

    def reset_high_water(self) -> None:
        """Restart high-water tracking (e.g. between benchmarked queries)."""
        self.high_water = self.used - self.reclaimable_used
        self.by_label = {
            label: size for label, size in self.by_label.items() if size > 0
        }
