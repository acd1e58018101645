"""Simulated time accounting shared by every hardware component.

The GhostDB demo reports execution times in seconds of *device* time
(Figure 6).  Real wall-clock time of this Python process is meaningless for
that purpose, so each hardware component charges the simulated cost of its
operations into a single :class:`SimClock`.  The clock keeps a per-category
breakdown (flash reads vs writes vs erases, USB transfer, CPU) which the
benchmarks report alongside the total.

Time is kept as integer **ticks** of one femtosecond
(:data:`TICKS_PER_SECOND`).  Every hardware constant is a whole number of
ticks (see :mod:`repro.hardware.profiles`), so totals are exact: the same
charges give the same ticks in any order and any grouping, and snapshots
subtract without rounding.  Seconds appear only on read, each value
converted once.

A component may hold charges back and fold them in later: the secure
chip tallies its per-tuple primitives as plain integer counts and
registers a *settler* with the clock.  Every read (:attr:`SimClock.now`,
:meth:`SimClock.breakdown`, :meth:`SimClock.live_ticks`), every
:meth:`SimClock.reset` and every change of :attr:`SimClock.tee` runs the
settlers first, so no reader ever sees a total with a charge missing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

#: Canonical charge categories.  Components may only charge these, so the
#: breakdown is stable across the whole code base.
CATEGORIES = (
    "flash_read",
    "flash_write",
    "flash_erase",
    "usb",
    "cpu",
)

#: Clock ticks per simulated second: one tick is a femtosecond.
TICKS_PER_SECOND = 10**15


def whole(value, what: str) -> int:
    """``value`` as an exact ``int``.

    Charges are whole ticks or whole operation counts: floats (NaN and
    the infinities included) and bools are refused with ``ValueError``;
    other integral types (a NumPy integer) are converted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def to_ticks(seconds: float) -> int:
    """Finite, non-negative ``seconds`` as the nearest whole tick."""
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(
            f"simulated time must be finite and >= 0, got {seconds!r}"
        )
    return round(seconds * TICKS_PER_SECOND)


def _zero_ticks() -> dict[str, int]:
    return dict.fromkeys(CATEGORIES, 0)


def _seconds(category: str) -> property:
    def read(self: "TimeBreakdown") -> float:
        return self.ticks[category] / TICKS_PER_SECOND

    return property(read, doc=f"Seconds charged to {category!r}.")


@dataclass
class TimeBreakdown:
    """Immutable snapshot of a clock's per-category totals.

    Held as integer :attr:`ticks`, so snapshots add and subtract
    exactly; the category attributes and :attr:`total` read in seconds.
    """

    ticks: dict[str, int] = field(default_factory=_zero_ticks)

    flash_read = _seconds("flash_read")
    flash_write = _seconds("flash_write")
    flash_erase = _seconds("flash_erase")
    usb = _seconds("usb")
    cpu = _seconds("cpu")

    @property
    def total_ticks(self) -> int:
        return sum(self.ticks.values())

    @property
    def total(self) -> float:
        return self.total_ticks / TICKS_PER_SECOND

    def __sub__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            {name: self.ticks[name] - other.ticks[name] for name in CATEGORIES}
        )

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            {name: self.ticks[name] + other.ticks[name] for name in CATEGORIES}
        )

    def as_dict(self) -> dict[str, float]:
        """Per-category seconds."""
        return {
            name: self.ticks[name] / TICKS_PER_SECOND for name in CATEGORIES
        }


@dataclass
class SimClock:
    """Accumulates simulated ticks, broken down by charge category."""

    _ticks: dict[str, int] = field(default_factory=_zero_ticks)
    #: Optional secondary clock that receives a copy of every charge.
    #: Session multiplexing points this at the active session's private
    #: clock (through :meth:`tee_to`), so a leased session accumulates
    #: exactly the charges it would see running alone (starting from
    #: zero) while the device clock keeps the global interleaved
    #: timeline.  Tees do not chain: the teed clock's own ``tee`` is
    #: ignored here.
    tee: "SimClock | None" = None
    #: Callables that fold charges held elsewhere into this clock (see
    #: the module docstring); run before every read.
    _settlers: list = field(default_factory=list, repr=False)

    def advance(self, ticks: int, category: str) -> None:
        """Charge ``ticks`` of simulated time to ``category``.

        Raises ``ValueError`` for unknown categories and for negative or
        non-integer charges, so accounting bugs surface at the call
        instead of skewing every later total.
        """
        if ticks.__class__ is not int:
            ticks = whole(ticks, "clock charge")
        if ticks < 0:
            raise ValueError(f"negative time charge: {ticks!r}")
        totals = self._ticks
        if category not in totals:
            raise ValueError(f"unknown clock category: {category!r}")
        totals[category] += ticks
        if self.tee is not None:
            self.tee._ticks[category] += ticks

    def add_settler(self, settle) -> None:
        """Run ``settle()`` before every read of this clock."""
        self._settlers.append(settle)

    def settle(self) -> None:
        """Fold every held-back charge into the totals (and the tee)."""
        for settle in self._settlers:
            settle()

    def tee_to(self, clock: "SimClock | None") -> None:
        """Point :attr:`tee` at ``clock`` (or nowhere).

        Held-back charges settle first, so each lands on the tee that
        was in place when it was made.
        """
        self.settle()
        self.tee = clock

    @property
    def now(self) -> float:
        """Total simulated seconds elapsed."""
        self.settle()
        return sum(self._ticks.values()) / TICKS_PER_SECOND

    def live_ticks(self) -> dict[str, int]:
        """Settle, then the live per-category tick totals (read-only by
        convention; no snapshot copy, for per-window readers)."""
        self.settle()
        return self._ticks

    def breakdown(self) -> TimeBreakdown:
        """A snapshot of the per-category totals."""
        self.settle()
        return TimeBreakdown(dict(self._ticks))

    def reset(self) -> None:
        """Zero every category; held-back charges settle (and so are
        zeroed too) rather than leaking past the reset."""
        self.settle()
        for name in self._ticks:
            self._ticks[name] = 0
