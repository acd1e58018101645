"""Secure-chip CPU cost model.

The device's 32-bit RISC processor is slow (tens of MHz) compared to the
terminal's CPU, which is one of the reasons GhostDB "delegates as much work
as possible to the PC and the server as long as this processing does not
compromise hidden data" (Section 3).  Operators charge per-tuple CPU work
here so plans that process fewer tuples on-device genuinely run faster.

The per-operation cycle counts are coarse (an interpreted comparison is a
few dozen RISC instructions) but uniform, so *relative* plan costs -- the
thing the paper's Figure 6 game is about -- are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.clock import SimClock, whole
from repro.hardware.profiles import HardwareProfile
from repro.obs.registry import MetricsRegistry

#: Default cycle costs for the primitive per-tuple operations the engine
#: performs.  These feed both execution (charged on the clock) and the
#: optimizer's cost model (estimated), keeping the two consistent.
CYCLES = {
    "compare": 40,  # compare two scalar values
    "hash": 120,  # hash a key (used by Bloom filters and hash join)
    "copy_word": 8,  # move 4 bytes within RAM
    "decode_field": 60,  # decode one field from a flash record
    "merge_step": 50,  # one step of a sorted-list merge
    "bloom_probe": 150,  # k hash probes into a Bloom filter
    "bloom_insert": 150,
}


@dataclass
class CpuStats:
    """Cycle counters per primitive, for per-operator reporting."""

    cycles_by_op: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles_by_op.values())


class SecureChip:
    """Charges CPU time for device-side per-tuple work.

    The engine charges a primitive per tuple, tens of thousands of times
    per scan, so a charge is only validated and added to an integer
    tally of that primitive.  :meth:`settle` folds the tally into
    :attr:`stats`, the ``ghostdb_device_cpu_cycles_total`` family and
    the clock (as one ``cpu`` charge).  The clock and the metrics
    registry run it before every read, and :attr:`stats` before it
    answers, so no reader sees a total with a charge missing; because
    ticks are integers, settling late changes no total.

    A charge is not batched at its call site instead: a reading can fall
    anywhere (a USB message sent from inside a merge loop stamps the
    clock, a flight event journaled mid-read does too), and a count held
    in a caller's local variable would be missing from it.
    """

    def __init__(
        self,
        profile: HardwareProfile,
        clock: SimClock,
        metrics: MetricsRegistry | None = None,
    ):
        self.profile = profile
        self.clock = clock
        #: Optional device-lifetime metrics sink (monotonic; includes load).
        self.metrics = metrics
        self._stats = CpuStats()
        #: Unsettled occurrences per primitive.
        self._tally = dict.fromkeys(CYCLES, 0)
        #: Bound cycle-counter children per primitive.
        self._bound: dict = {}
        clock.add_settler(self.settle)
        if metrics is not None:
            metrics.add_settler(self.settle)

    @property
    def stats(self) -> CpuStats:
        """Cycle counters per primitive, settled."""
        self.settle()
        return self._stats

    def charge(self, op: str, count: int = 1) -> None:
        """Charge ``count`` occurrences of primitive ``op``."""
        if count.__class__ is not int:
            count = whole(count, "operation count")
        if count < 0:
            raise ValueError("operation count cannot be negative")
        try:
            self._tally[op] += count
        except KeyError:
            raise ValueError(f"unknown CPU primitive: {op!r}") from None

    def settle(self) -> None:
        """Fold the unsettled tally into stats, metrics and the clock."""
        total = 0
        tally = self._tally
        by_op = self._stats.cycles_by_op
        for op, count in tally.items():
            if not count:
                continue
            tally[op] = 0
            cycles = CYCLES[op] * count
            total += cycles
            by_op[op] = by_op.get(op, 0) + cycles
            if self.metrics is not None:
                bound = self._bound.get(op)
                if bound is None:
                    bound = self.metrics.counter(
                        "ghostdb_device_cpu_cycles_total"
                    ).labelled(op=op)
                    self._bound[op] = bound
                bound.inc(cycles)
        if total:
            self.clock.advance(total * self.profile.cycle_ticks, "cpu")
