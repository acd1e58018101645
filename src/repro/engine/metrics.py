"""Execution metrics: what the demo GUI's popups and charts show.

Figure 6 of the paper plots per-plan execution time; clicking an operator
"displays a popup with additional statistics about this operator (number
of processed tuples, local RAM consumption and processing time)".
:class:`OperatorStats` is that popup; :class:`ExecutionMetrics` is the
whole-query view with the hardware-level breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.clock import TimeBreakdown
from repro.hardware.device import DeviceCounters


@dataclass
class OperatorStats:
    """Per-operator statistics collected by the executor."""

    name: str
    detail: str = ""
    tuples_out: int = 0
    #: Attribution-marked batch windows this operator emitted.  With the
    #: vectorized protocol the enter/exit overhead scales with this, not
    #: with :attr:`tuples_out` -- the whole point of batching.
    batches_out: int = 0
    #: Simulated seconds attributable to this operator alone (its own
    #: flash/USB/CPU charges, excluding time spent inside its children).
    self_seconds: float = 0.0
    #: Host wall seconds spent inside this operator alone -- what the
    #: *simulator* paid, as opposed to what the simulated device paid.
    self_wall_seconds: float = 0.0
    #: Slices of :attr:`self_seconds` by hardware category, plus the raw
    #: flash/USB event counts this operator alone triggered.  These feed
    #: the EXPLAIN ANALYZE estimated-vs-actual scorecard.
    self_flash_seconds: float = 0.0
    self_usb_seconds: float = 0.0
    flash_page_reads: int = 0
    flash_page_writes: int = 0
    usb_messages: int = 0
    #: Buffer-pool lookups attributed to this operator's windows.  A
    #: miss that fills the pool inside this operator's window stamps
    #: both the miss *and* the flash read here -- the reading operator
    #: pays for the cold fill, not whoever re-reads the page later.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Peak bytes of device RAM this operator allocated for itself.
    ram_bytes: int = 0
    finished: bool = False
    #: Pulled through :meth:`~repro.engine.operators.base.Operator.unbatched`:
    #: its own costs were attributed to its consumer, so its measured
    #: self time is not its cost (EXPLAIN ANALYZE grades the consumer).
    cost_on_consumer: bool = False
    #: Simulated-clock timestamps of the first pull and the last
    #: activity, stamped by
    #: :class:`~repro.engine.operators.base.TimeAttribution`; ``None``
    #: until the operator is first pulled.  ``Operator.close()``
    #: guarantees every pulled operator gets end stamps even when a
    #: parent (``Limit``, a fault abort) short-circuited it.  These
    #: intervals nest by plan structure, which is what turns the stats
    #: into trace spans.
    started_sim: float | None = None
    ended_sim: float | None = None
    started_wall: float | None = None
    ended_wall: float | None = None
    #: Operator-specific shape/count attributes (Bloom filter geometry,
    #: merge fan-in, ...) surfaced on the operator's trace span.
    attrs: dict = field(default_factory=dict)

    def line(self) -> str:
        return (
            f"{self.name:<24} tuples={self.tuples_out:<9} "
            f"time={self.self_seconds * 1000:9.3f} ms "
            f"ram={self.ram_bytes:7d} B"
        )


@dataclass
class ExecutionMetrics:
    """Whole-query measurements, diffed across the run."""

    #: Simulated device time, by category, consumed by this query.
    time: TimeBreakdown = field(default_factory=TimeBreakdown)
    flash_page_reads: int = 0
    flash_page_writes: int = 0
    flash_block_erases: int = 0
    usb_messages: int = 0
    usb_bytes_to_device: int = 0
    usb_bytes_to_host: int = 0
    ram_high_water: int = 0
    result_rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    operators: list[OperatorStats] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        return self.time.total

    @property
    def cache_hit_rate(self) -> float:
        """Buffer-pool hit rate over this query (0.0 when untouched)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @classmethod
    def from_counters(
        cls,
        before: DeviceCounters,
        after: DeviceCounters,
        operators: list[OperatorStats],
        result_rows: int,
    ) -> "ExecutionMetrics":
        return cls(
            time=after.time - before.time,
            flash_page_reads=after.flash.page_reads - before.flash.page_reads,
            flash_page_writes=after.flash.page_writes - before.flash.page_writes,
            flash_block_erases=(
                after.flash.block_erases - before.flash.block_erases
            ),
            usb_messages=after.usb_messages - before.usb_messages,
            usb_bytes_to_device=(
                after.usb_bytes_to_device - before.usb_bytes_to_device
            ),
            usb_bytes_to_host=(
                after.usb_bytes_to_host - before.usb_bytes_to_host
            ),
            ram_high_water=after.ram_high_water,
            result_rows=result_rows,
            cache_hits=after.cache.hits - before.cache.hits,
            cache_misses=after.cache.misses - before.cache.misses,
            operators=operators,
        )

    def report(self) -> str:
        """A human-readable execution report (the demo's popup data)."""
        lines = [
            f"execution time {self.elapsed_seconds * 1000:.3f} ms "
            f"(flash read {self.time.flash_read * 1000:.3f}, "
            f"write {self.time.flash_write * 1000:.3f}, "
            f"erase {self.time.flash_erase * 1000:.3f}, "
            f"usb {self.time.usb * 1000:.3f}, "
            f"cpu {self.time.cpu * 1000:.3f})",
            f"flash: {self.flash_page_reads} page reads, "
            f"{self.flash_page_writes} page writes, "
            f"{self.flash_block_erases} erases",
            f"usb: {self.usb_messages} messages, "
            f"{self.usb_bytes_to_device} B in, "
            f"{self.usb_bytes_to_host} B out",
            f"ram high water: {self.ram_high_water} B",
            f"buffer pool: {self.cache_hits} hits, "
            f"{self.cache_misses} misses "
            f"({self.cache_hit_rate:.0%} hit rate)",
            f"result rows: {self.result_rows}",
            "operators:",
        ]
        lines.extend("  " + op.line() for op in self.operators)
        return "\n".join(lines)
