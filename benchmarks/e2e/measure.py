"""Measurement helpers shared by ``workload.py`` and ``server.py``."""

from __future__ import annotations

import gc
import resource
import statistics
import struct
import time
from dataclasses import dataclass

#: What one :meth:`HostSpeed.tick` of the kernel takes, in seconds, on
#: the host the benchmark was calibrated on (an Intel Xeon 2-vCPU VM,
#: CPython 3.11).  Wall metrics are reported in reference seconds:
#: measured seconds scaled as if the host had run the kernel this fast.
REFERENCE_TICK_S = 2.0e-4
#: Kernel time spent per second of measured work.
TICK_SHARE = 0.05
#: Tuples scanned and records decoded in one tick.
TICK_SCAN = 1500
TICK_RECORDS = 100
_RECORD = struct.Struct("<iiHd")
#: Tuples the kernel scans: about 4 MiB with their strings.
_SCAN_ROWS = 20 * TICK_SCAN
#: Bytes of the page buffer records are decoded from.
_PAGE_BYTES = 2 << 20

#: Device-counter totals summed over a set of counter snapshots.
TOTAL_FIELDS = (
    "sim_s",
    "flash_reads",
    "flash_writes",
    "erases",
    "usb_messages",
    "usb_bytes",
    "cache_hits",
    "cache_misses",
)


def device_totals(snapshots) -> dict:
    """Sum :class:`~repro.hardware.device.DeviceCounters` snapshots: the
    device's own counters in process, or every leased session's
    session-pure counters behind the serve front end."""
    totals = dict.fromkeys(TOTAL_FIELDS, 0)
    for c in snapshots:
        totals["sim_s"] += c.time.total
        totals["flash_reads"] += c.flash.page_reads
        totals["flash_writes"] += c.flash.page_writes
        totals["erases"] += c.flash.block_erases
        totals["usb_messages"] += c.usb_messages
        totals["usb_bytes"] += c.usb_bytes_to_device + c.usb_bytes_to_host
        totals["cache_hits"] += c.cache.hits
        totals["cache_misses"] += c.cache.misses
    return totals


def difference(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in TOTAL_FIELDS}


class HostSpeed:
    """Follows the host's speed by timing a fixed kernel.

    The benchmark runs on shared hosts whose speed drifts: the same
    statements measured a minute apart can take half as long again, far
    more than the changes the benchmark must resolve, and the program
    and this kernel slow down together.  The host also flips between
    faster and slower states within a second, so the kernel runs in
    short ticks spread through the measured work, about
    :data:`TICK_SHARE` of its time, and each stretch of work is scaled
    by the mean of the ticks taken during it (:meth:`factor`).  The
    kernel runs no program code, so a faster program still reads
    faster.
    """

    def __init__(self):
        # The program is interpreted Python that decodes records into
        # short-lived tuples, so a tick scans some megabytes of small
        # tuples and decodes records from a page buffer.  Of the kernels
        # tried, that mix followed the program's own speed most closely
        # (dict- and struct-heavy loops, or pointer chasing through a
        # large object graph, followed it less well).  Everything else
        # is built here: the kernel keeps nothing it allocates, so the
        # state of the program's heap cannot change its cost.
        self._rows = [(i + 1000, i & 7, "row-%d" % i) for i in range(_SCAN_ROWS)]
        self._page = bytes(range(256)) * (_PAGE_BYTES // 256)
        self._cursor = 0
        #: Tick times since the last :meth:`window_factor`.
        self.pending: list[float] = []
        self.ticks(_SCAN_ROWS // TICK_SCAN)  # page faults, cold caches

    def _kernel(self, first: int) -> int:
        count = 0
        for row in self._rows[first : first + TICK_SCAN]:
            if type(row) is tuple:
                count += len(row)
        page, span = self._page, _PAGE_BYTES - _RECORD.size
        records = []
        for i in range(first, first + TICK_RECORDS):
            a, b, h, _ = _RECORD.unpack_from(page, (i * 4099 * _RECORD.size) % span)
            records.append((a, b & 7, h, str(h & 63)))
        groups: dict[int, list] = {}
        for record in records:
            groups.setdefault(record[1], []).append(record)
        return count + len(groups)

    def ticks(self, count: int) -> list[float]:
        """Time ``count`` ticks, with the cyclic garbage collector
        paused so that a collection of the program's heap cannot land
        inside one."""
        times = []
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                self._kernel(self._cursor)
                times.append(time.perf_counter() - start)
                self._cursor = (self._cursor + TICK_SCAN) % _SCAN_ROWS
        finally:
            gc.enable()
        return times

    @staticmethod
    def tick_count(busy_s: float) -> int:
        """Ticks that take :data:`TICK_SHARE` of ``busy_s`` (at least one)."""
        return max(1, round(busy_s * TICK_SHARE / REFERENCE_TICK_S))

    def tick(self, busy_s: float) -> None:
        """Tick for ``busy_s`` just measured, adding the times to
        :attr:`pending`."""
        self.pending += self.ticks(self.tick_count(busy_s))

    def window_factor(self) -> float:
        """:meth:`factor` of the pending ticks, which it clears."""
        factor = self.factor(self.pending)
        self.pending = []
        return factor

    @staticmethod
    def factor(times: list[float]) -> float:
        """Reference seconds per measured second for work done while
        ticks took ``times``."""
        return REFERENCE_TICK_S * len(times) / sum(times)


@dataclass
class Window:
    """A stretch of the closed loop and its host-speed scale."""

    statements: int
    elapsed_s: float
    factor: float
    #: Whether the layer trace was installed (traced runs alternate).
    traced: bool = False


def throughput(windows) -> float:
    """Statements per reference second over ``windows``."""
    windows = list(windows)
    return sum(w.statements for w in windows) / sum(
        w.elapsed_s * w.factor for w in windows
    )


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def age_slowdown(latencies: list[list[float]]) -> float:
    """Median latency of each stream's last quarter of statements over
    its first quarter, pooled across streams."""
    first: list[float] = []
    last: list[float] = []
    for stream in latencies:
        quarter = max(1, len(stream) // 4)
        first.extend(stream[:quarter])
        last.extend(stream[-quarter:])
    return statistics.median(last) / statistics.median(first)


def end_to_end(
    setup_s: list[float],
    windows: list[Window],
    latencies: list[list[float]],
    delta: dict,
    statements: int,
    rss_mib: float,
) -> dict[str, float]:
    """Every end-to-end metric of one run.

    ``setup_s`` and ``latencies`` (each client stream's statement
    latencies in the order sent) are in reference seconds already;
    ``windows`` are the untraced windows of the loop.  Counts are
    ``delta``, the device-counter difference over the loop, per
    statement.
    """
    every = sorted(lat for stream in latencies for lat in stream)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_sps": throughput(windows),
        "latency_p50_ms": statistics.median(every) * 1e3,
        "latency_p90_ms": statistics.quantiles(every, n=10)[8] * 1e3,
        "sim_ms_per_stmt": delta["sim_s"] * 1e3 / statements,
        "flash_reads_per_stmt": delta["flash_reads"] / statements,
        "usb_bytes_per_stmt": delta["usb_bytes"] / statements,
        "rss_mb": rss_mib,
    }
