"""The assembled smart USB device (Figure 2 of the paper).

A :class:`SmartUsbDevice` wires together one clock, the RAM budget, the
NAND flash behind its FTL, the secure chip's CPU model, and the USB channel
to the untrusted host.  Everything the hidden side of GhostDB does --
storage, indexing, query execution -- happens through this object, so its
clock is the one device timeline.  Each session measures its own share
through a view of its lease (:class:`~repro.core.session.SessionDevice`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import SecureChip
from repro.hardware.clock import SimClock, TimeBreakdown
from repro.hardware.flash import FlashStats, NandFlash
from repro.hardware.ftl import FlashTranslationLayer
from repro.hardware.pagecache import CacheStats, PageCache
from repro.hardware.profiles import DEMO_DEVICE, HardwareProfile
from repro.hardware.ram import RamBudget
from repro.hardware.usb import UsbChannel


def default_cache_pages(ram_bytes: int, page_size: int) -> int:
    """Default buffer-pool bound: a quarter of ``ram_bytes``, in pages.

    Generous enough that intra-query re-reads (SKT pages, posting
    extents) hit, small enough that firm operator reservations rarely
    need to shed it -- and shedding is cheap anyway (clean pages only).
    """
    return ram_bytes // (4 * page_size)


@dataclass
class DeviceCounters:
    """A consistent snapshot of one session's device counters."""

    time: TimeBreakdown
    flash: FlashStats
    ram_high_water: int
    usb_messages: int
    usb_bytes_to_device: int
    usb_bytes_to_host: int
    cache: CacheStats


class SmartUsbDevice:
    """A simulated tamper-resistant smart USB device."""

    def __init__(
        self,
        profile: HardwareProfile = DEMO_DEVICE,
        metrics=None,
        cache_pages: int | None = None,
        flight=None,
    ):
        self.profile = profile
        self.metrics = metrics
        #: The session's :class:`~repro.obs.flight.FlightRecorder` (or
        #: None).  Host-side diagnostic state, like the USB capture log:
        #: journaling never touches the clock, the budget or the wire.
        self.flight = flight
        self.clock = SimClock()
        self.ram = RamBudget(
            capacity=profile.ram_bytes, metrics=metrics, flight=flight
        )
        self.flash = NandFlash(
            profile=profile, clock=self.clock, metrics=metrics
        )
        if cache_pages is None:
            cache_pages = default_cache_pages(
                profile.ram_bytes, profile.page_size
            )
        self.page_cache = PageCache(
            budget=self.ram,
            page_size=profile.page_size,
            capacity_pages=cache_pages,
            metrics=metrics,
        )
        self.page_cache.flight = flight
        self.ftl = FlashTranslationLayer(
            flash=self.flash, cache=self.page_cache, flight=flight
        )
        self.chip = SecureChip(
            profile=profile, clock=self.clock, metrics=metrics
        )
        self.usb = UsbChannel(
            profile=profile, clock=self.clock, metrics=metrics
        )
        self.faults = None

    def attach_faults(self, injector) -> None:
        """Wire a :class:`~repro.faults.FaultInjector` into every
        hardware layer (USB link and NAND flash)."""
        if injector is not None and injector.metrics is None:
            injector.metrics = self.metrics
        if injector is not None and injector.flight is None:
            injector.flight = self.flight
        self.faults = injector
        self.usb.faults = injector
        self.flash.faults = injector

    def detach_faults(self) -> None:
        self.attach_faults(None)

    def remount(self) -> None:
        """Recover after a power cut or unplug.

        Volatile state (RAM contents, the in-memory FTL map) is gone;
        the flash array survives.  A fresh RAM budget is allocated and
        the FTL map is rebuilt from the spare-area journal
        (:meth:`~repro.hardware.ftl.FlashTranslationLayer.recover`),
        which rolls back torn writes to the last committed state.
        """
        self.ram = self.ram.fresh()
        self.ftl = FlashTranslationLayer.recover(
            self.flash,
            spare_blocks=self.ftl.spare_blocks,
            flight=self.flight,
        )
        # Cached pages were volatile RAM: gone with the power.  Re-home
        # the pool on the fresh budget and hand it to the new FTL.
        self.page_cache.rewire(self.ram)
        self.ftl.cache = self.page_cache
        if self.metrics is not None:
            self.metrics.counter("ghostdb_recovery_remounts_total").inc()
        if self.flight is not None:
            self.flight.record(
                "remount", mapped_pages=self.ftl.mapped_pages
            )

    def reset_measurements(self) -> None:
        """Zero the clock, traffic log and high-water mark.

        Storage contents and FTL state are preserved: this separates the
        (expensive, simulated) database load from the measured query, like
        unplugging and re-plugging the key.
        """
        self.clock.reset()
        self.usb.clear_log()
        self.ram.reset_high_water()
        self.flash.stats = FlashStats()
        self.chip.stats.cycles_by_op.clear()
        # A measurement starts cold: cached pages from earlier activity
        # would otherwise bleed one scenario's reuse into the next.
        self.page_cache.clear()
        self.page_cache.stats = CacheStats()

    def __repr__(self) -> str:
        return (
            f"SmartUsbDevice(profile={self.profile.name!r}, "
            f"ram={self.profile.ram_bytes}B, "
            f"flash={self.profile.flash_bytes // (1024 * 1024)}MiB)"
        )
