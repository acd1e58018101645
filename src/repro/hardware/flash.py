"""Physical NAND flash model: pages, blocks, asymmetric timing, no
in-place writes.

The paper (Section 3): "The Flash memory itself exhibits asymmetric costs
for reads and writes.  Writes are between 3 to 10 times slower than reads
depending on the portion of the page to be read (full page vs. single word)
and writes in place are precluded."

This module models exactly that physical layer:

* the flash is an array of erase blocks, each holding ``pages_per_block``
  pages of ``page_size`` bytes;
* a page can be *programmed* (written) only once after its block was
  erased; re-programming raises :class:`PageProgrammedError`;
* a read of a small slice of a page is charged the cheaper partial-read
  time, a full-page read the full time;
* erases happen at block granularity, are the slowest operation, and count
  toward optional wear-out.

The :class:`~repro.hardware.ftl.FlashTranslationLayer` built on top turns
this into an ordinary "write any logical page" interface.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.faults.errors import PowerCutError
from repro.faults.injector import FaultInjector
from repro.hardware.clock import SimClock
from repro.hardware.profiles import HardwareProfile
from repro.obs.registry import MetricsRegistry


class FlashError(Exception):
    """Base class for physical flash errors."""


class PageProgrammedError(FlashError):
    """Attempted to program a page that is already programmed.

    NAND flash precludes writes in place; the FTL must relocate instead.
    """


class ProgramFailedError(FlashError):
    """A page program was torn: the page now holds garbage with an
    invalid spare-area checksum.  The device is still powered; the FTL
    must mark the page unusable and relocate the write."""


class BadBlockError(FlashError):
    """A block failed a program or erase and is now marked bad.

    Real NAND ships with (and grows) bad blocks; they can still be read
    but must be retired from the write rotation."""


class WearOutError(BadBlockError):
    """A block exceeded its program/erase cycle endurance.

    Worn-out blocks are *grown bad blocks*: the erase that trips the
    endurance limit marks the block bad, so it leaves the write rotation
    through the same retirement path as any other bad block.  Callers
    that only care about retirement catch :class:`BadBlockError`; the
    subclass keeps the root cause typed for diagnostics."""


#: XOR mask applied to the stored spare-area CRC of a torn page, so a
#: torn program is detectable but deterministic.
_TORN_CRC_MASK = 0x5A5A5A5A


@dataclass
class FlashStats:
    """Operation counters, for benchmarks and cost-model validation."""

    page_reads_full: int = 0
    page_reads_partial: int = 0
    page_writes: int = 0
    block_erases: int = 0

    @property
    def page_reads(self) -> int:
        return self.page_reads_full + self.page_reads_partial

    def snapshot(self) -> "FlashStats":
        return FlashStats(
            page_reads_full=self.page_reads_full,
            page_reads_partial=self.page_reads_partial,
            page_writes=self.page_writes,
            block_erases=self.block_erases,
        )


#: A partial read is charged the cheap rate when it touches at most this
#: fraction of a page.  Reads larger than that cost a full-page read.
PARTIAL_READ_FRACTION = 0.25


@dataclass
class NandFlash:
    """A raw NAND flash array with simulated timing.

    Page contents are stored sparsely (dict keyed by physical page number)
    so simulating a 1 GiB device does not allocate 1 GiB of host memory.
    """

    profile: HardwareProfile
    clock: SimClock
    stats: FlashStats = field(default_factory=FlashStats)
    #: Optional device-lifetime metrics sink (monotonic; includes load,
    #: unlike the query-attributed ``ghostdb_flash_*`` family).
    metrics: MetricsRegistry | None = None
    #: Optional deterministic fault injector (see :mod:`repro.faults`).
    faults: FaultInjector | None = None
    _pages: dict[int, bytes] = field(default_factory=dict)
    #: Spare-area ("out of band") metadata per programmed page:
    #: ``(logical_page, write_seq, crc32)``.  This is the journal the
    #: mount-time recovery scan rebuilds the FTL map from.
    _oob: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    _bad_blocks: set[int] = field(default_factory=set)
    _erase_counts: dict[int, int] = field(default_factory=dict)
    #: Bound unlabelled counter children by name -- one registry
    #: resolution per site instead of one per simulated op.
    _bound: dict = field(default_factory=dict, repr=False)
    #: Page reads not yet folded into ``ghostdb_device_flash_reads_total``
    #: (full, partial).  A read only bumps these plain integers;
    #: :meth:`settle_metrics` runs before every registry read.
    _unsettled_full: int = field(default=0, repr=False)
    _unsettled_partial: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.metrics is not None:
            self.metrics.add_settler(self.settle_metrics)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is None:
            return
        bound = self._bound.get(name)
        if bound is None:
            bound = self.metrics.counter(name).labelled()
            self._bound[name] = bound
        bound.inc(amount)

    def settle_metrics(self) -> None:
        """Fold the unsettled page-read tallies into the registry (the
        family registers with the first read it counts)."""
        full, partial = self._unsettled_full, self._unsettled_partial
        if not (full or partial):
            return
        self._unsettled_full = self._unsettled_partial = 0
        family = self.metrics.counter("ghostdb_device_flash_reads_total")
        if full:
            family.inc(full, kind="full")
        if partial:
            family.inc(partial, kind="partial")

    def _charge_read(self, partial: bool) -> None:
        """Count and time one page read (full or partial)."""
        if partial:
            self.stats.page_reads_partial += 1
            self._unsettled_partial += 1
            self.clock.advance(
                self.profile.flash_read_partial_ticks, "flash_read"
            )
        else:
            self.stats.page_reads_full += 1
            self._unsettled_full += 1
            self.clock.advance(self.profile.flash_read_full_ticks, "flash_read")

    @property
    def num_pages(self) -> int:
        return self.profile.num_blocks * self.profile.pages_per_block

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise FlashError(f"physical page {page} out of range")

    def block_of(self, page: int) -> int:
        return page // self.profile.pages_per_block

    def is_programmed(self, page: int) -> bool:
        self._check_page(page)
        return page in self._pages

    def read(self, page: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes of ``page`` starting at ``offset``.

        Reading a small slice is charged the partial-read time (the paper's
        "single word" case); anything larger costs a full-page read.
        Reading an erased page returns 0xFF filler, as real NAND does.
        """
        self._check_page(page)
        page_size = self.profile.page_size
        if length is None:
            length = page_size - offset
        if offset < 0 or length < 0 or offset + length > page_size:
            raise FlashError(
                f"read of [{offset}, {offset + length}) exceeds page size"
            )
        partial = length <= page_size * PARTIAL_READ_FRACTION
        self._charge_read(partial)
        if self.faults is not None:
            decision = self.faults.flash_decision("read", length)
            if decision is not None:
                if decision.kind == "power_cut":
                    raise PowerCutError(
                        f"power lost during read of page {page}"
                    )
                if decision.kind == "bitflip":
                    # Transient bit flip caught by the spare-area ECC:
                    # the controller re-reads the page (charged at the
                    # same rate class) and delivers corrected data.
                    self._charge_read(partial)
                    self._count("ghostdb_flash_ecc_corrections_total")
        data = self._pages.get(page, b"\xff" * page_size)
        return data[offset : offset + length]

    def program(
        self,
        page: int,
        data: bytes,
        oob: tuple[int, int] | None = None,
    ) -> None:
        """Program (write) a whole page.  The page must be erased.

        ``oob`` is the spare-area journal entry ``(logical_page,
        write_seq)`` stamped by the FTL; together with a CRC32 of the
        page content it is what the mount-time recovery scan trusts.
        Pages programmed without ``oob`` are invisible to recovery.
        """
        self._check_page(page)
        if len(data) > self.profile.page_size:
            raise FlashError(
                f"page data of {len(data)} B exceeds page size "
                f"{self.profile.page_size}"
            )
        block = self.block_of(page)
        if block in self._bad_blocks:
            raise BadBlockError(f"block {block} is marked bad")
        if page in self._pages:
            raise PageProgrammedError(
                f"page {page} is already programmed; erase block "
                f"{self.block_of(page)} first (no in-place writes)"
            )
        padded = data + b"\xff" * (self.profile.page_size - len(data))
        self.stats.page_writes += 1
        self.clock.advance(self.profile.flash_write_ticks, "flash_write")
        self._count("ghostdb_device_flash_writes_total")
        if self.faults is not None:
            decision = self.faults.flash_decision("program")
            if decision is not None:
                if decision.kind == "power_cut":
                    # Power died mid-program: the page holds the data
                    # but its spare-area CRC never committed -- a torn
                    # page the recovery scan must roll back.
                    self._tear_page(page, padded, oob)
                    raise PowerCutError(
                        f"power lost while programming page {page}"
                    )
                if decision.kind == "bad_block":
                    self._bad_blocks.add(block)
                    self._count(
                        "ghostdb_device_flash_bad_blocks_total"
                    )
                    raise BadBlockError(
                        f"block {block} failed to program and is now bad"
                    )
                if decision.kind == "torn":
                    self._tear_page(page, padded, oob)
                    raise ProgramFailedError(
                        f"program of page {page} was torn"
                    )
        self._pages[page] = padded
        if oob is not None:
            lpage, seq = oob
            self._oob[page] = (lpage, seq, zlib.crc32(padded))

    def _tear_page(self, page: int, padded: bytes, oob) -> None:
        """Leave ``page`` in the state a torn program produces: content
        present, spare-area CRC invalid (deterministically)."""
        self._pages[page] = padded
        if oob is not None:
            lpage, seq = oob
            self._oob[page] = (
                lpage, seq, zlib.crc32(padded) ^ _TORN_CRC_MASK
            )

    def erase_block(self, block: int) -> None:
        """Erase every page of ``block``; counts toward wear."""
        if not 0 <= block < self.profile.num_blocks:
            raise FlashError(f"block {block} out of range")
        if block in self._bad_blocks:
            raise BadBlockError(f"block {block} is marked bad")
        count = self._erase_counts.get(block, 0) + 1
        limit = self.profile.max_erase_cycles
        if limit is not None and count > limit:
            # Endurance exceeded: the block is now a *grown* bad block.
            # It stays readable (live data was relocated before the
            # erase attempt) but never re-enters the write rotation.
            self._bad_blocks.add(block)
            self._count("ghostdb_device_flash_bad_blocks_total")
            raise WearOutError(
                f"block {block} exceeded its {limit} erase-cycle endurance"
            )
        per_block = self.profile.pages_per_block
        first = block * per_block
        self.stats.block_erases += 1
        self.clock.advance(self.profile.flash_erase_ticks, "flash_erase")
        self._count("ghostdb_device_flash_erases_total")
        if self.faults is not None:
            decision = self.faults.flash_decision("erase", per_block)
            if decision is not None:
                if decision.kind == "power_cut":
                    # Mid-erase cut: a prefix of the block's pages was
                    # physically wiped before power died.  Surviving
                    # pages are stale copies (GC relocates live pages
                    # before erasing), so recovery discards them by seq.
                    self._erase_counts[block] = count
                    for page in range(first, first + decision.length):
                        self._pages.pop(page, None)
                        self._oob.pop(page, None)
                    raise PowerCutError(
                        f"power lost while erasing block {block}"
                    )
                if decision.kind == "bad_block":
                    self._bad_blocks.add(block)
                    self._count("ghostdb_device_flash_bad_blocks_total")
                    raise BadBlockError(
                        f"block {block} failed to erase and is now bad"
                    )
        self._erase_counts[block] = count
        for page in range(first, first + per_block):
            self._pages.pop(page, None)
            self._oob.pop(page, None)

    def charge_partial_reads(self, count: int) -> None:
        """Charge ``count`` modeled partial reads without moving data.

        Used for metadata structures whose content the simulator keeps in
        host memory but whose I/O cost must still be paid -- e.g. the
        climbing-index directory (a B-tree on a real device).
        """
        if count < 0:
            raise FlashError("negative read count")
        self.stats.page_reads_partial += count
        self._unsettled_partial += count
        self.clock.advance(
            count * self.profile.flash_read_partial_ticks, "flash_read"
        )

    # ------------------------------------------------------------------
    # Spare-area journal and bad-block marks (recovery interface)
    # ------------------------------------------------------------------

    def programmed_pages(self) -> list[int]:
        """All physically programmed page numbers, ascending."""
        return sorted(self._pages)

    def oob(self, page: int) -> tuple[int, int, int] | None:
        """Spare-area entry ``(lpage, seq, crc)`` of ``page``, if any."""
        return self._oob.get(page)

    def page_crc_ok(self, page: int) -> bool:
        """Does the stored CRC match the page content?  A torn program
        leaves this False, which is how recovery detects it."""
        entry = self._oob.get(page)
        if entry is None or page not in self._pages:
            return False
        return entry[2] == zlib.crc32(self._pages[page])

    def mark_bad(self, block: int) -> None:
        self._bad_blocks.add(block)

    def is_bad(self, block: int) -> bool:
        return block in self._bad_blocks

    @property
    def bad_block_count(self) -> int:
        """Cheap count of bad blocks (no set copy; hot in the FTL)."""
        return len(self._bad_blocks)

    def erase_count(self, block: int) -> int:
        return self._erase_counts.get(block, 0)

    @property
    def max_wear(self) -> int:
        """Highest erase count over all blocks (wear-levelling metric)."""
        return max(self._erase_counts.values(), default=0)
