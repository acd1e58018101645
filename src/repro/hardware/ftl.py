"""Log-structured flash translation layer (FTL).

NAND flash precludes in-place writes, so updating a logical page means
programming its new content somewhere else and remembering the new
location.  This FTL does what the firmware of a real smart USB device
does:

* maintains a logical-page -> physical-page map;
* serves writes out of place, appending to the currently open block
  (log-structured), marking the previous physical page *stale*;
* garbage-collects when free blocks run low: victim selection is
  *wear-aware* -- a block's staleness score is discounted by how far its
  erase count exceeds the coolest candidate's (``wear_penalty`` stale
  pages of priority per excess cycle), so hot blocks rest while cool
  ones take erases and the erase-count spread stays bounded;
* models endurance: a block that trips ``max_erase_cycles`` becomes a
  *grown bad block* (:class:`~repro.hardware.flash.WearOutError`) and is
  retired from rotation like any other bad block;
* degrades gracefully instead of dying.  The ladder: under GC pressure
  (free space below ``throttle_threshold`` of usable capacity) every
  logical write is *throttled* -- charged extra simulated time, the
  firmware analogue of foreground GC stalls; when even garbage
  collection cannot restore the spare-block floor the FTL freezes into
  a typed read-only mode and every write raises
  :class:`DeviceReadOnlyError`.  Reads, and host-side ``free()``, keep
  working; :class:`FlashFullError` never escapes to callers.

Query-engine code above this layer sees stable logical page numbers and
never worries about erases -- but it *pays* for them in simulated time,
which is exactly the write-amplification effect the paper's RAM/flash-aware
algorithms are designed around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.hardware.clock import to_ticks
from repro.hardware.flash import (
    BadBlockError,
    FlashError,
    NandFlash,
    ProgramFailedError,
    WearOutError,
)
from repro.hardware.pagecache import PageCache


class FlashFullError(FlashError):
    """No free flash space remains even after garbage collection.

    Internal to the FTL: every raise site is contained inside the write
    path and converted into the typed read-only transition
    (:class:`DeviceReadOnlyError`), so callers never see this escape.
    """


class DeviceReadOnlyError(FlashError):
    """The device froze into read-only mode to protect its data.

    Raised by :meth:`FlashTranslationLayer.write` once spare blocks fall
    below the floor and garbage collection cannot restore them (flash
    full of live data, or too many blocks worn out / grown bad).  Reads
    keep working; the mode is sticky for the life of the mount.  This is
    the loud, typed bottom rung of the write-degradation ladder --
    never a bare :class:`FlashFullError` escaping mid-GC.
    """


@dataclass
class FtlStats:
    """FTL-level counters (physical effects of logical writes)."""

    logical_writes: int = 0
    gc_runs: int = 0
    gc_relocations: int = 0


@dataclass
class FlashTranslationLayer:
    """Logical page store over a raw :class:`NandFlash`."""

    flash: NandFlash
    #: Blocks kept in reserve so GC always has somewhere to relocate to.
    spare_blocks: int = 2
    #: Victim selection discounts a candidate's staleness score by this
    #: many stale pages per erase cycle it sits above the coolest
    #: candidate, trading reclaim efficiency for wear levelling.
    wear_penalty: int = 1
    #: First rung of the degradation ladder: when free space (stale
    #: pages included) drops below this fraction of usable capacity --
    #: healthy blocks minus the spare reserve -- every logical write
    #: pays ``throttle_factor`` extra write-times of simulated latency,
    #: modelling foreground GC stalls.
    throttle_threshold: float = 0.10
    #: Extra simulated write-times charged per throttled logical write.
    throttle_factor: float = 4.0
    #: Optional buffer pool over *logical* pages.  Sitting above the
    #: logical->physical map means GC relocations need no invalidation
    #: (content is unchanged); only :meth:`write` and :meth:`free` do.
    cache: PageCache | None = None
    #: Every session's page cache, active or not.  A write or free by
    #: one session must invalidate the logical page in *all* caches over
    #: this FTL, not just the currently-swapped-in one, or a dormant
    #: session resumes with a stale copy.  The device core maintains the
    #: list; single-session devices leave it empty.
    peer_caches: list[PageCache] = field(default_factory=list)
    #: Optional session flight recorder; journals remaps and recovery
    #: scans for postmortems.  Host-side diagnostic state only.
    flight: object | None = None
    stats: FtlStats = field(default_factory=FtlStats)
    _map: dict[int, int] = field(default_factory=dict)  # logical -> physical
    _reverse: dict[int, int] = field(default_factory=dict)  # physical -> logical
    _stale: set[int] = field(default_factory=set)  # physical pages
    _free_blocks: deque[int] = field(default_factory=deque)
    _open_block: int | None = None
    _next_in_open: int = 0
    _next_logical: int = 0
    _free_logical: list[int] = field(default_factory=list)
    _in_gc: bool = False
    #: Second rung of the ladder: sticky (per mount) read-only latch.
    read_only: bool = False
    read_only_reason: str = ""
    _throttled: bool = False
    #: Monotonic write sequence stamped into each page's spare area; the
    #: recovery scan keeps, per logical page, the copy with the highest
    #: sequence whose CRC verifies.
    _next_seq: int = 0

    def __post_init__(self) -> None:
        if not self._free_blocks:
            self._free_blocks = deque(range(self.flash.profile.num_blocks))

    # ------------------------------------------------------------------
    # Logical page lifecycle
    # ------------------------------------------------------------------

    def allocate(self) -> int:
        """Allocate a fresh logical page number (no flash I/O yet)."""
        if self._free_logical:
            return self._free_logical.pop()
        lpage = self._next_logical
        self._next_logical += 1
        return lpage

    def free(self, lpage: int) -> None:
        """Release a logical page; its physical copy becomes garbage."""
        self._invalidate_everywhere(lpage)
        phys = self._map.pop(lpage, None)
        if phys is not None:
            self._reverse.pop(phys, None)
            self._stale.add(phys)
        self._free_logical.append(lpage)

    def _invalidate_everywhere(self, lpage: int) -> None:
        """Drop ``lpage`` from the active cache and every peer cache."""
        if self.cache is not None:
            self.cache.invalidate(lpage)
        for peer in self.peer_caches:
            if peer is not self.cache:
                peer.invalidate(lpage)

    def is_mapped(self, lpage: int) -> bool:
        return lpage in self._map

    def mapped_lpages(self) -> set[int]:
        """Snapshot of every mapped logical page number.

        Used by the engine's rebuild transactions (to free exactly the
        pages a failed build orphaned) and by the mount-time orphan
        sweep / soak invariants (map == pages the catalog references).
        """
        return set(self._map)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(self, lpage: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read from a logical page previously written.

        Full-page reads are served from (and admitted to) the buffer
        pool when one is attached; partial reads may hit a cached page
        for free but never change cache state.  A hit skips the physical
        read entirely -- no simulated-time charge, no flash counter, no
        fault decision -- exactly as a device-RAM copy would.
        """
        phys = self._map.get(lpage)
        if phys is None:
            raise FlashError(f"logical page {lpage} has never been written")
        cache = self.cache
        if cache is None or not cache.enabled:
            return self.flash.read(phys, offset, length)
        page_size = self.flash.profile.page_size
        full = offset == 0 and (length is None or length >= page_size)
        cached = cache.lookup(lpage, promote=full)
        if cached is not None:
            if length is None:
                length = page_size - offset
            if offset < 0 or length < 0 or offset + length > page_size:
                raise FlashError(
                    f"read of [{offset}, {offset + length}) exceeds page size"
                )
            return cached[offset : offset + length]
        data = self.flash.read(phys, offset, length)
        if full:
            cache.admit(lpage, data)
        return data

    def write(self, lpage: int, data: bytes) -> None:
        """Write (or overwrite) a logical page, out of place.

        Raises :class:`DeviceReadOnlyError` once the device has frozen
        writes; while under GC pressure the write is throttled (extra
        simulated latency) before being programmed.
        """
        if self.read_only:
            raise DeviceReadOnlyError(
                self.read_only_reason or "device is read-only"
            )
        self._invalidate_everywhere(lpage)
        self._charge_throttle()
        self._program_page(lpage, data)
        self.stats.logical_writes += 1

    def _charge_throttle(self) -> None:
        """First ladder rung: price GC pressure into every write.

        The pressure signal is the fraction of *usable* capacity (healthy
        blocks minus the spare reserve) still free, counting stale pages
        as reclaimable.  It decays monotonically to ~0 at the read-only
        point, so the throttle always engages before the latch.
        """
        profile = self.flash.profile
        per_block = profile.pages_per_block
        healthy = profile.num_blocks - self.flash.bad_block_count
        usable = (healthy - self.spare_blocks) * per_block
        if usable <= 0:
            return
        reserve = self.spare_blocks * per_block
        free = max(0, self.free_pages_estimate - reserve)
        engaged = free < usable * self.throttle_threshold
        if engaged != self._throttled:
            self._throttled = engaged
            if self.flight is not None:
                self.flight.record(
                    "ftl_throttle",
                    engaged=engaged,
                    free_pages=free,
                    usable_pages=usable,
                )
        if not engaged:
            return
        stall = self.throttle_factor * profile.flash_write_s
        self.flash.clock.advance(to_ticks(stall), "flash_write")
        if self.flash.metrics is not None:
            self.flash.metrics.counter(
                "ghostdb_ftl_throttle_writes_total"
            ).inc()
            self.flash.metrics.counter(
                "ghostdb_ftl_throttle_seconds_total"
            ).inc(stall)

    def _program_page(self, lpage: int, data: bytes) -> int:
        """Program ``lpage``'s new content somewhere, surviving torn
        writes and bad blocks by remapping; returns the physical page.

        The spare area is stamped with ``(lpage, seq)`` *before* the old
        mapping is released, so a power cut at any point leaves either
        the old committed copy or a newer valid copy winning the
        recovery scan -- never neither.
        """
        while True:
            phys = self._claim_physical_page()
            seq = self._next_seq
            self._next_seq += 1
            try:
                self.flash.program(phys, data, oob=(lpage, seq))
            except ProgramFailedError:
                # Torn page: garbage with an invalid CRC.  Leave it for
                # GC and retry on the next physical page.
                self._stale.add(phys)
                self._remap_count("torn")
                continue
            except BadBlockError:
                # The open block just went bad.  Its programmed pages
                # are still readable (mappings stay valid); its unused
                # tail is abandoned and the block leaves the rotation.
                self._open_block = None
                self._next_in_open = 0
                self._remap_count("bad_block")
                continue
            old = self._map.get(lpage)
            if old is not None and old != phys:
                self._reverse.pop(old, None)
                self._stale.add(old)
            self._map[lpage] = phys
            self._reverse[phys] = lpage
            return phys

    def _remap_count(self, reason: str) -> None:
        if self.flash.metrics is not None:
            self.flash.metrics.counter("ghostdb_flash_remaps_total").inc(
                reason=reason
            )
        if self.flight is not None:
            self.flight.record("ftl_remap", reason=reason)

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------

    def _claim_physical_page(self) -> int:
        per_block = self.flash.profile.pages_per_block
        if self._open_block is None or self._next_in_open >= per_block:
            self._open_next_block()
        page = self._open_block * per_block + self._next_in_open
        self._next_in_open += 1
        return page

    def _open_next_block(self) -> None:
        if len(self._free_blocks) <= self.spare_blocks and not self._in_gc:
            self._collect_garbage()
            # GC relocations may themselves have opened a fresh block;
            # abandoning it here would leak its unwritten tail forever.
            if (
                self._open_block is not None
                and self._next_in_open < self.flash.profile.pages_per_block
            ):
                return
        if not self._free_blocks:
            if self._in_gc:
                # Mid-relocation exhaustion: surface internally and let
                # _collect_garbage convert it into the read-only latch.
                raise FlashFullError(
                    "flash exhausted while relocating live pages"
                )
            raise self._enter_read_only(
                "flash is full and GC reclaimed nothing"
            )
        self._open_block = self._free_blocks.popleft()
        self._next_in_open = 0

    def _collect_garbage(self) -> None:
        """Erase stale-heavy blocks until the spare threshold is restored.

        A single victim can cost more blocks than it frees (its live
        pages need somewhere to go), so GC keeps going until free space
        is comfortably above the spare watermark or nothing reclaimable
        remains.  Exhaustion -- no reclaimable block, or free space
        running out *mid-relocation* -- never escapes as
        :class:`FlashFullError`; it latches the device read-only and
        raises :class:`DeviceReadOnlyError` instead.
        """
        self._in_gc = True
        try:
            while len(self._free_blocks) <= self.spare_blocks:
                victim = self._pick_victim_block()
                if victim is None:
                    if not self._free_blocks:
                        raise self._enter_read_only(
                            "flash is full: no block has any stale page "
                            "to reclaim"
                        )
                    return
                self._reclaim_block(victim)
        except FlashFullError as exc:
            # A relocation inside _reclaim_block ran the log dry.  Every
            # live page is still mapped (either at its old physical page
            # or its relocated copy), so data is intact -- but the
            # device can no longer guarantee forward progress: latch.
            raise self._enter_read_only(str(exc)) from exc
        finally:
            self._in_gc = False

    def _enter_read_only(self, reason: str) -> DeviceReadOnlyError:
        """Latch the read-only mode; returns the error for ``raise``."""
        if not self.read_only:
            self.read_only = True
            self.read_only_reason = f"device is read-only: {reason}"
            if self.flash.metrics is not None:
                self.flash.metrics.counter(
                    "ghostdb_ftl_readonly_transitions_total"
                ).inc()
            if self.flight is not None:
                self.flight.record(
                    "ftl_read_only",
                    reason=reason,
                    free_blocks=len(self._free_blocks),
                    bad_blocks=self.flash.bad_block_count,
                    max_wear=self.flash.max_wear,
                )
        return DeviceReadOnlyError(self.read_only_reason)

    def _reclaim_block(self, victim: int) -> None:
        """Relocate a victim block's live pages and erase it.

        Relocation leaves the map consistent at every step: a live page
        keeps its old mapping until ``_program_page`` commits the new
        copy, so an error mid-relocation (bad block, exhaustion, power
        cut) loses nothing -- every logical page still resolves to a
        valid physical copy.
        """
        self.stats.gc_runs += 1
        per_block = self.flash.profile.pages_per_block
        first = victim * per_block
        relocated = 0
        for phys in range(first, first + per_block):
            lpage = self._reverse.get(phys)
            if lpage is None:
                self._stale.discard(phys)
                continue
            # Relocate a still-valid page: read it and append elsewhere
            # with a fresh sequence number, so even if power dies before
            # the erase below, recovery prefers the relocated copy.  The
            # old mapping is released by _program_page only once the new
            # copy committed.
            data = self.flash.read(phys)
            self._program_page(lpage, data)
            relocated += 1
        self.stats.gc_relocations += relocated
        try:
            self.flash.erase_block(victim)
        except WearOutError:
            # The erase tripped the endurance limit: the block is now a
            # grown bad block.  Everything in it is garbage or already
            # relocated; retire it from the rotation for good.
            for phys in range(first, first + per_block):
                self._stale.discard(phys)
            self._remap_count("wear_out")
            if self.flash.metrics is not None:
                self.flash.metrics.counter(
                    "ghostdb_ftl_wear_bad_blocks_total"
                ).inc()
            if self.flight is not None:
                self.flight.record(
                    "ftl_wear_bad_block",
                    block=victim,
                    erase_cycles=self.flash.erase_count(victim),
                    bad_blocks=self.flash.bad_block_count,
                )
            self._update_wear_metrics()
            return
        except BadBlockError:
            # The block died on erase.  Everything in it is garbage or
            # already relocated; retire it from the rotation for good.
            for phys in range(first, first + per_block):
                self._stale.discard(phys)
            self._remap_count("bad_block")
            return
        for phys in range(first, first + per_block):
            self._stale.discard(phys)
        self._free_blocks.append(victim)
        if self.flight is not None:
            self.flight.record(
                "ftl_gc",
                victim=victim,
                relocated=relocated,
                erase_cycles=self.flash.erase_count(victim),
                free_blocks=len(self._free_blocks),
            )
        self._update_wear_metrics()

    def _update_wear_metrics(self) -> None:
        """Publish the wear picture after an erase attempt."""
        metrics = self.flash.metrics
        if metrics is None:
            return
        flash = self.flash
        counts = [
            flash.erase_count(block)
            for block in range(flash.profile.num_blocks)
            if not flash.is_bad(block)
        ]
        max_wear = flash.max_wear
        metrics.gauge("ghostdb_ftl_wear_max_erase_cycles").set(max_wear)
        metrics.gauge("ghostdb_ftl_wear_spread").set(
            max(counts, default=0) - min(counts, default=0)
        )

    def _pick_victim_block(self) -> int | None:
        """The best-scoring closed block whose live pages fit the GC
        workspace.

        A candidate's score is its stale-page count discounted by
        ``wear_penalty`` for every erase cycle it sits above the coolest
        candidate, so reclaim efficiency (most garbage per erase) is
        traded off against wear levelling (erases steered toward
        low-cycle blocks).  Ties prefer the cooler, then the
        lower-numbered block -- fully deterministic.

        Relocations consume free pages; choosing a victim with more live
        pages than the remaining workspace would deadlock the collector
        mid-move, so such blocks only become eligible once earlier
        erases have widened the workspace.
        """
        per_block = self.flash.profile.pages_per_block
        stale_per_block: dict[int, int] = {}
        for phys in self._stale:
            block = phys // per_block
            if block == self._open_block:
                continue
            stale_per_block[block] = stale_per_block.get(block, 0) + 1
        if not stale_per_block:
            return None
        live_per_block: dict[int, int] = {}
        for phys in self._reverse:
            block = phys // per_block
            if block in stale_per_block:
                live_per_block[block] = live_per_block.get(block, 0) + 1
        open_room = 0
        if self._open_block is not None:
            open_room = per_block - self._next_in_open
        workspace = len(self._free_blocks) * per_block + open_room
        candidates = [
            block
            for block, stale in stale_per_block.items()
            if live_per_block.get(block, 0) + 1 <= workspace
        ]
        if not candidates:
            return None
        erase_count = self.flash.erase_count
        coolest = min(erase_count(block) for block in candidates)

        def preference(block: int) -> tuple[int, int, int]:
            wear = erase_count(block)
            score = stale_per_block[block] - self.wear_penalty * (
                wear - coolest
            )
            return (score, -wear, -block)

        return max(candidates, key=preference)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        flash: NandFlash,
        spare_blocks: int = 2,
        flight=None,
    ) -> "FlashTranslationLayer":
        """Rebuild an FTL from the spare-area journal after power loss.

        The scan reads every programmed page's spare area (charged as
        one partial read each -- the OOB area is a few bytes), keeps the
        highest-sequence copy with a valid CRC per logical page, and
        marks everything else (torn pages, superseded copies) stale for
        GC.  Because writes stamp the new copy before releasing the old
        one, and GC relocates with fresh sequence numbers before
        erasing, the surviving map is exactly the last committed state:
        no torn page is ever exposed, no committed write is lost.
        """
        ftl = cls(flash=flash, spare_blocks=spare_blocks, flight=flight)
        per_block = flash.profile.pages_per_block
        programmed = flash.programmed_pages()
        best: dict[int, tuple[int, int]] = {}  # lpage -> (seq, phys)
        touched_blocks: set[int] = set()
        torn = 0
        max_seq = -1
        max_lpage = -1
        for phys in programmed:
            touched_blocks.add(phys // per_block)
            entry = flash.oob(phys)
            if entry is None or not flash.page_crc_ok(phys):
                ftl._stale.add(phys)
                torn += 1
                continue
            lpage, seq, _crc = entry
            max_seq = max(max_seq, seq)
            max_lpage = max(max_lpage, lpage)
            prev = best.get(lpage)
            if prev is None or seq > prev[0]:
                if prev is not None:
                    ftl._stale.add(prev[1])
                best[lpage] = (seq, phys)
            else:
                ftl._stale.add(phys)
        flash.charge_partial_reads(len(programmed))
        for lpage, (_seq, phys) in best.items():
            ftl._map[lpage] = phys
            ftl._reverse[phys] = lpage
        ftl._next_logical = max_lpage + 1
        ftl._next_seq = max_seq + 1
        ftl._free_blocks = deque(
            block
            for block in range(flash.profile.num_blocks)
            if block not in touched_blocks and not flash.is_bad(block)
        )
        ftl._open_block = None
        ftl._next_in_open = 0
        if flash.metrics is not None:
            flash.metrics.counter("ghostdb_recovery_scans_total").inc()
            flash.metrics.counter(
                "ghostdb_recovery_pages_scanned_total"
            ).inc(len(programmed))
            flash.metrics.counter(
                "ghostdb_recovery_torn_pages_total"
            ).inc(torn)
        if flight is not None:
            flight.record(
                "ftl_recovery",
                scanned=len(programmed),
                torn=torn,
                mapped_pages=len(best),
            )
        return ftl

    @property
    def mapped_pages(self) -> int:
        return len(self._map)

    @property
    def free_pages_estimate(self) -> int:
        per_block = self.flash.profile.pages_per_block
        in_open = 0
        if self._open_block is not None:
            in_open = per_block - self._next_in_open
        return len(self._free_blocks) * per_block + in_open + len(self._stale)
