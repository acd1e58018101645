"""Each device read and buffer-pool lookup is counted once.

The NAND flash and the buffer pool keep plain integer tallies of their
page reads and lookups; a registry settler folds them into
``ghostdb_device_flash_reads_total{kind}``, ``ghostdb_cache_hits_total``
and ``ghostdb_cache_misses_total`` before every exposition, iteration
and reset -- as the secure chip does for its cycle counter.  So the hot
paths make no registry call at all, and what is exposed still equals
what the hardware did over its lifetime, measurement resets, leased
sessions and remounts included.
"""

from __future__ import annotations

import re
import sys

import pytest

from repro.engine.operators import ExecContext, SktScanOp
from repro.faults import GhostDBFaultError
from repro.hardware.flash import NandFlash
from repro.hardware.pagecache import PageCache
from repro.obs.registry import BoundCounter, MetricsRegistry
from repro.workload.queries import demo_query, query_purpose_only

from tests.conftest import build_demo_session

SAMPLE = re.compile(r"^(ghostdb_\w+?)(\{[^}]*\})? (\S+)$")


def exposed(db) -> dict[str, int]:
    """The three families as ``metrics_text()`` renders them."""
    wanted = {
        'ghostdb_device_flash_reads_total{kind="full"}': "full",
        'ghostdb_device_flash_reads_total{kind="partial"}': "partial",
        "ghostdb_cache_hits_total": "hits",
        "ghostdb_cache_misses_total": "misses",
    }
    values = dict.fromkeys(wanted.values(), 0)
    for line in db.metrics_text().splitlines():
        match = SAMPLE.match(line)
        if match and match[1] + (match[2] or "") in wanted:
            values[wanted[match[1] + (match[2] or "")]] = int(match[3])
    return values


class HardwareCounts:
    """Every page read the flash charges and every lookup a pool with a
    metrics sink answers (the device's own and the console's; admitted
    sessions' pools report none), counted as they happen since the
    device was built or the registry last reset -- the console's
    ``reset_measurements`` zeroes the whole registry."""

    def __init__(self, monkeypatch):
        self.counts = {"full": 0, "partial": 0, "hits": 0, "misses": 0}
        charge_read = NandFlash._charge_read
        charge_partial_reads = NandFlash.charge_partial_reads
        lookup = PageCache.lookup
        reset = MetricsRegistry.reset
        counts = self.counts

        def zeroing_reset(registry):
            reset(registry)
            counts.update(dict.fromkeys(counts, 0))

        def counting_charge_read(flash, partial):
            counts["partial" if partial else "full"] += 1
            charge_read(flash, partial)

        def counting_charge_partial_reads(flash, count):
            counts["partial"] += count
            charge_partial_reads(flash, count)

        def counting_lookup(cache, lpage, promote):
            data = lookup(cache, lpage, promote)
            if cache.enabled and cache.metrics is not None:
                counts["misses" if data is None else "hits"] += 1
            return data

        monkeypatch.setattr(NandFlash, "_charge_read", counting_charge_read)
        monkeypatch.setattr(
            NandFlash, "charge_partial_reads", counting_charge_partial_reads
        )
        monkeypatch.setattr(PageCache, "lookup", counting_lookup)
        monkeypatch.setattr(MetricsRegistry, "reset", zeroing_reset)


def test_families_equal_hardware_lifetime_counts(monkeypatch, demo_data):
    hardware = HardwareCounts(monkeypatch)
    db = build_demo_session(demo_data)

    def check(point: str) -> None:
        assert exposed(db) == hardware.counts, point

    check("after load")
    assert hardware.counts["full"] and hardware.counts["hits"]
    for sql in (demo_query(), query_purpose_only()):
        db.query(sql)
        check(f"after {sql[:30]}")
    lease = db.open_session("counted", db.profile.ram_bytes // 2)
    lease.query(demo_query())
    check("after a leased statement")
    db.reset_measurements()
    check("after reset_measurements()")
    db.query(query_purpose_only())
    lease.reset_measurements()
    check("after a lease's reset_measurements()")
    lease.query(query_purpose_only())
    lease.close()
    check("after the lease closed")
    injector = db.set_faults("none")
    injector.schedule_power_cut(3)
    with pytest.raises(GhostDBFaultError):
        db.query(demo_query())
    check("after a power cut")
    db.clear_faults()
    db.remount()
    check("after remount")
    db.query(demo_query())
    check("after a statement on the remounted device")


def test_hot_paths_make_no_registry_call(monkeypatch, demo_session):
    """A full SKT scan through the pool: no counter increment comes
    from a flash read or a pool lookup, and the families still move."""
    db = demo_session
    hot = {NandFlash.read.__code__, PageCache.lookup.__code__}
    callers: list[str] = []
    inc = BoundCounter.inc

    def watched_inc(counter, amount=1):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in hot:
                callers.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        inc(counter, amount)

    before = exposed(db)
    monkeypatch.setattr(BoundCounter, "inc", watched_inc)
    ctx = ExecContext(device=db.device, link=db.link, db=db.hidden)
    scan = SktScanOp(ctx, db.hidden.skts["prescription"])
    with db.statement():
        try:
            assert len(list(scan.rows())) == db.hidden.heaps[
                "prescription"
            ].extent.count
        finally:
            scan.close()
    after = exposed(db)
    assert callers == []
    assert after["full"] > before["full"]
    assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
