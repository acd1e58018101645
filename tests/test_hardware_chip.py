"""Secure-chip CPU cost model and device assembly."""

import pytest

from repro.core.ghostdb import GhostDB
from repro.hardware.chip import CYCLES, SecureChip
from repro.hardware.clock import SimClock
from repro.hardware.device import SmartUsbDevice
from repro.hardware.profiles import DEMO_DEVICE, TINY_DEVICE


def test_charge_advances_clock_by_cycles():
    chip = SecureChip(profile=DEMO_DEVICE, clock=SimClock())
    chip.charge("compare", 10)
    expected = CYCLES["compare"] * 10 / DEMO_DEVICE.cpu_hz
    assert chip.clock.now == pytest.approx(expected)
    assert chip.stats.total_cycles == CYCLES["compare"] * 10


def test_unknown_primitive_rejected():
    chip = SecureChip(profile=DEMO_DEVICE, clock=SimClock())
    with pytest.raises(ValueError, match="unknown CPU primitive"):
        chip.charge("teleport")


def test_negative_count_rejected():
    chip = SecureChip(profile=DEMO_DEVICE, clock=SimClock())
    with pytest.raises(ValueError):
        chip.charge("compare", -1)


@pytest.mark.parametrize("count", [2.5, True, float("nan")])
def test_fractional_or_bool_count_rejected(count):
    """``charge("compare", 2.5)`` used to record 100.0 cycles."""
    chip = SecureChip(profile=DEMO_DEVICE, clock=SimClock())
    with pytest.raises(ValueError, match="whole number"):
        chip.charge("compare", count)
    assert chip.stats.total_cycles == 0
    assert chip.clock.now == 0.0


def test_device_assembles_shared_clock():
    device = SmartUsbDevice(DEMO_DEVICE)
    page = device.ftl.allocate()
    device.ftl.write(page, b"x")
    device.chip.charge("compare")
    breakdown = device.clock.breakdown()
    assert breakdown.flash_write > 0
    assert breakdown.cpu > 0
    assert device.clock.now == pytest.approx(breakdown.total)


def test_device_ram_capacity_follows_profile():
    assert SmartUsbDevice(DEMO_DEVICE).ram.capacity == 64 * 1024
    assert SmartUsbDevice(TINY_DEVICE).ram.capacity == 16 * 1024


def test_reset_measurements_preserves_storage():
    device = SmartUsbDevice(DEMO_DEVICE)
    page = device.ftl.allocate()
    device.ftl.write(page, b"persistent")
    device.reset_measurements()
    assert device.clock.now == 0.0
    assert device.flash.stats.page_writes == 0
    # Storage survives the reset.
    assert device.ftl.read(page, 0, 10) == b"persistent"


def test_counters_snapshot_is_independent():
    db = GhostDB()
    before = db.device.counters()
    with db.core.activated(db.lease):
        page = db.device.ftl.allocate()
        db.device.ftl.write(page, b"y")
    after = db.device.counters()
    assert before.flash.page_writes == 0
    assert after.flash.page_writes == 1
    assert after.time.flash_write > before.time.flash_write
