"""SimClock accounting."""

import pytest

from repro.hardware.clock import (
    CATEGORIES,
    TICKS_PER_SECOND,
    SimClock,
    TimeBreakdown,
)
from repro.hardware.profiles import DEMO_DEVICE

#: Ticks in one simulated second and in a quarter of one.
SECOND = TICKS_PER_SECOND
QUARTER = TICKS_PER_SECOND // 4


def test_clock_starts_at_zero():
    clock = SimClock()
    assert clock.now == 0.0
    assert clock.breakdown().total == 0.0


def test_advance_accumulates_per_category():
    clock = SimClock()
    clock.advance(2 * QUARTER, "flash_read")
    clock.advance(QUARTER, "flash_read")
    clock.advance(SECOND, "usb")
    breakdown = clock.breakdown()
    assert breakdown.flash_read == 0.75
    assert breakdown.usb == 1.0
    assert clock.now == 1.75


def test_every_declared_category_is_chargeable():
    clock = SimClock()
    for category in CATEGORIES:
        clock.advance(SECOND // 10, category)
    assert clock.now == len(CATEGORIES) / 10


def test_unknown_category_rejected():
    clock = SimClock()
    with pytest.raises(ValueError, match="unknown clock category"):
        clock.advance(SECOND, "quantum")


def test_negative_charge_rejected():
    clock = SimClock()
    with pytest.raises(ValueError, match="negative"):
        clock.advance(-1, "cpu")


@pytest.mark.parametrize(
    "charge", [float("nan"), float("inf"), 0.5, 1.0, True]
)
def test_non_integer_charge_rejected(charge):
    """A NaN charge used to turn every later total into NaN (and an
    infinite one into inf); a tick charge must be a whole int."""
    clock = SimClock()
    with pytest.raises(ValueError, match="whole number"):
        clock.advance(charge, "usb")
    assert clock.breakdown().total_ticks == 0


@pytest.mark.parametrize(
    "override",
    [
        {"flash_read_full_s": 80.5e-15},
        {"usb_setup_s": 1e-16},
        {"cpu_hz": 3e7},
        {"usb_bits_per_s": 12e6 + 0.5},
    ],
)
def test_profile_constants_must_be_whole_ticks(override):
    with pytest.raises(ValueError):
        DEMO_DEVICE.with_overrides(**override)


def test_breakdown_is_a_snapshot():
    clock = SimClock()
    clock.advance(SECOND, "cpu")
    snap = clock.breakdown()
    clock.advance(SECOND, "cpu")
    assert snap.cpu == 1.0
    assert clock.breakdown().cpu == 2.0


def test_breakdown_subtraction():
    a, b = SimClock(), SimClock()
    a.advance(2 * SECOND, "flash_read")
    a.advance(SECOND, "usb")
    b.advance(2 * QUARTER, "flash_read")
    b.advance(SECOND, "usb")
    diff = a.breakdown() - b.breakdown()
    assert diff.flash_read == 1.5
    assert diff.usb == 0.0
    assert diff.total == 1.5
    assert diff + b.breakdown() == a.breakdown()


def test_breakdown_as_dict_covers_all_categories():
    assert set(TimeBreakdown().as_dict()) == set(CATEGORIES)


def test_reset_zeroes_everything():
    clock = SimClock()
    clock.advance(SECOND, "flash_write")
    clock.reset()
    assert clock.now == 0.0
    assert clock.breakdown().flash_write == 0.0
