"""USB channel: timing, capture, fault injection."""

import pytest

from repro.hardware.clock import SimClock
from repro.hardware.profiles import DEMO_DEVICE, HIGH_SPEED_DEVICE
from repro.hardware.usb import Direction, UsbChannel, UsbError


@pytest.fixture
def channel():
    return UsbChannel(profile=DEMO_DEVICE, clock=SimClock())


def test_transfer_returns_payload(channel):
    delivered = channel.transfer(Direction.TO_DEVICE, "ids", b"\x00\x01")
    assert delivered == b"\x00\x01"


def test_transfer_time_matches_throughput(channel):
    payload = b"x" * 12_000
    t0 = channel.clock.now
    channel.transfer(Direction.TO_DEVICE, "ids", payload)
    elapsed = channel.clock.now - t0
    expected = DEMO_DEVICE.usb_setup_s + len(payload) * 8 / DEMO_DEVICE.usb_bits_per_s
    assert elapsed == pytest.approx(expected)


@pytest.mark.parametrize("nbytes, byte_ticks", [(1, 666_666_667), (2, 1_333_333_333)])
def test_message_byte_time_rounds_once_to_the_nearest_tick(
    channel, nbytes, byte_ticks
):
    """8 bits at 12 Mb/s is 666,666,666.67 fs: it rounds up to the
    nearest tick, and 16 bits (1,333,333,333.33 fs) rounds down."""
    channel.transfer(Direction.TO_DEVICE, "ids", b"x" * nbytes)
    assert channel.clock.breakdown().ticks["usb"] == (
        DEMO_DEVICE.usb_setup_ticks + byte_ticks
    )


def test_high_speed_profile_is_40x_faster_per_byte():
    slow = UsbChannel(profile=DEMO_DEVICE, clock=SimClock())
    fast = UsbChannel(profile=HIGH_SPEED_DEVICE, clock=SimClock())
    payload = b"x" * 1_000_000
    slow.transfer(Direction.TO_DEVICE, "ids", payload)
    fast.transfer(Direction.TO_DEVICE, "ids", payload)
    slow_bytes_time = slow.clock.now - DEMO_DEVICE.usb_setup_s
    fast_bytes_time = fast.clock.now - HIGH_SPEED_DEVICE.usb_setup_s
    assert slow_bytes_time / fast_bytes_time == pytest.approx(40.0)


def test_every_message_is_captured(channel):
    channel.transfer(Direction.TO_HOST, "request", b"q1")
    channel.transfer(Direction.TO_DEVICE, "ids", b"\x00" * 8)
    assert channel.message_count == 2
    record = channel.log[0]
    assert record.direction is Direction.TO_HOST
    assert record.kind == "request"
    assert record.payload == b"q1"
    assert record.seq == 0


def test_direction_byte_accounting(channel):
    channel.transfer(Direction.TO_DEVICE, "ids", b"abcd")
    channel.transfer(Direction.TO_HOST, "request", b"xy")
    assert channel.bytes_to_device == 4
    assert channel.bytes_to_host == 2


def test_records_filtered_by_direction(channel):
    channel.transfer(Direction.TO_DEVICE, "ids", b"a")
    channel.transfer(Direction.TO_HOST, "request", b"b")
    to_host = channel.records(Direction.TO_HOST)
    assert len(to_host) == 1
    assert to_host[0].payload == b"b"


def test_non_bytes_payload_rejected(channel):
    with pytest.raises(UsbError, match="must be bytes"):
        channel.transfer(Direction.TO_DEVICE, "ids", "text")


def test_fault_injection_corrupts_deterministically(channel):
    from repro.faults import FaultInjector, FaultProfile

    channel.faults = FaultInjector(
        FaultProfile(name="all-corrupt", usb_corrupt_rate=1.0), seed=7
    )
    delivered = channel.transfer(Direction.TO_DEVICE, "ids", b"\x01\x02")
    assert delivered != b"\x01\x02"
    assert channel.log[0].faults == ("corrupt",)
    # Same seed, same payload: bit-identical corruption.
    replay = UsbChannel(profile=DEMO_DEVICE, clock=SimClock())
    replay.faults = FaultInjector(
        FaultProfile(name="all-corrupt", usb_corrupt_rate=1.0), seed=7
    )
    assert replay.transfer(Direction.TO_DEVICE, "ids", b"\x01\x02") == delivered


def test_fault_injection_drop_and_unplug_raise(channel):
    from repro.faults import (
        DeviceUnpluggedError,
        FaultInjector,
        FaultProfile,
    )
    from repro.hardware.usb import UsbDroppedError

    channel.faults = FaultInjector(
        FaultProfile(name="all-drop", usb_drop_rate=1.0), seed=0
    )
    with pytest.raises(UsbDroppedError):
        channel.transfer(Direction.TO_DEVICE, "ids", b"\x01")
    # The dropped message is still captured (the spy saw it leave).
    assert channel.log[-1].faults == ("drop",)
    channel.faults = FaultInjector(
        FaultProfile(name="all-unplug", usb_unplug_rate=1.0), seed=0
    )
    with pytest.raises(DeviceUnpluggedError):
        channel.transfer(Direction.TO_DEVICE, "ids", b"\x01")


def test_fault_injection_stall_charges_clock(channel):
    from repro.faults import FaultInjector, FaultProfile

    profile = FaultProfile(
        name="all-stall", usb_stall_rate=1.0, usb_stall_seconds=0.25
    )
    channel.faults = FaultInjector(profile, seed=0)
    t0 = channel.clock.now
    delivered = channel.transfer(Direction.TO_DEVICE, "ids", b"\x01\x02")
    assert delivered == b"\x01\x02"  # late but intact
    base = DEMO_DEVICE.usb_setup_s + 2 * 8 / DEMO_DEVICE.usb_bits_per_s
    assert channel.clock.now - t0 == pytest.approx(base + 0.25)


def test_clear_log_resets_capture_not_clock(channel):
    channel.transfer(Direction.TO_DEVICE, "ids", b"abc")
    t = channel.clock.now
    channel.clear_log()
    assert channel.message_count == 0
    assert channel.bytes_to_device == 0
    assert channel.clock.now == t
