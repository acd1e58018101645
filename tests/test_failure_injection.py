"""Failure injection: corrupted links, worn flash, starved RAM.

The simulator's fault hooks exist so the engine's failure behaviour is a
tested property, not an accident.
"""

import pytest

from repro.engine.operators import ExecContext
from repro.faults import FaultProfile, UsbTransferError
from repro.hardware.ftl import DeviceReadOnlyError
from repro.hardware.profiles import DEMO_DEVICE
from repro.hardware.ram import RamExhaustedError
from repro.visible.link import Fetch
from repro.workload.queries import demo_query


class TestUsbCorruption:
    def test_relentless_corruption_raises_typed_error(self, fresh_session):
        fresh_session.reset_measurements()
        # Every frame mangled: the retry budget must run out cleanly.
        fresh_session.set_faults(
            FaultProfile(name="all-corrupt", usb_corrupt_rate=1.0), seed=3
        )
        try:
            with pytest.raises(UsbTransferError):
                fresh_session.link.fetch_values(
                    [Fetch("visit", [1, 2], ["date"])]
                )
        finally:
            fresh_session.clear_faults()

    def test_corruption_of_binary_ids_recovered_by_framing(
        self, fresh_session, demo_data
    ):
        """Every message -- packed ID batches included -- crosses inside
        a CRC32 frame, so in-flight corruption is detected and
        retransmitted and the query's answer is unchanged."""
        fresh_session.reset_measurements()
        reference = fresh_session.query(demo_query())
        fresh_session.reset_measurements()
        fresh_session.set_faults(
            FaultProfile(name="some-corrupt", usb_corrupt_rate=0.1), seed=7
        )
        try:
            result = fresh_session.query(demo_query())
        finally:
            fresh_session.clear_faults()
        assert result.rows == reference.rows
        assert fresh_session.fault_injector is None


class TestFlashWearOut:
    def test_wear_out_surfaces_during_heavy_churn(self):
        profile = DEMO_DEVICE.with_overrides(
            num_blocks=8, max_erase_cycles=4
        )
        from repro.hardware.device import SmartUsbDevice

        device = SmartUsbDevice(profile)
        page = device.ftl.allocate()
        # Worn-out blocks become grown bad blocks and are retired; once
        # too few healthy blocks remain, the device latches read-only
        # instead of letting WearOutError escape mid-GC.
        with pytest.raises(DeviceReadOnlyError):
            for i in range(20_000):
                device.ftl.write(page, b"churn")
        assert device.flash.bad_block_count > 0
        assert device.ftl.read_only

    def test_wear_spread_by_victim_selection(self):
        """Wear-aware victim selection keeps erase counts close."""
        profile = DEMO_DEVICE.with_overrides(num_blocks=8)
        from repro.hardware.device import SmartUsbDevice

        device = SmartUsbDevice(profile)
        page = device.ftl.allocate()
        for i in range(3_000):
            device.ftl.write(page, b"churn")
        counts = [
            device.flash.erase_count(b) for b in range(profile.num_blocks)
        ]
        active = [c for c in counts if c > 0]
        assert len(active) >= profile.num_blocks // 2
        assert max(active) <= min(active) + max(3, max(active) // 2)


class TestRamStarvation:
    def test_operator_failure_releases_all_ram(self, fresh_session):
        """A plan killed mid-flight must not leak budget."""
        session = fresh_session
        session.reset_measurements()
        hog_size = session.device.ram.available - 3 * 2048
        hog = session.device.ram.allocate(hog_size, "hog")
        try:
            with pytest.raises(RamExhaustedError):
                session.query(demo_query())
        finally:
            hog.release()
        assert session.device.ram.used == 0

    def test_fan_in_adapts_to_pressure(self, fresh_session):
        session = fresh_session
        ctx = ExecContext(
            device=session.device, link=session.link, db=session.hidden
        )
        free_fan = ctx.fan_in()
        hog = session.device.ram.allocate(
            session.device.ram.available - 5 * 2048, "hog"
        )
        try:
            assert ctx.fan_in() < free_fan
            assert ctx.fan_in() >= 2
        finally:
            hog.release()


class TestRecoveryAfterFailure:
    def test_session_still_usable_after_failed_query(self, fresh_session):
        session = fresh_session
        session.reset_measurements()
        hog = session.device.ram.allocate(
            session.device.ram.available - 2048, "hog"
        )
        with pytest.raises(RamExhaustedError):
            session.query(demo_query())
        hog.release()
        session.reset_measurements()
        result = session.query(demo_query())
        assert result.rows is not None
