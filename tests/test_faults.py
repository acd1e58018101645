"""The fault injector itself: determinism, profiles, scheduling."""

import pytest

from repro.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
)
from repro.obs.registry import MetricsRegistry

MIXED = FAULT_PROFILES["mixed"].scaled(10)


def drive(injector, usb_ops=40, flash_ops=40):
    """A fixed synthetic op sequence; returns the schedule signature."""
    for i in range(usb_ops):
        injector.usb_decision(64 + i)
    for i in range(flash_ops):
        injector.flash_decision(("read", "program", "erase")[i % 3],
                                data_len=128)
    return injector.schedule_signature()


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = drive(FaultInjector(MIXED, seed=42))
        b = drive(FaultInjector(MIXED, seed=42))
        assert a == b
        assert a, "scaled mixed profile over 80 ops should fire"

    def test_events_carry_identical_parameters(self):
        a = FaultInjector(MIXED, seed=42)
        b = FaultInjector(MIXED, seed=42)
        drive(a)
        drive(b)
        assert a.events == b.events  # positions, masks, lengths too

    def test_different_seed_different_schedule(self):
        assert drive(FaultInjector(MIXED, seed=1)) != drive(
            FaultInjector(MIXED, seed=2)
        )

    def test_op_counters_advance_without_faults(self):
        injector = FaultInjector(FAULT_PROFILES["none"], seed=0)
        sig = drive(injector, usb_ops=5, flash_ops=5)
        assert sig == ()
        assert injector.usb_ops == 5
        assert injector.flash_ops == 5


class TestProfiles:
    def test_registry_names_match_keys(self):
        for key, profile in FAULT_PROFILES.items():
            assert profile.name == key

    def test_none_profile_has_no_rates(self):
        none = FAULT_PROFILES["none"]
        assert drive(FaultInjector(none, seed=0), 100, 100) == ()

    def test_scaled_caps_at_one(self):
        profile = FaultProfile(name="x", usb_corrupt_rate=0.4)
        assert profile.scaled(10).usb_corrupt_rate == 1.0
        assert profile.scaled(0.5).usb_corrupt_rate == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("usb_stall_seconds", float("nan")),
            ("usb_stall_seconds", float("inf")),
            ("usb_stall_seconds", -0.5),
            ("usb_drop_rate", 1.5),
            ("flash_read_bitflip_rate", -0.1),
            ("usb_corrupt_rate", float("nan")),
        ],
    )
    def test_invalid_profile_rejected_at_construction(self, field, value):
        """A NaN stall used to poison the device clock for good, and a
        negative one to fail mid-transfer; both now fail up front."""
        with pytest.raises(ValueError, match=field):
            FaultProfile(name="bad", usb_stall_rate=1.0, **{field: value})

    def test_single_roll_picks_one_usb_fault(self):
        # corrupt=1.0: every transfer corrupts, never drops/stalls.
        injector = FaultInjector(
            FaultProfile(name="c", usb_corrupt_rate=1.0, usb_drop_rate=1.0,
                         usb_stall_rate=1.0, usb_unplug_rate=1.0),
            seed=0,
        )
        decision = injector.usb_decision(32)
        # Cumulative edges in severity order: unplug wins the roll.
        assert decision.kind == "unplug"

    def test_corrupt_parameters_in_range(self):
        injector = FaultInjector(
            FaultProfile(name="c", usb_corrupt_rate=1.0), seed=9
        )
        for _ in range(50):
            d = injector.usb_decision(16)
            assert d.kind == "corrupt"
            assert 0 <= d.position < 16
            assert 1 <= d.xor_mask <= 255


class TestScheduledPowerCut:
    def test_cut_fires_at_exact_op_index(self):
        injector = FaultInjector(FAULT_PROFILES["none"], seed=0)
        injector.schedule_power_cut(at_flash_op=2)
        assert injector.flash_decision("read", 64) is None
        assert injector.flash_decision("read", 64) is None
        cut = injector.flash_decision("read", 64)
        assert cut.kind == "power_cut"
        assert cut.op_index == 2

    def test_cut_does_not_perturb_rate_schedule(self):
        """Sweeping the cut point must replay the same pre-cut faults."""
        profile = FAULT_PROFILES["flash"].scaled(20)
        reference = FaultInjector(profile, seed=5)
        for _ in range(10):
            reference.flash_decision("read", 64)
        swept = FaultInjector(profile, seed=5)
        swept.schedule_power_cut(at_flash_op=8)
        for i in range(9):
            swept.flash_decision("read", 64)
        assert (
            swept.schedule_signature()[:-1]
            == tuple(
                e for e in reference.schedule_signature() if e[2] < 8
            )
        )
        assert swept.events[-1].kind == "power_cut"

    def test_mid_erase_cut_draws_wiped_prefix(self):
        injector = FaultInjector(FAULT_PROFILES["none"], seed=3)
        injector.schedule_power_cut(at_flash_op=0)
        cut = injector.flash_decision("erase", data_len=32)
        assert cut.kind == "power_cut"
        assert 0 <= cut.length <= 32


class TestBookkeeping:
    def test_metrics_counted_by_site_and_kind(self):
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultProfile(name="c", usb_corrupt_rate=1.0),
            seed=0,
            metrics=registry,
        )
        injector.usb_decision(8)
        injector.usb_decision(8)
        counter = registry.counter("ghostdb_faults_injected_total")
        assert counter.value(site="usb", kind="corrupt") == 2

    def test_signature_matches_events(self):
        injector = FaultInjector(MIXED, seed=11)
        drive(injector)
        assert injector.schedule_signature() == tuple(
            (e.site, e.kind, e.op_index) for e in injector.events
        )
