"""Exact device accounting: integer clock ticks and the chip's tally.

A chip charge only adds to a per-primitive tally that settles into the
clock, ``CpuStats`` and the cycles counter before anything reads them.
These properties pin down that settling is invisible: any grouping,
order or settle point of one charge sequence gives identical totals,
observation changes nothing, interleaved leases add up exactly, and a
measurement reset forgets every charge made before it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghostdb import GhostDB
from repro.core.scheduler import Scheduler
from repro.hardware.chip import CYCLES, SecureChip
from repro.hardware.clock import CATEGORIES, SimClock
from repro.hardware.device import SmartUsbDevice
from repro.hardware.profiles import DEMO_DEVICE
from repro.obs.registry import MetricsRegistry
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL, QUERY_FAMILIES

SCALE = 200

#: One charge: ``(kind, category or primitive, amount)``.
CHARGES = st.lists(
    st.one_of(
        st.tuples(
            st.just("clock"),
            st.sampled_from(CATEGORIES),
            st.integers(0, 10**12),
        ),
        st.tuples(
            st.just("chip"), st.sampled_from(sorted(CYCLES)), st.integers(0, 40)
        ),
    ),
    max_size=30,
)


@lru_cache(maxsize=1)
def small_data() -> dict[str, list]:
    return MedicalDataGenerator(
        DatasetConfig(n_prescriptions=SCALE)
    ).generate()


def build_db() -> GhostDB:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(small_data())
    return db


def _replay(charges, per_item: bool, settle_at: set[int]):
    """Apply ``charges`` to a fresh clock and chip; ``per_item`` splits
    every ``count=n`` chip charge into ``n`` single charges, and the
    clock is read (which settles) before each index in ``settle_at``."""
    registry = MetricsRegistry()
    clock = SimClock()
    chip = SecureChip(DEMO_DEVICE, clock, metrics=registry)
    for i, (kind, what, amount) in enumerate(charges):
        if i in settle_at:
            clock.breakdown()
        if kind == "clock":
            clock.advance(amount, what)
        elif per_item:
            for _ in range(amount):
                chip.charge(what)
        else:
            chip.charge(what, count=amount)
    cycles = registry.counter("ghostdb_device_cpu_cycles_total")
    return (
        clock.breakdown(),
        chip.stats.cycles_by_op,
        {op: cycles.value(op=op) for op in CYCLES},
    )


@settings(max_examples=80, deadline=None)
@given(charges=CHARGES, data=st.data())
def test_any_split_of_a_charge_sequence_gives_identical_totals(charges, data):
    reference = _replay(charges, per_item=False, settle_at=set())
    reordered = data.draw(st.permutations(charges))
    per_item = data.draw(st.booleans())
    settle_at = data.draw(st.sets(st.integers(0, len(charges))))
    breakdown, cycles_by_op, exposed = _replay(reordered, per_item, settle_at)
    assert breakdown == reference[0]
    assert breakdown.ticks == reference[0].ticks
    assert cycles_by_op == reference[1]
    assert exposed == reference[2]


def test_tracing_changes_no_breakdown_or_operator_self_time():
    def run(tracing: bool) -> list:
        db = build_db()
        db.obs.tracer.enabled = tracing
        observed = []
        for sql in QUERY_FAMILIES.values():
            metrics = db.query(sql).metrics
            observed.append((
                metrics.time,
                [
                    (
                        op.name,
                        op.self_seconds,
                        op.self_flash_seconds,
                        op.self_usb_seconds,
                    )
                    for op in metrics.operators
                ],
            ))
        return observed

    assert run(True) == run(False)


def test_interleaved_leases_sum_exactly_to_the_device_clock():
    statements = list(QUERY_FAMILIES.values())[:4]
    names = ("alice", "bob")

    serial_db = build_db()
    serial = {}
    for name in names:
        ctx = serial_db.open_session(name)
        serial[name] = [ctx.query(sql).metrics.time for sql in statements]
        serial_db.close_session(ctx)

    db = build_db()
    sessions = {name: db.open_session(name) for name in names}
    clock = db.core.device.clock
    device_before = clock.breakdown()
    leases_before = {
        name: ctx.device.counters().time for name, ctx in sessions.items()
    }
    sched = Scheduler(db.core)
    tickets = []
    for sql in statements:
        tickets.extend(sched.submit(sessions[name], sql) for name in names)
        sched.run()
    device_delta = clock.breakdown() - device_before
    lease_deltas = [
        sessions[name].device.counters().time - leases_before[name]
        for name in names
    ]

    assert lease_deltas[0] + lease_deltas[1] == device_delta
    for name in names:
        interleaved = [
            t.result.metrics.time for t in tickets if t.session == name
        ]
        assert interleaved == serial[name]


def test_charges_land_on_the_tee_in_place_when_made():
    """The tee's edges settle the chip's tally, also when a step raises,
    and a lease's counters settle it mid-step."""
    db = build_db()
    ctx = db.open_session("tenant")
    chip = db.core.device.chip
    cycle = DEMO_DEVICE.cycle_ticks
    before = ctx.device.counters().time
    chip.charge("compare", 5)  # not the lease's: no tee yet
    with db.core.activated(ctx.lease):
        chip.charge("hash", 3)
        mid_step = ctx.device.counters().time - before
        chip.charge("hash", 2)
    with pytest.raises(RuntimeError):
        with db.core.activated(ctx.lease):
            chip.charge("merge_step", 4)
            raise RuntimeError("step failed")
    chip.charge("compare", 6)  # not the lease's: tee gone
    after = ctx.device.counters().time - before
    assert mid_step.ticks["cpu"] == 3 * CYCLES["hash"] * cycle
    assert after.ticks["cpu"] == (
        5 * CYCLES["hash"] + 4 * CYCLES["merge_step"]
    ) * cycle
    db.close_session(ctx)


def test_metrics_exposition_settles_the_cycle_tally():
    registry = MetricsRegistry()
    device = SmartUsbDevice(DEMO_DEVICE, metrics=registry)
    device.chip.charge("compare", 7)
    cycles = 7 * CYCLES["compare"]
    assert (
        f'ghostdb_device_cpu_cycles_total{{op="compare"}} {cycles}'
        in registry.expose_text()
    )


def test_charges_before_reset_measurements_do_not_leak_past_it():
    registry = MetricsRegistry()
    device = SmartUsbDevice(DEMO_DEVICE, metrics=registry)
    device.chip.charge("compare", 1000)
    device.chip.charge("hash", 77)
    device.reset_measurements()
    registry.reset()
    assert device.clock.breakdown().total_ticks == 0
    assert device.chip.stats.total_cycles == 0
    assert registry.counter("ghostdb_device_cpu_cycles_total").total() == 0
    device.chip.charge("hash")
    assert device.clock.breakdown().ticks["cpu"] == (
        CYCLES["hash"] * DEMO_DEVICE.cycle_ticks
    )

    db = build_db()
    ctx = db.open_session("tenant")
    with db.core.activated(ctx.lease):
        db.core.device.chip.charge("compare", 1000)
        ctx.device.reset_measurements()
    assert ctx.device.counters().time.total_ticks == 0
    db.close_session(ctx)
