"""Multi-session split: leases, activation, admission, bit-identity.

The refactor's safety contract: sessions are an *interleaving* of the
same serial executions, never a change to them.  A full-RAM lease must
be indistinguishable from the classic single-session facade, and N
leased sessions interleaved by the scheduler must produce per-session
rows, hardware counters and leak signatures bit-identical to the same
sessions run serially.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import run_hash_join_query, run_join_index_query
from repro.core.ghostdb import AdmissionError, GhostDB, SessionConfig, SessionError
from repro.core.scheduler import Scheduler
from repro.engine.executor import ExecConfig
from repro.faults import PowerCutError
from repro.privacy.meter import profile_records
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import (
    DEMO_SCHEMA_DDL,
    QUERY_FAMILIES,
    demo_query,
)

SCALE = 200

#: Per-session statement mix: the paper demo plus one pure-visible and
#: one pure-hidden selection, so sessions exercise both site paths.
STATEMENTS = (
    demo_query(),
    QUERY_FAMILIES["visible-only"],
    QUERY_FAMILIES["hidden-only"],
)

#: Every deterministic per-query counter; ``elapsed_seconds`` rides
#: along because the session's private clock sees the same charge
#: sequence serial or interleaved.
METRIC_FIELDS = (
    "elapsed_seconds",
    "flash_page_reads",
    "flash_page_writes",
    "flash_block_erases",
    "usb_messages",
    "usb_bytes_to_device",
    "usb_bytes_to_host",
    "ram_high_water",
    "cache_hits",
    "cache_misses",
    "result_rows",
)


@lru_cache(maxsize=1)
def small_data() -> dict[str, list]:
    return MedicalDataGenerator(
        DatasetConfig(n_prescriptions=SCALE)
    ).generate()


def build_db(config: SessionConfig | None = None) -> GhostDB:
    db = GhostDB(config=config) if config is not None else GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(small_data())
    return db


def metric_values(metrics) -> tuple:
    return tuple(getattr(metrics, name) for name in METRIC_FIELDS)


def session_fingerprint(ctx) -> tuple:
    """What a session observed: its USB capture's shape signature."""
    records = ctx.usb_log
    return (len(records), profile_records(records).signature_int)


# ---------------------------------------------------------------------------
# Identity: a full-RAM lease is the classic single session.
# ---------------------------------------------------------------------------


def test_full_ram_lease_matches_default_session():
    reference = build_db()
    outcomes = []
    for sql in STATEMENTS:
        result = reference.query(sql)
        outcomes.append((result.rows, metric_values(result.metrics)))

    db = build_db()
    ctx = db.open_session("solo", ram_bytes=db.profile.ram_bytes)
    for sql, (ref_rows, ref_metrics) in zip(STATEMENTS, outcomes):
        result = ctx.query(sql)
        assert result.rows == ref_rows
        assert metric_values(result.metrics) == ref_metrics
    db.close_session(ctx)
    assert db.core.leased_bytes == 0


@pytest.mark.parametrize(
    "baseline",
    [run_hash_join_query, run_join_index_query],
    ids=["hash_join", "join_index"],
)
def test_full_ram_lease_runs_the_baselines_like_the_default_session(baseline):
    """Both baselines run on a leased session, inside its partition, and
    a full-RAM lease answers them like the default session."""
    reference = baseline(build_db(), demo_query())
    assert reference.metrics.flash_page_reads > 0
    db = build_db()
    ctx = db.open_session("solo", ram_bytes=db.profile.ram_bytes)
    result = baseline(ctx, demo_query())
    assert result.rows == reference.rows
    assert metric_values(result.metrics) == metric_values(reference.metrics)
    assert ctx.lease.firm_ram_used == 0
    assert db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()
    db.close_session(ctx)
    assert db.core.leased_bytes == 0


def test_default_session_untouched_by_leased_traffic():
    db = build_db()
    sql = STATEMENTS[0]
    db.query(sql)  # warm the default buffer pool
    db.reset_measurements()
    reference = db.query(sql)

    ctx = db.open_session("tenant")
    for statement in STATEMENTS:
        ctx.query(statement)
    db.close_session(ctx)

    db.reset_measurements()
    again = db.query(sql)
    assert again.rows == reference.rows
    assert metric_values(again.metrics) == metric_values(reference.metrics)


# ---------------------------------------------------------------------------
# Batch sizes: the link holds them, scaled to the session's RAM.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ram_bytes, id_batch, fetch_batch",
    [(None, 256, 128), (16 * 1024, 64, 32), (10 * 1024, 40, 20)],
    ids=["default", "lease-16k", "lease-10k"],
)
def test_bundle_reports_the_batch_size_the_link_uses(
    ram_bytes, id_batch, fetch_batch
):
    db = build_db()
    ctx = db if ram_bytes is None else db.open_session("t", ram_bytes)
    assert (ctx.link.id_batch, ctx.link.fetch_batch) == (id_batch, fetch_batch)
    assert ctx.postmortem()["config"]["id_batch"] == ctx.link.id_batch
    if ctx is not db:
        db.close_session(ctx)


# ---------------------------------------------------------------------------
# Property: interleaved == serial, at any fan-out and window size.
# ---------------------------------------------------------------------------


@settings(max_examples=9, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), batch=st.sampled_from([1, 7, 256]))
def test_interleaved_sessions_bit_identical_to_serial(n, batch):
    config = SessionConfig(exec_config=ExecConfig(exec_batch=batch))
    partition = None  # the default quarter-RAM partition, n <= 4 fits
    names = [f"client-{i}" for i in range(n)]

    # Serial reference: each session runs its statements to completion
    # before the next session starts.
    serial_db = build_db()
    serial = {}
    for name in names:
        ctx = serial_db.open_session(name, ram_bytes=partition, config=config)
        runs = [ctx.query(sql) for sql in STATEMENTS]
        serial[name] = (
            [(r.rows, metric_values(r.metrics)) for r in runs],
            session_fingerprint(ctx),
        )
    for name in names:
        serial_db.close_session(serial_db.core.sessions[name])

    # One wave per statement index: every session has exactly one
    # statement submitted per run, like a client connection that sends
    # its next statement after the previous answer arrives.
    _check_interleaved(names, partition, config, serial, one_wave=False)
    # One wave: every statement of every session is submitted before
    # the scheduler runs.  A session still has one statement in flight,
    # so each ticket's metrics count its own work only.
    _check_interleaved(names, partition, config, serial, one_wave=True)


def _check_interleaved(names, partition, config, serial, one_wave):
    """Run the sessions interleaved and hold each to its serial run."""
    db = build_db()
    sessions = {
        name: db.open_session(name, ram_bytes=partition, config=config)
        for name in names
    }
    sched = Scheduler(db.core)
    tickets = []
    for sql in STATEMENTS:
        tickets.extend(sched.submit(sessions[name], sql) for name in names)
        if not one_wave:
            sched.run()
    sched.run()

    per_session: dict[str, list] = {name: [] for name in names}
    for ticket in tickets:
        assert ticket.error is None
        per_session[ticket.session].append(ticket.result)
    for name in names:
        ref_runs, ref_fingerprint = serial[name]
        got = [
            (r.rows, metric_values(r.metrics)) for r in per_session[name]
        ]
        assert got == ref_runs, (
            f"{name} diverged under interleaving (one wave: {one_wave})"
        )
        assert session_fingerprint(sessions[name]) == ref_fingerprint

    # The spy's interleaved capture is exactly the union of the
    # per-session captures -- mirroring loses and invents nothing.
    assert len(db.usb_log) == sum(
        len(ctx.usb_log) for ctx in sessions.values()
    )
    # Partitions never collude past the secure budget.
    assert (
        sum(ctx.lease.ram.high_water for ctx in sessions.values())
        <= db.profile.ram_bytes
    )
    for name in names:
        ctx = sessions[name]
        assert ctx.lease.firm_ram_used == 0
        db.close_session(ctx)
    assert db.core.leased_bytes == 0


# ---------------------------------------------------------------------------
# Teardown: an abandoned mid-flight query releases its whole partition.
# ---------------------------------------------------------------------------


def test_aborted_query_releases_full_partition():
    db = build_db()
    ctx = db.open_session(
        "doomed",
        config=SessionConfig(exec_config=ExecConfig(exec_batch=1)),
    )
    # A full projection scan: hundreds of one-tuple windows, so the
    # generator is guaranteed to still be mid-flight after a few steps.
    gen, write = ctx.statement_steps(
        "SELECT Pre.Quantity, Pre.Frequency FROM Prescription Pre"
    )
    assert not write
    with db.core.activated(ctx.lease):
        for _ in range(3):
            next(gen)
    assert ctx.lease.ram.used > 0, "mid-flight plan should hold reservations"
    with db.core.activated(ctx.lease):
        gen.close()
    assert ctx.lease.firm_ram_used == 0
    db.close_session(ctx)
    assert db.core.leased_bytes == 0


# ---------------------------------------------------------------------------
# Admission control.
# ---------------------------------------------------------------------------


def test_open_session_requires_loaded_data():
    db = GhostDB()
    with pytest.raises(SessionError):
        db.open_session("early")


def test_duplicate_name_rejected():
    db = build_db()
    db.open_session("alice")
    with pytest.raises(AdmissionError):
        db.open_session("alice")
    rejections = db.obs.registry.counter("ghostdb_session_rejections_total")
    assert rejections.value(reason="duplicate_name") == 1


def test_session_cap_rejects_then_admits_after_close():
    db = build_db(SessionConfig(max_sessions=2))
    first = db.open_session("one", ram_bytes=4096)
    db.open_session("two", ram_bytes=4096)
    with pytest.raises(AdmissionError):
        db.open_session("three", ram_bytes=4096)
    db.close_session(first)
    db.open_session("three", ram_bytes=4096)
    rejections = db.obs.registry.counter("ghostdb_session_rejections_total")
    assert rejections.value(reason="session_cap") == 1


def test_ram_budget_is_a_hard_wall():
    db = build_db()
    budget = db.profile.ram_bytes
    db.open_session("hog", ram_bytes=budget)
    with pytest.raises(AdmissionError):
        db.open_session("starved", ram_bytes=1)
    rejections = db.obs.registry.counter("ghostdb_session_rejections_total")
    assert rejections.value(reason="ram_budget") == 1
    assert db.core.leased_bytes == budget


def test_close_releases_slot_and_double_close_raises():
    db = build_db()
    ctx = db.open_session("once")
    assert db.core.leased_bytes == ctx.lease.capacity
    db.close_session(ctx)
    assert db.core.leased_bytes == 0
    with pytest.raises(SessionError):
        db.close_session(ctx)
    with pytest.raises(SessionError):
        ctx.query(STATEMENTS[0])


def test_session_gauges_track_open_population():
    db = build_db()
    a = db.open_session("a")
    b = db.open_session("b")
    gauge = db.obs.registry.gauge("ghostdb_sessions_open")
    assert gauge.value() == 2
    db.close_session(a)
    assert gauge.value() == 1
    db.close_session(b)
    assert gauge.value() == 0
    opened = db.obs.registry.counter("ghostdb_sessions_opened_total")
    closed = db.obs.registry.counter("ghostdb_sessions_closed_total")
    assert opened.value() == closed.value() == 2


# ---------------------------------------------------------------------------
# Activation discipline.
# ---------------------------------------------------------------------------


def test_nested_foreign_activation_is_a_scheduling_bug():
    db = build_db()
    a = db.open_session("a")
    b = db.open_session("b")
    with db.core.activated(a.lease):
        with pytest.raises(SessionError):
            with db.core.activated(b.lease):
                pass  # pragma: no cover
        # Re-entry with the active lease is a no-op.
        with db.core.activated(a.lease):
            pass


def test_cannot_close_session_mid_step():
    db = build_db()
    ctx = db.open_session("busy")
    with db.core.activated(ctx.lease):
        with pytest.raises(SessionError):
            db.close_session(ctx)
    db.close_session(ctx)


# ---------------------------------------------------------------------------
# Every statement surface refuses a closed or unpowered session.
# ---------------------------------------------------------------------------

#: The statement surfaces, each called with the session and a ranked
#: plan built while the session was still usable.
SURFACES = {
    "query": lambda ctx, best: ctx.query(demo_query()),
    "execute": lambda ctx, best: ctx.execute(demo_query()),
    "query_with_strategy": lambda ctx, best: ctx.query_with_strategy(
        demo_query(), best.strategy
    ),
    "explain_analyze": lambda ctx, best: ctx.explain_analyze(demo_query()),
    "execute_plan": lambda ctx, best: ctx.execute_plan(best.plan),
    "hash_join": lambda ctx, best: run_hash_join_query(ctx, demo_query()),
    "join_index": lambda ctx, best: run_join_index_query(ctx, demo_query()),
}


@pytest.mark.parametrize("state", ["closed", "needs_remount"])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_statement_surfaces_refuse_unusable_session(surface, state):
    db = build_db()
    ctx = db.open_session("tenant")
    best = ctx.rank_plans(demo_query())[0]
    if state == "closed":
        db.close_session(ctx)
    else:
        injector = db.set_faults("none", 0)
        injector.schedule_power_cut(at_flash_op=injector.flash_ops + 1)
        with pytest.raises(PowerCutError):
            ctx.query("SELECT Pre.Quantity, Pre.Frequency FROM Prescription Pre")
        db.clear_faults()
        assert db.needs_remount
    traffic = len(db.usb_log)
    with pytest.raises(SessionError):
        SURFACES[surface](ctx, best)
    # Refused before anything reached the device or the spied link.
    assert len(db.usb_log) == traffic
