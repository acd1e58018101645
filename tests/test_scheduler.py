"""Deficit-round-robin scheduler: fairness, determinism, fault teardown.

The scheduler interleaves leased sessions at batch-window boundaries on
the simulated clock only -- no wall time, no randomness -- so the same
(sessions, statements, seed) must replay to the identical grant
sequence, and device time (the contended resource) must come out evenly
split across a uniform load.
"""

from __future__ import annotations

import pytest

from repro.core.ghostdb import GhostDB, SessionConfig, SessionError
from repro.core.scheduler import Scheduler, jain_index
from repro.engine.executor import ExecConfig
from repro.faults import PowerCutError
from tests.test_sessions import STATEMENTS, build_db


# ---------------------------------------------------------------------------
# Jain's index.
# ---------------------------------------------------------------------------


def test_jain_index_degenerate_inputs_count_as_fair():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0, 0.0]) == 1.0


def test_jain_index_even_and_one_hot():
    assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Submission discipline.
# ---------------------------------------------------------------------------


def test_submit_refuses_the_default_session():
    db = build_db()
    sched = Scheduler(db.core)
    with pytest.raises(SessionError):
        sched.submit(db, STATEMENTS[0])


def test_submit_refuses_sessions_from_another_device():
    db = build_db()
    other = build_db()
    stranger = other.open_session("stranger")
    sched = Scheduler(db.core)
    with pytest.raises(SessionError):
        sched.submit(stranger, STATEMENTS[0])


def test_submit_refuses_a_closed_session():
    db = build_db()
    ctx = db.open_session("t")
    ctx.close()
    sched = Scheduler(db.core)
    with pytest.raises(SessionError, match="not open"):
        sched.submit(ctx, STATEMENTS[0])
    assert sched.tickets == []


def test_unsupported_statement_fails_at_submit():
    db = build_db()
    ctx = db.open_session("client")
    sched = Scheduler(db.core)
    with pytest.raises(SessionError):
        sched.submit(ctx, "CREATE TABLE Nope (A INTEGER)")
    assert sched.pending == 0
    # A rejected statement takes no ticket: numbering starts at 0.
    assert sched.tickets == []
    assert sched.submit(ctx, STATEMENTS[0]).index == 0


# ---------------------------------------------------------------------------
# Determinism: same build, same grant sequence, same latencies.
# ---------------------------------------------------------------------------


def _scheduled_run(db: GhostDB):
    sessions = [db.open_session(f"client-{i}") for i in range(2)]
    sched = Scheduler(db.core)
    for sql in STATEMENTS:
        for ctx in sessions:
            sched.submit(ctx, sql)
    sched.run()
    return sched.tickets


def test_same_seed_replays_to_identical_schedule():
    first = _scheduled_run(build_db())
    second = _scheduled_run(build_db())
    assert [t.session for t in first] == [t.session for t in second]
    assert [t.steps for t in first] == [t.steps for t in second]
    assert [t.latency_s for t in first] == [t.latency_s for t in second]
    assert [t.submitted_at for t in first] == [t.submitted_at for t in second]


def test_grant_sequence_is_journalled():
    db = build_db()
    ctx = db.open_session("journalled")
    sched = Scheduler(db.core)
    ticket = sched.submit(ctx, STATEMENTS[0])
    sched.run()
    kinds = [e.kind for e in db.obs.flight.events()]
    for expected in ("sched_submit", "sched_start", "sched_done"):
        assert expected in kinds
    assert ticket.done and ticket.error is None


# ---------------------------------------------------------------------------
# Fairness: uniform load, even split of simulated device time.
# ---------------------------------------------------------------------------


#: A scan of every prescription at a one-tuple window: ~200 preemption
#: points per query, so the DRR loop actually gets to interleave (the
#: short demo statements fit inside a single quantum at test scale).
SCAN = "SELECT Pre.Quantity, Pre.Frequency FROM Prescription Pre"

WINDOWED = SessionConfig(exec_config=ExecConfig(exec_batch=1))


def test_uniform_load_is_scheduled_fairly():
    db = build_db(WINDOWED)
    sessions = [db.open_session(f"tenant-{i}") for i in range(4)]
    sched = Scheduler(db.core)
    tickets = [sched.submit(ctx, SCAN) for ctx in sessions]
    sched.run()
    # Identical work submitted together: every session's completion
    # must land within a quantum or two of the others.
    latencies = [t.latency_s for t in tickets]
    assert jain_index(latencies) >= 0.99, latencies
    # Pure service time (each session's own counters) is even too.
    service = [ctx.device.counters().time.total for ctx in sessions]
    assert jain_index(service) >= 0.99, service
    # Each query was preempted many times, so this was interleaving,
    # not accidental serial execution.
    assert min(t.steps for t in tickets) > 10


def test_dml_is_one_atomic_step():
    db = build_db()
    ctx = db.open_session("writer")
    sched = Scheduler(db.core)
    ticket = sched.submit(
        ctx, "UPDATE Prescription SET Quantity = 1 WHERE Quantity = 424242"
    )
    sched.run()
    assert ticket.error is None
    assert ticket.steps == 1
    assert ticket.result.matched == 0


# ---------------------------------------------------------------------------
# The write barrier: DML waits for the statements in flight.
# ---------------------------------------------------------------------------


def _scan_then_write(sql: str, operator: str, write_sql: str):
    """A windowed scan, then another session's write, submitted before
    one ``run()``: the rows before, the two tickets, the rows after."""
    db = build_db(WINDOWED)
    assert operator in db.explain(sql)
    before = sorted(db.query(sql).rows)
    reader = db.open_session("reader")
    writer = db.open_session("writer")
    # A quantum shorter than any step: the sessions would alternate per
    # window if the write did not wait.
    sched = Scheduler(db.core, quantum_s=1e-9)
    scan = sched.submit(reader, sql)
    write = sched.submit(writer, write_sql)
    sched.run()
    after = sorted(db.query(sql).rows)
    assert write.error is None and write.result.changed > 0
    assert before != after
    # The scan was preempted many times, and the write started only
    # once it had finished.
    assert 1 < scan.steps and scan.completed_at <= write.started_at
    assert reader.lease.firm_ram_used == 0
    return before, scan


@pytest.mark.parametrize(
    "sql, operator",
    [
        ("SELECT Pre.PreID FROM Prescription Pre", "DeviceScanSelect"),
        (
            "SELECT Pre.PreID, Vis.VisID FROM Prescription Pre, Visit Vis "
            "WHERE Pre.VisID = Vis.VisID",
            "SktAccess[SKT_prescription, full scan]",
        ),
    ],
    ids=["device-scan", "skt-scan"],
)
def test_scan_under_committed_delete_never_returns_a_truncated_set(
    sql, operator
):
    """A DELETE's rebuild frees the extents a scan reads, so it waits
    for the scan in flight: the scan returns exactly the rows it
    started on, with no error, and the DELETE commits after it."""
    before, scan = _scan_then_write(
        sql, operator, "DELETE FROM Prescription WHERE Quantity = 9"
    )
    assert scan.error is None
    assert sorted(scan.result.rows) == before


@pytest.mark.parametrize(
    "sql, operator",
    [
        (
            "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre",
            "DeviceScanSelect",
        ),
        (
            "SELECT Pre.PreID, Pre.Quantity, Vis.VisID "
            "FROM Prescription Pre, Visit Vis WHERE Pre.VisID = Vis.VisID",
            "SktAccess[SKT_prescription, full scan]",
        ),
    ],
    ids=["device-scan", "skt-scan"],
)
def test_scan_under_committed_update_returns_the_rows_it_started_on(
    sql, operator
):
    """An UPDATE rewrites the heap the scan projects from: it waits too,
    and the scan sees none of its new values."""
    before, scan = _scan_then_write(
        sql, operator, "UPDATE Prescription SET Quantity = 8 WHERE Quantity = 9"
    )
    assert scan.error is None
    assert sorted(scan.result.rows) == before


def test_statements_after_a_write_wait_for_it():
    """A read submitted after a pending write starts only once the write
    has run; a read submitted before it keeps its turn."""
    db = build_db(WINDOWED)
    sql = "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre"
    first, writer, last = (
        db.open_session(name) for name in ("first", "writer", "last")
    )
    sched = Scheduler(db.core, quantum_s=1e-9)
    early = sched.submit(first, sql)
    write = sched.submit(
        writer, "UPDATE Prescription SET Quantity = 8 WHERE Quantity = 9"
    )
    late = sched.submit(last, sql)
    sched.run()
    assert early.completed_at <= write.started_at
    assert write.completed_at <= late.started_at
    assert sorted(early.result.rows) != sorted(late.result.rows)
    assert sorted(late.result.rows) == sorted(db.query(sql).rows)


# ---------------------------------------------------------------------------
# Power loss: the device dies under everyone.
# ---------------------------------------------------------------------------


def test_power_cut_aborts_every_inflight_ticket_and_recovers():
    db = build_db(WINDOWED)
    sessions = [db.open_session(f"victim-{i}") for i in range(2)]
    injector = db.set_faults("none", seed=0)
    injector.schedule_power_cut(at_flash_op=3)
    sched = Scheduler(db.core)
    tickets = [sched.submit(ctx, SCAN) for ctx in sessions]
    sched.run()

    assert all(isinstance(t.error, PowerCutError) for t in tickets)
    assert db.needs_remount
    for ctx in sessions:
        assert ctx.lease.firm_ram_used == 0, ctx.name
    kinds = [e.kind for e in db.obs.flight.events()]
    assert kinds.count("sched_abort") == len(tickets)
    aborts = db.obs.registry.counter("ghostdb_session_aborts_total")
    for ctx in sessions:
        assert aborts.value(session=ctx.name) == 1

    # Plug the key back in: the same sessions resume cleanly.
    db.clear_faults()
    db.remount()
    replay = [sched.submit(ctx, SCAN) for ctx in sessions]
    sched.run()
    for ticket in replay:
        assert ticket.error is None
    assert replay[0].result.rows == replay[1].result.rows
