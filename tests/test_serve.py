"""``ghostdb serve``: wire protocol, admission over TCP, leak hygiene.

Handler threads never touch the device -- every assertion here runs
against the single-pump architecture, so concurrent clients are just
another way to drive the deterministic scheduler.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.core.ghostdb import AdmissionError, SessionError
from repro.core.scheduler import Scheduler
from repro.privacy.leakcheck import LeakChecker
from repro.serve import (
    MAX_FRAME_BYTES,
    ServeClient,
    _json_value,
    run_smoke,
    shutdown_server,
    start_server,
)
from tests.test_sessions import STATEMENTS, build_db, small_data


@contextmanager
def serving(db, token=None):
    tcp, ghost = start_server(db, port=0, token=token)
    try:
        host, port = tcp.server_address
        yield host, port
    finally:
        shutdown_server(tcp, ghost)


@pytest.fixture()
def db():
    return build_db()


def expected_rows(db, sql):
    """What the classic single-session path answers, JSON-shaped."""
    rows = db.query(sql).rows
    db.reset_measurements()
    return sorted([_json_value(v) for v in row] for row in rows)


# ---------------------------------------------------------------------------
# Protocol round trips.
# ---------------------------------------------------------------------------


def test_hello_sql_bye_roundtrip(db):
    sql = STATEMENTS[1]
    want = expected_rows(db, sql)
    with serving(db) as (host, port):
        client = ServeClient(host, port)
        hello = client.hello(name="alice")
        assert hello["ok"] and hello["session"] == "alice"
        assert hello["ram"] == db.profile.ram_bytes // 4
        reply = client.sql(sql)
        assert reply["ok"]
        assert sorted(reply["rows"]) == want
        assert reply["row_count"] == len(want)
        assert reply["steps"] >= 1
        assert reply["sim_seconds"] > 0
        bye = client.bye()
        assert bye["ok"] and bye["closed"] and not bye["leaked_ram"]
    assert not db.core.sessions
    assert db.core.leased_bytes == 0


def test_sql_before_hello_is_a_session_error(db):
    with serving(db) as (host, port):
        client = ServeClient(host, port)
        reply = client.sql(STATEMENTS[0])
        assert not reply["ok"]
        assert reply["kind"] == "session"
        client.close()


def test_unknown_op_is_a_protocol_error(db):
    with serving(db) as (host, port):
        client = ServeClient(host, port)
        reply = client.call(op="teleport")
        assert not reply["ok"]
        assert reply["kind"] == "protocol"
        client.close()


def client_with_timeout(host, port) -> ServeClient:
    """A client that fails a test instead of hanging it."""
    client = ServeClient(host, port)
    client._sock.settimeout(5)
    return client


def assert_serves_another_client(host, port, want):
    """A fresh client can still open a session and run a statement."""
    other = client_with_timeout(host, port)
    assert other.hello(name="bystander")["ok"]
    reply = other.sql(STATEMENTS[1])
    assert reply["ok"] and sorted(reply["rows"]) == want
    assert other.bye()["ok"]


def test_bad_hello_fields_are_protocol_errors(db):
    """Refused on the handler thread: a bad ``name`` or ``ram`` reaching
    the pump would kill it and hang every client."""
    want = expected_rows(db, STATEMENTS[1])
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        for bad in ({"ram": "lots"}, {"ram": 0}, {"ram": True},
                    {"name": ["x"]}):
            reply = client.call(op="hello", **bad)
            assert not reply["ok"] and reply["kind"] == "protocol", bad
        # The connection stays open and can still say a good hello.
        assert client.hello(name="fixed")["ok"]
        assert client.bye()["ok"]
        assert_serves_another_client(host, port, want)
    assert not db.core.sessions


def test_non_string_sql_is_a_protocol_error(db):
    """Refused on the handler thread, like bad ``hello`` fields: a
    non-string reaching the session would answer with lexer internals
    or fail the plan table's lookup."""
    want = expected_rows(db, STATEMENTS[1])
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        assert client.hello(name="typed")["ok"]
        for bad in (123, ["SELECT"], None, {"sql": "SELECT"}):
            reply = client.call(op="sql", sql=bad)
            assert not reply["ok"] and reply["kind"] == "protocol", bad
            assert "len()" not in reply["error"], bad
        assert client.call(op="sql")["kind"] == "protocol"
        # The connection stays open and the session still answers.
        reply = client.sql(STATEMENTS[1])
        assert reply["ok"] and sorted(reply["rows"]) == want
        assert client.bye()["ok"]
        assert_serves_another_client(host, port, want)
    assert not db.core.sessions


def test_oversized_frame_is_a_protocol_error(db):
    """A line past MAX_FRAME_BYTES is a framing error: the server
    replies ``protocol`` and closes instead of buffering it."""
    want = expected_rows(db, STATEMENTS[1])
    with serving(db) as (host, port):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))  # no newline yet
            replies = sock.makefile("rb")
            reply = json.loads(replies.readline())
            assert not reply["ok"] and reply["kind"] == "protocol"
            assert replies.readline() == b""  # closed
        assert_serves_another_client(host, port, want)
    assert not db.core.sessions


def test_statement_error_keeps_the_connection_alive(db):
    with serving(db) as (host, port):
        client = ServeClient(host, port)
        assert client.hello(name="sturdy")["ok"]
        reply = client.sql("SELECT Nope.Missing FROM Nowhere Nope")
        assert not reply["ok"]
        # The session survives the bad statement.
        good = client.sql(STATEMENTS[1])
        assert good["ok"]
        assert client.bye()["ok"]


def test_token_gate(db):
    with serving(db, token="hunter2") as (host, port):
        denied = ServeClient(host, port)
        reply = denied.hello(name="intruder")
        assert not reply["ok"] and reply["kind"] == "auth"
        denied.close()

        admitted = ServeClient(host, port)
        assert admitted.hello(name="keyholder", token="hunter2")["ok"]
        assert admitted.bye()["ok"]
    assert not db.core.sessions


def wait_for_implicit_bye(db):
    """The handler's teardown runs asynchronously; wait for the pump to
    process the implicit bye of a vanished client."""
    for _ in range(200):
        if not db.core.sessions:
            break
        threading.Event().wait(0.01)


def test_disconnect_without_bye_releases_the_lease(db):
    with serving(db) as (host, port):
        client = ServeClient(host, port)
        assert client.hello(name="rude")["ok"]
        client.close()  # vanish without bye
        wait_for_implicit_bye(db)
    assert not db.core.sessions
    assert db.core.leased_bytes == 0


def test_second_hello_on_a_connection_is_a_protocol_error(db):
    """A connection holds one session: a second hello would orphan the
    first lease, its partition and admission slot, past the
    connection's end."""
    want = expected_rows(db, STATEMENTS[1])
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        assert client.hello(name="first")["ok"]
        reply = client.hello(name="second")
        assert not reply["ok"] and reply["kind"] == "protocol"
        # The first session still answers.
        reply = client.sql(STATEMENTS[1])
        assert reply["ok"] and sorted(reply["rows"]) == want
        client.close()  # vanish without bye
        wait_for_implicit_bye(db)
    assert not db.core.sessions
    assert db.core.leased_bytes == 0


def test_hello_past_the_secure_ram_is_refused_at_once(db):
    """No close can ever free more than the whole secure RAM, so such a
    hello is a session error, not a parked admission."""
    budget = db.profile.ram_bytes
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        reply = client.hello(name="greedy", ram=2 * budget)
        assert not reply["ok"] and reply["kind"] == "session"
        assert client.hello(name="modest", ram=budget)["ok"]
        assert client.bye()["ok"]
    assert not db.core.sessions
    with pytest.raises(SessionError) as refused:
        db.open_session("greedy", ram_bytes=budget + 1)
    assert not isinstance(refused.value, AdmissionError)


def test_hello_with_the_console_name_is_refused_at_once(db):
    """``default`` is the console's name: refused as a session error,
    never admitted next to the console and never parked."""
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        reply = client.hello(name="default")
        assert not reply["ok"] and reply["kind"] == "session"
        assert client.hello(name="guest")["ok"]
        assert client.bye()["ok"]
    assert not db.core.sessions
    with pytest.raises(SessionError) as refused:
        db.open_session("default")
    assert not isinstance(refused.value, AdmissionError)


# ---------------------------------------------------------------------------
# A long-running pump: bounded retention, survives a failed round.
# ---------------------------------------------------------------------------


def test_served_tickets_drop_their_results(db):
    """Replied tickets keep their numbering but not their rows, metrics
    or plan, so a long-running server does not grow per statement."""
    tcp, ghost = start_server(db, port=0)
    try:
        host, port = tcp.server_address
        client = client_with_timeout(host, port)
        assert client.hello(name="lean")["ok"]
        for sql in STATEMENTS:
            assert client.sql(sql)["ok"]
        assert not client.sql("SELECT Nope.Missing FROM Nowhere Nope")["ok"]
        assert client.bye()["ok"]
    finally:
        shutdown_server(tcp, ghost)
    tickets = ghost.scheduler.tickets
    assert [t.index for t in tickets] == list(range(len(STATEMENTS) + 1))
    assert all(t.done for t in tickets)
    assert all(t.result is None and t.error is None for t in tickets)


def test_failed_round_answers_internal_and_keeps_pumping(db, monkeypatch):
    """An exception escaping a round must not kill the pump: the round's
    commands are answered ``internal`` and the next statement runs."""
    want = expected_rows(db, STATEMENTS[1])
    real_run = Scheduler.run
    failures = []

    def run_failing_once(self):
        if not failures:
            failures.append("injected")
            raise RuntimeError("injected round failure")
        return real_run(self)

    monkeypatch.setattr(Scheduler, "run", run_failing_once)
    with serving(db) as (host, port):
        client = client_with_timeout(host, port)
        assert client.hello(name="survivor")["ok"]
        reply = client.sql(STATEMENTS[1])
        assert not reply["ok"] and reply["kind"] == "internal"
        reply = client.sql(STATEMENTS[1])
        assert reply["ok"] and sorted(reply["rows"]) == want
        bye = client.bye()
        assert bye["ok"] and bye["closed"] and not bye["leaked_ram"]
    assert failures == ["injected"]
    assert not db.core.sessions
    assert db.core.leased_bytes == 0


# ---------------------------------------------------------------------------
# Concurrency: many clients, one device, everyone gets the right answer.
# ---------------------------------------------------------------------------


def test_concurrent_clients_all_get_correct_rows(db):
    want = {sql: expected_rows(db, sql) for sql in STATEMENTS}
    failures: list[str] = []

    def client_thread(i: int, host: str, port: int) -> None:
        try:
            client = ServeClient(host, port)
            assert client.hello(name=f"worker-{i}")["ok"]
            for sql in STATEMENTS:
                reply = client.sql(sql)
                if not reply.get("ok"):
                    failures.append(f"worker-{i}: {reply}")
                    return
                if sorted(reply["rows"]) != want[sql]:
                    failures.append(f"worker-{i}: wrong rows for {sql!r}")
            bye = client.bye()
            if bye.get("leaked_ram"):
                failures.append(f"worker-{i}: leaked {bye['leaked_ram']} B")
        except Exception as exc:  # noqa: BLE001 - report, don't hang join
            failures.append(f"worker-{i}: {type(exc).__name__}: {exc}")

    with serving(db) as (host, port):
        threads = [
            threading.Thread(target=client_thread, args=(i, host, port))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not failures, failures
    assert not db.core.sessions
    assert db.core.leased_bytes == 0
    # The spy watched the whole interleaved run; still nothing readable.
    report = LeakChecker(db.schema, small_data()).check(db.usb_log)
    assert report.ok, report.summary()


def test_queued_admission_waits_for_a_slot(db):
    """A hello past the RAM budget parks until a session closes."""
    budget = db.profile.ram_bytes
    admitted = threading.Event()
    with serving(db) as (host, port):
        hog = ServeClient(host, port)
        assert hog.hello(name="hog", ram=budget)["ok"]

        def waiter() -> None:
            client = ServeClient(host, port)
            reply = client.hello(name="patient", ram=budget)
            if reply.get("ok"):
                admitted.set()
            client.bye()

        thread = threading.Thread(target=waiter)
        thread.start()
        # The waiter must be parked, not rejected.
        assert not admitted.wait(0.2)
        hog.bye()  # frees the whole budget -> waiter admitted
        thread.join(timeout=5)
        assert admitted.is_set()
    assert db.core.leased_bytes == 0


# ---------------------------------------------------------------------------
# The CI smoke is itself part of the suite.
# ---------------------------------------------------------------------------


def test_run_smoke_passes():
    assert run_smoke(scale=200, clients=3) == 0
