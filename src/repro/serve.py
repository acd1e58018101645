"""``ghostdb serve``: the device as a shared service.

The paper's deployment sketch -- one smart USB key, several client
terminals -- as a process: a TCP server multiplexes line-framed JSON
requests from many clients over one :class:`~repro.core.ghostdb.GhostDB`
device, with per-client leased sessions and the deficit-round-robin
scheduler interleaving their queries at batch-window boundaries.

Trust model: the TCP connection plays the *secure rendering path*
between the device and each client's terminal -- result rows are
allowed on it.  The spied channel is still the simulated USB link
inside the device model; its capture (``db.usb_log``) is what a leak
check inspects, and serving many clients changes nothing about what
crosses it.

Wire protocol (one JSON object per line, UTF-8)::

    -> {"op": "hello", "name": "alice", "ram": 16384, "token": "..."}
    <- {"ok": true, "session": "alice", "ram": 16384}
    -> {"op": "sql", "sql": "SELECT ..."}
    <- {"ok": true, "columns": [...], "rows": [[...]], "row_count": 3,
        "sim_seconds": 0.0123, "steps": 4}
    -> {"op": "bye"}
    <- {"ok": true}

Errors come back as ``{"ok": false, "error": "...", "kind": "..."}``;
the connection survives statement errors and malformed fields
(``hello``'s ``name`` must be a string and ``ram`` a positive integer,
``sql``'s ``sql`` a string), and dies on framing errors: a line that is
not a JSON object, or one longer than :data:`MAX_FRAME_BYTES`.
``hello`` blocks while the device's session cap or RAM budget is
exhausted and is admitted when a slot frees (queued admission).

Concurrency model: socket handler threads only do I/O and enqueue
commands; a single pump thread owns the device, drains the queue,
submits each round's statements to one :class:`Scheduler` and runs
them to completion; a round that raises is torn down and answered
``internal``, and the pump goes on.  The engine stays single-threaded
-- client concurrency becomes deterministic cooperative interleaving on
the simulated clock, journalled to the flight recorder.
"""

from __future__ import annotations

import argparse
import json
import queue
import socket
import socketserver
import sys
import threading

from repro.core.ghostdb import AdmissionError, GhostDB, SessionError
from repro.core.scheduler import Scheduler
from repro.faults import GhostDBFaultError
from repro.obs import get_logger

log = get_logger(__name__)

DEFAULT_PORT = 8707

#: Longest accepted request line, newline included.
MAX_FRAME_BYTES = 1 << 20


class _Command:
    """One client request travelling from a handler thread to the pump."""

    __slots__ = ("op", "payload", "reply", "done")

    def __init__(self, op: str, payload: dict):
        self.op = op
        self.payload = payload
        self.reply: dict | None = None
        self.done = threading.Event()

    def resolve(self, reply: dict) -> None:
        self.reply = reply
        self.done.set()

    def wait(self) -> dict:
        self.done.wait()
        return self.reply


def _error(message: str, kind: str = "error") -> dict:
    return {"ok": False, "error": message, "kind": kind}


class GhostDBServer:
    """The pump: sole owner of the device, fed by handler threads."""

    def __init__(self, db: GhostDB, token: str | None = None):
        self.db = db
        self.token = token
        self.scheduler = Scheduler(db.core)
        self.commands: "queue.Queue[_Command]" = queue.Queue()
        #: hello commands parked until a session slot frees, FIFO.
        self._waiting: list[_Command] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- handler-thread side -------------------------------------------

    def call(self, op: str, payload: dict) -> dict:
        """Enqueue one command and block for the pump's reply."""
        command = _Command(op, payload)
        self.commands.put(command)
        return command.wait()

    # -- pump side ------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._pump, name="ghostdb-pump", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self.commands.put(_Command("noop", {}))
        if self._thread is not None:
            self._thread.join()
        for command in self._waiting:
            command.resolve(_error("server shutting down", "shutdown"))
        self._waiting.clear()

    def _pump(self) -> None:
        while not self._stop.is_set():
            batch = [self.commands.get()]
            while True:
                try:
                    batch.append(self.commands.get_nowait())
                except queue.Empty:
                    break
            if self._stop.is_set():
                for command in batch:
                    command.resolve(_error("server shutting down", "shutdown"))
                continue
            try:
                self._round(batch)
            except Exception as exc:  # noqa: BLE001 - the pump must live
                # A dead pump would leave every client blocked in call():
                # tear down the round's queries and answer the rest.
                log.exception("serve round failed")
                self.scheduler.abort_all(exc)
                for command in batch:
                    if not command.done.is_set():
                        command.resolve(_error(
                            f"internal error ({type(exc).__name__})",
                            "internal",
                        ))

    def _round(self, batch: list[_Command]) -> None:
        """One scheduling round: session admin first, then every SQL
        command in the batch interleaved under the scheduler."""
        statements: list[tuple[_Command, object]] = []
        for command in batch:
            if command.op == "hello":
                self._admit(command)
            elif command.op == "bye":
                self._close(command)
                self._drain_waiters()
            elif command.op == "sql":
                session = self.db.core.sessions.get(
                    command.payload.get("session")
                )
                if session is None:
                    command.resolve(
                        _error("no open session; say hello first", "session")
                    )
                    continue
                try:
                    ticket = self.scheduler.submit(
                        session, command.payload.get("sql", "")
                    )
                except Exception as exc:  # parse / unsupported-statement
                    command.resolve(_error(str(exc), type(exc).__name__))
                    continue
                statements.append((command, ticket))
            elif command.op == "noop":
                command.resolve({"ok": True})
            else:
                command.resolve(_error(f"unknown op {command.op!r}", "protocol"))
        if statements:
            self.scheduler.run()
            for command, ticket in statements:
                command.resolve(self._ticket_reply(ticket))
                # Replied: keep the ticket (numbering) but not its rows.
                ticket.result = ticket.error = None

    def _admit(self, command: _Command) -> None:
        payload = command.payload
        if self.token is not None and payload.get("token") != self.token:
            command.resolve(_error("bad or missing token", "auth"))
            return
        try:
            session = self.db.open_session(
                name=payload.get("name"),
                ram_bytes=payload.get("ram"),
            )
        except AdmissionError:
            # Queued admission: parked until a session slot frees.
            self._waiting.append(command)
            return
        except SessionError as exc:
            command.resolve(_error(str(exc), "session"))
            return
        command.resolve(
            {
                "ok": True,
                "session": session.name,
                "ram": session.lease.capacity,
            }
        )

    def _close(self, command: _Command) -> None:
        session = self.db.core.sessions.get(command.payload.get("session"))
        if session is None:
            command.resolve({"ok": True, "closed": False})
            return
        leaked = session.lease.firm_ram_used
        self.db.close_session(session)
        command.resolve({"ok": True, "closed": True, "leaked_ram": leaked})

    def _drain_waiters(self) -> None:
        """Retry parked hellos in arrival order; :meth:`_admit` either
        resolves each one or re-parks it (into the fresh list, so order
        is preserved)."""
        parked, self._waiting = self._waiting, []
        for command in parked:
            self._admit(command)

    def _ticket_reply(self, ticket) -> dict:
        if ticket.error is not None:
            kind = (
                "fault"
                if isinstance(ticket.error, GhostDBFaultError)
                else type(ticket.error).__name__
            )
            return _error(str(ticket.error), kind)
        result = ticket.result
        reply = {
            "ok": True,
            "sim_seconds": result.metrics.elapsed_seconds,
            "steps": ticket.steps,
        }
        if hasattr(result, "rows"):
            reply["columns"] = list(result.columns)
            reply["rows"] = [
                [_json_value(value) for value in row] for row in result.rows
            ]
            reply["row_count"] = result.row_count
        else:  # DML
            reply["matched"] = result.matched
            reply["changed"] = result.changed
        return reply


def _json_value(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else str(value)


def _hello_problem(message: dict) -> str | None:
    """Why a ``hello``'s fields cannot open a session, or ``None``.

    Checked on the handler thread: a bad value reaching
    ``open_session`` would raise on the pump and stall every client.
    """
    name, ram = message.get("name"), message.get("ram")
    if name is not None and not isinstance(name, str):
        return "hello name must be a string"
    if ram is not None and (
        not isinstance(ram, int) or isinstance(ram, bool) or ram <= 0
    ):
        return "hello ram must be a positive integer"
    return None


class _Handler(socketserver.StreamRequestHandler):
    """One connection: line-framed JSON in, line-framed JSON out."""

    def handle(self) -> None:
        server: GhostDBServer = self.server.ghostdb  # type: ignore[attr-defined]
        session_name: str | None = None
        try:
            while raw := self.rfile.readline(MAX_FRAME_BYTES + 1):
                try:
                    if len(raw) > MAX_FRAME_BYTES:
                        raise ValueError(
                            f"line longer than {MAX_FRAME_BYTES} bytes"
                        )
                    message = json.loads(raw)
                    if not isinstance(message, dict):
                        raise ValueError("message must be a JSON object")
                except ValueError as exc:
                    self._send(_error(f"bad frame: {exc}", "protocol"))
                    return
                op = message.get("op")
                if op == "hello":
                    problem = _hello_problem(message)
                    if problem is not None:
                        self._send(_error(problem, "protocol"))
                        continue
                    reply = server.call("hello", message)
                    if reply.get("ok"):
                        session_name = reply["session"]
                    self._send(reply)
                elif op == "sql":
                    # Like a bad hello field: a non-string would fail in
                    # the lexer or the plan table and answer with their
                    # internals.
                    if not isinstance(message.get("sql"), str):
                        self._send(_error("sql must be a string", "protocol"))
                        continue
                    message["session"] = session_name
                    self._send(server.call("sql", message))
                elif op == "bye":
                    reply = server.call("bye", {"session": session_name})
                    session_name = None
                    self._send(reply)
                    return
                else:
                    self._send(_error(f"unknown op {op!r}", "protocol"))
        finally:
            if session_name is not None:
                # Client vanished without bye: release its lease.
                server.call("bye", {"session": session_name})

    def _send(self, reply: dict) -> None:
        self.wfile.write(json.dumps(reply).encode() + b"\n")
        self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def start_server(
    db: GhostDB,
    host: str = "127.0.0.1",
    port: int = 0,
    token: str | None = None,
) -> tuple[_TcpServer, GhostDBServer]:
    """Boot the pump and a threaded TCP listener; returns both (the
    listener's ``server_address`` carries the bound port)."""
    ghost = GhostDBServer(db, token=token)
    ghost.start()
    tcp = _TcpServer((host, port), _Handler)
    tcp.ghostdb = ghost  # type: ignore[attr-defined]
    threading.Thread(
        target=tcp.serve_forever, name="ghostdb-listener", daemon=True
    ).start()
    return tcp, ghost


def shutdown_server(tcp: _TcpServer, ghost: GhostDBServer) -> None:
    tcp.shutdown()
    tcp.server_close()
    ghost.stop()


class ServeClient:
    """Minimal blocking client for the wire protocol (tests, smoke)."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rwb")

    def call(self, **message) -> dict:
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def hello(self, name=None, ram=None, token=None) -> dict:
        message = {"op": "hello"}
        if name is not None:
            message["name"] = name
        if ram is not None:
            message["ram"] = ram
        if token is not None:
            message["token"] = token
        return self.call(**message)

    def sql(self, sql: str) -> dict:
        return self.call(op="sql", sql=sql)

    def bye(self) -> dict:
        try:
            return self.call(op="bye")
        finally:
            self.close()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


# ----------------------------------------------------------------------
# CI smoke: boot, hammer with concurrent clients, leak-check, shut down
# ----------------------------------------------------------------------

def run_smoke(scale: int = 400, clients: int = 4) -> int:
    """Boot a server on an ephemeral port, run ``clients`` concurrent
    clients against it, and verify the whole multiplexing story:
    every client gets the correct rows, the spied USB capture stays
    CLEAN under the leak checker, no session leaks RAM, and shutdown
    is clean.  Each client sends its statements twice; the second
    pass must run every statement from the session's plan table with
    the same rows.  Returns a process exit code."""
    from repro.core.factory import build_session
    from repro.privacy.leakcheck import LeakChecker
    from repro.workload.queries import demo_query, query_type_selectivity

    db, data = build_session(scale=scale)
    statements = [demo_query(), query_type_selectivity("Antibiotic")]
    expected = [
        sorted(
            [_json_value(v) for v in row] for row in db.query(sql).rows
        )
        for sql in statements
    ]
    db.reset_measurements()

    tcp, ghost = start_server(db, port=0)
    host, port = tcp.server_address
    failures: list[str] = []

    def client(i: int) -> None:
        try:
            c = ServeClient(host, port)
            hello = c.hello(name=f"smoke-{i}")
            if not hello.get("ok"):
                failures.append(f"client {i}: hello failed: {hello}")
                return
            for sql, want in zip(statements * 2, expected * 2):
                reply = c.sql(sql)
                if not reply.get("ok"):
                    failures.append(f"client {i}: {reply}")
                    return
                got = sorted(reply["rows"])
                if got != want:
                    failures.append(
                        f"client {i}: wrong rows ({len(got)} vs {len(want)})"
                    )
            bye = c.bye()
            if not bye.get("ok") or bye.get("leaked_ram"):
                failures.append(f"client {i}: bad bye: {bye}")
        except Exception as exc:  # noqa: BLE001 - smoke must report, not die
            failures.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    shutdown_server(tcp, ghost)

    # Each client's second pass ran from its session's plan table.
    hits = db.obs.registry.counter("ghostdb_plan_cache_lookups_total").value(
        outcome="hit"
    )
    if hits != clients * len(statements):
        failures.append(
            f"plan table hits: {hits:g}, expected "
            f"{clients * len(statements)}"
        )

    # Every lease must be back in the pool, nothing still reserved.
    if db.core.sessions:
        failures.append(f"sessions leaked: {sorted(db.core.sessions)}")
    if db.core.leased_bytes:
        failures.append(f"leased RAM leaked: {db.core.leased_bytes} B")

    # The spy saw the full interleaved traffic; it must still be CLEAN.
    report = LeakChecker(db.schema, data).check(db.usb_log)
    if not report.ok:
        failures.append(f"leak check: {report.summary()}")

    print(
        f"serve smoke: {clients} clients x {len(statements)} statements "
        f"x 2 passes"
    )
    print(f"  plan table hits: {hits:g}")
    print(f"  usb records captured: {len(db.usb_log)}")
    print(f"  leak check: {report.summary()}")
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("  all clients correct, no RAM leaked, clean shutdown")
    return 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghostdb serve",
        description="Serve one GhostDB device to many TCP clients.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--scale", type=int, default=2000,
        help="synthetic dataset size (prescriptions)",
    )
    parser.add_argument(
        "--profile", default="demo", help="hardware profile name"
    )
    parser.add_argument(
        "--max-sessions", type=int, default=8,
        help="most leased sessions open at once",
    )
    parser.add_argument(
        "--token", default=None,
        help="require this token in every hello (auth stub)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: ephemeral port, 4 concurrent clients, "
        "leak check, clean shutdown",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    from repro.core.factory import build_session

    db, _data = build_session(
        scale=args.scale,
        profile=args.profile,
        max_sessions=args.max_sessions,
    )
    tcp, ghost = start_server(
        db, host=args.host, port=args.port, token=args.token
    )
    host, port = tcp.server_address
    print(f"ghostdb serving on {host}:{port} (ctrl-c to stop)")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        shutdown_server(tcp, ghost)
    return 0


if __name__ == "__main__":
    sys.exit(main())
