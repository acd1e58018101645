"""Run one end-to-end workload and print its measurements as JSON.

``run.py`` starts one fresh process per workload run::

    python benchmarks/e2e/workload.py --workload point-lookup --seed 1 \\
        --seconds 10 [--trace] [--spans PATH]

with ``src`` on ``PYTHONPATH``.  Each client stream sends a fixed
number of statements, sized so that the closed loop takes about
``--seconds`` on the calibration host (see :data:`RATES`): every run,
traced or not, does the same work however fast the host or the program.
The loop is cut into windows of :data:`WINDOWS` statements, each scaled
to reference seconds by the host-speed kernel ticks taken during it
(:class:`measure.HostSpeed`).  With ``--trace`` every second window
runs with the layer trace installed, so traced and untraced statements
share one session of one age.  Every statement's result is kept and
checked against the brute-force reference evaluator after the loop,
never inside it; the spied USB capture is leak-checked after the loop
too.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import streams
from layers import LayerTrace, layer_metrics
from measure import (
    HostSpeed,
    Window,
    age_slowdown,
    device_totals,
    difference,
    end_to_end,
    peak_rss_mib,
    throughput,
)
from repro.catalog.schema import Schema
from repro.catalog.tree import SchemaTree
from repro.core.factory import build_session
from repro.hardware.profiles import DEMO_DEVICE
from repro.privacy.leakcheck import LeakChecker
from repro.reference import evaluate_reference, same_rows
from repro.serve import ServeClient
from repro.soak import apply_dml_reference
from repro.sql.binder import Binder
from repro.sql.ddl import create_table
from repro.sql.parser import parse_statement
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL

HERE = os.path.dirname(os.path.abspath(__file__))

#: Prescriptions per workload (the other tables scale with it).
SCALES = {
    "point-lookup": 20_000,
    "olap-scan": 20_000,
    "write-mix": 2_000,
    "serve-2conn": 20_000,
}
#: write-mix runs on a 4 MiB flash so the FTL's garbage collector runs
#: many cycles per run; on the default 1 GiB flash it never runs.
WRITE_MIX_DEVICE = DEMO_DEVICE.with_overrides(num_blocks=32)
#: Statements per client stream in one window, the stretch of the loop
#: that one host-speed scale covers: about half a second of work, and
#: whole rotations of the query shapes (for write-mix, two writes with
#: their reads).
WINDOWS = {
    "point-lookup": 40,
    "olap-scan": streams.SCAN_SHAPES,
    "write-mix": 2 * (1 + streams.READS_PER_WRITE),
    "serve-2conn": 20,
}
#: Statements per second per client stream, about what the calibration
#: host managed when the benchmark was defined.  ``--seconds`` times
#: this, rounded to whole windows (for write-mix, whole write cycles), is
#: each stream's statement count.  Fixed, so a faster program finishes
#: the same work sooner.
RATES = {
    "point-lookup": 130,
    "olap-scan": 10,
    "write-mix": 30,
    "serve-2conn": 60,
}
#: Set-up is timed this many times per run and reported as the median.
SETUP_RUNS = 3
CONNECTIONS = 2
#: Statements hashed into the run's statement-sequence digest.
DIGEST_PREFIX = 64
#: Kernel ticks timed on each side of a stretch of work that cannot
#: tick inside it (set-up, leak check, serve-2conn windows).
SAMPLE_TICKS = 20
#: Longest a serve-2conn client waits at a window boundary.
BARRIER_TIMEOUT_S = 120


def statement_count(workload: str, seconds: float) -> int:
    """Statements each client stream of ``workload`` sends: at least
    two windows, so that a traced run has an untraced and a traced one."""
    unit = streams.WRITE_CYCLE if workload == "write-mix" else WINDOWS[workload]
    return max(2, round(seconds * RATES[workload] / unit)) * unit


def execute(db, statement):
    """Run one statement in process: rows for a SELECT, the changed-row
    count for a DML statement, the appended-row count for an append."""
    kind = statement[0]
    if kind == "select":
        return db.query(statement[1]).rows
    if kind == "dml":
        return db.execute(statement[1]).changed
    return db.append(statement[1], statement[2]).appended_rows


def _wire(value):
    """A value as the serve front end puts it on the wire."""
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return str(value)


def count_wrong(tree, host: dict[str, list], ran: list, wire: bool = False) -> int:
    """Replay ``ran`` -- ``(statement, latency, result)`` in the order sent
    -- on the host copy ``host`` and count results that differ from the
    reference: SELECT rows as multisets, writes by rows changed."""
    binder = Binder(tree)
    expected: dict[str, list] = {}
    wrong = 0
    for statement, _latency, result in ran:
        if isinstance(result, Exception):
            continue
        kind = statement[0]
        if kind == "select":
            sql = statement[1]
            if sql not in expected:
                rows = evaluate_reference(tree, host, binder.bind(parse_statement(sql)))
                if wire:
                    rows = [tuple(_wire(v) for v in row) for row in rows]
                expected[sql] = rows
            wrong += not same_rows(result, expected[sql])
            continue
        expected.clear()
        before = dict(host)
        if kind == "dml":
            apply_dml_reference(tree, host, statement[1])
        else:
            table = statement[1].lower()
            host[table] = host[table] + statement[2]
        changed = sum(
            len(set(before[t]) ^ set(host[t])) for t in host if host[t] is not before[t]
        )
        # An UPDATE swaps each changed row for a new one (two differences
        # per row); an append or DELETE adds or drops one per row.
        if kind == "dml" and statement[1].lstrip().upper().startswith("UPDATE"):
            changed //= 2
        wrong += changed != result
    return wrong


def host_tree() -> SchemaTree:
    """The demo schema's join tree, built without a device."""
    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    return SchemaTree(schema)


def _send(run_one, statement, ran: list) -> None:
    """One closed-loop step: send, wait, record."""
    start = time.perf_counter()
    try:
        result = run_one(statement)
    except Exception as exc:  # counted as a failed statement
        result = exc
    ran.append((statement, time.perf_counter() - start, result))


def timed_call(speed: HostSpeed, call) -> tuple[float, object]:
    """``call()``'s wall time in reference seconds, and its result."""
    before = speed.ticks(SAMPLE_TICKS)
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    return elapsed * speed.factor(before + speed.ticks(SAMPLE_TICKS)), result


def _reference_latencies(ran: list, windows: list[Window], size: int) -> list[float]:
    """Latencies of the statements that succeeded in untraced windows,
    in reference seconds, in the order sent."""
    return [
        latency * windows[i // size].factor
        for i, (_, latency, result) in enumerate(ran)
        if not windows[i // size].traced and not isinstance(result, Exception)
    ]


def summarise(args, runs: list[list], wrong: int, leak_clean: bool) -> dict:
    errors = 0
    for ran in runs:
        for statement, _, result in ran:
            if isinstance(result, Exception):
                errors += 1
                print(f"failed: {statement[:2]}: {result!r}", file=sys.stderr)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "correct": wrong == 0 and errors == 0 and leak_clean,
        "attempted": sum(map(len, runs)),
        "failed": errors + wrong,
        "wrong": wrong,
        "leak_clean": leak_clean,
        "digest": streams.digest(s for s, _, _ in runs[0][:DIGEST_PREFIX]),
    }


def _traced_scale(windows: list[Window]) -> float:
    """Reference seconds per measured second over the traced windows."""
    traced = [w for w in windows if w.traced]
    return sum(w.elapsed_s * w.factor for w in traced) / sum(
        w.elapsed_s for w in traced
    )


def trace_summary(windows: list[Window], latencies: list[list[float]]) -> dict:
    """Per-layer values measured outside the trace itself."""
    return {
        "trace_overhead_x": throughput(w for w in windows if not w.traced)
        / throughput(w for w in windows if w.traced),
        "age_slowdown_x": age_slowdown(latencies),
    }


def run_local(args) -> dict:
    """point-lookup, olap-scan and write-mix: the program in this process."""
    profile = WRITE_MIX_DEVICE if args.workload == "write-mix" else DEMO_DEVICE
    phases = {}
    speed = HostSpeed()
    setup = []
    clock = time.perf_counter()
    for _ in range(SETUP_RUNS):
        db = data = None
        gc.collect()
        seconds, (db, data) = timed_call(
            speed,
            lambda: build_session(scale=args.scale, profile=profile),
        )
        setup.append(seconds)
    phases["setup"] = time.perf_counter() - clock

    clock = time.perf_counter()
    warm, stream = streams.build(args.workload, data, args.seed)
    count = statement_count(args.workload, args.seconds)
    statements = [next(stream) for _ in range(count)]
    for statement in warm:
        execute(db, statement)
    phases["warm"] = time.perf_counter() - clock

    size = WINDOWS[args.workload]
    trace = LayerTrace() if args.trace else None
    before = device_totals([db.device.counters()])
    gc_before = db.device.ftl.stats.gc_runs
    ran: list = []
    windows: list[Window] = []
    clock = time.perf_counter()
    for start in range(0, count, size):
        traced = trace is not None and len(windows) % 2 == 1
        if traced:
            trace.install()
        for i in range(start, start + size):
            if traced:
                trace.statement(i)
            _send(lambda s: execute(db, s), statements[i], ran)
            speed.tick(ran[-1][1])
        if traced:
            trace.uninstall()
        busy = sum(latency for _, latency, _ in ran[start:])
        windows.append(Window(size, busy, speed.window_factor(), traced))
    phases["loop"] = time.perf_counter() - clock
    delta = difference(device_totals([db.device.counters()]), before)
    gc_runs = db.device.ftl.stats.gc_runs - gc_before
    rss = peak_rss_mib()

    clock = time.perf_counter()
    leakcheck_s, leaks = timed_call(
        speed, lambda: LeakChecker(db.schema, data).check(db.usb_log)
    )
    host = {name: list(rows) for name, rows in data.items()}
    out = summarise(args, [ran], count_wrong(db.tree, host, ran), leaks.ok)
    phases["check"] = time.perf_counter() - clock
    out["phases_s"] = phases
    out["windows"] = [asdict(w) for w in windows]
    latencies = [_reference_latencies(ran, windows, size)]
    out["latencies"] = latencies
    if trace is None:
        out["metrics"] = end_to_end(setup, windows, latencies, delta, count, rss)
        return out
    if args.spans:
        trace.write_spans(args.spans)
    traced_stmts = sum(w.statements for w in windows if w.traced)
    out["layers"] = layer_metrics(
        trace.snapshot(),
        delta,
        stmts=count,
        traced_stmts=traced_stmts,
        writes=sum(s[0] != "select" for s, _, _ in ran),
        traced_writes=sum(
            s[0] != "select"
            for i, (s, _, _) in enumerate(ran)
            if windows[i // size].traced
        ),
        result_rows=sum(
            len(r) for s, _, r in ran if s[0] == "select" and isinstance(r, list)
        ),
        extra={
            **trace_summary(windows, latencies),
            "gc_runs": gc_runs,
            "spans_retained": db.obs.tracer.span_count(),
            "leakcheck_s": leakcheck_s,
        },
        scale=_traced_scale(windows),
    )
    return out


class _Server:
    """The ``server.py`` child and its stdin/stdout control channel."""

    def __init__(self, scale: int, traced: bool, spans: str | None = None):
        command = [
            sys.executable, os.path.join(HERE, "server.py"), "--scale", str(scale)
        ]
        if traced:
            command.append("--trace")
            if spans:
                command += ["--spans", spans]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.port = self.read()["port"]

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early ({self.proc.wait()})")
        return json.loads(line)

    def control(self, command: str) -> dict:
        """Send one control line (``mark``, ``trace on``, ``trace off``)
        and return the server's reply."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self) -> dict:
        """Close stdin (the shutdown signal) and collect the verdict."""
        self.proc.stdin.close()
        final = self.read()
        self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_serve(args) -> dict:
    """serve-2conn: the program in a child process behind ``repro.serve``,
    two connections from two threads of this process."""
    speed = HostSpeed()
    setup = []
    clock = time.perf_counter()
    for i in range(SETUP_RUNS):
        seconds, server = timed_call(
            speed, lambda: _Server(args.scale, args.trace, args.spans)
        )
        setup.append(seconds)
        if i < SETUP_RUNS - 1:
            try:
                server.finish()
            finally:
                server.kill()
    phases = {"setup": time.perf_counter() - clock}
    try:
        return _drive_server(args, server, speed, setup, phases)
    finally:
        server.kill()


def _drive_server(args, server: _Server, speed, setup, phases) -> dict:
    clock = time.perf_counter()
    data = MedicalDataGenerator(DatasetConfig(n_prescriptions=args.scale)).generate()
    count = statement_count(args.workload, args.seconds)
    size = WINDOWS[args.workload]
    clients = [ServeClient("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
    statements = []
    for k, client in enumerate(clients):
        warm, stream = streams.build(args.workload, data, args.seed, stream=k)
        statements.append([next(stream) for _ in range(count)])
        hello = client.hello(name=f"conn-{k}")
        if not hello.get("ok"):
            raise RuntimeError(f"hello refused: {hello}")
        for statement in warm:
            client.sql(statement[1])
    phases["warm"] = time.perf_counter() - clock

    steps = [0] * CONNECTIONS

    def run_one(k, statement):
        reply = clients[k].sql(statement[1])
        if not reply.get("ok"):
            raise RuntimeError(f"{reply.get('kind')}: {reply.get('error')}")
        steps[k] += reply["steps"]
        return [tuple(row) for row in reply["rows"]]

    runs: list[list] = [[] for _ in range(CONNECTIONS)]
    windows: list[Window] = []
    errors: list[BaseException] = []
    mark: dict = {"ticks": [], "begin": 0.0}

    def boundary() -> None:
        """Barrier action, run while both connections wait: close the
        window, time the kernel, switch the server's trace for the next.
        The kernel cannot tick during a window here without competing
        with the server for the CPUs, so it ticks at both ends."""
        elapsed = time.perf_counter() - mark["begin"]
        after = speed.ticks(speed.tick_count(elapsed))
        traced = args.trace and len(windows) % 2 == 1
        windows.append(
            Window(
                CONNECTIONS * size, elapsed, speed.factor(mark["ticks"] + after), traced
            )
        )
        if args.trace and len(windows) < count // size:
            server.control("trace off" if traced else "trace on")
        mark["ticks"] = after
        mark["begin"] = time.perf_counter()

    barrier = threading.Barrier(CONNECTIONS, action=boundary, timeout=BARRIER_TIMEOUT_S)

    def connection(k: int) -> None:
        try:
            for start in range(0, count, size):
                for i in range(start, start + size):
                    _send(lambda s: run_one(k, s), statements[k][i], runs[k])
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other side failed; its error is reported
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
            barrier.abort()

    before = server.control("mark")
    clock = time.perf_counter()
    threads = [
        threading.Thread(target=connection, args=(k,)) for k in range(CONNECTIONS)
    ]
    mark["ticks"] = speed.ticks(SAMPLE_TICKS)
    mark["begin"] = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if len(windows) != count // size:
        raise RuntimeError("a connection stopped early")
    phases["loop"] = time.perf_counter() - clock
    after = server.control("mark")
    for client in clients:
        client.bye()
    clock = time.perf_counter()
    final = server.finish()

    delta = difference(after["totals"], before["totals"])
    tree = host_tree()
    wrong = sum(count_wrong(tree, data, ran, wire=True) for ran in runs)
    out = summarise(args, runs, wrong, final["leak_clean"])
    phases["check"] = time.perf_counter() - clock
    out["phases_s"] = phases
    out["windows"] = [asdict(w) for w in windows]
    latencies = [_reference_latencies(ran, windows, size) for ran in runs]
    out["latencies"] = latencies
    stmts = CONNECTIONS * count
    if not args.trace:
        out["metrics"] = end_to_end(
            setup, windows, latencies, delta, stmts, final["rss_mb"]
        )
        return out
    traced_stmts = sum(w.statements for w in windows if w.traced)
    scale = _traced_scale(windows)
    traced_client_s = sum(
        latency
        for ran in runs
        for i, (_, latency, _) in enumerate(ran)
        if windows[i // size].traced
    )
    out["layers"] = layer_metrics(
        after["trace"],
        delta,
        stmts=stmts,
        traced_stmts=traced_stmts,
        writes=0,
        traced_writes=0,
        result_rows=sum(
            len(r) for ran in runs for _, _, r in ran if isinstance(r, list)
        ),
        extra={
            **trace_summary(windows, latencies),
            "gc_runs": after["gc_runs"] - before["gc_runs"],
            "spans_retained": after["spans_retained"],
            "leakcheck_s": final["leakcheck_s"] * scale,
            "grants": sum(steps),
            "client_ms_per_stmt": traced_client_s * scale * 1e3 / traced_stmts,
        },
        scale=scale,
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument(
        "--scale", type=int, default=None, help="prescriptions (default: SCALES)"
    )
    args = parser.parse_args(argv)
    args.scale = args.scale or SCALES[args.workload]
    run = run_serve if args.workload == "serve-2conn" else run_local
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
