"""The ``serve-2conn`` program process: a GhostDB behind ``repro.serve``.

Started by ``workload.py``; talks to it over stdin/stdout, one JSON
object per line:

* on start it builds a session, starts the TCP front end on an
  ephemeral port and prints ``{"port": ...}``;
* ``mark`` prints the summed device counters of every open leased
  session, the FTL's GC count, the spans the sessions' tracers hold
  and, with ``--trace``, the layer trace's snapshot;
* ``trace on`` and ``trace off`` install and remove the layer trace
  (the client sends them at window boundaries, while no statement is in
  flight) and print ``{}``;
* on stdin EOF it shuts the front end down, runs the leak checker over
  the spied USB capture and prints the leak verdict and peak RSS.

Usage: ``python benchmarks/e2e/server.py --scale 20000 [--trace]
[--spans PATH]`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from layers import LayerTrace
from measure import device_totals, peak_rss_mib
from repro.core.factory import build_session
from repro.privacy.leakcheck import LeakChecker
from repro.serve import shutdown_server, start_server


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def snapshot(db, trace: LayerTrace | None) -> dict:
    sessions = list(db.core.sessions.values())
    message = {
        "totals": device_totals(s.device.counters() for s in sessions),
        "gc_runs": db.device.ftl.stats.gc_runs,
        "spans_retained": sum(s.obs.tracer.span_count() for s in sessions),
    }
    if trace is not None:
        message["trace"] = trace.snapshot()
    return message


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    db, data = build_session(scale=args.scale)
    tcp, ghost = start_server(db, port=0)
    _reply({"port": tcp.server_address[1]})
    trace = LayerTrace() if args.trace else None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                _reply(snapshot(db, trace))
            elif trace is not None and command == "trace on":
                trace.install()
                _reply({})
            elif trace is not None and command == "trace off":
                trace.uninstall()
                _reply({})
            else:
                raise SystemExit(f"unknown control line {command!r}")
    finally:
        shutdown_server(tcp, ghost)
        if trace is not None:
            trace.uninstall()
    rss_mb = peak_rss_mib()
    if trace is not None and args.spans:
        trace.write_spans(args.spans)
    start = time.perf_counter()
    report = LeakChecker(db.schema, data).check(db.usb_log)
    _reply(
        {
            "leak_clean": report.ok,
            "leakcheck_s": time.perf_counter() - start,
            "rss_mb": rss_mb,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
