"""Interactive GhostDB shell.

``python -m repro`` builds a demo-schema session over the synthetic
medical dataset and drops into a small REPL: type SQL to run it, or a
dot-command for the demo-style views.

``python -m repro bench`` instead runs the benchmark regression harness
(see :mod:`repro.bench.runner`); ``python -m repro leakmeter`` runs the
adversary-eye leakage meter (see :mod:`repro.privacy.meter`);
``python -m repro doctor`` runs a self-diagnosing smoke session and
writes a leak-checked postmortem bundle (see :mod:`repro.obs.bundle`);
``python -m repro soak`` runs the deterministic sustained-DML endurance
harness under faults (see :mod:`repro.soak`).

Commands::

    <sql>;              run a statement (SELECT / INSERT before load)
    EXPLAIN LEAKAGE <select>  run and show the leakage scorecard
    .explain <sql>      show the chosen plan with cost estimates
    .explain analyze <sql>  alias for .analyze
    .analyze <sql>      run and show estimated-vs-measured per node
    .plans <sql>        rank every Pre/Post strategy by estimate
    .bench              the optimizer estimate-quality scorecard (T9)
    .spy [n]            the last n captured boundary messages (default 20)
    .leaks              leak-check the captured traffic
    .leak [sql]         leakage scorecard: what the traffic shape
                        reveals (of <sql> if given, else of the last
                        query / the captured session traffic)
    .trace <sql>        run and show the redacted span tree (sim + wall)
    .metrics            Prometheus-style exposition of session metrics,
                        with SLO percentile estimates up top
    .flight [n]         the last n flight-recorder events (default 20)
    .top [n] [key]      the n heaviest queries by a ledger key
                        (default 10 by sim_seconds)
    .dump [dir]         write a leak-checked DUMP_<seed>.json postmortem
                        bundle (flight ring, metrics, spans, ledger)
    .schema             table definitions with hidden markers
    .storage            the device's flash footprint report
    .game [sql]         play the find-the-fastest-plan game
    .fault              show the fault-injection status
    .fault <profile> [seed]  attach a fault profile (usb, flash, mixed,
                        powercut; deterministic per seed)
    .fault events [n]   the last n injected-fault decisions (default 10)
    .fault remount      remount after a power cut (recovery scan)
    .fault off          detach the injector
    .set                show the execution settings
    .cache              buffer-pool status (capacity, pages, hit rate)
    .cache on|off|<n>   enable (profile default), disable, or bound the
                        device buffer pool at n pages; SQL spelling:
                        SET cache = on|off|<n>
    .reset              clear measurements and the traffic log
    .help               this text
    .quit               leave
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.factory import build_session
from repro.engine.executor import QueryResult
from repro.hardware.profiles import PROFILES
from repro.obs.vetted import SIGNATURE_KEYS, serialize, write_atomic
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.spy import SpyView
from repro.storage.runs import MAX_FAN_IN
from repro.workload.queries import demo_query


class Shell:
    """One interactive session over a loaded GhostDB."""

    def __init__(self, scale: int = 10_000, profile: str = "demo",
                 out=None, trace_out: str | None = None,
                 metrics_out: str | None = None,
                 leak_out: str | None = None,
                 fault_profile: str | None = None, fault_seed: int = 0,
                 cache_pages: int | None = None,
                 dump_on_fault: bool = False,
                 dump_dir: str = "."):
        self.out = out or sys.stdout
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.leak_out = leak_out
        self.db, self.data = build_session(
            scale=scale,
            profile=profile,
            cache_pages=cache_pages,
            fault_profile=fault_profile,
            fault_seed=fault_seed,
            dump_on_fault=dump_on_fault,
            dump_dir=dump_dir,
        )
        self.checker = LeakChecker(self.db.schema, self.data)
        self._print(
            f"GhostDB shell -- {scale} prescriptions on "
            f"{PROFILES[profile].name}.  .help for commands."
        )

    # ------------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell quits."""
        line = line.strip().rstrip(";").strip()
        if not line:
            return True
        try:
            if line.startswith("."):
                return self._command(line)
            self._run_sql(line)
        except Exception as exc:  # surface, keep the shell alive
            self._print(f"error: {exc}")
        return True

    def _command(self, line: str) -> bool:
        parts = line.split(None, 1)
        name = parts[0].lower()
        argument = parts[1] if len(parts) > 1 else ""
        if name in (".quit", ".exit"):
            return False
        if name == ".help":
            self._print(__doc__)
        elif name == ".explain":
            # ".explain analyze <sql>" is the conventional spelling.
            first, _, rest = argument.partition(" ")
            if first.lower() == "analyze":
                return self._command(f".analyze {rest}".rstrip())
            self._print(self.db.explain(argument or demo_query()))
        elif name == ".analyze":
            report, result = self.db.explain_analyze(
                argument or demo_query()
            )
            self._print(report)
            self._print(f"({result.row_count} rows)")
        elif name == ".plans":
            sql = argument or demo_query()
            bound = self.db.bind(sql)
            for ranked in self.db.rank_plans(sql):
                self._print(
                    f"  {ranked.estimate.seconds * 1e3:9.3f} ms est  "
                    f"{ranked.strategy.label(bound)}"
                )
        elif name == ".bench":
            from repro.bench.scorecard import render_scorecard

            self._print(render_scorecard(self.db.bench_report()))
        elif name == ".spy":
            count = int(argument) if argument else 20
            spy = SpyView(self.db.usb_log[-count:])
            self._print(spy.transcript())
        elif name == ".leaks":
            self._print(self.checker.check(self.db.usb_log).summary())
        elif name == ".leak":
            self._leak_command(argument)
        elif name == ".trace":
            traced = self.db.trace(argument or demo_query())
            self._print(traced.render())
            self._print(f"({traced.result.row_count} rows)")
        elif name == ".metrics":
            self._show_slo()
            self._print(self.db.metrics_text())
        elif name == ".flight":
            self._show_flight(int(argument) if argument else 20)
        elif name == ".top":
            self._top_command(argument)
        elif name == ".dump":
            dump_checked(
                self.db, self.checker, argument or self.db.config.dump_dir,
                "dump", self._print,
            )
        elif name == ".schema":
            self._show_schema()
        elif name == ".storage":
            self._show_storage()
        elif name == ".game":
            self._play_game(argument or demo_query())
        elif name == ".fault":
            self._fault_command(argument)
        elif name == ".set":
            self._set_command(argument)
        elif name == ".cache":
            self._cache_command(argument)
        elif name == ".reset":
            self.db.reset_measurements()
            self._print("measurements and traffic log cleared")
        else:
            self._print(f"unknown command {name!r}; .help lists commands")
        return True

    # ------------------------------------------------------------------

    #: SQL-level spelling of the scorecard view, sibling of EXPLAIN.
    _EXPLAIN_LEAKAGE = "explain leakage"

    #: SQL-level spelling of the buffer-pool knob.
    _SET_CACHE = "set cache"

    def _run_sql(self, sql: str) -> None:
        if sql.lower().startswith(self._EXPLAIN_LEAKAGE):
            self._leak_command(sql[len(self._EXPLAIN_LEAKAGE):].strip())
            return
        if sql.lower().startswith(self._SET_CACHE):
            value = sql[len(self._SET_CACHE):].strip().lstrip("=").strip()
            self._cache_command(value or "on")
            return
        result = self.db.execute(sql)
        if not isinstance(result, QueryResult):
            self._print("ok")
            return
        self._print("  ".join(result.columns))
        for row in result.rows[:50]:
            self._print("  ".join(str(v) for v in row))
        if result.row_count > 50:
            self._print(f"... ({result.row_count} rows total)")
        m = result.metrics
        self._print(
            f"-- {result.row_count} rows | {m.elapsed_seconds * 1e3:.2f} ms "
            f"simulated | ram {m.ram_high_water} B | "
            f"flash {m.flash_page_reads}r/{m.flash_page_writes}w | "
            f"usb {m.usb_messages} msgs"
        )

    def _leak_command(self, argument: str) -> None:
        """``.leak [sql]`` / ``EXPLAIN LEAKAGE <sql>``: the adversary's
        quantitative view.  With SQL, runs it and scores that query's
        traffic; without, scores the last metered query (or the whole
        captured log if none ran since the last reset)."""
        from repro.privacy.meter import render_profile

        if argument:
            result = self.db.query(argument)
            profile = self.db.leak_scorecard()
            self._print(render_profile(profile))
            self._print(f"({result.row_count} rows)")
            return
        profile = self.db.leak_scorecard()
        if profile is None:
            self._print("no boundary traffic captured yet; run a query")
            return
        self._print(render_profile(profile))

    def _show_slo(self) -> None:
        """Percentile estimates for the ``ghostdb_slo_*`` families."""
        summary = self.db.obs.slo_summary()
        if not summary:
            self._print("# no SLO observations yet; run a query")
            return
        self._print("# SLO percentile estimates (linear interpolation)")
        for family, stats in summary.items():
            self._print(
                f"#   {family}: p50={stats['p50']:.4g} "
                f"p90={stats['p90']:.4g} p99={stats['p99']:.4g} "
                f"(n={stats['count']})"
            )

    def _show_flight(self, count: int) -> None:
        """``.flight [n]``: tail of the flight-recorder ring."""
        flight = self.db.obs.flight
        status = "on" if flight.enabled else "off"
        self._print(
            f"flight recorder: {status}, capacity {flight.capacity}, "
            f"{flight.total_recorded} recorded, {flight.dropped} dropped"
        )
        for event in flight.events()[-count:]:
            data = " ".join(f"{k}={v}" for k, v in event.data)
            self._print(
                f"  #{event.seq:<6d} {event.sim * 1e3:10.3f} ms  "
                f"{event.kind:16s} {data}"
            )

    def _top_command(self, argument: str) -> None:
        """``.top [n] [key]``: heaviest queries in the resource ledger."""
        from repro.obs.flight import fingerprint_hex
        from repro.obs.ledger import RESOURCE_FIELDS

        parts = argument.split()
        count = 10
        key = "sim_seconds"
        for part in parts:
            if part.isdigit():
                count = int(part)
            else:
                key = part
        if key not in RESOURCE_FIELDS:
            names = ", ".join(RESOURCE_FIELDS)
            self._print(f"unknown ledger key {key!r}; keys: {names}")
            return
        ledger = self.db.obs.ledger
        entries = ledger.top(count, key=key)
        if not entries:
            self._print("resource ledger is empty; run a query")
            return
        self._print(
            f"top {len(entries)} of {ledger.total_queries} queries "
            f"by {key} ({ledger.aborted_queries} aborted):"
        )
        for entry in entries:
            marker = f"  ABORTED {entry.aborted}" if entry.aborted else ""
            self._print(
                f"  #{entry.index:<5d} plan {fingerprint_hex(entry.fingerprint)}  "
                f"{key}={getattr(entry, key)}  "
                f"{entry.result_rows} rows{marker}"
            )

    def _show_schema(self) -> None:
        for table in self.db.schema:
            self._print(table.name)
            for column in table.columns:
                marks = []
                if column.primary_key:
                    marks.append("PRIMARY KEY")
                if column.references:
                    marks.append(
                        f"REFERENCES {column.references.table}"
                        f"({column.references.column})"
                    )
                if column.hidden:
                    marks.append("HIDDEN")
                suffix = (" " + " ".join(marks)) if marks else ""
                self._print(
                    f"  {column.name} {column.dtype.sql_name()}{suffix}"
                )

    def _show_storage(self) -> None:
        report = self.db.hidden.storage_report()
        self._print("device flash footprint:")
        for name, size in sorted(report.heap_bytes.items()):
            self._print(f"  heap {name:24s} {size / 1024:8.0f} KiB")
        for name, size in sorted(report.skt_bytes.items()):
            self._print(f"  {name:29s} {size / 1024:8.0f} KiB")
        for name, size in sorted(report.index_bytes.items()):
            self._print(f"  {name:29s} {size / 1024:8.0f} KiB")
        self._print(
            f"  total base {report.base_total / 1024:.0f} KiB, "
            f"indexes {report.index_total / 1024:.0f} KiB"
        )

    def _fault_command(self, argument: str) -> None:
        from repro.faults import FAULT_PROFILES

        parts = argument.split()
        word = parts[0].lower() if parts else "status"
        if word in ("", "status"):
            injector = self.db.fault_injector
            if injector is None:
                self._print("fault injection: off")
            else:
                self._print(
                    f"fault injection: profile={injector.profile.name} "
                    f"seed={injector.seed} events={len(injector.events)} "
                    f"usb_ops={injector.usb_ops} "
                    f"flash_ops={injector.flash_ops}"
                )
            if self.db.needs_remount:
                self._print("device lost power: '.fault remount' to recover")
        elif word == "off":
            self.db.clear_faults()
            self._print("fault injection detached")
        elif word == "remount":
            if not self.db.needs_remount:
                self._print("device is powered; nothing to recover")
                return
            self.db.remount()
            self._print("remounted: recovery scan rebuilt the FTL map")
        elif word == "events":
            injector = self.db.fault_injector
            if injector is None:
                self._print("fault injection: off")
                return
            count = int(parts[1]) if len(parts) > 1 else 10
            events = injector.events[-count:]
            if not events:
                self._print("no faults injected yet")
            for event in events:
                self._print(
                    f"  #{event.op_index:<6d} {event.site:5s} {event.kind}"
                )
        elif word in FAULT_PROFILES:
            seed = int(parts[1]) if len(parts) > 1 else 0
            if word == "none":
                self.db.clear_faults()
                self._print("fault injection detached")
                return
            self.db.set_faults(word, seed)
            self._print(f"fault injection: profile={word} seed={seed}")
        else:
            names = ", ".join(sorted(FAULT_PROFILES))
            self._print(
                f"unknown fault subcommand {word!r}; "
                f"profiles: {names}; or status/events/remount/off"
            )

    def _set_command(self, argument: str) -> None:
        if argument.strip():
            self._print("settings are read-only; '.set' lists them")
            return
        self._print(f"fetch      {self.db.link.fetch_batch}  (visible-fetch rows/msg)")
        self._print(f"fan-in     {MAX_FAN_IN}  (merge fan-in cap)")
        self._print(f"bloom-fp   {self.db.executor.config.bloom_fp_target}  (Bloom FP target)")

    def _cache_command(self, argument: str) -> None:
        """``.cache [on|off|<pages>]``: show or resize the buffer pool."""
        word = argument.strip().lower()
        if word:
            if word == "off":
                self.db.set_cache(0)
            elif word == "on":
                self.db.set_cache(None)
            else:
                try:
                    pages = int(word)
                except ValueError:
                    self._print(
                        f"not a cache size: {argument!r} "
                        f"(use on, off, or a page count)"
                    )
                    return
                self.db.set_cache(pages)
        cache = self.db.device.page_cache
        if not cache.enabled:
            self._print("buffer pool: off")
            return
        cap = (
            "unbounded"
            if cache.capacity_pages is None
            else f"{cache.capacity_pages} pages"
        )
        stats = cache.stats
        self._print(
            f"buffer pool: {cap} "
            f"({cache.page_count} resident, "
            f"{cache.page_size} B each)"
        )
        self._print(
            f"  {stats.hits} hits / {stats.lookups} lookups "
            f"({stats.hit_rate:.0%}), {stats.evictions} evictions, "
            f"{stats.invalidations} invalidations, "
            f"{stats.shed_pages} shed under RAM pressure"
        )

    def _play_game(self, sql: str) -> None:
        from repro.demo.game import PlanGame

        game = PlanGame(self.db, sql)
        for i, label in enumerate(game.candidates()):
            self._print(f"  [{i}] {label}")
        outcome = game.play()
        self._print(outcome.leaderboard())

    # ------------------------------------------------------------------

    def repl(self, stdin=None) -> None:
        stdin = stdin or sys.stdin
        prompt = "ghostdb> "
        while True:
            self.out.write(prompt)
            self.out.flush()
            line = stdin.readline()
            if not line:
                break
            if not self.handle(line):
                break
        self.close()
        self._print("bye")

    def close(self) -> None:
        """Flush the session trace, metrics and leakage scorecard if
        requested."""
        self._flush_trace()
        self._flush_metrics()
        self._flush_leakage()

    def _flush_trace(self) -> None:
        if not self.trace_out:
            return
        parent = os.path.dirname(self.trace_out)
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            self.db.export_trace(self.trace_out)
        except OSError as exc:
            self._print(f"error: could not write trace: {exc}")
            return
        self._print(
            f"wrote {self.db.obs.tracer.span_count()} spans to "
            f"{self.trace_out} (load in Perfetto / chrome://tracing)"
        )

    def _flush_leakage(self) -> None:
        if not self.leak_out:
            return
        from repro.privacy.meter import profile_records

        profile = profile_records(self.db.usb_log)
        kind = "ghostdb-leak-scorecard"
        payload = serialize(
            {"kind": kind, "scorecard": profile.to_record()},
            structural=(kind,),
            signature_keys=SIGNATURE_KEYS,
        )
        if write_checked(
            self.checker, self.leak_out, payload, "leakage scorecard",
            self._print,
        ):
            self._print(
                f"wrote leakage scorecard to {self.leak_out} "
                f"({profile.messages} messages, "
                f"{profile.observable_bytes} observable bytes)"
            )

    def _flush_metrics(self) -> None:
        if not self.metrics_out:
            return
        parent = os.path.dirname(self.metrics_out)
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(self.db.metrics_text())
        except OSError as exc:
            self._print(f"error: could not write metrics: {exc}")
            return
        self._print(
            f"wrote metrics exposition to {self.metrics_out} "
            f"(Prometheus text format)"
        )


def write_checked(
    checker: LeakChecker, path: str, payload: bytes, what: str, say
) -> bool:
    """Write ``payload`` only if ``checker``, which holds the raw
    dataset, calls the bytes CLEAN; report either failure through
    ``say`` instead of raising."""
    leak = checker.check_bytes(payload, kind=what)
    if not leak.ok:
        say(f"error: {what} not written: {leak.summary()}")
        return False
    try:
        write_atomic(path, payload)
    except OSError as exc:
        say(f"error: could not write {what}: {exc}")
        return False
    return True


def dump_checked(db, checker: LeakChecker, directory: str, reason: str, say):
    """Build ``db``'s postmortem bundle and write it into ``directory``
    through :func:`write_checked`; returns the vetted bytes, or ``None``
    when nothing was written."""
    from repro.obs.bundle import bundle_filename, bundle_payload

    bundle = db.postmortem(reason=reason)
    path = os.path.join(directory, bundle_filename(bundle))
    payload = bundle_payload(bundle, db.obs.redactor)
    if not write_checked(checker, path, payload, "postmortem bundle", say):
        return None
    db.obs.registry.counter("ghostdb_postmortem_bundles_total").inc(
        reason=reason
    )
    say(f"wrote postmortem bundle to {path}")
    return payload


def doctor_main(argv=None) -> int:
    """``python -m repro doctor``: self-diagnosing smoke session.

    Builds a small session, runs the demo query under a deterministic
    fault profile, prints the observability surfaces (flight recorder,
    resource ledger, SLO percentiles), then checks a postmortem bundle
    against the adversarial leak checker and writes it only if it is
    CLEAN.  Exit code 0 means every check passed -- suitable as a CI
    health probe.
    """
    parser = argparse.ArgumentParser(
        prog="repro doctor",
        description="GhostDB self-diagnosis: smoke query, flight "
        "recorder, postmortem bundle, leak check",
    )
    parser.add_argument(
        "--scale", type=int, default=2_000,
        help="prescriptions in the synthetic dataset (default 2000)",
    )
    from repro.faults import FAULT_PROFILES

    parser.add_argument(
        "--fault-profile", choices=sorted(FAULT_PROFILES), default="mixed",
        help="fault regime to exercise recovery paths (default mixed)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed for the fault schedule (default 7)",
    )
    parser.add_argument(
        "--dump-dir", default=".", metavar="DIR",
        help="where the DUMP_<seed>.json bundle is written (default .)",
    )
    args = parser.parse_args(argv)

    from repro.faults.errors import GhostDBFaultError

    ok = True
    db, data = build_session(
        scale=args.scale,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
    )
    print(f"doctor: session up ({args.scale} prescriptions, "
          f"faults={args.fault_profile} seed={args.fault_seed})")

    aborted = 0
    for attempt in range(6):
        try:
            result = db.query(demo_query())
            print(f"doctor: demo query ok ({result.row_count} rows)")
            break
        except GhostDBFaultError as exc:
            aborted += 1
            print(f"doctor: query aborted ({type(exc).__name__}); retrying")
            if db.needs_remount:
                db.remount()
    else:
        print("doctor: FAIL -- demo query never completed under faults")
        ok = False

    flight = db.obs.flight
    ledger = db.obs.ledger
    print(f"doctor: flight recorder {flight.total_recorded} events "
          f"({flight.dropped} dropped, capacity {flight.capacity})")
    print(f"doctor: ledger {ledger.total_queries} queries "
          f"({ledger.aborted_queries} aborted)")
    if flight.total_recorded == 0:
        print("doctor: FAIL -- flight recorder captured nothing")
        ok = False
    if ledger.total_queries + ledger.aborted_queries == 0:
        print("doctor: FAIL -- resource ledger is empty")
        ok = False
    for family, stats in db.obs.slo_summary().items():
        print(f"doctor: slo {family} p50={stats['p50']:.4g} "
              f"p99={stats['p99']:.4g} (n={stats['count']})")

    payload = dump_checked(
        db, LeakChecker(db.schema, data), args.dump_dir, "doctor",
        lambda line: print(f"doctor: {line}"),
    )
    if payload is None:
        ok = False
    elif json.loads(payload)["ledger"]["total_queries"] != ledger.total_queries:
        # The vetted bytes, not only the session, must hold the ledger.
        print("doctor: FAIL -- bundle ledger does not match session")
        ok = False
    print(f"doctor: {'healthy' if ok else 'UNHEALTHY'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    from repro.obs.log import configure_from_env

    configure_from_env()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        from repro.bench.runner import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "leakmeter":
        from repro.privacy.meter import main as meter_main

        return meter_main(argv[1:])
    if argv and argv[0] == "doctor":
        return doctor_main(argv[1:])
    if argv and argv[0] == "soak":
        from repro.soak import main as soak_main

        return soak_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="GhostDB interactive shell"
    )
    parser.add_argument(
        "--scale", type=int, default=10_000,
        help="prescriptions in the synthetic dataset (default 10000)",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="demo",
        help="hardware profile of the simulated device",
    )
    parser.add_argument(
        "--query", action="append", default=None,
        help="run this statement and exit (repeatable)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the session's Chrome trace-event JSON here on exit "
        "(open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the session's Prometheus-style metrics exposition "
        "here on exit",
    )
    parser.add_argument(
        "--leak-out", default=None, metavar="PATH",
        help="write the session traffic's leakage scorecard (JSON, "
        "leak-checked first) here on exit",
    )
    from repro.faults import FAULT_PROFILES

    parser.add_argument(
        "--fault-profile", choices=sorted(FAULT_PROFILES), default=None,
        help="attach this deterministic fault-injection profile at start",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault schedule (same seed, same faults)",
    )
    parser.add_argument(
        "--cache-pages", type=int, default=None, metavar="N",
        help="device buffer-pool capacity in flash pages "
        "(default: a quarter of device RAM; 0 disables the pool)",
    )
    parser.add_argument(
        "--dump-on-fault", action="store_true",
        help="write a DUMP_<seed>.json postmortem bundle whenever a "
        "query aborts on a typed fault",
    )
    parser.add_argument(
        "--dump-dir", default=".", metavar="DIR",
        help="directory for postmortem bundles (default .)",
    )
    args = parser.parse_args(argv)
    shell = Shell(
        scale=args.scale, profile=args.profile, trace_out=args.trace_out,
        metrics_out=args.metrics_out, leak_out=args.leak_out,
        fault_profile=args.fault_profile, fault_seed=args.fault_seed,
        cache_pages=args.cache_pages,
        dump_on_fault=args.dump_on_fault, dump_dir=args.dump_dir,
    )
    if args.query:
        for sql in args.query:
            shell.handle(sql)
        shell.close()
        return 0
    shell.repl()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
