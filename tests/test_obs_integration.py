"""End-to-end observability: traces, metrics and redaction on a loaded
session.

The acceptance bar for the subsystem:

* operator self-times in a trace sum to the query's total simulated time;
* exported Chrome traces round-trip and nest by plan structure;
* a trace of a hidden-predicate query contains **no** dataset value --
  verified by the adversarial :class:`LeakChecker`, not by eyeballing;
* the Prometheus exposition's query-attributed totals equal the summed
  per-query :class:`ExecutionMetrics` diffs.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import Shell
from repro.obs.bundle import build_bundle, bundle_payload
from repro.obs.export import chrome_trace_json
from repro.privacy.leakcheck import LeakChecker
from repro.workload.queries import demo_query, query_purpose_only


@pytest.fixture
def obs_session(fresh_session):
    """A private loaded session with measurement state zeroed."""
    fresh_session.reset_measurements()
    return fresh_session


# ----------------------------------------------------------------------
# Time attribution
# ----------------------------------------------------------------------


class TestTimeAttribution:
    def test_operator_self_times_sum_to_total(self, obs_session):
        result = obs_session.query(demo_query())
        total = result.metrics.elapsed_seconds
        summed = sum(op.self_seconds for op in result.metrics.operators)
        assert summed == pytest.approx(total, rel=1e-6, abs=1e-9)

    def test_operator_spans_cover_execution(self, obs_session):
        traced = obs_session.trace(demo_query())
        ops = [
            s
            for root in traced.spans
            for s in root.walk()
            if s.category == "operator"
        ]
        assert ops, "no operator spans recorded"
        execute = next(
            s
            for root in traced.spans
            for s in root.walk()
            if s.name == "executor.execute"
        )
        for op in ops:
            assert op.start_sim >= execute.start_sim
            assert op.end_sim <= execute.end_sim

    def test_per_query_ram_high_water_not_inherited(self, obs_session):
        """Satellite fix: the second query must report its *own* RAM
        peak, not the session-wide maximum left by the first."""
        small_sql = "SELECT Country FROM Doctor LIMIT 1"
        baseline = obs_session.query(small_sql).metrics.ram_high_water
        big = obs_session.query(demo_query()).metrics.ram_high_water
        again = obs_session.query(small_sql).metrics.ram_high_water
        assert big > baseline  # the join really does use more RAM
        assert again == baseline


# ----------------------------------------------------------------------
# Trace structure and export
# ----------------------------------------------------------------------


class TestTraceExport:
    def test_trace_has_optimizer_and_operator_spans(self, obs_session):
        traced = obs_session.trace(demo_query())
        names = [s.name for root in traced.spans for s in root.walk()]
        assert "query" in names
        assert "optimizer.rank" in names
        assert names.count("optimizer.candidate") >= 2
        assert "executor.execute" in names
        assert any(n.startswith("op:") for n in names)

    def test_execute_span_carries_counter_attrs(self, obs_session):
        traced = obs_session.trace(demo_query())
        execute = next(
            s
            for root in traced.spans
            for s in root.walk()
            if s.name == "executor.execute"
        )
        m = traced.result.metrics
        assert execute.attrs["flash_page_reads"] == m.flash_page_reads
        assert execute.attrs["usb_messages"] == m.usb_messages
        assert execute.attrs["ram_high_water"] == m.ram_high_water

    def test_chrome_export_round_trip(self, obs_session, tmp_path):
        traced = obs_session.trace(demo_query())
        path = tmp_path / "query.trace.json"
        traced.save(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
        # both timelines present
        assert {e["pid"] for e in complete} == {1, 2}

    def test_session_export_includes_load(self, obs_session, tmp_path):
        obs_session.query(demo_query())
        path = tmp_path / "session.trace.json"
        obs_session.export_trace(str(path))
        doc = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# Redaction: no hidden value may enter any observability artefact
# ----------------------------------------------------------------------


class TestRedaction:
    def test_hidden_predicate_trace_is_clean(self, obs_session, demo_data):
        # Patient.Name is hidden; query for one real name from the data.
        name = demo_data["patient"][0][1]
        traced = obs_session.trace(
            f"SELECT Age FROM Patient WHERE Name = '{name}'"
        )
        rendered = traced.render()
        trace_json = traced.chrome_json()
        assert name not in rendered
        assert name not in trace_json

        checker = LeakChecker(obs_session.schema, demo_data)
        report = checker.check_bytes(
            trace_json.encode("utf-8"), kind="chrome-trace"
        )
        assert report.ok, report.summary()

    def test_demo_query_trace_survives_leakcheck(self, obs_session, demo_data):
        traced = obs_session.trace(demo_query())
        checker = LeakChecker(obs_session.schema, demo_data)
        payload = traced.chrome_json().encode("utf-8")
        assert checker.check_bytes(payload, kind="chrome-trace").ok

    def test_metrics_exposition_survives_leakcheck(
        self, obs_session, demo_data
    ):
        obs_session.query(demo_query())
        obs_session.query(query_purpose_only())
        checker = LeakChecker(obs_session.schema, demo_data)
        payload = obs_session.metrics_text().encode("utf-8")
        assert checker.check_bytes(payload, kind="metrics").ok

    def test_sql_constants_scrubbed_from_query_span(self, obs_session):
        traced = obs_session.trace(query_purpose_only("Sclerosis"))
        query_span = traced.spans[0]
        assert query_span.name == "query"
        assert "Sclerosis" not in query_span.attrs["sql"]
        # structure survives: table/column names are accepted revelation
        assert "Purpose" in query_span.attrs["sql"]


# ----------------------------------------------------------------------
# Every statement surface traces through the one statement pipeline
# ----------------------------------------------------------------------


class TestStatementSpans:
    @pytest.mark.parametrize(
        "surface", ["explain_analyze", "query_with_strategy"]
    )
    def test_plan_surfaces_trace_like_queries(self, obs_session, surface):
        sql = demo_query()
        best = obs_session.rank_plans(sql)[0]
        tracer = obs_session.obs.tracer
        mark = tracer.mark()
        if surface == "explain_analyze":
            _report, result = obs_session.explain_analyze(sql)
        else:
            result = obs_session.query_with_strategy(sql, best.strategy)
        (root,) = tracer.roots_since(mark)
        assert root.name == "query"
        assert "Prescription" in root.attrs["sql"]
        assert root.attrs["result_rows"] == result.row_count
        assert isinstance(root.attrs["leak_signature"], int)
        names = {span.name for span in root.walk()}
        assert "executor.execute" in names

    def test_dml_spans_and_events_are_readable(self, fresh_session, demo_data):
        db = fresh_session
        tracer = db.obs.tracer
        mark = tracer.mark()
        results = [
            db.execute("UPDATE Prescription SET Quantity = 9 WHERE Quantity = 7"),
            db.execute("DELETE FROM Prescription WHERE Quantity = 3"),
        ]
        roots = tracer.roots_since(mark)
        assert [root.name for root in roots] == ["dml", "dml"]
        assert roots[0].attrs["sql"].startswith("UPDATE Prescription SET")
        for root, result in zip(roots, results):
            assert result.matched > 0
            (child,) = [s for s in root.walk() if s.name == "executor.dml"]
            for span in (root, child):
                assert span.attrs["matched"] == result.matched
                assert span.attrs["changed"] == result.changed
            assert child.attrs["kind"] == result.kind

        payload = bundle_payload(build_bundle(db), db.obs.redactor)
        events = json.loads(payload)["flight"]["events"]
        begins = [e for e in events if e["kind"] == "dml_begin"]
        assert [e["data"]["statement"] for e in begins] == ["update", "delete"]
        assert [e["data"]["table"] for e in begins] == ["prescription"] * 2
        assert sum(e["kind"] == "dml_end" for e in events) == 2

        checker = LeakChecker(db.schema, demo_data)
        trace = chrome_trace_json(roots).encode("utf-8")
        assert checker.check_bytes(trace, kind="chrome-trace").ok
        assert checker.check_bytes(payload, kind="postmortem").ok


# ----------------------------------------------------------------------
# Metrics aggregation across queries
# ----------------------------------------------------------------------


class TestSessionMetrics:
    def test_totals_match_summed_execution_metrics(self, obs_session):
        queries = [demo_query(), query_purpose_only(), demo_query()]
        diffs = [obs_session.query(q).metrics for q in queries]
        reg = obs_session.obs.registry

        assert reg.counter("ghostdb_queries_total").total() == len(queries)
        assert reg.counter("ghostdb_flash_page_reads_total").total() == sum(
            m.flash_page_reads for m in diffs
        )
        assert reg.counter("ghostdb_usb_messages_total").total() == sum(
            m.usb_messages for m in diffs
        )
        assert reg.counter("ghostdb_usb_bytes_total").value(
            direction="to_host"
        ) == sum(m.usb_bytes_to_host for m in diffs)
        assert reg.counter("ghostdb_result_rows_total").total() == sum(
            m.result_rows for m in diffs
        )
        assert reg.gauge("ghostdb_ram_high_water_bytes").value() == max(
            m.ram_high_water for m in diffs
        )

    def test_exposition_text_reflects_totals(self, obs_session):
        obs_session.query(query_purpose_only())
        text = obs_session.metrics_text()
        assert "# TYPE ghostdb_queries_total counter" in text
        assert "ghostdb_queries_total 1" in text
        assert "ghostdb_plans_considered_total" in text

    def test_plans_considered_counts_candidates(self, obs_session):
        before = obs_session.obs.registry.counter(
            "ghostdb_plans_considered_total"
        ).total()
        obs_session.query(demo_query())
        after = obs_session.obs.registry.counter(
            "ghostdb_plans_considered_total"
        ).total()
        assert after - before >= 2  # 2x2 pre/post strategies for the demo

    def test_device_lifetime_metrics_present(self, obs_session):
        obs_session.query(demo_query())
        text = obs_session.metrics_text()
        assert "ghostdb_device_flash_reads_total" in text
        assert "ghostdb_device_usb_message_bytes_bucket" in text

    def test_reset_measurements_zeroes_obs(self, obs_session):
        obs_session.query(query_purpose_only())
        obs_session.reset_measurements()
        reg = obs_session.obs.registry
        assert reg.counter("ghostdb_queries_total").total() == 0
        assert obs_session.obs.tracer.span_count() == 0


# ----------------------------------------------------------------------
# Persistence: sessions with observability state stay picklable
# ----------------------------------------------------------------------


class TestObsPersistence:
    def test_traced_session_round_trips(self, obs_session, tmp_path):
        from repro.core.ghostdb import GhostDB

        obs_session.trace(query_purpose_only())
        path = tmp_path / "session.ghostdb"
        obs_session.save(str(path))
        restored = GhostDB.restore(str(path))
        assert restored.obs.tracer.span_count() > 0
        result = restored.query(query_purpose_only())
        assert result.metrics.elapsed_seconds > 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_shell():
    out = io.StringIO()
    sh = Shell(scale=1_000, out=out)
    sh._out_buffer = out
    return sh


def run(shell, line):
    shell._out_buffer.seek(0)
    shell._out_buffer.truncate()
    alive = shell.handle(line)
    return alive, shell._out_buffer.getvalue()


class TestShellObservability:
    def test_trace_command_renders_span_tree(self, obs_shell):
        _alive, out = run(obs_shell, f".trace {demo_query()}")
        assert "executor.execute" in out
        assert "op:" in out
        assert "sim" in out and "wall" in out
        assert "rows)" in out

    def test_metrics_command_exposes_registry(self, obs_shell):
        run(obs_shell, "SELECT Country FROM Doctor LIMIT 1")
        _alive, out = run(obs_shell, ".metrics")
        assert "# TYPE ghostdb_queries_total counter" in out

    def test_help_documents_new_commands(self, obs_shell):
        _alive, out = run(obs_shell, ".help")
        assert ".trace" in out and ".metrics" in out

    def test_trace_out_flag_writes_perfetto_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "cli.trace.json"
        code = main(
            [
                "--scale", "500",
                "--query", "SELECT Country FROM Doctor LIMIT 1",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
