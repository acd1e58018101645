"""Unit tests for the observability package (repro.obs)."""

from __future__ import annotations

import io
import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    MetricError,
    MetricsRegistry,
    Observability,
    Redactor,
    Tracer,
    chrome_trace_json,
    render_tree,
    to_chrome_trace,
)
from repro.obs.export import SIM_PID, WALL_PID
from repro.obs.log import ROOT, configure, get_logger
from repro.obs.redact import REDACTED, SCRUB_MEMO_SIZE


class FakeClock:
    """Stands in for SimClock: a settable ``now`` property."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Redactor
# ----------------------------------------------------------------------


class TestRedactor:
    def test_out_of_vocab_tokens_scrub(self):
        r = Redactor()
        assert r.scrub("query Dupont arrives") == f"query {REDACTED} {REDACTED}"

    def test_engine_vocabulary_survives(self):
        r = Redactor()
        assert r.scrub("climbing-select -> merge-intersect") == (
            "climbing-select -> merge-intersect"
        )

    def test_underscored_names_are_vetted_per_word(self):
        r = Redactor()
        assert r.scrub("flash_page_reads") == "flash_page_reads"
        assert r.scrub("flash_Dupont_reads") == f"flash_{REDACTED}_reads"

    def test_allow_extends_vocabulary(self):
        r = Redactor()
        assert r.scrub("Purpose") == REDACTED
        r.allow("Purpose")
        assert r.scrub("Purpose") == "Purpose"

    def test_scrub_counts_redactions(self):
        r = Redactor()
        before = r.redacted_tokens
        r.scrub("aaa bbb ccc")
        assert r.redacted_tokens == before + 3

    def test_value_passes_numbers_and_none(self):
        r = Redactor()
        assert r.value(None) is None
        assert r.value(True) is True
        assert r.value(42) == 42
        assert r.value(2.5) == 2.5

    def test_value_scrubs_strings_and_containers(self):
        r = Redactor()
        assert r.value("Dupont") == REDACTED
        assert r.value(["merge", "Dupont"]) == ["merge", REDACTED]
        assert r.value({"Dupont": "flash"}) == {REDACTED: "flash"}

    def test_value_reduces_arbitrary_objects(self):
        class Sneaky:
            def __str__(self):
                return "Dupont"

        assert Redactor().value(Sneaky()) == REDACTED

    def test_sql_constants_scrub_but_structure_survives(self):
        r = Redactor()
        r.allow("Visit", "Purpose")
        out = r.scrub("SELECT * FROM Visit WHERE Purpose = 'Sclerosis'")
        assert "Sclerosis" not in out
        assert "SELECT" in out and "Visit" in out and "'?'" in out


class TestScrubMemo:
    """The memo changes no output and no ``redacted_tokens`` count."""

    @staticmethod
    def unmemoized(allowed, text):
        fresh = Redactor()
        fresh.allow(*allowed)
        return fresh.scrub(text), fresh.redacted_tokens

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(
                    ["query Dupont", "merge Purpose x1", "Purpose", "scan",
                     "Visit = 'Sclerosis'", "", "Dupont Dupont 42"]
                ),
            ),
            max_size=40,
        )
    )
    def test_repeats_match_an_unmemoized_scrub(self, ops):
        r = Redactor()
        allowed: list[str] = []
        expected_tokens = 0
        for is_allow, text in ops:
            if is_allow:
                r.allow(text)
                allowed.append(text)
                continue
            out, tokens = self.unmemoized(allowed, text)
            expected_tokens += tokens
            assert r.scrub(text) == out
            assert r.redacted_tokens == expected_tokens

    def test_memo_stays_within_its_bound(self):
        r = Redactor()
        for i in range(SCRUB_MEMO_SIZE + 100):
            assert r.scrub(f"scan Dupont{i}") == f"scan {REDACTED}"
            assert len(r._memo) <= SCRUB_MEMO_SIZE
        assert r.redacted_tokens == SCRUB_MEMO_SIZE + 100

    def test_allow_drops_the_memo_only_when_the_vocabulary_grows(self):
        r = Redactor()
        assert r.scrub("Purpose") == REDACTED
        r.allow("scan", "Query")  # both known already: memo kept
        assert "Purpose" in r._memo
        r.allow("Purpose")
        assert r._memo == {}
        assert r.scrub("Purpose") == "Purpose"

    def test_memo_is_not_pickled(self):
        import pickle

        r = Redactor()
        r.scrub("query Dupont")
        restored = pickle.loads(pickle.dumps(r))
        assert restored._memo == {}
        assert restored.redacted_tokens == r.redacted_tokens
        assert restored.scrub("query Dupont") == f"query {REDACTED}"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_both_timelines(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("query") as outer:
            clock.advance(0.5)
            with tracer.span("executor.execute") as inner:
                clock.advance(1.0)
        assert outer.children == [inner]
        assert inner.parent is outer
        assert outer.sim_seconds == pytest.approx(1.5)
        assert inner.sim_seconds == pytest.approx(1.0)
        assert outer.wall_seconds >= inner.wall_seconds >= 0

    def test_attributes_pass_through_redaction_gate(self):
        tracer = Tracer()
        with tracer.span("query") as span:
            span.set("rows", 3)
            span.set("sql", "WHERE name = 'Dupont'")
        assert span.attrs["rows"] == 3
        assert "Dupont" not in span.attrs["sql"]

    def test_span_names_pass_through_gate(self):
        tracer = Tracer()
        with tracer.span("Dupont"):
            pass
        assert tracer.roots[0].name == REDACTED

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("query"):
                raise ValueError("boom")
        span = tracer.roots[0]
        assert span.finished
        assert span.attrs["error"] == "ValueError"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("query") as span:
            span.set("rows", 1)
        assert tracer.roots == []
        assert tracer.record("x", "y", 0, 1) is None

    def test_record_posthoc_nests_under_current(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("query") as outer:
            tracer.record(
                "op:project", "operator", start_sim=0.1, end_sim=0.4,
                attrs={"tuples_out": 7},
            )
        child = outer.children[0]
        assert child.name == "op:project"
        assert child.sim_seconds == pytest.approx(0.3)
        assert child.attrs["tuples_out"] == 7

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        assert tracer.span_count() == 1
        tracer.clear()
        assert tracer.span_count() == 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("ghostdb_usb_bytes_total", "bytes")
        c.inc(10, direction="to_host")
        c.inc(5, direction="to_host")
        c.inc(3, direction="to_device")
        assert c.value(direction="to_host") == 15
        assert c.total() == 18

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_gauge_set_max_keeps_peak(self):
        g = MetricsRegistry().gauge("ram_bytes")
        g.set_max(100)
        g.set_max(40)
        assert g.value() == 100

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("msg_bytes", buckets=(10, 100))
        h.observe(5)
        h.observe(50)
        h.observe(500)
        text = reg.expose_text()
        assert 'msg_bytes_bucket{le="10"} 1' in text
        assert 'msg_bytes_bucket{le="100"} 2' in text
        assert 'msg_bytes_bucket{le="+Inf"} 3' in text
        assert "msg_bytes_sum 555" in text
        assert "msg_bytes_count 3" in text

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(MetricError):
            reg.gauge("thing_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("bad name")
        with pytest.raises(MetricError):
            reg.counter("ok_total").inc(1, **{"направление": "x"})

    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("q_total", "queries run").inc(2)
        text = reg.expose_text()
        assert "# HELP q_total queries run\n" in text
        assert "# TYPE q_total counter\n" in text
        assert "\nq_total 2\n" in text

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("q_total", "queries run").inc(5)
        reg.reset()
        assert reg.counter("q_total").total() == 0
        assert "# HELP q_total queries run" in reg.expose_text()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("query") as outer:
        outer.set("rows", 2)
        clock.advance(0.002)
        with tracer.span("op:project", category="operator"):
            clock.advance(0.001)
    return tracer.roots


class TestExport:
    def test_chrome_trace_has_both_tracks(self):
        doc = to_chrome_trace(_sample_spans())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {SIM_PID, WALL_PID}
        complete = [e for e in events if e["ph"] == "X"]
        # each finished span appears once per track
        assert len(complete) == 4
        sim = [e for e in complete if e["pid"] == SIM_PID]
        assert {e["name"] for e in sim} == {"query", "op:project"}

    def test_timestamps_microseconds_and_args(self):
        doc = to_chrome_trace(_sample_spans())
        sim = {
            e["name"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == SIM_PID
        }
        assert sim["query"]["ts"] == 0
        assert sim["query"]["dur"] == pytest.approx(3000)
        assert sim["op:project"]["ts"] == pytest.approx(2000)
        assert sim["query"]["args"]["rows"] == 2
        assert sim["query"]["args"]["sim_ms"] == pytest.approx(3.0)

    def test_json_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "out.trace.json"
        from repro.obs import write_chrome_trace

        write_chrome_trace(spans, str(path))
        doc = json.loads(path.read_text())
        assert doc == json.loads(chrome_trace_json(spans))
        assert doc["displayTimeUnit"] == "ms"

    def test_render_tree_indents_children(self):
        text = render_tree(_sample_spans())
        lines = text.splitlines()
        assert lines[0].startswith("query [sim 3.000 ms")
        assert lines[1].startswith("  op:project [sim 1.000 ms")


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------


class TestLog:
    def test_get_logger_nests_under_root(self):
        assert get_logger("repro.engine.executor").name == "repro.engine.executor"
        assert get_logger("custom").name == f"{ROOT}.custom"

    def test_configure_is_idempotent(self):
        root = logging.getLogger(ROOT)
        managed_before = len(root.handlers)
        stream = io.StringIO()
        configure("debug", stream=stream)
        configure("info", stream=stream)
        try:
            # reconfiguring replaced, not stacked, the managed handler
            assert len(root.handlers) == managed_before + 1
            get_logger("repro.test_obs").info("shape only: %d rows", 3)
            assert "shape only: 3 rows" in stream.getvalue()
        finally:
            for h in list(root.handlers):
                if getattr(h, "_ghostdb_managed", False):
                    root.removeHandler(h)

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure("chatty")


# ----------------------------------------------------------------------
# Observability bundle
# ----------------------------------------------------------------------


class TestObservability:
    def test_session_metrics_preregistered(self):
        obs = Observability()
        text = obs.registry.expose_text()
        assert "ghostdb_queries_total 0" in text
        assert "ghostdb_flash_page_reads_total 0" in text

    def test_tracer_and_redactor_are_shared(self):
        obs = Observability()
        assert obs.tracer.redactor is obs.redactor
