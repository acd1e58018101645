"""The tracer's bounded window and O(1) span accounting.

A long session keeps the span trees of its last
:data:`~repro.obs.ledger.DEFAULT_WINDOW` roots, counts its spans as
they come and go instead of walking the forest per statement, and
reports them to the shared ``ghostdb_trace_spans`` gauge as a total
over all live sessions.  None of it may change what the program does:
rows, device counters, boundary bytes and leak signatures stay the
same with tracing on, off, or evicting.
"""

from __future__ import annotations

import pytest

from repro.core.factory import build_session
from repro.obs.bundle import bundle_payload
from repro.obs.ledger import DEFAULT_WINDOW
from repro.obs.tracer import Tracer
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.meter import profile_records
from repro.workload.queries import demo_query

SCALE = 300

#: Statements past the window: enough for eviction to have begun.
PAST_WINDOW = DEFAULT_WINDOW + 20


def _statements(data: dict) -> list[str]:
    """Hidden-predicate lookups (constants a trace must never show)
    plus the paper's demo join."""
    names = sorted({row[1] for row in data["patient"]})[:4]
    return [
        f"SELECT Age FROM Patient WHERE Name = '{name}'" for name in names
    ] + [demo_query()]


def _tree_size(root) -> int:
    return sum(1 for _ in root.walk())


def _gauge(db) -> float:
    return db.obs.registry.gauge("ghostdb_trace_spans").value()


@pytest.fixture
def small():
    return build_session(scale=SCALE)


def test_span_count_never_walks_the_forest(small, monkeypatch):
    db, data = small
    walks = []
    real_spans = Tracer.spans

    def spy(self):
        walks.append(1)
        return real_spans(self)

    monkeypatch.setattr(Tracer, "spans", spy)
    statements = _statements(data)
    for i in range(20):
        db.query(statements[i % len(statements)])
    assert walks == []
    assert _gauge(db) == db.obs.tracer.span_count() > 0


def test_window_evicts_oldest_trees_and_keeps_accounts(small, tmp_path):
    db, data = small
    tracer = db.obs.tracer
    statements = _statements(data)
    seen = list(tracer.roots)
    for i in range(PAST_WINDOW):
        seen.extend(db.trace(statements[i % len(statements)]).spans)

    assert len(tracer.roots) == DEFAULT_WINDOW
    assert tracer.span_count() == sum(1 for _ in tracer.spans())
    retained = {id(root) for root in tracer.roots}
    evicted = [root for root in seen if id(root) not in retained]
    assert len(evicted) == len(seen) - DEFAULT_WINDOW
    assert tracer.dropped == sum(_tree_size(root) for root in evicted) > 0
    assert _gauge(db) == tracer.span_count()

    mark = tracer.mark()
    traced = db.trace(statements[0])
    (root,) = traced.spans
    assert root.name == "query"
    assert root is tracer.roots[-1]
    assert root.children
    assert all(span.span_id >= mark for span in root.walk())
    assert len(tracer.roots) == DEFAULT_WINDOW

    checker = LeakChecker(db.schema, data)
    path = tmp_path / "session.trace.json"
    db.export_trace(str(path))
    report = checker.check_bytes(path.read_bytes(), kind="chrome-trace")
    assert report.ok, report.summary()
    bundle = db.postmortem()
    assert len(bundle["spans"]) == DEFAULT_WINDOW
    assert bundle["spans_dropped"] == tracer.dropped
    payload = bundle_payload(bundle, db.obs.redactor)
    report = checker.check_bytes(payload, kind="postmortem")
    assert report.ok, report.summary()


def test_eviction_is_observationally_inert():
    def run(tracing: bool):
        db, data = build_session(scale=SCALE)
        db.obs.tracer.enabled = tracing
        statements = _statements(data)
        rows = [
            db.query(statements[i % len(statements)]).rows
            for i in range(PAST_WINDOW)
        ]
        log = db.usb_log
        return (
            db,
            rows,
            db.device.counters(),
            [record.payload for record in log],
            profile_records(log).signature,
        )

    traced, *on = run(True)
    untraced, *off = run(False)
    assert traced.obs.tracer.dropped > 0
    assert untraced.obs.tracer.span_count() == 0
    assert on == off


def test_gauge_totals_live_leased_sessions(small):
    db, data = small
    sql = _statements(data)[0]
    a = db.open_session("a")
    b = db.open_session("b")
    a.query(sql)
    b.query(sql)
    b.query(sql)
    counts = a.obs.tracer.span_count(), b.obs.tracer.span_count()
    assert counts[1] > counts[0] > 0
    assert _gauge(db) == sum(counts)

    b.close()
    assert _gauge(db) == counts[0]
    a.query(sql)
    assert _gauge(db) == a.obs.tracer.span_count()

    a.reset_measurements()
    assert _gauge(db) == a.obs.tracer.span_count() == 0
    a.query(sql)
    db.reset_measurements()  # wipes every session's share at once
    assert _gauge(db) == 0
    a.query(sql)
    assert _gauge(db) == a.obs.tracer.span_count()
    a.close()
    assert _gauge(db) == 0


def test_small_window_unit(monkeypatch):
    monkeypatch.setattr("repro.obs.tracer.DEFAULT_WINDOW", 2)
    tracer = Tracer()
    for _ in range(5):
        with tracer.span("query"):
            tracer.record("op", "operator", 0.0, 1.0)
    assert [root.span_id for root in tracer.roots] == [7, 9]
    assert tracer.span_count() == 4
    assert tracer.dropped == 6
    mark = tracer.mark()
    with tracer.span("query"):
        pass
    assert [root.span_id for root in tracer.roots_since(mark)] == [mark]
    assert tracer.dropped == 8
    tracer.clear()
    assert tracer.roots == [] and tracer.span_count() == 0
    assert tracer.dropped == 8  # clear forgets, it does not evict
