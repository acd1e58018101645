"""The per-session table of prepared plans.

A SELECT whose text has a current entry skips parse, bind and plan
pricing and runs the stored plan.  An entry's stamp (catalog generation,
visible-statistics generation, pool size the cost model prices, Bloom
false-positive target) moves with every write, every pool resize and
every target change, so a stored plan must run
exactly like a freshly optimized one: the same plan, rows, device
counters and bytes on the spied link.
"""

from __future__ import annotations

import collections
import datetime

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.scenarios import CACHE_PAIR_PAGES, CACHE_PAIR_SQL_FAMILY
from repro.core import session as session_module
from repro.core.ghostdb import GhostDB, SessionError
from repro.core.scheduler import Scheduler
from repro.core.session import PLAN_TABLE_SIZE
from repro.demo import figure5_postfilter_plan
from repro.engine import plan as lp
from repro.engine.maintenance import rebuild_table
from repro.faults import PowerCutError
from repro.obs.bundle import build_bundle, bundle_payload
from repro.obs.flight import plan_fingerprint
from repro.optimizer.explain import explain_analyze, explain_plan
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.space import PlanBuilder
from repro.privacy.leakcheck import LeakChecker
from repro.sql.binder import Binder
from repro.workload import vocab
from repro.workload.queries import QUERY_FAMILIES, demo_query
from tests.conftest import build_demo_session
from tests.test_sessions import build_db, small_data

PURPOSES = ("Sclerosis", "Neuropathy", "Hypertension")
MED_TYPES = ("Antibiotic", "Statin")
#: The value the UPDATE round trip parks quantity-6 rows under.
PARKED = 4242


def lookups(db, outcome: str) -> float:
    return db.obs.registry.counter("ghostdb_plan_cache_lookups_total").value(
        outcome=outcome
    )


def point_lookup(data, shape: int, k: int) -> str:
    """One of the four point-lookup shapes, parameterised by ``k``."""
    purpose = PURPOSES[k % len(PURPOSES)]
    cut = datetime.date(2005, 1, 1) + datetime.timedelta(days=40 * k)
    if shape == 0:
        name = data["patient"][k % len(data["patient"])][1]
        return (
            "SELECT Pat.PatID, Pat.Age, Pat.Country FROM Patient Pat "
            f"WHERE Pat.Name = '{name}'"
        )
    if shape == 1:
        return (
            "SELECT Vis.VisID, Vis.Date FROM Visit Vis "
            f"WHERE Vis.Purpose = '{purpose}' "
            f"AND Vis.Date > DATE '{cut.isoformat()}'"
        )
    if shape == 2:
        return demo_query(cut, purpose, MED_TYPES[k % len(MED_TYPES)])
    return (
        "SELECT Vis.Date, Pat.Age FROM Visit Vis, Patient Pat "
        f"WHERE Vis.Purpose = '{purpose}' AND Pat.Age > {20 + 2 * k} "
        "AND Vis.PatID = Pat.PatID"
    )


def distinct_stats(result):
    """Each operator's stats once (a no-op node shares its child's)."""
    return {id(stats): stats for stats in result.measured.values()}.values()


# ---------------------------------------------------------------------------
# Property: a stored plan runs exactly like a freshly planned one.
# ---------------------------------------------------------------------------


def _append_rows(data) -> list[tuple]:
    max_pk = data["prescription"][-1][0]
    return [
        (
            max_pk + 1 + k,
            1 + k % 10,
            vocab.FREQUENCIES[k % len(vocab.FREQUENCIES)],
            datetime.date(2007, 7, 1) + datetime.timedelta(days=k),
            data["medicine"][k % len(data["medicine"])][0],
            data["visit"][k % len(data["visit"])][0],
        )
        for k in range(8)
    ]


def _write(db, data, op: tuple, appended: bool) -> bool:
    """Apply one write or pool resize; returns whether rows are
    appended afterwards."""
    max_pk = data["prescription"][-1][0]
    op, *args = op
    if op == "park":
        db.execute(
            f"UPDATE Prescription SET Quantity = {PARKED} WHERE Quantity = 6"
        )
    elif op == "unpark":
        db.execute(
            f"UPDATE Prescription SET Quantity = 6 WHERE Quantity = {PARKED}"
        )
    elif op == "append":
        if not appended:
            db.append("Prescription", _append_rows(data))
        return True
    elif op == "delete":
        db.execute(f"DELETE FROM Prescription WHERE PreID > {max_pk}")
        return False
    elif op == "age":
        # Age is visible: only the visible statistics move, enough to
        # change the subtree shape's plans.
        age, last = args
        db.execute(f"UPDATE Patient SET Age = {age} WHERE PatID <= {last}")
    elif op == "nocache":
        db.set_cache(0)
    else:
        db.set_cache(None)
    return appended


SELECT_OPS = st.tuples(
    st.just("select"),
    st.integers(0, 3),
    # Hot texts (k in 0..1) repeat; fresh ones mostly do not.
    st.one_of(st.integers(0, 1), st.integers(2, 40)),
)
WRITE_OPS = st.one_of(
    st.sampled_from(
        ["park", "unpark", "append", "delete", "nocache", "cache"]
    ).map(lambda op: (op,)),
    st.tuples(
        st.just("age"), st.integers(18, 90), st.integers(1, 1500)
    ),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(st.one_of(SELECT_OPS, SELECT_OPS, WRITE_OPS), max_size=14))
def test_stored_plans_run_like_fresh_plans(demo_data, ops):
    db = build_demo_session(demo_data)
    # The twin empties its table before every statement: it plans each
    # SELECT afresh.
    twin = build_demo_session(demo_data)
    appended = False
    for op in ops:
        twin._plans.clear()
        if op[0] != "select":
            _write(twin, demo_data, op, appended)
            appended = _write(db, demo_data, op, appended)
            continue
        sql = point_lookup(demo_data, op[1], op[2])
        db_mark, twin_mark = len(db.device.usb.log), len(twin.device.usb.log)
        got, want = db.query(sql), twin.query(sql)
        assert got.rows == want.rows
        assert db.device.counters() == twin.device.counters()
        assert db.device.usb.log[db_mark:] == twin.device.usb.log[twin_mark:]
        fresh = db.optimizer.optimize(db.bind(sql)).plan
        model = db.optimizer.cost_model
        assert explain_plan(got.plan, model) == explain_plan(fresh, model)
        assert plan_fingerprint(got.plan) == plan_fingerprint(fresh)
        assert got.plan == fresh


# ---------------------------------------------------------------------------
# A hit skips the front half; nothing else runs differently.
# ---------------------------------------------------------------------------


def test_a_hit_skips_parse_bind_and_plan_pricing(monkeypatch):
    db = build_db()
    calls: collections.Counter = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        session_module,
        "parse_statement",
        counting("parse", session_module.parse_statement),
    )
    monkeypatch.setattr(Binder, "bind", counting("bind", Binder.bind))
    monkeypatch.setattr(
        Optimizer, "optimize", counting("optimize", Optimizer.optimize)
    )
    monkeypatch.setattr(PlanBuilder, "build", counting("build", PlanBuilder.build))
    sql = demo_query()
    first = db.query(sql)
    assert (calls["parse"], calls["bind"], calls["optimize"]) == (1, 1, 1)
    assert calls["build"] >= 2
    calls.clear()
    second = db.query(sql)
    assert not calls
    assert second.plan is first.plan
    assert second.rows == first.rows
    assert (lookups(db, "miss"), lookups(db, "hit")) == (1, 1)


def test_plan_surfaces_bypass_the_table():
    """Only optimizer-planned statements read or write the table."""
    db = build_db()
    sql = demo_query()
    best = db.rank_plans(sql)[0]
    db.explain(sql)
    db.bind(sql)
    db.query_with_strategy(sql, best.strategy)
    db.execute_plan(best.plan)
    assert not db._plans
    db.query(sql)
    db.query_with_strategy(sql, best.strategy)
    assert list(db._plans) == [sql]
    assert (lookups(db, "miss"), lookups(db, "hit")) == (1, 0)


def test_a_warm_rerun_leaves_the_cold_results_measurements_alone(
    fresh_session,
):
    """The bench's cache pair: the warm run reuses the stored plan, and
    each run's per-node measurements stay on its own result."""
    db = fresh_session
    db.reset_measurements()
    db.set_cache(CACHE_PAIR_PAGES)
    sql = QUERY_FAMILIES[CACHE_PAIR_SQL_FAMILY]
    cold_report, cold = db.explain_analyze(sql)
    warm = db.query(sql)
    assert warm.plan is cold.plan
    assert explain_analyze(cold, db.optimizer.cost_model) == cold_report
    for result, reads in ((cold, 21), (warm, 3)):
        assert result.metrics.flash_page_reads == reads
        assert sum(s.flash_page_reads for s in distinct_stats(result)) == reads


# ---------------------------------------------------------------------------
# The stamp: each input of plan building and pricing, read when the
# statement starts.
# ---------------------------------------------------------------------------


def _rebuild_quantity(db) -> None:
    """Commit a device rebuild alone: same rows, Quantity in scope."""
    rows = list(db.hidden.heaps["prescription"].scan())
    rebuild_table(db.hidden, "prescription", rows, columns=["quantity"])


STAMP_CHANGES = {
    "device-rebuild": _rebuild_quantity,
    "visible-update": lambda db: db.execute(
        "UPDATE Patient SET Age = 77 WHERE PatID = 1"
    ),
    "pool-resize": lambda db: db.set_cache(0),
    "bloom-target": lambda db: setattr(
        db.executor.config, "bloom_fp_target", 0.2
    ),
}


@pytest.mark.parametrize("change", sorted(STAMP_CHANGES))
def test_each_plan_input_change_makes_entries_stale(change):
    db = build_db()
    sql = demo_query()
    db.query(sql)
    STAMP_CHANGES[change](db)
    db.query(sql)
    db.query(sql)
    assert [lookups(db, o) for o in ("miss", "stale", "hit")] == [1, 1, 1]


def test_bloom_probes_are_priced_at_the_executors_target():
    """The executor sizes filters and the cost model prices them from
    one ``ExecConfig``: a run-time target change reprices the probe."""
    db = build_db()
    plan = figure5_postfilter_plan(db.hidden, db.bind(demo_query()))
    probe = next(n for n in plan.walk() if isinstance(n, lp.BloomProbe))
    model = db.optimizer.cost_model
    before = model.estimate(probe)
    db.executor.config.bloom_fp_target = 0.2
    # A looser target needs fewer filter bits.
    assert model.estimate(probe).ram_bytes < before.ram_bytes


def test_scheduled_text_replans_after_another_sessions_update():
    """Alice's known text is submitted before Bob's UPDATE but starts
    after it commits (one statement in flight per session), so the
    entry is stale by then and Alice re-plans."""
    db = build_db()
    alice, bob = db.open_session("alice"), db.open_session("bob")
    sql = "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity = 6"
    before = alice.query(sql)
    assert before.rows
    sched = Scheduler(db.core)
    first = sched.submit(alice, QUERY_FAMILIES["visible-only"])
    cached = sched.submit(alice, sql)
    update = sched.submit(
        bob, f"UPDATE Prescription SET Quantity = {PARKED} WHERE Quantity = 6"
    )
    sched.run()
    for ticket in (first, cached, update):
        assert ticket.error is None
    assert cached.submitted_at < update.completed_at <= cached.started_at
    assert lookups(db, "stale") == 1
    fresh = alice.optimizer.optimize(alice.bind(sql)).plan
    assert cached.result.plan == fresh
    assert plan_fingerprint(cached.result.plan) == plan_fingerprint(fresh)
    assert cached.result.rows == db.query(sql).rows == []


def test_cached_text_on_a_closed_lease_raises():
    db = build_db()
    ctx = db.open_session("tenant")
    sql = QUERY_FAMILIES["hidden-only"]
    ctx.query(sql)
    assert sql in ctx._plans
    db.close_session(ctx)
    traffic = len(db.usb_log)
    with pytest.raises(SessionError, match="closed"):
        ctx.query(sql)
    assert len(db.usb_log) == traffic


def test_cached_text_after_a_power_cut_raises_until_remount():
    db = build_db()
    sql = QUERY_FAMILIES["hidden-only"]
    before = db.query(sql)
    injector = db.set_faults("none", 0)
    injector.schedule_power_cut(at_flash_op=injector.flash_ops + 1)
    with pytest.raises(PowerCutError):
        db.query("SELECT Pre.Quantity, Pre.Frequency FROM Prescription Pre")
    db.clear_faults()
    assert sql in db._plans
    traffic = len(db.usb_log)
    with pytest.raises(SessionError, match="remount"):
        db.query(sql)
    assert len(db.usb_log) == traffic
    db.remount()
    hits = lookups(db, "hit")
    assert db.query(sql).rows == before.rows
    assert lookups(db, "hit") == hits + 1


# ---------------------------------------------------------------------------
# Bound, eviction and persistence.
# ---------------------------------------------------------------------------


def test_table_is_bounded_and_keeps_a_recently_used_text():
    db = build_db()
    hot = "SELECT Doc.DocID FROM Doctor Doc WHERE Doc.Zip = 99999"
    texts = [
        f"SELECT Doc.DocID FROM Doctor Doc WHERE Doc.Zip = {k}"
        for k in range(2 * PLAN_TABLE_SIZE)
    ]
    hot_runs = 0
    for i, sql in enumerate(texts):
        if i % 20 == 0:
            db.query(hot)
            hot_runs += 1
        db.query(sql)
    assert len(db._plans) == PLAN_TABLE_SIZE
    assert hot in db._plans
    assert texts[0] not in db._plans and texts[-1] in db._plans
    assert lookups(db, "hit") == hot_runs - 1


def test_loaded_session_starts_with_an_empty_table(tmp_path):
    db = build_db()
    sql = demo_query()
    db.query(sql)
    path = str(tmp_path / "session.ghostdb")
    db.save(path)
    restored = GhostDB.restore(path)
    assert not restored._plans
    db.reset_measurements()
    restored.reset_measurements()
    want, got = db.query(sql), restored.query(sql)
    assert (lookups(db, "hit"), lookups(restored, "miss")) == (1, 1)
    assert got.rows == want.rows
    assert got.metrics.time == want.metrics.time


def test_a_file_without_version_counters_loads(tmp_path):
    """Files saved before the counters existed read them as 0."""
    db = build_db()
    sql = QUERY_FAMILIES["visible-only"]
    want = db.query(sql)
    del db.site.__dict__["version"]
    assert "version" not in db.hidden.__dict__
    path = str(tmp_path / "old.ghostdb")
    db.save(path)
    restored = GhostDB.restore(path)
    assert (restored.hidden.version, restored.site.version) == (0, 0)
    restored.query(sql)
    assert restored.query(sql).rows == want.rows
    assert lookups(restored, "hit") == 1


# ---------------------------------------------------------------------------
# Observability: the lookup family and the span attribute.
# ---------------------------------------------------------------------------


def test_a_hit_shows_on_the_query_span_and_in_the_lookup_family():
    db = build_db()
    considered = db.obs.registry.counter("ghostdb_plans_considered_total")
    sql = demo_query()
    (miss,) = db.trace(sql).spans
    before = considered.total()
    (hit,) = db.trace(sql).spans
    assert (miss.attrs["plan_cached"], hit.attrs["plan_cached"]) == (0, 1)
    assert "optimizer.choose" in {s.name for s in miss.walk()}
    assert "optimizer.choose" not in {s.name for s in hit.walk()}
    assert "executor.execute" in {s.name for s in hit.walk()}
    assert considered.total() == before
    text = db.metrics_text()
    assert 'ghostdb_plan_cache_lookups_total{outcome="hit"} 1' in text
    assert 'ghostdb_plan_cache_lookups_total{outcome="miss"} 1' in text


def test_plan_table_signals_are_inert():
    """Rows, simulated cost and boundary bytes are the same with
    tracing on or off, and so are the lookup counts."""
    on, off = build_db(), build_db()
    off.obs.tracer.enabled = False
    for sql in (
        demo_query(),
        QUERY_FAMILIES["visible-only"],
        demo_query(),
        QUERY_FAMILIES["hidden-only"],
        QUERY_FAMILIES["visible-only"],
    ):
        a, b = on.query(sql), off.query(sql)
        assert a.rows == b.rows
        assert a.metrics.time == b.metrics.time
    assert on.usb_log == off.usb_log
    for outcome in ("hit", "miss", "stale"):
        assert lookups(on, outcome) == lookups(off, outcome)
    assert lookups(on, "hit") == 2


def test_plan_table_signals_pass_the_redaction_gate():
    db = build_db()
    data = small_data()
    name = data["patient"][0][1]
    sql = f"SELECT Pat.Age FROM Patient Pat WHERE Pat.Name = '{name}'"
    db.query(sql)
    traced = db.trace(sql)
    # The key is vetted word by word: "plan_cached", not "plan_?".
    assert traced.spans[0].attrs["plan_cached"] == 1
    checker = LeakChecker(db.schema, data)
    trace_json = traced.chrome_json().encode("utf-8")
    assert name.encode() not in trace_json
    assert checker.check_bytes(trace_json, kind="chrome-trace").ok
    bundle = bundle_payload(build_bundle(db), db.obs.redactor)
    assert b"plan_cached" in bundle
    assert b'ghostdb_plan_cache_lookups_total{outcome=\\"hit\\"}' in bundle
    assert checker.check_bytes(bundle, kind="bundle").ok
    assert checker.check(db.usb_log).ok
