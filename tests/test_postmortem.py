"""Postmortem bundles, SLO quantiles, and the resource ledger.

The acceptance property of the subsystem: a power cut mid-query with
``dump_on_fault`` set writes a ``DUMP_<seed>.json`` bundle that (a) the
adversarial :class:`~repro.privacy.leakcheck.LeakChecker` scores CLEAN,
(b) contains the aborted query's complete resource ledger entry, and
(c) is reproduced bit-identically (modulo wall-clock stamps) by a
same-seed replay.  A 50-seed chaos fuzz hardens (a) across regimes,
including byte-split scans so a hidden value straddling a chunk
boundary could not hide.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.ghostdb import GhostDB, SessionConfig
from repro.faults import GhostDBFaultError, PowerCutError
from repro.obs.bundle import (
    SCHEMA_VERSION,
    build_bundle,
    load_bundle,
    write_bundle,
)
from repro.obs.ledger import RESOURCE_FIELDS, ResourceLedger
from repro.obs.registry import MetricError, MetricsRegistry
from repro.privacy.leakcheck import LeakChecker
from repro.workload.queries import DEMO_SCHEMA_DDL, demo_query

from tests.conftest import build_demo_session
from tests.test_chaos import MAX_ATTEMPTS, chaos_profile


def build_session(data, **config_kwargs) -> GhostDB:
    db = GhostDB(config=SessionConfig(**config_kwargs))
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(data)
    return db


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        hist = MetricsRegistry().histogram("ghostdb_test_seconds")
        assert hist.quantile(0.5) == 0.0

    def test_out_of_range_raises(self):
        hist = MetricsRegistry().histogram("ghostdb_test_seconds")
        with pytest.raises(MetricError):
            hist.quantile(1.5)
        with pytest.raises(MetricError):
            hist.quantile(-0.1)

    def test_linear_interpolation_within_bucket(self):
        hist = MetricsRegistry().histogram(
            "ghostdb_test_seconds", buckets=(1.0, 2.0, 4.0)
        )
        for _ in range(10):
            hist.observe(1.5)  # all land in the (1, 2] bucket
        assert hist.quantile(0.0) == pytest.approx(1.0)
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_median_across_buckets(self):
        hist = MetricsRegistry().histogram(
            "ghostdb_test_seconds", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 0.5, 3.0, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert hist.quantile(0.75) == pytest.approx(3.0)

    def test_overflow_clamps_to_highest_finite_bound(self):
        hist = MetricsRegistry().histogram(
            "ghostdb_test_seconds", buckets=(1.0, 2.0)
        )
        hist.observe(100.0)
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_labelled_streams_are_independent(self):
        hist = MetricsRegistry().histogram(
            "ghostdb_test_seconds", buckets=(1.0, 2.0, 4.0)
        )
        hist.observe(0.5, op="scan")
        hist.observe(3.0, op="probe")
        assert hist.quantile(0.5, op="scan") <= 1.0
        assert hist.quantile(0.5, op="probe") > 2.0


class TestRegistryOrder:
    def test_iteration_and_exposition_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("ghostdb_zebra_total").inc()
        registry.gauge("ghostdb_alpha_bytes").set(1)
        registry.counter("ghostdb_mid_total").inc()
        names = [metric.name for metric in registry]
        assert names == sorted(names)
        exposed = registry.expose_text()
        assert exposed.index("ghostdb_alpha_bytes") < exposed.index(
            "ghostdb_mid_total"
        ) < exposed.index("ghostdb_zebra_total")


class TestResourceLedger:
    def test_window_bounds_entries_but_not_totals(self, demo_data):
        session = build_session(demo_data)
        session.obs.ledger = ResourceLedger(window=2)
        for _ in range(4):
            session.query(demo_query())
        ledger = session.obs.ledger
        assert ledger.total_queries == 4
        assert len(ledger.entries) == 2
        record = ledger.to_record()
        assert record["total_queries"] == 4
        assert record["dropped_entries"] == 2
        assert set(record["totals"]) == set(RESOURCE_FIELDS)

    def test_top_orders_by_key_and_rejects_unknown(self, fresh_session):
        fresh_session.query(demo_query())
        fresh_session.query(
            "SELECT Patient.Name FROM Patient WHERE Patient.Age > 50"
        )
        top = fresh_session.obs.ledger.top(2, key="sim_seconds")
        assert len(top) == 2
        assert top[0].sim_seconds >= top[1].sim_seconds
        with pytest.raises(KeyError):
            fresh_session.obs.ledger.top(2, key="hidden_values")


class TestBundle:
    def test_round_trip(self, fresh_session, tmp_path):
        fresh_session.query(demo_query())
        bundle = build_bundle(fresh_session, reason="dump")
        assert bundle["schema_version"] == SCHEMA_VERSION
        assert bundle["ledger"]["total_queries"] == 1
        assert bundle["flight"]["events"]
        assert "ghostdb_queries_total" in bundle["metrics"]
        path = write_bundle(
            bundle, directory=str(tmp_path),
            redactor=fresh_session.obs.redactor,
        )
        loaded = load_bundle(path)
        assert loaded["kind"] == "ghostdb-postmortem"
        assert loaded["ledger"]["total_queries"] == 1

    def test_load_refuses_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_bundle.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_bundle(str(path))
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"kind": "ghostdb-postmortem", "schema_version": -1}
        ))
        with pytest.raises(ValueError):
            load_bundle(str(stale))

    @pytest.mark.parametrize("leased", [False, True], ids=["default", "leased"])
    def test_dump_on_fault_writes_clean_bundle(
        self, demo_data, tmp_path, leased
    ):
        """The acceptance path: power cut mid-query -> typed abort ->
        bundle on disk with the aborted query's full ledger entry.  A
        leased session dumps its own ledger, which holds that query."""
        session = build_session(
            demo_data, dump_on_fault=True, dump_dir=str(tmp_path),
            fault_seed=11,
        )
        runner = session.open_session("client") if leased else session
        injector = session.set_faults("none", 11)
        injector.schedule_power_cut(at_flash_op=injector.flash_ops + 2)
        with pytest.raises(PowerCutError):
            runner.query(demo_query())
        path = tmp_path / "DUMP_11.json"
        assert path.exists()
        checker = LeakChecker(session.schema, demo_data)
        report = checker.check_bytes(path.read_bytes(), kind="postmortem")
        assert report.ok, report.summary()
        bundle = load_bundle(str(path))
        assert bundle["reason"] == "PowerCutError"
        assert bundle["ledger"]["aborted_queries"] == 1
        (entry,) = [
            q for q in bundle["ledger"]["queries"] if q["aborted"]
        ]
        assert entry["aborted"] == "PowerCutError"
        for fieldname in RESOURCE_FIELDS:
            assert fieldname in entry
        kinds = [e["kind"] for e in bundle["flight"]["events"]]
        assert "query_begin" in kinds
        assert "fault" in kinds
        assert "query_abort" in kinds

    def test_same_seed_replay_reproduces_bundle(self, demo_data, tmp_path):
        def episode(tag: str) -> dict:
            session = build_session(
                demo_data, dump_on_fault=True,
                dump_dir=str(tmp_path / tag), fault_seed=11,
            )
            injector = session.set_faults("none", 11)
            injector.schedule_power_cut(at_flash_op=injector.flash_ops + 2)
            with pytest.raises(PowerCutError):
                session.query(demo_query())
            return load_bundle(str(tmp_path / tag / "DUMP_11.json"))

        first, second = episode("a"), episode("b")

        def strip_wall(bundle: dict):
            events = [
                {k: v for k, v in event.items() if k != "wall"}
                for event in bundle["flight"]["events"]
            ]
            ledger = [
                {k: v for k, v in q.items() if k != "wall_seconds"}
                for q in bundle["ledger"]["queries"]
            ]
            return events, ledger, bundle["device"]

        assert strip_wall(first) == strip_wall(second)


class TestChaosBundleFuzz:
    #: Split positions exercised by the boundary scan: a pattern
    #: straddling any of these must still be caught by the full-payload
    #: check that precedes the splits.
    SPLITS = 4

    def test_fifty_seed_dump_fuzz(self, demo_data, tmp_path):
        session = build_demo_session(demo_data)
        checker = LeakChecker(session.schema, demo_data)
        sql = demo_query()
        clean = 0
        for seed in range(50):
            session.set_faults(chaos_profile(seed), seed)
            try:
                for _ in range(MAX_ATTEMPTS):
                    try:
                        session.query(sql)
                        break
                    except GhostDBFaultError:
                        if session.needs_remount:
                            session.remount()
                # Dump while the injector is still attached so the
                # bundle carries the fault schedule (and the seed names
                # the file: one DUMP_<seed>.json per episode).
                path = session.dump_bundle(
                    reason="chaos", directory=str(tmp_path)
                )
            finally:
                session.clear_faults()
                if session.needs_remount:
                    session.remount()
            payload = Path(path).read_bytes()
            report = checker.check_bytes(payload, kind="chaos-bundle")
            assert report.ok, f"seed {seed}: {report.summary()}"
            # Frame-boundary splits: re-scan the payload in chunks cut
            # at arbitrary offsets; every piece must also be CLEAN (no
            # hidden value hides by leaning on a neighbour's bytes).
            step = max(1, len(payload) // self.SPLITS)
            for start in range(0, len(payload), step):
                piece = checker.check_bytes(
                    payload[start : start + step], kind="chaos-chunk"
                )
                assert piece.ok, f"seed {seed} @ {start}: {piece.summary()}"
            clean += 1
        assert clean == 50
