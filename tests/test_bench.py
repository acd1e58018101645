"""The benchmark regression harness: artifact, comparator, scorecard.

One real (tiny) bench run is shared module-wide; everything else works
on artifact dicts, so the comparator's edge cases are cheap to cover.
"""

import copy
import json

import pytest

from repro.bench import (
    GATED_METRICS,
    SCENARIOS,
    SCHEMA_VERSION,
    BenchConfig,
    compare_artifacts,
    load_artifact,
    run_bench,
    select_scenarios,
)
from repro.bench.runner import main as bench_main
from repro.bench.scorecard import render_scorecard
from repro.optimizer.explain import (
    MISESTIMATE_THRESHOLD,
    explain_analyze,
    self_estimate,
)
from repro.privacy.leakcheck import LeakChecker
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import QUERY_FAMILIES, demo_query

BENCH_TEST_SCALE = 300


@pytest.fixture(scope="module")
def bench_run():
    """One full (tiny) bench run: every scenario plus the scorecard."""
    return run_bench(BenchConfig(scale=BENCH_TEST_SCALE))


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------


class TestScenarios:
    def test_registry_covers_ten_scenarios(self):
        assert len(SCENARIOS) >= 10
        assert len({s.name for s in SCENARIOS}) == len(SCENARIOS)

    def test_select_by_name_and_unknown(self):
        picked = select_scenarios(["fig1-demo-query"])
        assert [s.name for s in picked] == ["fig1-demo-query"]
        with pytest.raises(KeyError):
            select_scenarios(["no-such-scenario"])


# ----------------------------------------------------------------------
# Artifact schema + redaction
# ----------------------------------------------------------------------


class TestArtifact:
    def test_schema_and_coverage(self, bench_run):
        artifact = bench_run.artifact
        assert artifact["kind"] == "ghostdb-bench"
        assert artifact["schema_version"] == SCHEMA_VERSION
        assert artifact["config"]["scale"] == BENCH_TEST_SCALE
        assert len(artifact["scenarios"]) >= 10
        for record in artifact["scenarios"].values():
            for metric in GATED_METRICS:
                assert metric in record
            assert record["wall_seconds"] >= 0
            assert record["sim_seconds"] > 0

    def test_json_round_trip(self, bench_run, tmp_path):
        path = tmp_path / "artifacts" / "BENCH_test.json"
        bench_run.write(str(path))
        loaded = load_artifact(str(path))
        # The redaction gate only touches strings this code authored,
        # so everything the comparator needs survives byte-identically.
        assert loaded["scenarios"] == bench_run.artifact["scenarios"]
        assert loaded["scorecard"] == bench_run.artifact["scorecard"]

    def test_load_rejects_foreign_and_future_json(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a ghostdb-bench"):
            load_artifact(str(foreign))
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps(
                {"kind": "ghostdb-bench", "schema_version": SCHEMA_VERSION + 1}
            )
        )
        with pytest.raises(ValueError, match="schema_version"):
            load_artifact(str(future))

    def test_payload_passes_adversarial_leak_check(self, bench_run):
        """The redacted payload is re-checked here with an independent
        checker over an identically-generated dataset."""
        data = MedicalDataGenerator(
            DatasetConfig(n_prescriptions=BENCH_TEST_SCALE)
        ).generate()
        from repro.core.ghostdb import GhostDB
        from repro.workload.queries import DEMO_SCHEMA_DDL

        db = GhostDB()
        for ddl in DEMO_SCHEMA_DDL:
            db.execute(ddl)
        checker = LeakChecker(db.schema, data)
        assert checker.pattern_count > 0
        report = checker.check_bytes(bench_run.payload, kind="bench")
        assert report.ok, report.summary()
        assert "CLEAN" in report.summary()

    def test_no_redaction_holes(self, bench_run):
        """Every token the artifact needs is vocabulary; nothing should
        have scrubbed to '?'."""
        assert b'"?"' not in bench_run.payload
        text = bench_run.payload.decode("utf-8")
        assert "?" not in text


# ----------------------------------------------------------------------
# Comparator edges
# ----------------------------------------------------------------------


def _tiny_artifact(**overrides) -> dict:
    artifact = {
        "kind": "ghostdb-bench",
        "schema_version": SCHEMA_VERSION,
        "created": "t",
        "config": {"scale": 100, "profile": "demo"},
        "scenarios": {
            "alpha": {metric: 10.0 for metric in GATED_METRICS},
            "beta": {metric: 5.0 for metric in GATED_METRICS},
        },
        "scorecard": {},
    }
    artifact.update(overrides)
    return artifact


class TestComparator:
    def test_identical_passes(self):
        base = _tiny_artifact()
        report = compare_artifacts(base, copy.deepcopy(base))
        assert report.ok
        assert report.scope == (
            f"2 scenarios x {len(GATED_METRICS)} gated metrics"
        )
        assert "PASS" in report.render()

    def test_exact_equal_is_not_a_regression(self):
        """Boundary: equality passes; the gate has no headroom."""
        base = _tiny_artifact()
        report = compare_artifacts(base, copy.deepcopy(base))
        assert report.ok
        assert report.failures == report.notes == []

    def test_regression_beyond_tolerance_fails(self):
        """Any increase fails: even 1% growth is a regression."""
        base = _tiny_artifact()
        worse = copy.deepcopy(base)
        worse["scenarios"]["alpha"]["sim_seconds"] = 10.0 * 1.01
        report = compare_artifacts(base, worse)
        assert not report.ok
        assert report.failures == ["REGRESSION alpha: sim_seconds 10.0 -> 10.1"]
        assert "REGRESSION" in report.render()

    def test_improvement_never_fails(self):
        base = _tiny_artifact()
        better = copy.deepcopy(base)
        for metric in GATED_METRICS:
            better["scenarios"]["alpha"][metric] = 1.0
        report = compare_artifacts(base, better)
        assert report.ok
        assert len(report.notes) == len(GATED_METRICS)
        assert all(line.startswith("improved") for line in report.notes)

    def test_missing_scenario_fails(self):
        base = _tiny_artifact()
        current = copy.deepcopy(base)
        del current["scenarios"]["beta"]
        report = compare_artifacts(base, current)
        assert not report.ok
        assert report.failures == ["missing beta (in baseline, not run)"]
        assert "missing beta" in report.render()

    def test_new_scenario_warns_but_passes(self):
        base = _tiny_artifact()
        current = copy.deepcopy(base)
        current["scenarios"]["gamma"] = {
            metric: 1.0 for metric in GATED_METRICS
        }
        report = compare_artifacts(base, current)
        assert report.ok
        assert report.notes == [
            "new gamma (no baseline -- commit a refreshed one)"
        ]
        assert "new gamma" in report.render()

    def test_config_mismatch_fails(self):
        base = _tiny_artifact()
        other = _tiny_artifact()
        other["config"]["scale"] = 999
        report = compare_artifacts(base, other)
        assert not report.ok
        assert any("config.scale" in line for line in report.failures)

    def test_wall_time_is_never_gated(self):
        base = _tiny_artifact()
        base["scenarios"]["alpha"]["wall_seconds"] = 1.0
        slow = copy.deepcopy(base)
        slow["scenarios"]["alpha"]["wall_seconds"] = 1000.0
        assert compare_artifacts(base, slow).ok

    def test_baseline_zero_to_nonzero_regresses(self):
        base = _tiny_artifact()
        base["scenarios"]["alpha"]["flash_page_writes"] = 0
        worse = copy.deepcopy(base)
        worse["scenarios"]["alpha"]["flash_page_writes"] = 3
        assert not compare_artifacts(base, worse).ok

    @pytest.mark.parametrize("index, ok", [(0.7, False), (0.8, True)])
    def test_fairness_floor_is_an_absolute_gate(self, index, ok):
        """A concurrent row below the floor it declares fails even when
        the baseline holds the same index."""
        base = _tiny_artifact()
        base["scenarios"]["alpha"].update(
            fairness_index=index, fairness_floor=0.8
        )
        report = compare_artifacts(base, copy.deepcopy(base))
        assert report.ok is ok
        assert ("UNFAIR SCHEDULE" in report.render()) is not ok

    @pytest.mark.parametrize("fraction, ok", [(0.05, False), (0.0499, True)])
    def test_recorder_budget_is_an_absolute_gate(self, fraction, ok):
        base = _tiny_artifact(recorder={
            "overhead_fraction": fraction,
            "total_events": 100,
            "per_event_seconds": 1e-6,
        })
        report = compare_artifacts(base, copy.deepcopy(base))
        assert report.ok is ok
        assert ("OVER BUDGET" in report.render()) is not ok


# ----------------------------------------------------------------------
# Determinism: the property the whole gate rests on
# ----------------------------------------------------------------------


def test_rerun_reproduces_gated_metrics_exactly(bench_run):
    again = run_bench(
        BenchConfig(scale=BENCH_TEST_SCALE, scorecard=False)
    )
    report = compare_artifacts(bench_run.artifact, again.artifact)
    # The re-run skipped the scorecard but ran every scenario: exact
    # equality on every gated metric.
    assert report.scope.startswith(f"{len(SCENARIOS)} scenarios x")
    assert report.ok
    assert [
        line for line in report.notes
        if not line.startswith(("recorder overhead", "host wall"))
    ] == []


# ----------------------------------------------------------------------
# Scorecard
# ----------------------------------------------------------------------


class TestScorecard:
    def test_covers_every_family(self, bench_run):
        card = bench_run.artifact["scorecard"]
        assert set(card) == set(QUERY_FAMILIES)
        for row in card.values():
            assert row["candidates"] >= 1
            assert 0 < row["est_over_meas_geomean"]
            assert (
                row["est_over_meas_min"]
                <= row["est_over_meas_geomean"]
                <= row["est_over_meas_max"]
            )
            assert row["chosen_vs_best"] >= 1.0
            assert 0 <= row["misestimates"] <= row["candidates"]

    def test_render_is_tabular(self, bench_run):
        text = render_scorecard(bench_run.artifact["scorecard"])
        assert "family" in text and "geomean" in text
        assert len(text.splitlines()) == len(QUERY_FAMILIES) + 1

    def test_bench_report_feeds_histogram(self, demo_session):
        demo_session.reset_measurements()
        card = demo_session.bench_report()
        assert set(card) == set(QUERY_FAMILIES)
        histogram = demo_session.obs.registry.histogram(
            "ghostdb_optimizer_est_over_meas"
        )
        assert histogram.count() >= sum(
            row["candidates"] for row in card.values()
        ) - len(card)  # families with immeasurably fast plans skip ratios
        assert "ghostdb_optimizer_est_over_meas_bucket" in (
            demo_session.metrics_text()
        )


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE scorecard columns
# ----------------------------------------------------------------------


class TestExplainAnalyzeScorecard:
    def test_per_node_est_vs_actual_columns(self, demo_session):
        demo_session.reset_measurements()
        report, result = demo_session.explain_analyze(demo_query())
        for line in report.splitlines():
            assert "est ~" in line and "actual" in line
            assert "flash" in line and "usb" in line and "ram" in line

    def test_histogram_fed_by_explain_analyze(self, demo_session):
        demo_session.reset_measurements()
        demo_session.explain_analyze(demo_query())
        histogram = demo_session.obs.registry.histogram(
            "ghostdb_optimizer_est_over_meas"
        )
        assert histogram.count() == 1

    @pytest.mark.parametrize(
        "sql, consumer, inputs",
        [
            (
                "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
                "WHERE Pre.Quantity BETWEEN 5 AND 7 AND Pre.PreID <= 1900",
                "MergeIntersect",
                ("ClimbingSelect", "VisibleSelect"),
            ),
            (
                "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) "
                "FROM Prescription Pre, Visit Vis "
                "WHERE Vis.VisID = Pre.VisID AND Vis.Date BETWEEN "
                "DATE '2005-09-14' AND DATE '2006-09-13' "
                "GROUP BY Vis.Purpose",
                "Aggregate",
                ("Project",),
            ),
        ],
        ids=["quantity-range", "group-by-date-window"],
    )
    def test_unbatched_inputs_are_graded_on_their_consumer(
        self, demo_session, sql, consumer, inputs
    ):
        """Inputs pulled through ``Operator.unbatched()`` charge their
        consumer: they are marked, never flagged, and the consumer is
        graded against its estimate plus theirs."""
        demo_session.reset_measurements()
        report, _result = demo_session.explain_analyze(sql)
        lines = {
            line.strip().split("[", 1)[0]: line
            for line in report.splitlines()
        }
        assert "MISESTIMATE" not in report, report
        assert "(cost on consumer)" not in lines[consumer]
        for name in inputs:
            assert "(cost on consumer)" in lines[name], report

    def test_self_estimate_is_clamped_nonnegative(self, demo_session):
        bound = demo_session.bind(demo_query())
        plan = demo_session.optimizer.optimize(bound).plan
        estimates = demo_session.optimizer.cost_model.estimate_nodes(plan)
        for node in plan.walk():
            own = self_estimate(node, estimates)
            assert own.seconds >= 0
            assert own.ram_bytes >= 0

    def test_known_misestimate_is_flagged(self, demo_session):
        """Inflate one node's measured time far past the threshold: the
        renderer must flag exactly that node."""
        demo_session.reset_measurements()
        bound = demo_session.bind(demo_query())
        plan = demo_session.optimizer.optimize(bound).plan
        result = demo_session.execute_plan(plan)
        assert result.rows is not None
        model = demo_session.optimizer.cost_model
        honest = explain_analyze(result, model)
        top = result.measured[id(plan)]
        original = top.self_seconds
        try:
            top.self_seconds = (
                max(original, 1e-3) * MISESTIMATE_THRESHOLD * 50
            )
            flagged = explain_analyze(result, model)
        finally:
            top.self_seconds = original
        assert "MISESTIMATE" in flagged.splitlines()[0]
        assert flagged.count("MISESTIMATE") >= honest.count("MISESTIMATE")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestBenchCli:
    def test_bench_out_and_baseline_gate(self, tmp_path, capsys):
        out = tmp_path / "nested" / "BENCH_a.json"
        args = [
            "--scale", "300", "--no-scorecard",
            "--scenario", "fig1-demo-query",
            "--scenario", "t1-hash-join",
        ]
        assert bench_main(args + ["--bench-out", str(out)]) == 0
        assert out.exists()
        # Identical re-run against the artifact as baseline: PASS.
        out2 = tmp_path / "BENCH_b.json"
        code = bench_main(
            args + ["--bench-out", str(out2), "--baseline", str(out)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_c.json"
        args = [
            "--scale", "300", "--no-scorecard",
            "--scenario", "fig1-demo-query",
            "--bench-out", str(out),
        ]
        assert bench_main(args) == 0
        doctored = json.loads(out.read_text())
        doctored["scenarios"]["fig1-demo-query"]["sim_seconds"] *= 2
        baseline_path = tmp_path / "baseline.json"
        # The doctored file plays the *baseline* upside down: make the
        # fresh run look like a regression by shrinking the baseline.
        doctored["scenarios"]["fig1-demo-query"]["sim_seconds"] /= 4
        baseline_path.write_text(json.dumps(doctored))
        code = bench_main(
            [
                "--scale", "300", "--no-scorecard",
                "--scenario", "fig1-demo-query",
                "--bench-out", str(tmp_path / "BENCH_d.json"),
                "--baseline", str(baseline_path),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unknown_scenario_errors_cleanly(self, tmp_path, capsys):
        code = bench_main(
            ["--scale", "300", "--scenario", "nope",
             "--bench-out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().out
