"""The interactive shell and EXPLAIN ANALYZE."""

import io

import pytest

from repro.cli import Shell, doctor_main
from repro.workload.queries import demo_query


@pytest.fixture(scope="module")
def shell():
    out = io.StringIO()
    sh = Shell(scale=1_000, out=out)
    sh._out_buffer = out
    return sh


def run(shell, line):
    shell._out_buffer.seek(0)
    shell._out_buffer.truncate()
    alive = shell.handle(line)
    return alive, shell._out_buffer.getvalue()


class TestShellCommands:
    def test_select_prints_rows_and_metrics(self, shell):
        alive, out = run(shell, "SELECT Country FROM Doctor LIMIT 2;")
        assert alive
        assert "doctor.Country" in out
        assert "simulated" in out

    def test_truncation_beyond_50_rows(self, shell):
        _alive, out = run(shell, "SELECT Quantity FROM Prescription")
        assert "rows total" in out

    def test_explain(self, shell):
        _alive, out = run(shell, f".explain {demo_query()}")
        assert "Project" in out and "ms" in out

    def test_analyze_shows_est_and_actual(self, shell):
        _alive, out = run(shell, f".analyze {demo_query()}")
        assert "est ~" in out and "actual" in out

    def test_plans_ranked(self, shell):
        _alive, out = run(shell, f".plans {demo_query()}")
        assert out.count("ms est") == 4

    def test_spy_and_leaks(self, shell):
        run(shell, "SELECT Country FROM Doctor LIMIT 1")
        _alive, out = run(shell, ".spy 5")
        assert "host" in out or "device" in out
        _alive, out = run(shell, ".leaks")
        assert "CLEAN" in out

    def test_schema_marks_hidden(self, shell):
        _alive, out = run(shell, ".schema")
        assert "HIDDEN" in out
        assert "PRIMARY KEY" in out

    def test_fault_attach_status_events_detach(self, shell):
        _alive, out = run(shell, ".fault")
        assert "off" in out
        _alive, out = run(shell, ".fault mixed 5")
        assert "profile=mixed seed=5" in out
        run(shell, "SELECT Quantity FROM Prescription WHERE Quantity = 7")
        _alive, out = run(shell, ".fault status")
        assert "profile=mixed" in out and "flash_ops=" in out
        _alive, out = run(shell, ".fault events 3")
        assert "flash" in out or "usb" in out or "no faults" in out
        _alive, out = run(shell, ".fault off")
        assert "detached" in out
        _alive, out = run(shell, ".fault bogus")
        assert "unknown fault subcommand" in out

    def test_fault_remount_on_healthy_device(self, shell):
        run(shell, ".fault off")
        _alive, out = run(shell, ".fault remount")
        assert "nothing to recover" in out

    def test_storage_report(self, shell):
        _alive, out = run(shell, ".storage")
        assert "SKT_prescription" in out

    def test_set_lists_read_only_settings(self, shell):
        _alive, out = run(shell, ".set")
        assert "fetch" in out and "fan-in" in out and "bloom-fp" in out
        assert "batch " not in out
        fetch = shell.db.link.fetch_batch
        _alive, out = run(shell, ".set fetch 4")
        assert "read-only" in out
        assert shell.db.link.fetch_batch == fetch

    def test_cache_command_and_set_cache(self, shell):
        _alive, out = run(shell, ".cache")
        assert "buffer pool:" in out and "resident" in out
        _alive, out = run(shell, ".cache 4")
        assert "4 pages" in out
        assert shell.db.device.page_cache.capacity_pages == 4
        _alive, out = run(shell, "SET cache = off")
        assert "buffer pool: off" in out
        assert not shell.db.cache_enabled
        _alive, out = run(shell, "SET cache = 6")
        assert "6 pages" in out
        _alive, out = run(shell, ".cache bogus")
        assert "not a cache size" in out
        _alive, out = run(shell, ".cache on")  # back to the profile default
        assert "buffer pool:" in out and "off" not in out
        assert shell.db.cache_enabled

    def test_cache_hit_rate_reported_after_queries(self, shell):
        run(shell, ".reset")
        run(shell, "SELECT Quantity FROM Prescription WHERE Quantity = 7")
        _alive, out = run(shell, ".cache")
        assert "lookups" in out and "hits" in out

    def test_error_keeps_shell_alive(self, shell):
        alive, out = run(shell, "SELECT nothing FROM nowhere")
        assert alive
        assert "error:" in out

    def test_explain_analyze_alias(self, shell):
        _alive, out = run(shell, f".explain analyze {demo_query()}")
        assert "est ~" in out and "actual" in out
        assert "rows)" in out

    def test_unknown_command(self, shell):
        _alive, out = run(shell, ".bogus")
        assert "unknown command" in out

    def test_reset(self, shell):
        _alive, out = run(shell, ".reset")
        assert "cleared" in out
        assert shell.db.device.clock.now == 0.0

    def test_quit(self, shell):
        alive, _out = run(shell, ".quit")
        assert not alive


class TestMetricsOut:
    def test_metrics_out_writes_exposition(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "nested" / "metrics.prom"
        sh = Shell(scale=300, out=out, metrics_out=str(path))
        sh.handle("SELECT Country FROM Doctor LIMIT 1")
        sh.close()
        text = path.read_text()
        assert "# TYPE ghostdb_queries_total counter" in text
        assert "ghostdb_queries_total 1" in text
        assert "wrote metrics exposition" in out.getvalue()

    def test_metrics_out_unwritable_errors_cleanly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = io.StringIO()
        sh = Shell(
            scale=300, out=out,
            metrics_out=str(blocker / "sub" / "metrics.prom"),
        )
        sh.close()  # must not raise
        assert "error: could not write metrics" in out.getvalue()


class TestDump:
    def test_dump_is_leak_checked_before_it_reaches_disk(self, tmp_path):
        from repro.obs.bundle import load_bundle
        from repro.privacy.leakcheck import LeakChecker

        out = io.StringIO()
        sh = Shell(scale=300, out=out)
        sh.handle("SELECT Country FROM Doctor LIMIT 1")
        real_checker = sh.checker
        # A corpus whose hidden Patient.Name is a word every bundle
        # carries: the shell must refuse to write the bundle.
        table = sh.db.schema.table("Patient")
        rows = list(sh.data["patient"])
        first = list(rows[0])
        first[table.column_index("Name")] = "postmortem"
        rows[0] = tuple(first)
        sh.checker = LeakChecker(sh.db.schema, {**sh.data, "patient": rows})
        refused = tmp_path / "refused"
        sh.handle(f".dump {refused}")
        assert "error: postmortem bundle not written" in out.getvalue()
        assert "VIOLATIONS" in out.getvalue()
        assert not refused.exists()

        sh.checker = real_checker
        written = tmp_path / "written"
        sh.handle(f".dump {written}")
        (path,) = written.iterdir()
        assert f"wrote postmortem bundle to {path}" in out.getvalue()
        assert real_checker.check_bytes(path.read_bytes()).ok
        assert load_bundle(str(path))["reason"] == "dump"
        bundles = sh.db.obs.registry.counter("ghostdb_postmortem_bundles_total")
        assert bundles.value(reason="dump") == 1


class TestDoctor:
    """``repro doctor`` checks its postmortem bundle before writing it."""

    ARGS = ["--scale", "300", "--fault-seed", "7"]

    def test_refused_bundle_exits_1_and_writes_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.privacy.leakcheck import (
            LeakChecker,
            LeakReport,
            LeakViolation,
        )

        def refuse(self, payload, kind="blob"):
            return LeakReport(1, 1, [LeakViolation(0, kind, "refused")])

        monkeypatch.setattr(LeakChecker, "check_bytes", refuse)
        assert doctor_main(self.ARGS + ["--dump-dir", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        assert "doctor: error: postmortem bundle not written" in out
        assert "doctor: UNHEALTHY" in out

    def test_clean_bundle_exits_0_and_loads(self, tmp_path, capsys):
        from repro.obs.bundle import load_bundle

        assert doctor_main(self.ARGS + ["--dump-dir", str(tmp_path)]) == 0
        (path,) = tmp_path.iterdir()
        assert path.name == "DUMP_7.json"
        assert load_bundle(str(path))["reason"] == "doctor"
        out = capsys.readouterr().out
        assert f"doctor: wrote postmortem bundle to {path}" in out
        assert "doctor: healthy" in out


class TestExplainAnalyze:
    def test_session_api(self, demo_session):
        demo_session.reset_measurements()
        report, result = demo_session.explain_analyze(demo_query())
        assert result.rows is not None
        assert "actual" in report
        # Every line carries both an estimate and a measurement.
        for line in report.splitlines():
            assert "est ~" in line and "actual" in line

    def test_measured_tuples_match_operator_output(self, demo_session):
        demo_session.reset_measurements()
        report, result = demo_session.explain_analyze(
            "SELECT Quantity FROM Prescription WHERE Quantity = 5"
        )
        top = report.splitlines()[0]
        assert f"actual {result.row_count} out" in top
