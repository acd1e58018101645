"""Baselines: correctness first, then the paper's performance claims."""

import pytest

from repro.baselines import (
    StepwisePlanBuilder,
    run_hash_join_query,
    run_join_index_query,
)
from repro.engine import plan as lp
from repro.optimizer.space import Strategy
from repro.reference import evaluate_reference, same_rows
from repro.workload.queries import demo_query


@pytest.fixture
def session(fresh_session):
    fresh_session.reset_measurements()
    return fresh_session


DEEP_SQL = """
    SELECT Pre.Quantity, Pat.Name
    FROM Prescription Pre, Visit Vis, Patient Pat
    WHERE Pat.BodyMassIndex > 34.0
    AND Pre.VisID = Vis.VisID
    AND Vis.PatID = Pat.PatID
"""


class TestHashJoinBaseline:
    def test_demo_query_correct(self, session, demo_data):
        expected = evaluate_reference(
            session.tree, demo_data, session.bind(demo_query())
        )
        result = run_hash_join_query(session, demo_query())
        assert same_rows(result.rows, expected)

    def test_hidden_only_query_correct(self, session, demo_data):
        sql = (
            "SELECT Pre.Quantity FROM Prescription Pre, Visit Vis "
            "WHERE Vis.Purpose = 'Sclerosis' AND Vis.VisID = Pre.VisID"
        )
        expected = evaluate_reference(session.tree, demo_data, session.bind(sql))
        result = run_hash_join_query(session, sql)
        assert same_rows(result.rows, expected)

    def test_deep_predicate_propagates(self, session, demo_data):
        sql = (
            "SELECT Pre.Quantity FROM Prescription Pre, Visit Vis, "
            "Patient Pat WHERE Pat.Age > 60 "
            "AND Pre.VisID = Vis.VisID AND Vis.PatID = Pat.PatID"
        )
        expected = evaluate_reference(session.tree, demo_data, session.bind(sql))
        result = run_hash_join_query(session, sql)
        assert same_rows(result.rows, expected)

    def test_slower_than_ghostdb(self, session):
        session.reset_measurements()
        ghost = session.query(demo_query())
        session.reset_measurements()
        baseline = run_hash_join_query(session, demo_query())
        assert (
            baseline.metrics.elapsed_seconds
            > ghost.metrics.elapsed_seconds * 2
        )

    def test_scans_dominate_its_flash_reads(self, session):
        session.reset_measurements()
        baseline = run_hash_join_query(session, demo_query())
        # Scanning the root heap alone needs this many page reads.
        root_pages = len(session.hidden.heaps["prescription"].extent.pages)
        assert baseline.metrics.flash_page_reads >= root_pages

    def test_frees_every_temporary_run(self, session):
        """Each query's qualifying-ID and tuple runs go back to the FTL:
        afterwards the device maps exactly the pages the database
        references, query after query."""
        for _ in range(3):
            run_hash_join_query(session, demo_query())
            assert (
                session.device.ftl.mapped_lpages()
                == session.hidden.referenced_pages()
            )

    def test_reports_its_own_ram_peak(self, session):
        """The run's RAM peak is its own, not the session's since the
        last reset: an ORDER BY that ran before it does not show."""
        sql = (
            "SELECT Pre.Quantity FROM Prescription Pre "
            "WHERE Pre.Frequency = 'weekly'"
        )
        fresh = run_hash_join_query(session, sql).metrics.ram_high_water
        session.query(
            "SELECT Pre.PreID, Pre.Quantity, Pre.WhenWritten "
            "FROM Prescription Pre ORDER BY Pre.WhenWritten DESC, Pre.PreID"
        )
        again = run_hash_join_query(session, sql).metrics.ram_high_water
        assert again == fresh > 0

    def test_neq_rejected(self, session):
        with pytest.raises(ValueError, match="<>"):
            run_hash_join_query(
                session,
                "SELECT Quantity FROM Prescription WHERE Quantity <> 5",
            )

    def test_deep_projection_rejected(self, session):
        with pytest.raises(ValueError, match="depth-1"):
            run_hash_join_query(session, DEEP_SQL)


class TestGraceSpill:
    def test_membership_join_spills_under_tiny_ram(self):
        """Starve the device and inflate the build side: the membership
        set cannot fit, so the baseline must grace-partition (paying
        flash writes) and still produce correct results."""
        from repro.core.ghostdb import GhostDB
        from repro.hardware.profiles import TINY_DEVICE
        from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
        from repro.workload.queries import DEMO_SCHEMA_DDL

        data = MedicalDataGenerator(
            DatasetConfig(n_prescriptions=24_000)
        ).generate()
        db = GhostDB(profile=TINY_DEVICE)
        for ddl in DEMO_SCHEMA_DDL:
            db.execute(ddl)
        db.load(data)
        # Visible-only, unselective: ~1000 qualifying visits -> the
        # membership set needs ~12 KB against a 16 KB budget.
        sql = (
            "SELECT Pre.Quantity, Vis.Date FROM Prescription Pre, "
            "Visit Vis WHERE Vis.Date > DATE '2005-06-01' "
            "AND Vis.VisID = Pre.VisID"
        )
        expected = evaluate_reference(db.tree, data, db.bind(sql))
        db.reset_measurements()
        result = run_hash_join_query(db, sql)
        assert same_rows(result.rows, expected)
        spills = [
            op for op in result.metrics.operators
            if "grace spill" in op.detail
        ]
        assert spills
        assert result.metrics.flash_page_writes > 0
        # The spilled partitions and both inputs are freed too.
        assert db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()


class TestJoinIndexBaseline:
    def test_demo_query_correct(self, session, demo_data):
        expected = evaluate_reference(
            session.tree, demo_data, session.bind(demo_query())
        )
        result = run_join_index_query(session, demo_query())
        assert same_rows(result.rows, expected)

    def test_deep_query_correct(self, session, demo_data):
        expected = evaluate_reference(
            session.tree, demo_data, session.bind(DEEP_SQL)
        )
        result = run_join_index_query(session, DEEP_SQL)
        assert same_rows(result.rows, expected)

    def test_stepwise_plans_chain_single_edges(self, session):
        bound = session.bind(DEEP_SQL)
        plan = StepwisePlanBuilder(session.hidden, bound).build(
            Strategy.all_pre(bound)
        )
        converts = [n for n in plan.walk() if isinstance(n, lp.ConvertIds)]
        # patient -> visit -> prescription: two separate conversions.
        assert len(converts) == 2
        climbing = next(
            n for n in plan.walk() if isinstance(n, lp.ClimbingSelect)
        )
        assert climbing.target_table == "patient"

    def test_climbing_beats_stepwise_on_deep_predicates(self, session):
        """The climbing index's reason to exist: a deep selection pays
        one traversal instead of per-level conversions."""
        session.reset_measurements()
        ghost = session.query(DEEP_SQL)
        session.reset_measurements()
        stepwise = run_join_index_query(session, DEEP_SQL)
        assert (
            stepwise.metrics.elapsed_seconds
            > ghost.metrics.elapsed_seconds
        )
