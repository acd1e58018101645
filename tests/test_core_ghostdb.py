"""GhostDB session API: lifecycle, DDL/DML, querying, observability."""

import datetime

import pytest

from repro.catalog.schema import SchemaError
from repro.core.ghostdb import GhostDB, SessionError
from repro.engine.executor import QueryResult
from repro.hardware.profiles import TINY_DEVICE
from repro.workload.queries import DEMO_SCHEMA_DDL, demo_query


class TestLifecycle:
    def test_query_before_load_rejected(self):
        db = GhostDB()
        db.execute(DEMO_SCHEMA_DDL[0])
        with pytest.raises(SessionError, match="load data"):
            db.query("SELECT Country FROM Doctor")

    def test_ddl_after_load_rejected(self, fresh_session):
        with pytest.raises(SessionError, match="frozen"):
            fresh_session.execute(
                "CREATE TABLE Extra (id INTEGER PRIMARY KEY)"
            )

    def test_double_load_rejected(self, fresh_session, demo_data):
        with pytest.raises(SessionError, match="already loaded"):
            fresh_session.load(demo_data)

    def test_load_resets_measurements(self, fresh_session):
        """Load-time I/O (huge) must not pollute query metrics."""
        assert fresh_session.device.clock.now == 0.0
        assert fresh_session.usb_log == []


class TestInsertPath:
    def test_inserts_buffer_and_load(self):
        db = GhostDB()
        db.execute(
            "CREATE TABLE Person (PID INTEGER PRIMARY KEY, "
            "Name CHAR(20) HIDDEN, City CHAR(20))"
        )
        assert db.execute(
            "INSERT INTO Person VALUES (2, 'Bob', 'Paris'), "
            "(1, 'Eve', 'Lyon')"
        ) == 2
        db.load()
        result = db.query("SELECT Name, City FROM Person WHERE PID = 1")
        assert result.rows == [("Eve", "Lyon")]

    def test_insert_arity_checked(self):
        db = GhostDB()
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, x INTEGER)")
        with pytest.raises(Exception, match="arity"):
            db.execute("INSERT INTO T VALUES (1)")

    def test_insert_type_checked(self):
        db = GhostDB()
        db.execute("CREATE TABLE T (id INTEGER PRIMARY KEY, x DATE)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO T VALUES (1, 'not a date')")

    def test_duplicate_key_load_refused_and_recoverable(self):
        """A key inserted twice is refused with a typed error before
        anything is built; the session stays loadable."""
        db = GhostDB()
        db.execute(
            "CREATE TABLE Patient (PatID INTEGER PRIMARY KEY, "
            "Name CHAR(20) HIDDEN, Age INTEGER)"
        )
        db.execute("INSERT INTO Patient VALUES (1, 'Eve', 40)")
        db.execute("INSERT INTO Patient VALUES (1, 'Bob', 50)")
        with pytest.raises(SchemaError, match="primary key 1"):
            db.load()
        assert db.core.tree is None and db.core.site is None
        with pytest.raises(SessionError, match="load data"):
            db.query("SELECT Age FROM Patient")
        db.execute("INSERT INTO Patient VALUES (1, 'Eve', 40), (2, 'Bob', 50)")
        db.load()
        assert db.site.row_count("patient") == 2
        assert db.site.statistics("patient").row_count == 2
        result = db.query("SELECT Name FROM Patient WHERE Age = 50")
        assert result.rows == [("Bob",)]

    def test_insert_after_load_rejected(self, fresh_session):
        with pytest.raises(SessionError, match="secure setting"):
            fresh_session.execute(
                "INSERT INTO Medicine VALUES (9999, 'X', 'Y', 'Z')"
            )


class TestQueryApi:
    def test_query_returns_queryresult(self, demo_session):
        result = demo_session.query(demo_query())
        assert isinstance(result, QueryResult)
        assert result.row_count == len(result.rows)

    def test_execute_dispatches_select(self, demo_session):
        result = demo_session.execute("SELECT Country FROM Doctor")
        assert isinstance(result, QueryResult)

    def test_query_rejects_ddl(self, demo_session):
        with pytest.raises(SessionError):
            demo_session.query("CREATE TABLE X (id INTEGER PRIMARY KEY)")

    def test_bind_rejects_non_select(self, demo_session):
        with pytest.raises(SessionError, match="SELECT"):
            demo_session.bind("INSERT INTO T VALUES (1)")

    def test_query_text_announced_on_usb(self, fresh_session):
        fresh_session.reset_measurements()
        fresh_session.query(demo_query())
        first = fresh_session.usb_log[0]
        assert first.kind == "query"
        assert b"SELECT" in first.payload

    def test_rank_plans_counts_strategies(self, demo_session):
        ranked = demo_session.rank_plans(demo_query())
        assert len(ranked) == 4

    def test_reset_between_queries_isolates_metrics(self, fresh_session):
        fresh_session.query(demo_query())
        fresh_session.reset_measurements()
        assert fresh_session.device.clock.now == 0.0
        result = fresh_session.query(demo_query())
        assert result.metrics.elapsed_seconds > 0


class TestDateLiterals:
    def test_results_contain_real_dates(self, demo_session):
        result = demo_session.query(
            "SELECT Date FROM Visit WHERE Date > DATE '2007-06-01'"
        )
        assert result.rows
        for (date,) in result.rows:
            assert isinstance(date, datetime.date)
            assert date > datetime.date(2007, 6, 1)


class TestTinyDevice:
    def test_loads_and_queries_under_16kb(self, demo_data):
        """The whole pipeline works in a quarter of the demo RAM."""
        db = GhostDB(profile=TINY_DEVICE)
        for ddl in DEMO_SCHEMA_DDL:
            db.execute(ddl)
        db.load(demo_data)
        result = db.query(demo_query())
        assert result.metrics.ram_high_water <= TINY_DEVICE.ram_bytes
        assert result.rows is not None
