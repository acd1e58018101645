"""Incremental appends: correctness, structure rebuilds, storage churn."""

import datetime

import pytest

from repro.catalog.schema import SchemaError
from repro.engine.maintenance import MaintenanceError
from repro.reference import evaluate_reference, same_rows
from repro.workload.queries import demo_query


def new_visits(start_id, count, purpose="Sclerosis", doc=1, pat=1):
    return [
        (
            start_id + i,
            datetime.date(2007, 7, 1) + datetime.timedelta(days=i % 20),
            purpose,
            doc,
            pat,
        )
        for i in range(count)
    ]


def new_prescriptions(start_id, count, vis_id, med_id=1):
    return [
        (
            start_id + i,
            (i % 10) + 1,
            "once daily",
            datetime.date(2007, 7, 2),
            med_id,
            vis_id,
        )
        for i in range(count)
    ]


@pytest.fixture
def session(fresh_session):
    fresh_session.reset_measurements()
    return fresh_session


class TestAppendCorrectness:
    def test_appended_rows_are_queryable(self, session, demo_data):
        next_vis = len(demo_data["visit"]) + 1
        next_pre = len(demo_data["prescription"]) + 1
        session.append("visit", new_visits(next_vis, 3))
        session.append(
            "prescription", new_prescriptions(next_pre, 5, vis_id=next_vis)
        )
        result = session.query(
            f"SELECT Pre.Quantity, Vis.Date FROM Prescription Pre, "
            f"Visit Vis WHERE Vis.Date > DATE '2007-06-30' "
            f"AND Vis.VisID = Pre.VisID"
        )
        assert result.row_count == 5

    def test_results_match_reference_over_merged_data(
        self, session, demo_data
    ):
        next_vis = len(demo_data["visit"]) + 1
        next_pre = len(demo_data["prescription"]) + 1
        added_visits = new_visits(next_vis, 4)
        added_pres = new_prescriptions(next_pre, 8, vis_id=next_vis + 1)
        session.append("visit", added_visits)
        session.append("prescription", added_pres)
        merged = {
            name: list(rows) for name, rows in demo_data.items()
        }
        merged["visit"] = merged["visit"] + added_visits
        merged["prescription"] = merged["prescription"] + added_pres
        sql = demo_query()
        bound = session.bind(sql)
        expected = evaluate_reference(session.tree, merged, bound)
        result = session.query(sql)
        assert same_rows(result.rows, expected)

    def test_climbing_index_sees_new_values(self, session, demo_data):
        next_vis = len(demo_data["visit"]) + 1
        session.append(
            "visit", new_visits(next_vis, 2, purpose="Brand New Purpose")
        )
        result = session.query(
            "SELECT Date FROM Visit WHERE Purpose = 'Brand New Purpose'"
        )
        assert result.row_count == 2

    def test_visible_side_updated(self, session, demo_data):
        next_med = len(demo_data["medicine"]) + 1
        session.append(
            "medicine",
            [(next_med, "Novel-9999", "Cures everything", "Panacea")],
        )
        result = session.query(
            "SELECT Name FROM Medicine WHERE Type = 'Panacea'"
        )
        assert result.rows == [("Novel-9999",)]
        # Statistics follow the append (optimizer sees the new value).
        stats = session.site.statistics("medicine")
        assert stats.column("type").selectivity_eq("Panacea") > 0


class TestAppendValidation:
    def test_non_monotonic_keys_rejected(self, session):
        with pytest.raises(MaintenanceError, match="exceed"):
            session.append("visit", new_visits(1, 1))

    def test_unknown_table_rejected(self, session):
        with pytest.raises(Exception):
            session.append("nothing", [(1,)])

    def test_bad_rows_are_refused_before_any_write(self, session, demo_data):
        """Every row is checked before anything is written: a Patient
        row missing its visible-only last column (Country), or carrying
        one value too many, leaves the device and the site untouched
        even behind a good row."""
        next_pat = len(demo_data["patient"]) + 1
        good = (next_pat, "New Name", 40, 22.5, "France")
        short = (next_pat + 1, "New Name", 40, 22.5)
        long = (next_pat + 1, "New Name", 40, 22.5, "France", "extra")
        for bad in (short, long):
            heap_rows = session.hidden.row_count("patient")
            visible_rows = session.site.row_count("patient")
            page_writes = session.device.counters().flash.page_writes
            with pytest.raises(SchemaError, match="arity"):
                session.append("patient", [good, bad])
            assert session.hidden.row_count("patient") == heap_rows
            assert session.site.row_count("patient") == visible_rows
            assert session.device.counters().flash.page_writes == page_writes

    def test_dangling_foreign_key_is_refused_before_any_write(
        self, session, demo_data
    ):
        """A Prescription naming a visit that does not exist fails typed,
        before the rebuild reads or writes a page; a valid append after
        it succeeds."""
        next_pre = len(demo_data["prescription"]) + 1
        dangling = new_prescriptions(next_pre, 2, vis_id=1)
        dangling[1] = (*dangling[1][:5], 10**6)
        probe = "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre"
        rows = session.query(probe).rows
        site_rows = dict(session.site._tables["prescription"].rows)
        before = session.device.counters()
        with pytest.raises(
            MaintenanceError, match=r"prescription: .*VisID = 1000000"
        ):
            session.append("prescription", dangling)
        after = session.device.counters()
        assert after.flash.page_writes == before.flash.page_writes
        assert after.flash.page_reads == before.flash.page_reads
        assert session.device.ftl.mapped_lpages() == (
            session.hidden.referenced_pages()
        )
        assert session.query(probe).rows == rows
        assert session.site._tables["prescription"].rows == site_rows
        report = session.append("prescription", dangling[:1])
        assert report.appended_rows == 1
        assert session.query(probe).row_count == len(rows) + 1

    def test_empty_append_is_a_noop(self, session):
        before = session.device.counters()
        report = session.append("visit", [])
        after = session.device.counters()
        assert report.appended_rows == 0
        assert after.flash.page_writes == before.flash.page_writes


class TestMaintenanceCost:
    def test_rebuild_scope_is_minimal(self, session, demo_data):
        next_doc = len(demo_data["doctor"]) + 1
        report = session.append(
            "doctor", [(next_doc, "Dr New", "General", 75000, "France")]
        )
        # Doctor sits in both subtrees and on three index paths.
        assert set(report.rebuilt_skts) == {"SKT_prescription", "SKT_visit"}
        assert "kidx:doctor" in report.rebuilt_indexes
        # Prescription-only indexes were untouched.
        assert "cidx:prescription.quantity" not in report.rebuilt_indexes

    def test_append_charges_the_device(self, session, demo_data):
        session.reset_measurements()
        next_pre = len(demo_data["prescription"]) + 1
        session.append(
            "prescription", new_prescriptions(next_pre, 50, vis_id=1)
        )
        counters = session.device.counters()
        assert counters.flash.page_writes > 0
        assert counters.flash.page_reads > 0
        assert counters.time.total > 0

    def test_repeated_appends_trigger_gc(self, session, demo_data):
        """Rebuilds strand stale pages; enough of them force erases."""
        erases_before = session.device.counters().flash.block_erases
        next_doc = len(demo_data["doctor"]) + 1
        for i in range(30):
            session.append(
                "doctor",
                [(next_doc + i, f"Dr {i}", "General", 10000 + i, "France")],
            )
        # The device is 1 GiB so GC may or may not have been needed, but
        # the FTL must have accumulated stale pages from the rebuilds.
        assert session.device.ftl.stats.logical_writes > 0
        assert session.device.counters().flash.block_erases >= erases_before


class TestRebuildScopePrecision:
    def test_medicine_append_skips_visit_subtree(self, session, demo_data):
        """Medicine sits only under SKT_prescription; appending to it
        must leave SKT_visit and the visit-path indexes untouched."""
        next_med = len(demo_data["medicine"]) + 1
        visit_skt_before = session.hidden.skts["visit"]
        purpose_index_before = session.hidden.climbing[("visit", "purpose")]
        report = session.append(
            "medicine", [(next_med, "Scoped", "None", "Scoped")]
        )
        assert report.rebuilt_skts == ["SKT_prescription"]
        assert "cidx:visit.purpose" not in report.rebuilt_indexes
        assert session.hidden.skts["visit"] is visit_skt_before
        assert (
            session.hidden.climbing[("visit", "purpose")]
            is purpose_index_before
        )
        # The medicine key index climbs through prescription: rebuilt.
        assert "kidx:medicine" in report.rebuilt_indexes
