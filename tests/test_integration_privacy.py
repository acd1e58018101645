"""Privacy integration: every query family leaves the boundary clean,
and the quantitative claims of Figure 1 hold."""

import pytest

from repro.hardware.usb import Direction
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.spy import SpyView
from tests.test_integration_queries import QUERIES


@pytest.fixture(scope="module")
def checker(demo_session, demo_data):
    return LeakChecker(demo_session.schema, demo_data)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_no_leaks_for_any_query(demo_session, checker, name):
    demo_session.reset_measurements()
    demo_session.query(QUERIES[name])
    report = checker.check(demo_session.usb_log)
    assert report.ok, f"{name}: {report.summary()}"


def test_outbound_traffic_is_only_requests_and_ids(demo_session):
    demo_session.reset_measurements()
    demo_session.query(QUERIES["paper-demo"])
    outbound = [
        r for r in demo_session.usb_log
        if r.direction is Direction.TO_HOST
    ]
    assert outbound
    assert {r.kind for r in outbound} == {"request"}


def test_spy_learns_only_queries_and_visible_data(demo_session):
    """Figure 1's contract, checked quantitatively: the spy's transcript
    consists of the query, visible predicate requests, ID lists and
    visible values -- and nothing else."""
    demo_session.reset_measurements()
    demo_session.query(QUERIES["paper-demo"])
    spy = SpyView(demo_session.usb_log)
    kinds = {(s.direction, s.kind) for s in spy.summary()}
    allowed = {
        ("host->device", "query"),
        ("host->device", "ids"),
        ("host->device", "count"),
        ("host->device", "values"),
        ("device->host", "request"),
    }
    assert kinds <= allowed


def test_hidden_selection_result_size_not_revealed_directly(demo_session):
    """A hidden-only query reveals the IDs it projects, but no ID list
    for the hidden predicate itself ever crosses."""
    demo_session.reset_measurements()
    demo_session.query(QUERIES["hidden-only"])
    inbound_id_lists = [
        r for r in demo_session.usb_log
        if r.kind == "ids" and r.direction is Direction.TO_DEVICE
    ]
    # No visible selection in this query: nothing streams in.
    assert inbound_id_lists == []


def test_intermediate_results_never_leave(demo_session, demo_data):
    """The SKT tuples flowing between device operators must not appear
    on the bus: outbound payload volume stays far below the intermediate
    result volume for an unselective query."""
    demo_session.reset_measurements()
    result = demo_session.query(QUERIES["no-predicates"])
    outbound_bytes = sum(
        r.size for r in demo_session.usb_log
        if r.direction is Direction.TO_HOST
    )
    intermediate_bytes = len(demo_data["prescription"]) * 5 * 4
    assert outbound_bytes < intermediate_bytes / 2
    assert result.rows
