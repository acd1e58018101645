"""The visible site: splitting, selection, fetches, statistics."""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.schema import Schema, SchemaError
from repro.sql.binder import EQ, IN, NEQ, RANGE, Predicate
from repro.sql.ddl import create_table
from repro.sql.parser import parse_statement
from repro.visible.site import VisibleSite
from repro.workload.queries import DEMO_SCHEMA_DDL


@pytest.fixture(scope="module")
def schema():
    schema = Schema()
    for ddl in DEMO_SCHEMA_DDL:
        create_table(schema, parse_statement(ddl))
    return schema


@pytest.fixture
def site(schema):
    site = VisibleSite(schema)
    site.load(
        "visit",
        [
            (1, datetime.date(2006, 1, 10), "Sclerosis", 1, 1),
            (2, datetime.date(2006, 6, 15), "Checkup", 1, 2),
            (3, datetime.date(2006, 12, 1), "Checkup", 2, 1),
        ],
    )
    return site


def visit_pred(schema, **kwargs):
    column = schema.table("visit").column(kwargs.pop("column"))
    return Predicate(
        table="visit", column=column.name.lower(), column_def=column, **kwargs
    )


def test_hidden_columns_are_dropped_at_load(site, schema):
    """The visible store must physically not contain hidden values."""
    rows = site._tables["visit"].rows
    assert rows[1] == (1, datetime.date(2006, 1, 10))
    for row in rows.values():
        assert "Sclerosis" not in map(str, row)


def test_select_ids_sorted(site, schema):
    pred = visit_pred(
        schema, column="date", kind=RANGE,
        low=datetime.date(2006, 5, 1), low_inclusive=True,
    )
    assert site.select_ids("visit", pred) == [2, 3]


def test_select_on_hidden_column_impossible(site, schema):
    pred = visit_pred(schema, column="purpose", kind=EQ, value="Checkup")
    with pytest.raises(SchemaError, match="not visible"):
        site.select_ids("visit", pred)


def test_fetch_values(site):
    got = site.fetch_values("visit", [1, 3, 99], ["date"])
    assert got == {
        1: (datetime.date(2006, 1, 10),),
        3: (datetime.date(2006, 12, 1),),
    }


def test_fetch_with_recheck_filters(site, schema):
    pred = visit_pred(
        schema, column="date", kind=RANGE,
        low=datetime.date(2006, 11, 1), low_inclusive=True,
    )
    got = site.fetch_values("visit", [1, 2, 3], ["date"], recheck=[pred])
    assert set(got) == {3}


def test_fetch_empty_columns_gives_presence(site):
    got = site.fetch_values("visit", [2, 42], [])
    assert got == {2: ()}


def test_statistics_cover_visible_columns_only(site):
    stats = site.statistics("visit")
    assert "date" in stats.columns
    assert "visid" in stats.columns
    assert "purpose" not in stats.columns
    assert stats.row_count == 3


def test_statistics_before_load_rejected(schema):
    site = VisibleSite(schema)
    with pytest.raises(SchemaError, match="no visible data"):
        site.statistics("visit")


def test_row_arity_checked(site):
    with pytest.raises(SchemaError, match="row has"):
        site.load("doctor", [(1, "x")])


def test_count_ids(site, schema):
    pred = visit_pred(
        schema, column="date", kind=RANGE,
        low=datetime.date(2006, 5, 1), low_inclusive=True,
    )
    assert site.count_ids("visit", pred) == 2


def test_load_refuses_a_duplicate_key(schema):
    site = VisibleSite(schema)
    row = (1, datetime.date(2006, 1, 10), "Checkup", 1, 1)
    with pytest.raises(SchemaError, match="already exists"):
        site.load("visit", [row, row])
    assert site.row_count("visit") == 0


def test_writes_drop_the_index(site, schema):
    pred = visit_pred(
        schema, column="date", kind=RANGE,
        low=datetime.date(2006, 5, 1), low_inclusive=True,
    )
    assert site.select_ids("visit", pred) == [2, 3]
    site.append("visit", [(4, datetime.date(2007, 1, 1), "x", 1, 1)])
    assert site.select_ids("visit", pred) == [2, 3, 4]
    site.update_rows(
        "visit", {2: (2, datetime.date(2006, 1, 1), "x", 1, 2)}
    )
    assert site.select_ids("visit", pred) == [3, 4]
    site.delete_rows("visit", [3])
    assert site.select_ids("visit", pred) == [4]
    assert site.count_ids("visit", pred) == 1


# ----------------------------------------------------------------------
# Index-backed selection == a Predicate.matches scan
# ----------------------------------------------------------------------

_MIXED_DDL = """CREATE TABLE Mixed (
    ID INTEGER PRIMARY KEY,
    I INTEGER,
    F FLOAT,
    S CHAR(4),
    D DATE,
    H INTEGER HIDDEN)"""

#: Small value domains, so runs of equal values are common.
_DOMAINS = {
    "i": st.integers(-3, 3),
    "f": st.sampled_from([-1.5, 0.0, 0.25, 2.0, 2.5]),
    "s": st.sampled_from(["", "a", "ab", "b", "ba"]),
    "d": st.dates(datetime.date(2006, 1, 1), datetime.date(2006, 1, 8)),
}
#: Bounds and constants may fall between or outside stored values (and
#: FLOAT constants may be ints, as an unpromoted literal would be).
_CONSTANTS = {
    **_DOMAINS,
    "i": st.integers(-5, 5),
    "f": st.sampled_from([-2, -1.5, 0, 0.1, 0.25, 2, 2.5, 3.0]),
    "s": st.sampled_from(["", "0", "a", "aa", "ab", "b", "ba", "c"]),
}
_POSITIONS = {"i": 1, "f": 2, "s": 3, "d": 4}


@pytest.fixture(scope="module")
def mixed_schema():
    schema = Schema()
    create_table(schema, parse_statement(_MIXED_DDL))
    return schema


def _mixed_row(draw, pk):
    return (pk, *(draw(_DOMAINS[c]) for c in "ifsd"), 0)


def _predicates(draw, mixed_schema):
    predicates = []
    for column in "ifsd":
        cdef = mixed_schema.table("mixed").column(column)
        const = _CONSTANTS[column]
        base = {"table": "mixed", "column": column, "column_def": cdef}
        predicates += [
            Predicate(**base, kind=EQ, value=draw(const)),
            Predicate(**base, kind=NEQ, value=draw(const)),
            Predicate(
                **base, kind=IN,
                values=tuple(sorted(set(draw(st.lists(const, max_size=4))))),
            ),
            Predicate(
                **base, kind=RANGE,
                low=draw(st.none() | const), low_inclusive=draw(st.booleans()),
                high=draw(st.none() | const),
                high_inclusive=draw(st.booleans()),
            ),
        ]
    return predicates


def _check_against_scan(site, rows, predicates):
    for pred in predicates:
        pos = _POSITIONS[pred.column]
        expected = sorted(
            pk for pk, row in rows.items() if pred.matches(row[pos])
        )
        assert site.select_ids("mixed", pred) == expected, pred.describe()
        assert site.count_ids("mixed", pred) == len(expected), pred.describe()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_index_selection_equals_a_predicate_scan(mixed_schema, data):
    """select_ids / count_ids answer exactly as the row scan they
    replaced, for every predicate kind and column type, through load,
    append, update and delete (each of which drops the index)."""
    draw = data.draw
    site = VisibleSite(mixed_schema)
    pks = draw(st.lists(st.integers(1, 60), unique=True, max_size=25))
    rows = {pk: _mixed_row(draw, pk) for pk in pks}
    site.load("mixed", list(rows.values()))
    _check_against_scan(site, rows, _predicates(draw, mixed_schema))

    fresh = draw(st.lists(st.integers(61, 90), unique=True, max_size=8))
    new_rows = {pk: _mixed_row(draw, pk) for pk in fresh}
    site.append("mixed", list(new_rows.values()))
    rows.update(new_rows)
    _check_against_scan(site, rows, _predicates(draw, mixed_schema))

    if rows:
        touched = draw(st.lists(st.sampled_from(sorted(rows)), unique=True))
        changed = {pk: _mixed_row(draw, pk) for pk in touched}
        site.update_rows("mixed", changed)
        rows.update(changed)
        _check_against_scan(site, rows, _predicates(draw, mixed_schema))

        gone = draw(st.lists(st.sampled_from(sorted(rows)), unique=True))
        site.delete_rows("mixed", gone)
        for pk in gone:
            del rows[pk]
        _check_against_scan(site, rows, _predicates(draw, mixed_schema))
