"""Seeded statement streams for the end-to-end workloads.

Everything here is a pure function of the benchmark seed and the host
copy of the dataset: the program under test only ever receives the
statements these generators produce.  A statement is a tuple whose first
element is its kind:

* ``("select", sql)`` -- a query whose rows are checked;
* ``("dml", sql)`` -- an UPDATE or DELETE;
* ``("append", table, rows)`` -- a re-synchronisation batch of new rows.

Point-lookup parameters are read off the data so that every text returns
about :data:`TARGET_ROWS` rows whatever the scale; scan parameters are
narrow bands or fixed-width date windows, and every stream rotates
through its query shapes in a fixed order, so each seed asks for about
the same work per statement.  That keeps the seed-to-seed spread of
the metrics small: runs made with different seeds are compared with
each other.
"""

from __future__ import annotations

import collections
import datetime
import hashlib
import itertools
import random

from repro.workload import vocab
from repro.workload.datagen import DatasetConfig
from repro.workload.queries import demo_query

#: Hidden purposes rare enough that a recent-date cut leaves a handful
#: of rows.  Hot sets take one text per purpose and shape.
RARE_PURPOSES = ("Sclerosis", "Neuropathy", "Hypertension", "Foot examination")
#: The medicine type each purpose's hot demo query selects; fresh demo
#: queries draw the type at random.
HOT_TYPES = ("Antibiotic", "Statin", "Antihypertensive", "Insulin")

#: Rows a point-lookup text aims to return.
TARGET_ROWS = 4

#: Share of point-lookup statements drawn from the hot set (16 texts:
#: one per purpose and shape).
HOT_SHARE = 0.8

#: Scan shapes, sent in rotation.
SCAN_SHAPES = 5
#: Draws tried for a scan text not sent before.  The smallest shape
#: (the Med.Type join) has 2 x 50 texts at scale 20000.
SCAN_DRAWS = 10_000

#: One write-mix cycle: five UPDATE round trips and one append + DELETE
#: pair, each write followed by four point lookups.
UPDATE_ROUND_TRIPS = 5
APPEND_ROWS = 32
READS_PER_WRITE = 4
#: Statements in one write-mix cycle: 12 writes, each with its reads.
WRITE_CYCLE = (2 * UPDATE_ROUND_TRIPS + 2) * (1 + READS_PER_WRITE)
#: The value UPDATEs park rows under; generated quantities are 1..10.
PARKED_QUANTITY = 4242
#: UPDATE round trips run before timing.  At scale 2000 on the 32-block
#: flash, GC first runs during the eighth.
PRECONDITION_ROUND_TRIPS = 9


def digest(statements) -> str:
    """A short hash of a statement sequence (kinds, texts and rows)."""
    h = hashlib.sha256()
    for statement in statements:
        h.update(repr(statement).encode())
    return h.hexdigest()[:16]


def _below(values: list, rows: int):
    """The largest cut with at least ``rows`` of ``values`` (sorted
    descending, ties allowed) strictly above it; else the smallest."""
    for i, value in enumerate(values):
        if i >= rows and value != values[i - 1]:
            return value
    return values[-1]


class PointLookups:
    """The four point-lookup shapes, parameterised from the data.

    Each shape takes ``(rng, purpose, hot)``.  Hot texts aim at exactly
    TARGET_ROWS rows (and the demo query at its purpose's HOT_TYPES
    entry), so every seed's hot set does about the same work; fresh
    texts vary the row target by one either way.
    """

    def __init__(self, data: dict[str, list]):
        patients = data["patient"]
        visits = data["visit"]
        age_of = {p[0]: p[2] for p in patients}
        type_of = {m[0]: m[3] for m in data["medicine"]}
        visit_of = {v[0]: v for v in visits}
        self.names = sorted({p[1] for p in patients})
        # Small scales lack some rare purposes: the rarest present stand in.
        counts = collections.Counter(v[2] for v in visits)
        self.purposes = [p for p in RARE_PURPOSES if counts[p]]
        self.purposes += sorted(
            (p for p in counts if p not in self.purposes),
            key=lambda p: (counts[p], p),
        )[: len(RARE_PURPOSES) - len(self.purposes)]
        self.dates: dict[str, list] = {p: [] for p in self.purposes}
        self.ages: dict[str, list] = {p: [] for p in self.purposes}
        for _vis_id, date, purpose, _doc_id, pat_id in visits:
            if purpose in self.dates:
                self.dates[purpose].append(date)
                self.ages[purpose].append(age_of[pat_id])
        demo_dates: dict[tuple, list] = {}
        for pre in data["prescription"]:
            visit = visit_of[pre[5]]
            if visit[2] in self.dates:
                demo_dates.setdefault((visit[2], type_of[pre[4]]), []).append(
                    visit[1]
                )
        # Pairs too rare to leave TARGET_ROWS above a cut are skipped,
        # unless (at small scales) no pair is that common.
        self.demo_dates = {
            key: dates
            for key, dates in demo_dates.items()
            if len(dates) >= 2 * TARGET_ROWS
        } or demo_dates
        for values in (
            *self.dates.values(), *self.ages.values(), *self.demo_dates.values()
        ):
            values.sort(reverse=True)
        self.shapes = (self.name_eq, self.purpose_recent, self.demo, self.subtree)

    @staticmethod
    def _rows(rng: random.Random, hot: bool) -> int:
        return TARGET_ROWS if hot else rng.randint(TARGET_ROWS - 1, TARGET_ROWS + 1)

    def name_eq(self, rng: random.Random, purpose: str, hot: bool) -> str:
        name = rng.choice(self.names)
        return (
            "SELECT Pat.PatID, Pat.Age, Pat.Country FROM Patient Pat "
            f"WHERE Pat.Name = '{name}'"
        )

    def purpose_recent(self, rng: random.Random, purpose: str, hot: bool) -> str:
        cut = _below(self.dates[purpose], self._rows(rng, hot))
        return (
            "SELECT Vis.VisID, Vis.Date FROM Visit Vis "
            f"WHERE Vis.Purpose = '{purpose}' "
            f"AND Vis.Date > DATE '{cut.isoformat()}'"
        )

    def demo(self, rng: random.Random, purpose: str, hot: bool) -> str:
        keys = sorted(k for k in self.demo_dates if k[0] == purpose)
        keys = keys or sorted(self.demo_dates)
        if hot:
            key = (purpose, HOT_TYPES[self.purposes.index(purpose)])
            if key not in self.demo_dates:
                # Small scales lack some pairs: the most common stands in.
                key = max(keys, key=lambda k: len(self.demo_dates[k]))
        else:
            key = rng.choice(keys)
        cut = _below(self.demo_dates[key], self._rows(rng, hot))
        return " ".join(demo_query(cut, key[0], key[1]).split())

    def subtree(self, rng: random.Random, purpose: str, hot: bool) -> str:
        age = _below(self.ages[purpose], self._rows(rng, hot))
        return (
            "SELECT Vis.Date, Pat.Age FROM Visit Vis, Patient Pat "
            f"WHERE Vis.Purpose = '{purpose}' AND Pat.Age > {age} "
            "AND Vis.PatID = Pat.PatID"
        )

    def streams(self, rng: random.Random) -> tuple[list, object]:
        """``(hot set, endless stream)``: shapes in rotation, HOT_SHARE of
        the statements repeats of the hot set, the rest fresh texts."""
        hot = [
            [shape(rng, purpose, True) for purpose in self.purposes]
            for shape in self.shapes
        ]

        def stream():
            for i in itertools.count():
                k = i % len(self.shapes)
                if rng.random() < HOT_SHARE:
                    sql = rng.choice(hot[k])
                else:
                    sql = self.shapes[k](rng, rng.choice(self.purposes), False)
                yield ("select", sql)

        return [("select", sql) for texts in hot for sql in texts], stream()


def _scan_stream(data: dict[str, list], rng: random.Random):
    """Endless distinct scan queries in :data:`SCAN_SHAPES` shapes, in
    rotation.

    Five shapes, not four: each takes a fifth of the statements and
    their costs differ several-fold, so the median statement falls
    inside one shape's cluster of latencies rather than on the gap
    between two, where it would jump from run to run.
    """
    n = len(data["prescription"])
    n_meds = len(data["medicine"])
    dates = DatasetConfig()
    span = (dates.date_end - dates.date_start).days

    def window(column: str, share: float) -> str:
        """A date range over ``share`` of the generated dates, which are
        uniform: its start varies, the number of rows it selects hardly
        does, so the shape's cost stays the same from seed to seed."""
        days = round(span * share)
        start = dates.date_start + datetime.timedelta(days=rng.randrange(span - days))
        end = start + datetime.timedelta(days=days)
        return f"{column} BETWEEN DATE '{start.isoformat()}' AND DATE '{end.isoformat()}'"

    def quantity_range() -> str:
        low = rng.randint(3, 5)
        return (
            "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
            f"WHERE Pre.Quantity BETWEEN {low} AND {low + 2} "
            f"AND Pre.PreID <= {rng.randint(n * 19 // 20, n)}"
        )

    shapes = (
        quantity_range,
        lambda: (
            "SELECT Pre.Quantity, Pat.Age "
            "FROM Prescription Pre, Visit Vis, Patient Pat "
            f"WHERE Pat.BodyMassIndex > {rng.uniform(32.9, 33.1):.3f} "
            "AND Pre.VisID = Vis.VisID AND Vis.PatID = Pat.PatID"
        ),
        lambda: (
            "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) "
            "FROM Prescription Pre, Visit Vis "
            "WHERE Vis.VisID = Pre.VisID "
            f"AND {window('Vis.Date', 0.4)} "
            "GROUP BY Vis.Purpose"
        ),
        lambda: (
            "SELECT Med.Name, Pre.Quantity FROM Medicine Med, Prescription Pre "
            f"WHERE Med.Type = '{rng.choice(('Statin', 'Antibiotic'))}' "
            f"AND Med.MedID > {rng.randrange(n_meds // 4)} "
            "AND Med.MedID = Pre.MedID"
        ),
        lambda: (
            "SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre "
            f"WHERE {window('Pre.WhenWritten', 0.1)}"
        ),
    )
    seen: set[str] = set()
    for i in itertools.count():
        shape = shapes[i % len(shapes)]
        for _ in range(SCAN_DRAWS):
            sql = shape()
            if sql not in seen:
                break
        else:
            raise RuntimeError(f"olap-scan has no distinct text left after {i} statements")
        seen.add(sql)
        yield ("select", sql)


def _round_trip(rng: random.Random) -> list:
    """Park one quantity's rows under PARKED_QUANTITY and put them back."""
    q = rng.randint(1, 10)
    return [
        (
            "dml",
            f"UPDATE Prescription SET Quantity = {PARKED_QUANTITY} "
            f"WHERE Quantity = {q}",
        ),
        (
            "dml",
            f"UPDATE Prescription SET Quantity = {q} "
            f"WHERE Quantity = {PARKED_QUANTITY}",
        ),
    ]


def _write_cycles(data: dict[str, list], rng: random.Random):
    """Endless write cycles over ``Prescription``."""
    meds = [m[0] for m in data["medicine"]]
    visits = [v[0] for v in data["visit"]]
    max_pk = data["prescription"][-1][0]
    first_day = datetime.date(2007, 7, 1)
    while True:
        for _ in range(UPDATE_ROUND_TRIPS):
            yield from _round_trip(rng)
        rows = [
            (
                max_pk + 1 + k,
                rng.randint(1, 10),
                rng.choice(vocab.FREQUENCIES),
                first_day + datetime.timedelta(days=rng.randrange(180)),
                rng.choice(meds),
                rng.choice(visits),
            )
            for k in range(APPEND_ROWS)
        ]
        yield ("append", "Prescription", rows)
        yield ("dml", f"DELETE FROM Prescription WHERE PreID > {max_pk}")


def build(workload: str, data: dict[str, list], seed: int, stream: int = 0):
    """``(warm-up statements, endless statement iterator)`` for one
    client stream of ``workload``.

    The warm-up is the stream's distinct hot statements (for the scan
    workload, one statement per shape from a separate random source;
    for write-mix, also the flash-filling round trips).  It leaves the
    data as it found it, so the host reference copy stays valid.
    """
    rng = random.Random(f"e2e:{workload}:{seed}:{stream}")
    if workload in ("point-lookup", "serve-2conn"):
        return PointLookups(data).streams(rng)
    if workload == "olap-scan":
        warm = _scan_stream(data, random.Random(f"e2e:warm:{seed}"))
        return list(itertools.islice(warm, SCAN_SHAPES)), _scan_stream(data, rng)
    if workload == "write-mix":
        hot, reads = PointLookups(data).streams(random.Random(rng.random()))
        # UPDATE round trips leave the data as they found it, so they
        # can fill the small flash before timing: the timed loop then
        # starts with the FTL already garbage-collecting.
        fill_rng = random.Random(f"e2e:fill:{seed}")
        fill = [
            write
            for _ in range(PRECONDITION_ROUND_TRIPS)
            for write in _round_trip(fill_rng)
        ]

        def mixed():
            for write in _write_cycles(data, rng):
                yield write
                yield from itertools.islice(reads, READS_PER_WRITE)

        return hot + fill, mixed()
    raise ValueError(f"unknown workload {workload!r}")
