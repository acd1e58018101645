"""The one sorted merge against the merge loops and ladders it replaced.

Every sorted merge on the device goes through
:func:`repro.storage.runs.merge_sorted`, and every multi-pass ladder
through :func:`repro.storage.runs.merge_runs`.  They replaced three
hand-rolled heap loops (the posting union's ``_heap_merge``, the run
merger's group merge and the ``MergeUnion`` operator's) and two ladders
(the posting union's run-to-run passes and ``RunMerger``).  The
references below are those loops and ladders, and the Aggregate/OrderBy
spill code that called them.  The device must not tell the two apart:
the same rows or typed error, the same counters, fault-injector
position and flight journal -- also under faults and when a power cut
lands inside a spill ladder.

The posting union's run-to-run passes differ in two ways: they
allocate as ``merge-in:``/``merge-out:`` (they were ``convert-merge:``/
``convert-spill:``, which its first and last passes keep), and they
open their readers before their writer, as the run merger did.  A label
shows only in ``ram_pressure``/``ram_exhausted`` flight events, so the
reference below carries the new labels in those passes; the open order
changes no count or journal here.

CI's chaos job runs this file with the other fixed-seed fault tests.
"""

from __future__ import annotations

import heapq
import pickle
from contextlib import ExitStack

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.engine.operators import climbing_select, convert
from repro.engine.operators import rows as rows_module
from repro.engine.operators.base import PlanExecutionError
from repro.engine.operators.rows import AggregateOp, OrderByOp, _Accumulator
from repro.faults import GhostDBFaultError
from repro.hardware.ram import RamExhaustedError
from repro.index import posting
from repro.optimizer.space import Strategy
from repro.storage.pagestore import PageReader, PageWriter
from repro.storage.record import RecordCodec
from repro.storage.runs import make_runs, merge_runs, merge_sorted

from tests.conftest import build_demo_session

# ---------------------------------------------------------------------------
# The reference merge loops and ladders.
# ---------------------------------------------------------------------------


def reference_merge_posting_streams(
    device, open_stream_factories, label, fan_in, dedup=True
):
    """The posting union with its own heap loop and run ladder."""
    if fan_in < 2:
        raise ValueError("fan-in must be at least 2")
    factories = list(open_stream_factories)
    if not factories:
        return
    if len(factories) <= fan_in:
        yield from _heap_merge(device, factories, dedup)
        return
    live = []

    def merge_into_run(stream_factories, spill_label):
        with PageWriter(device, ID_WIDTH, spill_label) as writer:
            for value in _heap_merge(device, stream_factories, dedup):
                writer.append(ID_STRUCT.pack(value))
        live.append(writer.extent)
        return writer.extent

    try:
        level = []
        for start in range(0, len(factories), fan_in):
            level.append(
                merge_into_run(
                    factories[start : start + fan_in], f"convert-spill:{label}"
                )
            )
        while len(level) > fan_in:
            next_level = []
            for start in range(0, len(level), fan_in):
                group = level[start : start + fan_in]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                factories_r = [
                    _run_stream_factory(device, run, f"merge-in:{label}")
                    for run in group
                ]
                next_level.append(
                    merge_into_run(factories_r, f"merge-out:{label}")
                )
                for run in group:
                    run.free(device.ftl)
                    live.remove(run)
            level = next_level
        factories_r = [
            _run_stream_factory(device, run, f"convert-merge:{label}")
            for run in level
        ]
        yield from _heap_merge(device, factories_r, dedup)
    finally:
        for run in live:
            run.free(device.ftl)


def _run_stream_factory(device, run, reader_label):
    def open_stream():
        reader = PageReader(device, run, reader_label)
        iterator = (ID_STRUCT.unpack(raw)[0] for raw in reader.scan())
        return iterator, reader.close

    return open_stream


def _heap_merge(device, factories, dedup):
    streams = []
    closers = []
    try:
        for factory in factories:
            iterator, closer = factory()
            streams.append(iterator)
            closers.append(closer)
        yield from _heap_merge_loop(device.chip, streams, dedup)
    finally:
        for closer in closers:
            closer()


def _heap_merge_loop(chip, streams, dedup):
    """The posting union's loop (and ``MergeUnion``'s, with dedup)."""
    heap = []
    for idx, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            heap.append((first, idx))
    heapq.heapify(heap)
    last = None
    while heap:
        value, idx = heapq.heappop(heap)
        chip.charge("merge_step")
        if not (dedup and value == last):
            yield value
            last = value
        nxt = next(streams[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt, idx))


def _run_merge_loop(chip, streams, key, dedup):
    """The run merger's group loop."""
    heap = []
    for idx, stream in enumerate(streams):
        raw = next(stream, None)
        if raw is not None:
            heapq.heappush(heap, (key(raw), idx, raw))
    last_key = None
    while heap:
        k, idx, raw = heapq.heappop(heap)
        chip.charge("merge_step")
        if not (dedup and k == last_key):
            yield raw
            last_key = k
        nxt = next(streams[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (key(nxt), idx, nxt))


def reference_external_merge(device, runs, key, label, fan_in):
    """``RunMerger.merge``: one sorted run, multi-pass if needed."""
    ftl = device.ftl
    if not runs:
        return PageWriter(device, 1, f"merge:{label}").close()
    next_level = []
    try:
        while len(runs) > 1:
            next_level = []
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                merged = _merge_group(device, group, key, label)
                for run in group:
                    run.free(ftl)
                next_level.append(merged)
            runs = next_level
    except BaseException:
        for run in (*runs, *next_level):
            run.free(ftl)
        raise
    return runs[0]


def _merge_group(device, group, key, label):
    with ExitStack() as stack:
        readers = [
            stack.enter_context(PageReader(device, run, f"merge-in:{label}"))
            for run in group
        ]
        writer = stack.enter_context(
            PageWriter(device, group[0].record_width, f"merge-out:{label}")
        )
        streams = [r.scan() for r in readers]
        for raw in _run_merge_loop(device.chip, streams, key, False):
            writer.append(raw)
    return writer.extent


def _sort_buffer(device, codec):
    return max(
        codec.width * 4,
        min(device.ram.soft_available // 2, 8 * device.profile.page_size),
    )


class ReferenceAggregateOp(AggregateOp):
    """The spill path with its own sort, merge and read-back."""

    def _sorted_aggregate(self):
        device = self.ctx.device
        codec = RecordCodec(self.input_dtypes)
        key_slices = [codec.field_slice(i) for i in self.group_indexes]

        def sort_key(raw):
            return b"".join(raw[off : off + width] for off, width in key_slices)

        fresh = self.child.rows()
        runs = make_runs(
            device,
            (codec.encode(row) for row in fresh),
            codec.width,
            key=sort_key,
            sort_buffer_bytes=_sort_buffer(device, codec),
            label="aggregate-spill",
        )
        merged = reference_external_merge(
            device, runs, sort_key, "aggregate-spill", self.ctx.fan_in()
        )
        current_key = None
        acc = None
        try:
            with PageReader(device, merged, "aggregate-read") as reader:
                for raw in reader.scan():
                    row = codec.decode(raw)
                    device.chip.charge("decode_field", len(row))
                    key = tuple(row[i] for i in self.group_indexes)
                    if key != current_key:
                        if acc is not None and self._passes_having(
                            current_key, acc
                        ):
                            yield self._emit(current_key, acc)
                        current_key = key
                        acc = _Accumulator(len(self.aggregates))
                    acc.feed(self.aggregates, row)
                if acc is not None and self._passes_having(current_key, acc):
                    yield self._emit(current_key, acc)
        finally:
            merged.free(device.ftl)


class ReferenceOrderByOp(OrderByOp):
    """The external sort with its own merge and read-back."""

    def _produce(self):
        device = self.ctx.device
        codec = RecordCodec(self.row_dtypes)
        slices = [
            (codec.field_slice(i), ascending) for i, ascending in self.keys
        ]

        def sort_key(raw):
            parts = []
            for (off, width), ascending in slices:
                chunk = raw[off : off + width]
                if not ascending:
                    chunk = bytes(255 - b for b in chunk)
                parts.append(chunk)
            return b"".join(parts)

        sort_buffer = _sort_buffer(device, codec)
        self.reserve(sort_buffer)
        runs = make_runs(
            device,
            (codec.encode(row) for row in self.child.rows()),
            codec.width,
            key=sort_key,
            sort_buffer_bytes=sort_buffer,
            label="order-by",
        )
        merged = reference_external_merge(
            device, runs, sort_key, "order-by", self.ctx.fan_in()
        )
        try:
            with PageReader(device, merged, "order-by-read") as reader:
                for raw in reader.scan():
                    device.chip.charge("decode_field", codec.arity)
                    yield codec.decode(raw)
        finally:
            merged.free(device.ftl)


def use_reference(monkeypatch) -> None:
    """Route every merge of the engine through the reference code."""
    for module in (climbing_select, convert):
        monkeypatch.setattr(
            module, "merge_posting_streams", reference_merge_posting_streams
        )
    monkeypatch.setattr(rows_module, "AggregateOp", ReferenceAggregateOp)
    monkeypatch.setattr(rows_module, "OrderByOp", ReferenceOrderByOp)


# ---------------------------------------------------------------------------
# Statements, sessions and fault profiles.
# ---------------------------------------------------------------------------

#: A wide hidden date range: hundreds of posting lists, unioned through
#: a multi-pass spill ladder in every session.
RANGE = (
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
    "WHERE Pre.WhenWritten BETWEEN DATE '2005-01-01' AND DATE '2007-12-31'"
)
#: A hidden float range climbed two levels to Prescription.
DEEP = (
    "SELECT Pre.Quantity, Pat.Age "
    "FROM Prescription Pre, Visit Vis, Patient Pat "
    "WHERE Pat.BodyMassIndex > 20.0 "
    "AND Pre.VisID = Vis.VisID AND Vis.PatID = Pat.PatID"
)
#: Run under the Pre strategy: the visible Visit IDs are converted to
#: Prescription IDs, one posting list per incoming ID.
CONVERT = (
    "SELECT Pre.Quantity, Vis.Date FROM Prescription Pre, Visit Vis "
    "WHERE Vis.Date > DATE '2005-06-01' AND Vis.VisID = Pre.VisID"
)
#: Two merge passes in the 10 KiB lease.
ORDER_BY = "SELECT Pre.PreID FROM Prescription Pre ORDER BY Pre.PreID DESC"
#: Wider rows: in the 10 KiB lease the sort buffer shrinks to leave
#: the run writer its page.
ORDER_BY_WIDE = (
    "SELECT Pre.PreID, Pre.Quantity, Pre.WhenWritten FROM Prescription Pre "
    "ORDER BY Pre.WhenWritten DESC, Pre.PreID"
)
#: No rows: no run to merge.
ORDER_BY_EMPTY = (
    "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity = 424242 "
    "ORDER BY Pre.PreID"
)
#: Spills in the leases (through a shrunk sort buffer in the 10 KiB one).
GROUP_BY = (
    "SELECT Pre.VisID, COUNT(*), SUM(Pre.Quantity) "
    "FROM Prescription Pre GROUP BY Pre.VisID"
)
#: A group per row: spills in every session, two passes in 10 KiB.
GROUP_BY_KEY = (
    "SELECT Pre.PreID, COUNT(*) FROM Prescription Pre GROUP BY Pre.PreID"
)
STATEMENTS = (
    RANGE, DEEP, CONVERT, ORDER_BY, ORDER_BY_WIDE, ORDER_BY_EMPTY,
    GROUP_BY, GROUP_BY_KEY,
)
#: ``None`` is the default session; the others are leases of that size.
SESSIONS = (None, 16 * 1024, 10 * 1024)
FAULTS = ((None, 0), ("flash", 3), ("mixed", 7))
#: Scheduled power cuts per ladder, as fractions of its flash operations.
CUT_FRACTIONS = (0.1, 0.35, 0.6, 0.85)


@pytest.fixture(scope="module")
def loaded(demo_data) -> bytes:
    """A loaded demo session, pickled: every run starts from a copy."""
    return pickle.dumps(build_demo_session(demo_data))


def _open(loaded: bytes, ram_bytes):
    db = pickle.loads(loaded)
    ctx = db if ram_bytes is None else db.open_session("merges", ram_bytes)
    return db, ctx


def _statement(db, ctx, sql: str) -> tuple:
    """One statement from zeroed measurements: its rows or typed error,
    its counters and the fault injector's flash-op position."""
    ctx.reset_measurements()
    try:
        if sql == CONVERT:
            result = ctx.query_with_strategy(
                sql, Strategy.all_pre(ctx.bind(sql))
            )
        else:
            result = ctx.query(sql)
        outcome = ("rows", result.rows)
    except (GhostDBFaultError, PlanExecutionError, RamExhaustedError) as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    injector = db.fault_injector
    observed = (
        outcome,
        ctx.device.counters(),
        injector.flash_ops if injector else None,
    )
    if db.needs_remount:
        db.remount()
    return observed


def _run(monkeypatch, reference: bool, loaded, ram_bytes, fault, seed):
    if reference:
        use_reference(monkeypatch)
    db, ctx = _open(loaded, ram_bytes)
    if fault is not None:
        db.set_faults(fault, seed)
    outcomes = [_statement(db, ctx, sql) for sql in STATEMENTS]
    monkeypatch.undo()
    return outcomes, db.obs.flight.signature()


def _ladders(monkeypatch, probe):
    """Record each ``merge_runs`` call: ``probe()`` at entry and exit,
    and the call's shape."""
    calls = []

    def recording(device, runs, label, fan_in, key=None, dedup=False, until=1):
        entry = probe()
        shape = (len(runs), fan_in, dedup, until)
        merged = merge_runs(device, runs, label, fan_in, key, dedup, until)
        calls.append((shape, entry, probe()))
        return merged

    for module in (posting, rows_module):
        monkeypatch.setattr(module, "merge_runs", recording)
    return calls


def _power_cuts(monkeypatch, reference: bool, loaded, ram_bytes, sql, cuts):
    """``sql`` cut at each scheduled flash operation, then re-run on
    the remounted device."""
    if reference:
        use_reference(monkeypatch)
    db, ctx = _open(loaded, ram_bytes)
    outcomes = []
    for cut in cuts:
        injector = db.set_faults("none")
        injector.schedule_power_cut(cut)
        outcomes.append(_statement(db, ctx, sql))
        db.set_faults("none")
        outcomes.append(_statement(db, ctx, sql))
    monkeypatch.undo()
    return outcomes, db.obs.flight.signature()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_the_statements_cover_every_merge_path(monkeypatch, loaded):
    """Multi-pass posting ladders, multi-pass sort merges, spilled
    GROUP BYs and an empty sort, across the sessions."""
    calls = _ladders(monkeypatch, lambda: None)
    seen = {}
    for ram_bytes in SESSIONS:
        db, ctx = _open(loaded, ram_bytes)
        for sql in STATEMENTS:
            del calls[:]
            outcome = _statement(db, ctx, sql)[0][0]
            seen[ram_bytes, sql] = outcome, [shape for shape, *_ in calls]
    for ram_bytes in SESSIONS:
        outcome, [(runs, fan_in, dedup, until)] = seen[ram_bytes, RANGE]
        assert outcome == "rows" and dedup and runs > until == fan_in
        assert seen[ram_bytes, GROUP_BY_KEY][1]  # the spill sorted
        outcome, [(runs, *_)] = seen[ram_bytes, ORDER_BY_EMPTY]
        assert outcome == "rows" and runs == 0
    lease = 10 * 1024
    [(runs, fan_in, dedup, _)] = seen[lease, CONVERT][1]
    assert dedup and runs > fan_in
    [(runs, fan_in, _, until)] = seen[lease, ORDER_BY][1]
    assert until == 1 and runs > fan_in  # two passes or more
    assert seen[16 * 1024, GROUP_BY][1]
    assert seen[lease, ORDER_BY_WIDE][0] == "rows"
    assert seen[lease, GROUP_BY][0] == "rows" and seen[lease, GROUP_BY][1]


def test_sorts_in_a_small_lease_answer_like_the_default_session(loaded):
    """The sort buffer is sized before the child pipeline opens its
    readers; in a 10 KiB lease it shrinks so the run writer still gets
    its page, and both sorts answer with the default session's rows."""
    db, lease = _open(loaded, 10 * 1024)
    for sql in (ORDER_BY_WIDE, GROUP_BY):
        assert lease.query(sql).rows == db.query(sql).rows
    assert lease.lease.firm_ram_used == 0
    assert db.device.ftl.mapped_lpages() == db.hidden.referenced_pages()


@pytest.mark.parametrize(
    "ram_bytes, declared",
    [(None, 16384), (16 * 1024, 8192), (12 * 1024, 6144), (10 * 1024, 4080)],
)
def test_a_sort_declares_the_buffer_it_kept(loaded, ram_bytes, declared):
    """The order-by node's reservation is the sort buffer it held: the
    request where nothing shrinks, and in the 10 KiB lease the 340
    12-byte rows the buffer shrank to for the run writer's page (it
    asked for 5,120 B)."""
    db, ctx = _open(loaded, ram_bytes)
    result = ctx.query(ORDER_BY_WIDE)
    assert result.measured[id(result.plan)].ram_bytes == declared


@pytest.mark.parametrize("fault,seed", FAULTS)
@pytest.mark.parametrize("ram_bytes", SESSIONS, ids=["default", "16k", "10k"])
def test_merges_match_the_reference(
    monkeypatch, loaded, ram_bytes, fault, seed
):
    reference = _run(monkeypatch, True, loaded, ram_bytes, fault, seed)
    merged = _run(monkeypatch, False, loaded, ram_bytes, fault, seed)
    assert merged[0] == reference[0]
    assert merged[1] == reference[1]


@pytest.mark.parametrize(
    "ram_bytes, sql",
    [(10 * 1024, RANGE), (10 * 1024, ORDER_BY), (16 * 1024, GROUP_BY_KEY)],
    ids=["posting-ladder", "sort-ladder", "group-by-spill"],
)
def test_power_cuts_inside_a_ladder_match_the_reference(
    monkeypatch, loaded, ram_bytes, sql
):
    """Cut the power at flash operations inside the statement's spill
    ladder: the same typed error at the same point, the same recovery
    and the same rows on the re-run."""
    db, ctx = _open(loaded, ram_bytes)
    injector = db.set_faults("none")
    calls = _ladders(monkeypatch, lambda: injector.flash_ops)
    assert _statement(db, ctx, sql)[0][0] == "rows"
    monkeypatch.undo()
    [(_, entry, exit_)] = calls
    assert exit_ - entry >= len(CUT_FRACTIONS)
    cuts = [entry + int((exit_ - entry) * f) for f in CUT_FRACTIONS]
    reference = _power_cuts(monkeypatch, True, loaded, ram_bytes, sql, cuts)
    merged = _power_cuts(monkeypatch, False, loaded, ram_bytes, sql, cuts)
    outcomes = [outcome[0] for outcome, *_ in reference[0]]
    assert outcomes == ["error", "rows"] * len(cuts)
    assert merged == reference


# ---------------------------------------------------------------------------
# merge_sorted against the old loops, item by item.
# ---------------------------------------------------------------------------


class _Logged:
    """A stream that journals every advance (the exhausting one too)."""

    def __init__(self, index: int, items, log: list):
        self.index, self.items, self.log = index, iter(items), log

    def __iter__(self):
        return self

    def __next__(self):
        self.log.append(("advance", self.index))
        return next(self.items)


class _LoggedChip:
    def __init__(self, log: list):
        self.log = log

    def charge(self, op: str, count: int = 1) -> None:
        self.log.append(("charge", op, count))


def _journal(merge, lists) -> list:
    """Advances, charges and items taken, in the order they happen."""
    log: list = []
    streams = [_Logged(i, items, log) for i, items in enumerate(lists)]
    for item in merge(_LoggedChip(log), streams):
        log.append(("take", item))
    return log


#: Sorted lists with duplicates inside a list and across lists.
SORTED_LISTS = st.lists(
    st.lists(st.integers(0, 12), max_size=12).map(sorted), max_size=6
)


@settings(max_examples=150, deadline=None)
@given(lists=SORTED_LISTS, dedup=st.booleans())
def test_merge_sorted_replays_the_id_loop(lists, dedup):
    """The posting union's loop: same items, charges and advances."""
    expected = _journal(
        lambda chip, streams: _heap_merge_loop(chip, streams, dedup), lists
    )
    got = _journal(
        lambda chip, streams: merge_sorted(chip, streams, dedup=dedup), lists
    )
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(lists=SORTED_LISTS, dedup=st.booleans())
def test_merge_sorted_replays_the_keyed_run_loop(lists, dedup):
    """The run merger's loop over records whose keys tie: equal keys
    leave in stream order, and with dedup the first one stays."""
    records = [
        [(value, i, j) for j, value in enumerate(items)]
        for i, items in enumerate(lists)
    ]

    def key(record):
        return record[0]

    expected = _journal(
        lambda chip, streams: _run_merge_loop(chip, streams, key, dedup),
        records,
    )
    got = _journal(
        lambda chip, streams: merge_sorted(chip, streams, key, dedup), records
    )
    assert got == expected
