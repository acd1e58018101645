"""The link protocol: traffic shape, batching, timing, fault handling."""

import datetime
import json

import pytest

from repro.columns import ID_WIDTH
from repro.faults import FaultProfile, UsbTransferError
from repro.faults.injector import FaultDecision
from repro.hardware.usb import Direction
from repro.visible.frame import (
    FRAME_OVERHEAD,
    FrameError,
    parse_request,
    payload_of,
    unframe,
)
from repro.visible.link import (
    DeviceLink,
    Fetch,
    batch_sizes,
    decode_value,
    encode_value,
)
from repro.workload.queries import demo_query


@pytest.fixture
def session(fresh_session):
    fresh_session.reset_measurements()
    return fresh_session


def date_pred(session, cutoff):
    return session.bind(
        f"SELECT Date FROM Visit WHERE Date > DATE '{cutoff}'"
    ).predicates[0]


class TestWireEncoding:
    def test_dates_marked(self):
        wire = encode_value(datetime.date(2006, 11, 5))
        assert wire == {"__date__": "2006-11-05"}
        assert decode_value(wire) == datetime.date(2006, 11, 5)

    def test_scalars_pass_through(self):
        for value in (5, 2.5, "text", None):
            assert decode_value(encode_value(value)) == value


@pytest.mark.parametrize(
    "ram_bytes, expected",
    [
        (0, (32, 8)),
        (4 * 1024, (32, 8)),
        (8 * 1024 + 256, (33, 16)),
        (10 * 1024, (40, 20)),
        (16 * 1024, (64, 32)),
        (64 * 1024 - 1, (255, 127)),
        (64 * 1024, (256, 128)),
        (1 << 20, (256, 128)),
    ],
)
def test_batch_sizes_scale_with_ram_between_floor_and_cap(ram_bytes, expected):
    """One ID per 256 B of RAM (at least 32, at most 256), one fetch
    row per 512 B (at least 8, at most 128)."""
    assert batch_sizes(ram_bytes) == expected


class TestSelectIds:
    def test_stream_is_sorted_and_complete(self, session):
        pred = date_pred(session, "2006-06-01")
        got = list(session.link.select_ids("visit", pred))
        expected = session.site.select_ids("visit", pred)
        assert got == expected
        assert got == sorted(got)

    def test_request_crosses_to_host_first(self, session):
        pred = date_pred(session, "2006-06-01")
        list(session.link.select_ids("visit", pred))
        log = session.usb_log
        assert log[0].direction is Direction.TO_HOST
        assert log[0].kind == "request"
        body = json.loads(payload_of(log[0].payload))
        assert body["op"] == "select_ids"
        assert body["predicate"]["column"] == "date"

    def test_ids_batched(self, session):
        # Matches nearly all 2000 prescriptions: several 256-ID batches.
        pred = session.bind(
            "SELECT Frequency FROM Prescription WHERE Frequency <> 'nope'"
        ).predicates[0]
        expected = session.site.select_ids("prescription", pred)
        got = list(session.link.select_ids("prescription", pred))
        assert got == expected
        batches = [r for r in session.usb_log if r.kind == "ids"]
        assert len(batches) > 1
        assert all(
            r.size <= session.link.id_batch * 4 + FRAME_OVERHEAD
            for r in batches
        )

    def test_end_marker_sent(self, session):
        """The stream ends on a batch shorter than ``id_batch``."""
        pred = date_pred(session, "2006-06-01")
        expected = session.site.select_ids("visit", pred)
        list(session.link.select_ids("visit", pred))
        kinds = [r.kind for r in session.usb_log]
        assert kinds[-1] == "ids"
        last = payload_of(session.usb_log[-1].payload)
        assert len(last) // ID_WIDTH == len(expected) % session.link.id_batch
        assert len(last) // ID_WIDTH < session.link.id_batch

    def test_usb_time_charged(self, session):
        pred = date_pred(session, "2006-06-01")
        t0 = session.device.clock.breakdown().usb
        list(session.link.select_ids("visit", pred))
        assert session.device.clock.breakdown().usb > t0


def fetch(session, table, pks, columns, recheck=()):
    """One table's values through the link's fetch round."""
    (got,) = session.link.fetch_values([Fetch(table, pks, columns, recheck)])
    return got


class TestFetchValues:
    def test_values_roundtrip(self, session):
        got = fetch(session, "visit", [1, 2, 3], ["date"])
        raw = {
            pk: (row[1],)
            for pk, row in zip(
                [1, 2, 3],
                [session.site._tables["visit"].rows[i] for i in (1, 2, 3)],
            )
        }
        assert got == {pk: raw[pk] for pk in got}
        assert set(got) == {1, 2, 3}

    def test_fetch_batches(self, session):
        pks = list(range(1, 300))
        fetch(session, "visit", pks, ["date"])
        headers = [
            r for r in session.usb_log
            if r.kind == "request" and b"fetch_values" in r.payload
        ]
        assert len(headers) == 3  # 128 + 128 + 43

    def test_requested_ids_visible_on_wire(self, session):
        """The accepted revelation: the spy sees which IDs were fetched."""
        fetch(session, "visit", [7, 9], ["date"])
        requests = [r for r in session.usb_log if r.kind == "request"]
        assert len(requests) == 1
        payload = payload_of(requests[0].payload)
        assert payload.endswith(
            b"\n" + (7).to_bytes(4, "big") + (9).to_bytes(4, "big")
        )
        ((body, ids),) = parse_request(payload)
        assert body["table"] == "visit"
        assert ids == [7, 9]

    def test_recheck_drops_failing_ids(self, session):
        pred = date_pred(session, "2006-06-01")
        all_ids = [1, 2, 3, 4, 5]
        got = fetch(session, "visit", all_ids, ["date"], recheck=[pred])
        for pk, (date,) in got.items():
            assert date > datetime.date(2006, 6, 1)

    def test_corruption_retried_transparently(self, session):
        """A corrupted frame fails its CRC and is retransmitted; the
        caller sees correct data plus a retry counted in metrics.  The
        seed is the first from 0 that corrupts a frame of this fetch at
        50%, so the test keeps exercising a retry whatever the length
        of the fetch's traffic."""
        profile = FaultProfile(name="some-corrupt", usb_corrupt_rate=0.5)
        for seed in range(16):
            session.reset_measurements()
            session.set_faults(profile, seed=seed)
            try:
                got = fetch(session, "visit", [1, 2, 3], ["date"])
            finally:
                session.clear_faults()
            mangled = [r for r in session.usb_log if "corrupt" in r.faults]
            if mangled:
                break
        assert set(got) == {1, 2, 3}
        assert mangled, "some seed below 16 at 50% corrupts a frame"
        retries = session.obs.registry.counter("ghostdb_usb_retries_total")
        assert retries.value(reason="corrupt") == len(mangled)

    def test_unrecoverable_corruption_raises_typed_error(self, session):
        """When every attempt is mangled, the bounded retry budget runs
        out and the transfer fails with a typed GhostDB error -- never
        silently wrong data."""
        profile = FaultProfile(name="all-corrupt", usb_corrupt_rate=1.0)
        session.set_faults(profile, seed=0)
        try:
            with pytest.raises(UsbTransferError, match="retries"):
                fetch(session, "visit", [1], ["date"])
        finally:
            session.clear_faults()
        # The device is still consistent: the next query works.
        got = fetch(session, "visit", [1], ["date"])
        assert set(got) == {1}

    def test_one_round_serves_every_table(self, session):
        """Two tables, one request and one ``values`` reply; the reply
        is a list of per-table maps in request order."""
        got = session.link.fetch_values(
            [
                Fetch("visit", [1, 2], ["date"]),
                Fetch("patient", [3], ["age", "country"]),
            ]
        )
        assert [r.kind for r in session.usb_log] == ["request", "values"]
        rows = session.site._tables
        assert got[0] == {pk: (rows["visit"].rows[pk][1],) for pk in (1, 2)}
        assert set(got[1]) == {3}
        bodies = parse_request(payload_of(session.usb_log[0].payload))
        assert [(b["table"], ids) for b, ids in bodies] == [
            ("visit", [1, 2]), ("patient", [3]),
        ]
        reply = json.loads(payload_of(session.usb_log[1].payload))
        assert [set(m) for m in reply] == [{"1", "2"}, {"3"}]

    def test_rounds_split_at_fetch_batch_per_table(self, session):
        """A table with more than ``fetch_batch`` PKs spreads over
        rounds; a later round leaves out the tables already served."""
        batch = session.link.fetch_batch
        got = session.link.fetch_values(
            [
                Fetch("visit", list(range(1, batch + 2)), ["date"]),
                Fetch("patient", [1, 2], ["age"]),
            ]
        )
        requests = [
            parse_request(payload_of(r.payload))
            for r in session.usb_log if r.kind == "request"
        ]
        assert [[(b["table"], len(ids)) for b, ids in r] for r in requests] == [
            [("visit", batch), ("patient", 2)], [("visit", 1)],
        ]
        assert len(got[0]) == batch + 1 and set(got[1]) == {1, 2}

    def test_no_tables_no_traffic(self, session):
        assert session.link.fetch_values([]) == []
        assert session.usb_log == []


class _Site:
    """A visible site whose every selection matches exactly ``ids``."""

    def __init__(self, ids):
        self.ids = ids

    def select_ids(self, table, predicate):
        return list(self.ids)


class _FaultAt:
    """Injects one fault of ``kind`` on USB transfer number ``index``:
    a truncation drops the last ID (or half the frame header of an
    empty batch), a corruption flips the frame's last byte."""

    def __init__(self, kind, index):
        self.kind = kind
        self.index = index
        self.ops = 0

    def usb_decision(self, payload_len):
        index = self.ops
        self.ops += 1
        if index != self.index:
            return None
        return FaultDecision(
            self.kind, "usb", index,
            position=payload_len - 1, xor_mask=0xFF,
            length=max(payload_len - ID_WIDTH, FRAME_OVERHEAD // 2),
        )


ID_BATCH = 4


class TestIdStreamTerminator:
    """An ``ids`` batch shorter than ``id_batch`` ends its stream; after
    a full last batch an empty one follows."""

    @pytest.mark.parametrize(
        "n", [0, 1, ID_BATCH - 1, ID_BATCH, ID_BATCH + 1, 2 * ID_BATCH]
    )
    def test_device_receives_exactly_the_sites_ids(self, session, n):
        ids = list(range(10, 10 + n))
        link = DeviceLink(session.device, _Site(ids), id_batch=ID_BATCH)
        pred = date_pred(session, "2006-06-01")
        got = [
            pk for batch in link.select_id_batches("visit", pred)
            for pk in batch
        ]
        assert got == ids
        kinds = [r.kind for r in session.usb_log]
        assert kinds == ["request"] + ["ids"] * (1 + n // ID_BATCH)
        sizes = [len(payload_of(r.payload)) for r in session.usb_log[1:]]
        assert sizes[-1] == ID_WIDTH * (n % ID_BATCH)
        assert all(size == ID_WIDTH * ID_BATCH for size in sizes[:-1])

    @pytest.mark.parametrize("kind", ["truncate", "corrupt", "drop"])
    @pytest.mark.parametrize(
        "n, target",
        [
            (ID_BATCH, 1),          # the last (and only) full batch
            (ID_BATCH, 2),          # its empty terminator
            (2 * ID_BATCH, 2),      # the last of two full batches
            (2 * ID_BATCH, 3),      # their empty terminator
        ],
    )
    def test_fault_at_the_end_is_retransmitted(self, session, kind, n, target):
        """A mangled or lost frame at the end of a stream fails the
        frame's length or CRC check and is sent again: it is never read
        as an early end, and the stream still ends."""
        ids = list(range(10, 10 + n))
        link = DeviceLink(session.device, _Site(ids), id_batch=ID_BATCH)
        pred = date_pred(session, "2006-06-01")
        session.device.usb.faults = _FaultAt(kind, target)
        try:
            got = [
                pk for batch in link.select_id_batches("visit", pred)
                for pk in batch
            ]
        finally:
            session.device.usb.faults = None
        assert got == ids
        log = session.usb_log
        assert log[target].faults == (kind,)
        if kind != "drop":
            with pytest.raises(FrameError):
                unframe(log[target].payload)
        batch = ids[(target - 1) * ID_BATCH : target * ID_BATCH]
        assert unframe(log[target + 1].payload) == b"".join(
            pk.to_bytes(ID_WIDTH, "big") for pk in batch
        )
        assert [r.kind for r in log] == ["request"] + ["ids"] * (2 + n // ID_BATCH)
        assert unframe(log[-1].payload) == b""


def _frames(log):
    """Each message's kind; a request also lists its bodies' op and
    table."""
    out = []
    for record in log:
        if record.kind != "request":
            out.append(record.kind)
            continue
        bodies = parse_request(payload_of(record.payload))
        out.append(
            [
                (body["op"], body.get("table") or body["predicate"]["table"])
                for body, _ids in bodies
            ]
        )
    return out


class TestPointLookupFrames:
    """The frame sequence of each point-lookup shape of the end-to-end
    benchmark, at the test scale: one fetch round serves every table,
    and every ID stream fits in its one short batch."""

    @pytest.mark.parametrize(
        "sql, frames",
        [
            pytest.param(
                "SELECT Pat.PatID, Pat.Age, Pat.Country FROM Patient Pat "
                "WHERE Pat.Name = 'Luc Simon'",
                ["query", [("fetch_values", "patient")], "values"],
                id="name-eq",
            ),
            pytest.param(
                "SELECT Vis.VisID, Vis.Date FROM Visit Vis "
                "WHERE Vis.Purpose = 'Hypertension' "
                "AND Vis.Date > DATE '2005-06-01'",
                [
                    "query", [("select_ids", "visit")], "ids",
                    [("fetch_values", "visit")], "values",
                ],
                id="purpose-recent",
            ),
            pytest.param(
                demo_query(),
                [
                    "query", [("select_ids", "medicine")], "ids",
                    [("select_ids", "visit")], "ids",
                    [("fetch_values", "medicine"), ("fetch_values", "visit")],
                    "values",
                ],
                id="demo",
            ),
            pytest.param(
                "SELECT Vis.Date, Pat.Age FROM Visit Vis, Patient Pat "
                "WHERE Vis.Purpose = 'Hypertension' AND Pat.Age > 40 "
                "AND Vis.PatID = Pat.PatID",
                [
                    "query", [("select_ids", "patient")], "ids",
                    [("fetch_values", "patient"), ("fetch_values", "visit")],
                    "values",
                ],
                id="subtree",
            ),
        ],
    )
    def test_frame_sequence(self, session, sql, frames):
        result = session.query(sql)
        assert result.row_count > 0
        assert _frames(session.usb_log) == frames
