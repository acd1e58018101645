"""Privacy: the spy's view and the leak checker (demo phase 1).

Includes *positive* leak tests: we deliberately inject hidden data into
the channel and verify the checker catches it -- a leak checker that can
only say CLEAN proves nothing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.usb import Direction
from repro.optimizer.space import enumerate_strategies
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.spy import IdStats, SpyView, is_lost, unpack_ids
from repro.visible.frame import fetch_request, frame
from repro.workload.queries import demo_query


@pytest.fixture
def session(fresh_session):
    fresh_session.reset_measurements()
    return fresh_session


@pytest.fixture
def checker(fresh_session, demo_data):
    return LeakChecker(fresh_session.schema, demo_data)


class TestSpyView:
    def test_requests_are_readable(self, session):
        session.query(demo_query())
        spy = SpyView(session.usb_log)
        requests = spy.requests()
        assert requests
        assert any("select_ids" in r for r in requests)

    def test_summary_buckets_by_direction_and_kind(self, session):
        session.query(demo_query())
        spy = SpyView(session.usb_log)
        buckets = {(s.direction, s.kind): s for s in spy.summary()}
        assert ("host->device", "ids") in buckets
        assert ("device->host", "request") in buckets
        total = sum(s.bytes for s in buckets.values())
        assert total == spy.total_bytes

    def test_transcript_renders_every_message(self, session):
        session.query(demo_query())
        spy = SpyView(session.usb_log)
        transcript = spy.transcript()
        assert transcript.count("\n") + 1 == len(session.usb_log)

    def test_observed_ids_counted(self, session):
        session.query(demo_query())
        spy = SpyView(session.usb_log)
        counts = spy.observed_ids()
        assert counts.get("ids", 0) > 0

    def test_transcript_unwraps_crc_frames(self, session):
        """Framed JSON must render as JSON, not as hex of the frame
        header -- the spy reads payloads, framing is transparent."""
        session.device.usb.transfer(
            Direction.TO_HOST, "request", frame(b'{"op": "select_ids"}')
        )
        transcript = SpyView(session.usb_log).transcript()
        assert '{"op": "select_ids"}' in transcript
        assert "4746" not in transcript  # b"GF" magic, hex-dumped

    def test_transcript_of_real_traffic_is_readable(self, session):
        session.query(demo_query())
        transcript = SpyView(session.usb_log).transcript()
        assert "select_ids" in transcript

    def test_id_stats_counts_totals_and_repeats(self, session):
        ids = b"".join(i.to_bytes(4, "big") for i in (1, 2, 3, 2, 1, 1))
        bodies = [
            {"op": "fetch_values", "table": "visit", "columns": ["date"],
             "recheck": [], "count": 4},
            {"op": "fetch_values", "table": "patient", "columns": ["age"],
             "recheck": [], "count": 2},
        ]
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            frame(fetch_request(bodies, [ids[:16], ids[16:]])),
        )
        stats = SpyView(session.usb_log).id_stats()["fetch"]
        assert stats.total == 6
        assert stats.distinct == 3
        assert stats.repeated_ratio == pytest.approx(0.5)

    def test_id_stats_on_real_traffic(self, session):
        session.query(demo_query())
        stats = SpyView(session.usb_log).id_stats()
        assert stats["ids"].total >= stats["ids"].distinct > 0
        assert 0.0 <= stats["ids"].repeated_ratio < 1.0

    @pytest.mark.parametrize("seed", [None, 2, 3, 4])
    def test_id_stats_skip_copies_lost_in_flight(self, session, seed):
        """A corrupted, truncated or dropped copy is retransmitted and
        the intact copy is captured too; counting both would make the
        spy's ID figures depend on fault luck (seeds 2-4 each lose one
        copy of the demo query's traffic)."""
        if seed is not None:
            session.set_faults("usb", seed)
        session.query(demo_query())
        records = list(session.usb_log)
        assert any(is_lost(r) for r in records) == (seed is not None)
        assert SpyView(records).observed_ids() == {"ids": 76, "fetch": 6}

    def test_repeated_ratio_of_nothing_is_zero(self):
        assert IdStats(kind="ids", total=0, distinct=0).repeated_ratio == 0.0

    def test_unpack_ids_ignores_truncated_tail(self):
        payload = (7).to_bytes(4, "big") + (9).to_bytes(4, "big") + b"\x01\x02"
        assert unpack_ids(payload) == [7, 9]
        assert unpack_ids(b"") == []


class TestLeakCheckerNegative:
    """Real executions must come out clean."""

    def test_demo_query_is_clean(self, session, checker):
        session.query(demo_query())
        report = checker.check(session.usb_log)
        assert report.ok, report.summary()
        assert report.checked_messages == len(session.usb_log)
        assert report.checked_patterns > 0

    def test_every_strategy_is_clean(self, session, checker):
        bound = session.bind(demo_query())
        for strategy in enumerate_strategies(bound):
            session.reset_measurements()
            session.query_with_strategy(demo_query(), strategy)
            report = checker.check(session.usb_log)
            assert report.ok, report.summary()

    def test_query_on_hidden_string_column_is_clean(self, session, checker):
        """Selecting ON a hidden value must not push that value out --
        the climbing index answers it on-device."""
        session.query(
            "SELECT Age FROM Patient WHERE Name = 'Marie Martin'"
        )
        non_query = [r for r in session.usb_log if r.kind != "query"]
        report = checker.check(non_query)
        assert report.ok, report.summary()


class TestLeakCheckerPositive:
    """Injected violations must be caught."""

    def test_hidden_string_in_payload_detected(self, session, checker):
        purpose = "Sclerosis"  # a hidden Visit.Purpose value
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            b'{"op": "select_ids", "predicate": null, "x": "' +
            purpose.encode() + b'"}',
        )
        report = checker.check(session.usb_log)
        assert not report.ok
        assert any("Sclerosis" in str(v) for v in report.violations)

    def test_unknown_outbound_kind_detected(self, session, checker):
        session.device.usb.transfer(
            Direction.TO_HOST, "exfiltrate", b"\x00\x01\x02\x03"
        )
        report = checker.check(session.usb_log)
        assert any("whitelist" in v.reason for v in report.violations)

    def test_opaque_request_detected(self, session, checker):
        session.device.usb.transfer(
            Direction.TO_HOST, "request", b"\x80\x81binary-not-json"
        )
        report = checker.check(session.usb_log)
        assert any("transparent" in v.reason for v in report.violations)

    def test_unknown_request_op_detected(self, session, checker):
        session.device.usb.transfer(
            Direction.TO_HOST, "request", b'{"op": "dump_hidden"}'
        )
        report = checker.check(session.usb_log)
        assert any("unknown request op" in v.reason for v in report.violations)

    def test_fused_request_second_body_naming_hidden_column_detected(
        self, session, checker
    ):
        bodies = [
            {"op": "fetch_values", "table": "visit", "columns": ["date"],
             "recheck": [], "count": 1},
            {"op": "fetch_values", "table": "visit", "columns": ["purpose"],
             "recheck": [], "count": 1},
        ]
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            frame(fetch_request(bodies, [b"\x00\x00\x00\x01"] * 2)),
        )
        report = checker.check(session.usb_log)
        assert [v.reason for v in report.violations] == [
            "request names hidden column visit.purpose"
        ]

    @pytest.mark.parametrize("tail_ids", [0, 1, 3])
    def test_fused_request_tail_disagreeing_with_counts_detected(
        self, session, checker, tail_ids
    ):
        """Two IDs announced, ``tail_ids`` carried: a tail the counts do
        not account for could smuggle bytes out."""
        bodies = [
            {"op": "fetch_values", "table": "visit", "columns": ["date"],
             "recheck": [], "count": 2},
        ]
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            frame(fetch_request(bodies, [b"\x00\x00\x00\x07" * tail_ids])),
        )
        report = checker.check(session.usb_log)
        assert len(report.violations) == 1
        assert "tail" in report.violations[0].reason
        assert "transparent" in report.violations[0].reason

    def test_fused_request_unknown_op_detected(self, session, checker):
        bodies = [
            {"op": "fetch_values", "table": "visit", "columns": ["date"],
             "recheck": [], "count": 1},
            {"op": "dump_hidden", "table": "visit", "count": 0},
        ]
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            frame(fetch_request(bodies, [b"\x00\x00\x00\x01"])),
        )
        report = checker.check(session.usb_log)
        assert any(
            "unknown request op 'dump_hidden'" in v.reason
            for v in report.violations
        )

    def test_request_naming_hidden_column_detected(self, session, checker):
        session.device.usb.transfer(
            Direction.TO_HOST, "request",
            b'{"op": "fetch_values", "table": "visit", '
            b'"columns": ["purpose"], "count": 1}',
        )
        report = checker.check(session.usb_log)
        assert any("hidden column" in v.reason for v in report.violations)

    def test_hidden_value_leak_in_host_direction_detected(
        self, session, checker
    ):
        """Even host->device traffic must not carry hidden strings (it
        would mean the host had them)."""
        session.device.usb.transfer(
            Direction.TO_DEVICE, "values", b'{"1": ["Sclerosis"]}'
        )
        report = checker.check(session.usb_log)
        assert not report.ok

    def test_query_text_is_exempt(self, session, checker):
        """The user's own query may name hidden constants."""
        session.device.usb.transfer(
            Direction.TO_DEVICE, "query",
            b"SELECT ... WHERE Purpose = 'Sclerosis'",
        )
        report = checker.check(session.usb_log)
        assert report.ok

    def test_summary_text_counts_violations(self, session, checker):
        session.device.usb.transfer(
            Direction.TO_HOST, "exfiltrate", b"stolen"
        )
        report = checker.check(session.usb_log)
        assert "VIOLATIONS" in report.summary()


class TestProtocolContract:
    """Cross-module consistency: the leak checker's whitelist must match
    what the link actually emits, or the audit silently rots."""

    def test_outbound_whitelist_matches_link_behaviour(self, session):
        from repro.privacy.leakcheck import ALLOWED_OUTBOUND_KINDS

        session.query(demo_query())
        session.query(
            "SELECT Med.Name FROM Medicine Med WHERE Med.Type = 'Statin'"
        )
        emitted = {
            r.kind for r in session.usb_log
            if r.direction is Direction.TO_HOST
        }
        assert emitted
        assert emitted <= ALLOWED_OUTBOUND_KINDS

    def test_request_ops_whitelist_matches_link(self, session):
        from repro.privacy.leakcheck import ALLOWED_REQUEST_OPS
        from repro.visible.frame import parse_request, payload_of

        session.query(demo_query())
        ops = {
            body["op"]
            for r in session.usb_log
            if r.direction is Direction.TO_HOST and r.kind == "request"
            for body, _ids in parse_request(payload_of(r.payload))
        }
        assert ops
        assert ops <= ALLOWED_REQUEST_OPS

    def test_documented_kinds_cover_observations(self, session):
        """docs/PROTOCOL.md lists five message kinds; the captured
        traffic must not contain anything undocumented."""
        documented = {"query", "request", "ids", "count", "values"}
        session.query(demo_query())
        observed = {r.kind for r in session.usb_log}
        assert observed <= documented


class TestCheckBytesEdges:
    """``check_bytes`` guards every exported artefact; its edges matter."""

    def test_empty_payload_is_clean(self, checker):
        report = checker.check_bytes(b"")
        assert report.ok
        assert report.checked_messages == 1
        assert report.checked_patterns == checker.pattern_count

    def test_non_utf8_payload_still_scanned(self, checker):
        """The scan is over bytes; undecodable garbage around a hidden
        value must not hide it."""
        payload = b"\xff\xfe\x00" + "Sclerosis".encode() + b"\x80\x81"
        report = checker.check_bytes(payload, kind="trace-export")
        assert not report.ok
        assert any("Sclerosis" in v.reason for v in report.violations)
        assert all(v.kind == "trace-export" for v in report.violations)

    def test_clean_binary_payload_is_clean(self, checker):
        assert checker.check_bytes(bytes(range(256))).ok

    def test_value_split_across_frame_boundary_detected(self, session, checker):
        """Neither fragment matches alone; the concatenated stream does.
        This is what the stream scan exists for."""
        head, tail = b'{"9": ["Scle', b'rosis"]}'
        session.device.usb.transfer(Direction.TO_DEVICE, "values", frame(head))
        session.device.usb.transfer(Direction.TO_DEVICE, "values", frame(tail))
        records = session.usb_log
        # Sanity: the per-message scan really is blind to the fragments.
        for record in records:
            solo = checker.check([record])
            assert solo.ok, solo.summary()
        report = checker.check(records)
        assert not report.ok
        assert any(
            "spans a message boundary" in v.reason for v in report.violations
        )

    def test_split_value_across_kinds_not_joined(self, session, checker):
        """Streams are per (direction, kind): fragments in unrelated
        buckets never meet, so no false positive."""
        session.device.usb.transfer(Direction.TO_DEVICE, "values", frame(b"Scle"))
        session.device.usb.transfer(Direction.TO_DEVICE, "count", frame(b"rosis"))
        report = checker.check(session.usb_log)
        assert report.ok, report.summary()


class _FuzzCorpus:
    """Module-scoped pieces so hypothesis can re-run examples freely."""

    def __init__(self, schema, rows_by_table):
        from repro.obs.redact import Redactor

        self.redactor = Redactor()
        self.redactor.allow_schema(schema)
        self.checker = LeakChecker(schema, rows_by_table)
        self.hidden_values = sorted(
            pattern.decode("utf-8") for pattern, _ in self.checker._patterns
        )


@pytest.fixture(scope="module")
def fuzz_corpus(demo_session, demo_data):
    return _FuzzCorpus(demo_session.schema, demo_data)


class TestRedactionGateFuzz:
    """Property: anything that went through the redaction gate is CLEAN
    under the adversarial checker, no matter how the hidden values were
    mixed in."""

    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_scrubbed_text_never_leaks(self, fuzz_corpus, data):
        hidden = data.draw(
            st.lists(
                st.sampled_from(fuzz_corpus.hidden_values),
                min_size=1, max_size=8,
            )
        )
        filler = data.draw(
            st.lists(
                st.text(
                    alphabet=st.characters(codec="utf-8"), max_size=12
                ),
                max_size=8,
            )
        )
        mixed = data.draw(st.permutations(hidden + filler))
        text = " ".join(mixed)
        dirty = fuzz_corpus.checker.check_bytes(text.encode("utf-8"))
        assert not dirty.ok  # the input really contains hidden values
        scrubbed = fuzz_corpus.redactor.scrub(text)
        report = fuzz_corpus.checker.check_bytes(scrubbed.encode("utf-8"))
        assert report.ok, report.summary()
