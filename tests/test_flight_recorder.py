"""The always-on flight recorder (`repro.obs.flight`).

Three properties carry the design:

1. **Bounded**: the ring never holds more than its capacity, whatever
   the event volume -- older events are dropped (and counted), never
   the bound exceeded (hypothesis sweeps capacities and volumes).
2. **Deterministic**: the same (workload, profile, seed) journals the
   bit-identical event sequence once wall-clock stamps are stripped.
3. **Observationally inert**: recording never touches the simulated
   clock, the RAM budget, or the wire, so switching the recorder off
   changes no result row, no simulated cost, and no byte of traffic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ghostdb import GhostDB, SessionConfig
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    fingerprint_hex,
    plan_fingerprint,
)
from repro.workload.queries import DEMO_SCHEMA_DDL, demo_query

from tests.conftest import build_demo_session


def build_session(data, **config_kwargs) -> GhostDB:
    db = GhostDB(config=SessionConfig(**config_kwargs))
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(data)
    return db


class TestRingBounds:
    def test_defaults(self):
        recorder = FlightRecorder()
        assert recorder.capacity == DEFAULT_CAPACITY
        assert recorder.enabled
        assert len(recorder) == 0
        assert recorder.total_recorded == 0
        assert recorder.dropped == 0

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        volume=st.integers(min_value=0, max_value=200),
    )
    def test_ring_never_exceeds_capacity(self, capacity: int, volume: int):
        recorder = FlightRecorder(capacity=capacity)
        for i in range(volume):
            recorder.record("event", index=i)
        assert len(recorder) == min(volume, capacity)
        assert recorder.total_recorded == volume
        assert recorder.dropped == max(0, volume - capacity)
        # The ring holds exactly the *last* `capacity` events, in order.
        kept = recorder.events()
        assert [dict(e.data)["index"] for e in kept] == list(
            range(max(0, volume - capacity), volume)
        )
        assert [e.seq for e in kept] == list(
            range(max(1, volume - capacity + 1), volume + 1)
        )

    def test_disabled_recorder_is_a_noop(self):
        recorder = FlightRecorder(capacity=8, enabled=False)
        recorder.record("event", index=1)
        assert len(recorder) == 0
        assert recorder.total_recorded == 0

    def test_clear_keeps_lifetime_counters(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("event", index=i)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_recorded == 10

    def test_resize_keeps_newest(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(8):
            recorder.record("event", index=i)
        recorder.resize(3)
        assert recorder.capacity == 3
        assert [dict(e.data)["index"] for e in recorder.events()] == [5, 6, 7]

    def test_signature_strips_wall_clock(self):
        a = FlightRecorder(capacity=8)
        b = FlightRecorder(capacity=8)
        for recorder in (a, b):
            recorder.record("query_begin", query=1)
            recorder.record("query_end", query=1, rows=3)
        assert a.signature() == b.signature()
        # The full snapshots differ (wall stamps), the signatures don't.
        assert [e.kind for e in a.events()] == ["query_begin", "query_end"]


class TestPlanFingerprint:
    def test_stable_and_32bit(self, demo_session):
        plan = demo_session.rank_plans(demo_query())[0].plan
        fp = plan_fingerprint(plan)
        assert isinstance(fp, int)
        assert 0 <= fp <= 0xFFFFFFFF
        again = demo_session.rank_plans(demo_query())[0].plan
        assert plan_fingerprint(again) == fp
        assert fingerprint_hex(fp) == f"{fp:08x}"

    def test_distinguishes_plan_shapes(self, demo_session):
        a = demo_session.rank_plans(demo_query())[0].plan
        b = demo_session.rank_plans(
            "SELECT Patient.Name FROM Patient WHERE Patient.Age > 50"
        )[0].plan
        assert plan_fingerprint(a) != plan_fingerprint(b)


class TestDeterminism:
    def test_same_seed_same_event_sequence(self, demo_data):
        def journal(seed):
            session = build_demo_session(demo_data)
            session.set_faults("mixed", seed)
            session.query(demo_query())
            return session.obs.flight.signature()

        # The seed is the first from 0 whose run journals a fault, so
        # the comparison covers fault events whatever the traffic's
        # length.
        seed = next(
            seed for seed in range(32)
            if any(event[2] == "fault" for event in journal(seed))
        )
        signatures = [journal(seed) for _ in range(2)]
        assert signatures[0] == signatures[1]
        assert any(event[2] == "fault" for event in signatures[0])

    def test_recorder_off_changes_nothing_observable(self, demo_data):
        outcomes = []
        for enabled in (True, False):
            session = build_session(demo_data, flight_enabled=enabled)
            session.set_faults("mixed", 3)
            result = session.query(demo_query())
            counters = session.device.counters()
            outcomes.append(
                (
                    result.rows,
                    session.device.clock.now,
                    len(session.device.usb.log),
                    counters.usb_bytes_to_device,
                    counters.usb_bytes_to_host,
                    session.fault_injector.schedule_signature(),
                )
            )
        assert outcomes[0] == outcomes[1]
        # ... and the recorder really was off in the second run.
        session_off = build_session(demo_data, flight_enabled=False)
        session_off.query(demo_query())
        assert session_off.obs.flight.total_recorded == 0

    def test_recorder_invariant_across_batch_and_cache(self, demo_data):
        """The journalled *simulated* sequence does not depend on
        host-side tunables that promise observational equivalence."""
        baseline = None
        for batch in (1, 64):
            session = build_session(
                demo_data, exec_config=None, cache_pages=None
            )
            session.executor.config.exec_batch = batch
            session.query(demo_query())
            signature = session.obs.flight.signature()
            if baseline is None:
                baseline = signature
            else:
                assert signature == baseline


class TestSessionWiring:
    def test_query_brackets_and_ledger(self, fresh_session):
        flight = fresh_session.obs.flight
        before = flight.total_recorded
        result = fresh_session.query(demo_query())
        kinds = [e.kind for e in flight.events() if e.seq > before]
        assert kinds[0] == "query_begin"
        assert kinds[-1] == "query_end"
        end = flight.events()[-1]
        assert dict(end.data)["rows"] == result.row_count
        entry = fresh_session.obs.ledger.last()
        assert entry is not None
        assert entry.result_rows == result.row_count
        assert entry.aborted is None
        assert entry.fingerprint == dict(end.data)["fingerprint"]

    def test_flight_metric_counts_events(self, fresh_session):
        fresh_session.query(demo_query())
        flight = fresh_session.obs.flight
        exposed = fresh_session.metrics_text()
        assert (
            f"ghostdb_flight_events_total {flight.total_recorded}" in exposed
        )

    def test_capacity_config_plumbs_through(self, demo_data):
        session = build_session(demo_data, flight_capacity=16)
        assert session.obs.flight.capacity == 16
        session.query(demo_query())
        assert len(session.obs.flight) <= 16
