"""F1/D1 -- Figure 1 and demo phase 1: the security trace.

Reproduces the "checking security" view: run the demo query, report what
crosses each link of the architecture, and verify the leak checker's
verdict.  The paper's claim: the spy sees only the query posed and the
visible data accessed.
"""

from benchmarks.conftest import print_series
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.spy import SpyView
from repro.workload.queries import demo_query


def test_fig1_security_trace(bench_session, bench_data, benchmark):
    session = bench_session
    checker = LeakChecker(session.schema, bench_data)

    def run():
        session.reset_measurements()
        session.query(demo_query())
        return session.usb_log

    records = benchmark.pedantic(run, rounds=3, iterations=1)

    spy = SpyView(records)
    rows = [
        (s.direction, s.kind, s.messages, s.bytes) for s in spy.summary()
    ]
    print_series(
        "Figure 1 / Demo phase 1: what the spy observes on the USB link",
        ["direction", "kind", "messages", "bytes"],
        rows,
    )
    report = checker.check(records)
    print(f"  leak checker: {report.summary().splitlines()[0]}")
    print(f"  readable requests seen by the spy: {len(spy.requests())}")
    assert report.ok
    # The paper's contract, quantitatively: outbound = requests only.
    outbound_kinds = {
        r.kind for r in records if r.direction.value == "device->host"
    }
    assert outbound_kinds <= {"request"}
