"""F3 -- Figure 3: Subtree Key Tables.

Reports the two SKTs' shapes and flash cost ("this benefit ... comes at
an extra cost in terms of Flash storage"), and measures the SKT's payoff:
associating a prescription with its patient costs one row fetch instead
of a navigational join chain.
"""

from benchmarks.conftest import print_series


def test_fig3_skt_inventory(bench_session, bench_data, benchmark):
    db = bench_session.hidden
    benchmark.pedantic(db.storage_report, rounds=3, iterations=1)
    rows = []
    for root, skt in sorted(db.skts.items()):
        rows.append(
            (
                f"SKT_{root}",
                ", ".join(skt.tables),
                skt.extent.count,
                f"{skt.extent.flash_bytes / 1024:.0f} KiB",
            )
        )
    print_series(
        "Figure 3: Subtree Key Tables",
        ["SKT", "key columns (subtree order)", "rows", "flash"],
        rows,
    )
    report = db.storage_report()
    overhead = report.index_total / report.base_total
    print(
        f"  base data {report.base_total / 1024:.0f} KiB, "
        f"indexes+SKTs {report.index_total / 1024:.0f} KiB "
        f"({overhead:.1f}x extra flash -- the paper's storage price)"
    )
    assert set(db.skts) == {"prescription", "visit"}
    assert db.skts["prescription"].tables[0] == "prescription"
    # The storage price is real but bounded: the paper accepts paying
    # extra flash for SKTs + climbing indexes, not an order of magnitude.
    assert 0.5 <= overhead <= 3.0


def test_fig3_skt_direct_association(bench_session, benchmark):
    """One SKT row fetch resolves prescription -> patient directly."""
    session = bench_session
    skt = session.hidden.skts["prescription"]
    pat_pos = skt.column_index("patient")

    def lookup_via_skt():
        session.reset_measurements()
        with skt.reader("bench") as reader:
            row = skt.decode(reader.record(12_345 % skt.extent.count))
        return row[pat_pos], session.device.clock.now

    patient, simulated = benchmark.pedantic(
        lookup_via_skt, rounds=5, iterations=1
    )
    print_series(
        "Figure 3: direct prescription->patient association via SKT",
        ["fetched patient id", "simulated time"],
        [(patient, f"{simulated * 1e6:.0f} us")],
    )
    assert patient > 0
    # A single partial read: far below one full-page read + joins.
    assert simulated <= 3 * session.profile.flash_read_partial_s
