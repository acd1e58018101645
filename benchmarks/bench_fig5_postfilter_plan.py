"""F5 -- Figure 5: the Post-filtering query execution plan.

Executes the exact QEP of Figure 5 (Index on Vis -> Access SKT -> Store
-> Bloom(Vis.Date) -> Bloom(Med.Type) -> Projections) on the demo query
and reports the per-operator popup statistics the demo GUI shows.
"""

from benchmarks.conftest import print_series
from repro.demo.plans import figure5_postfilter_plan
from repro.reference import evaluate_reference, same_rows
from repro.workload.queries import demo_query


def test_fig5_postfilter_plan(bench_session, bench_data, benchmark):
    session = bench_session
    bound = session.bind(demo_query())
    plan = figure5_postfilter_plan(session.hidden, bound)
    session.optimizer.annotate(plan)

    print("\n=== Figure 5: Post-filtering QEP (as drawn) ===")
    print(plan.render())

    def run():
        session.reset_measurements()
        return session.execute_plan(plan)

    result = benchmark.pedantic(run, rounds=3, iterations=1)

    rows = [
        (
            op.name,
            op.detail[:44],
            op.tuples_out,
            f"{op.self_seconds * 1e3:.3f} ms",
            f"{op.ram_bytes} B",
        )
        for op in result.metrics.operators
    ]
    print_series(
        "Figure 5: per-operator popup statistics",
        ["operator", "detail", "tuples", "time", "local RAM"],
        rows,
    )
    m = result.metrics
    print(
        f"  total {m.elapsed_seconds * 1e3:.2f} ms | ram high water "
        f"{m.ram_high_water} B | flash {m.flash_page_reads} reads / "
        f"{m.flash_page_writes} writes | usb {m.usb_messages} msgs"
    )
    expected = evaluate_reference(session.tree, bench_data, bound)
    assert same_rows(result.rows, expected)
    # The Store materialised the hidden-join output on flash.
    assert m.flash_page_writes > 0
    names = [op.name for op in result.metrics.operators]
    assert names.count("bloom-filter") == 2
    assert "store" in names
