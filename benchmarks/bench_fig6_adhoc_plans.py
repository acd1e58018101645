"""F6 -- Figure 6: building and evaluating ad-hoc query plans.

The figure's bar chart compares the execution times of two ad-hoc plans
P1 and P2 for the demo query.  This bench regenerates those bars (in
simulated device seconds), plus the RAM comparison the demo GUI shows
alongside, and cross-checks the optimizer's estimates against them.
"""

from benchmarks.conftest import print_series
from repro.demo.plans import named_demo_plans
from repro.reference import evaluate_reference, same_rows
from repro.workload.queries import demo_query


def test_fig6_p1_vs_p2(bench_session, bench_data, benchmark):
    session = bench_session
    bound = session.bind(demo_query())
    plans = named_demo_plans(session.hidden, bound)
    for plan in plans.values():
        session.optimizer.annotate(plan)

    def run_both():
        results = {}
        for name, plan in plans.items():
            session.reset_measurements()
            results[name] = session.execute_plan(plan)
        return results

    results = benchmark.pedantic(run_both, rounds=3, iterations=1)

    expected = evaluate_reference(session.tree, bench_data, bound)
    rows = []
    for name, result in results.items():
        estimate = session.optimizer.cost_model.estimate(result.plan)
        rows.append(
            (
                name,
                f"{result.metrics.elapsed_seconds:.4f} s",
                f"{estimate.seconds:.4f} s",
                f"{result.metrics.ram_high_water} B",
                result.row_count,
            )
        )
        assert same_rows(result.rows, expected)
    print_series(
        "Figure 6: execution time of ad-hoc plans P1 and P2",
        ["plan", "measured (sim)", "estimated", "ram peak", "rows"],
        rows,
    )
    p1 = results["P1 (pre-filtering)"]
    p2 = results["P2 (post-filtering, Fig. 5)"]
    # Shape checks: both in the same order of magnitude (the figure's
    # bars are comparable); P2 trades extra time (Store) for less RAM.
    ratio = (
        p2.metrics.elapsed_seconds / p1.metrics.elapsed_seconds
    )
    assert 0.2 < ratio < 5.0
    assert p2.metrics.ram_high_water < p1.metrics.ram_high_water
