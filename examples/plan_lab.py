"""Plan laboratory: build and race ad-hoc query execution plans.

The demo GUI lets visitors rearrange high-level operators and watch the
consequences.  This script does the same programmatically: it builds the
paper's P1 and P2, plus two custom variants (a Store-less post-filter
and a cross-filtered hybrid), explains each with cost estimates, races
them, and compares estimated against measured cost.

Run:  python examples/plan_lab.py
"""

import datetime

from repro import GhostDB
from repro.demo.plans import figure5_postfilter_plan, prefilter_plan
from repro.optimizer.explain import explain_plan
from repro.optimizer.space import PlanBuilder, Strategy
from repro.workload import DEMO_SCHEMA_DDL, DatasetConfig, MedicalDataGenerator
from repro.workload.queries import demo_query


def build_candidates(db, bound):
    """Four hand-built plans for the demo query."""
    builder = PlanBuilder(db.hidden, bound)
    candidates = {
        "P1: all pre-filtering": prefilter_plan(db.hidden, bound),
        "P2: Figure 5 (Store + Blooms)": figure5_postfilter_plan(
            db.hidden, bound
        ),
        "P3: post-filtering without Store": builder.build(
            Strategy.all_post(bound)
        ),
    }
    # P4: date pre (cross-filtered with the hidden purpose), type post.
    date_index = next(
        i for i, p in enumerate(bound.visible_predicates)
        if p.column == "date"
    )
    choices = ["post", "post"]
    choices[date_index] = "pre"
    candidates["P4: cross-pre date, post type"] = builder.build(
        Strategy(tuple(choices))
    )
    return candidates


def main() -> None:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(
        MedicalDataGenerator(DatasetConfig(n_prescriptions=20_000)).generate()
    )
    sql = demo_query(date_cutoff=datetime.date(2006, 6, 1))
    bound = db.bind(sql)
    candidates = build_candidates(db, bound)

    print("query:\n" + sql)
    results = {}
    for name, plan in candidates.items():
        db.optimizer.annotate(plan)
        print("\n" + "-" * 72)
        print(name)
        print("-" * 72)
        print(explain_plan(plan, db.optimizer.cost_model))
        db.reset_measurements()
        results[name] = db.execute_plan(plan)

    print("\n" + "=" * 72)
    print("the race (estimated vs measured simulated time)")
    print("=" * 72)
    reference_rows = None
    for name, result in results.items():
        estimate = db.optimizer.cost_model.estimate(result.plan)
        print(
            f"  {name:36s} est {estimate.seconds * 1e3:8.2f} ms | "
            f"measured {result.metrics.elapsed_seconds * 1e3:8.2f} ms | "
            f"ram {result.metrics.ram_high_water:6d} B | "
            f"{result.row_count} rows"
        )
        if reference_rows is None:
            reference_rows = sorted(result.rows)
        assert sorted(result.rows) == reference_rows, "plans must agree!"
    winner = min(
        results, key=lambda n: results[n].metrics.elapsed_seconds
    )
    print(f"\nfastest plan: {winner}")


if __name__ == "__main__":
    main()
