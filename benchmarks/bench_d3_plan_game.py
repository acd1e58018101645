"""D3 -- demo phase 3: the find-the-fastest-plan game.

Measures every candidate strategy for the demo query (the game's
leaderboard) and scores the optimizer the way the game scores a visitor.
The paper's point -- "rather unusual query execution strategies ... may
generate unexpected results for newcomers" -- shows up as a non-obvious
winner; the reproduced check is that the optimizer lands on or near it.
"""

from benchmarks.conftest import print_series
from repro.demo.game import PlanGame
from repro.workload.queries import demo_query


def test_d3_plan_game(bench_session, benchmark):
    session = bench_session
    game = PlanGame(session, demo_query())

    def play():
        # Guess the naive all-PRE plan, like a newcomer would.
        naive = game.labels.index(
            next(l for l in game.labels if "pre" in l and "post" not in l)
        )
        return game.play(guess_index=naive)

    outcome = benchmark.pedantic(play, rounds=1, iterations=1)

    order = sorted(
        range(len(outcome.labels)), key=lambda i: outcome.measured_ms[i]
    )
    rows = [
        (
            rank + 1,
            outcome.labels[i],
            f"{outcome.measured_ms[i]:.2f}",
            "optimizer" if i == outcome.optimizer_index else "",
        )
        for rank, i in enumerate(order)
    ]
    print_series(
        "Demo phase 3: measured plan leaderboard",
        ["rank", "strategy", "time (ms)", "pick"],
        rows,
    )
    print(
        f"  naive guess right: {outcome.guess_was_right} | "
        f"optimizer right: {outcome.optimizer_was_right}"
    )
    # The outcome carries the whole priced field -- losers included --
    # so the check asserts on the object, not on captured stdout.
    assert len(outcome.estimated_ms) == len(outcome.labels)
    assert all(ms > 0 for ms in outcome.estimated_ms)
    # The game scores the plan the optimizer runs: the cheapest
    # estimate that fits the RAM budget, not the cheapest estimate.
    chosen = session.optimizer.optimize(session.bind(demo_query()))
    assert game.strategies[outcome.optimizer_index] == chosen.strategy
    # And the pick must land within 50% of the measured winner.
    assert outcome.chosen_vs_best_ratio <= 1.5
