"""The three-phase demo scenario and the plan game."""

import math

import pytest

from repro.demo import (
    DemoScenario,
    PlanGame,
    figure5_postfilter_plan,
    prefilter_plan,
)
from repro.engine import plan as lp
from repro.reference import evaluate_reference, same_rows


@pytest.fixture(scope="module")
def scenario():
    return DemoScenario(n_prescriptions=2_000)


class TestPhaseOne:
    def test_leak_check_clean(self, scenario):
        phase = scenario.phase_security()
        assert phase.leak_report.ok, phase.leak_report.summary()

    def test_spy_sees_traffic(self, scenario):
        phase = scenario.phase_security()
        assert phase.spy.total_bytes > 0
        assert phase.spy.requests()

    def test_result_is_correct(self, scenario):
        phase = scenario.phase_security()
        expected = evaluate_reference(
            scenario.db.tree, scenario.data,
            scenario.db.bind(scenario.sql),
        )
        assert same_rows(phase.result.rows, expected)


class TestPhaseTwo:
    def test_p1_and_p2_agree_on_results(self, scenario):
        phase = scenario.phase_engine()
        runs = list(phase.runs.values())
        assert len(runs) == 2
        assert same_rows(runs[0].rows, runs[1].rows)

    def test_p2_uses_less_ram(self, scenario):
        """Figure 5's point: Bloom post-filtering trades time for RAM."""
        phase = scenario.phase_engine()
        p1 = phase.runs["P1 (pre-filtering)"]
        p2 = phase.runs["P2 (post-filtering, Fig. 5)"]
        assert p2.metrics.ram_high_water < p1.metrics.ram_high_water

    def test_comparison_text(self, scenario):
        text = scenario.phase_engine().comparison()
        assert "P1" in text and "P2" in text and "ms" in text


class TestNamedPlans:
    def test_figure5_shape(self, scenario):
        bound = scenario.db.bind(scenario.sql)
        plan = figure5_postfilter_plan(scenario.db.hidden, bound)
        # Project <- Bloom <- Bloom <- Store <- SktAccess <- ClimbingSelect
        kinds = [type(n).__name__ for n in plan.walk()]
        assert kinds.count("BloomProbe") == 2
        assert "Store" in kinds
        assert "SktAccess" in kinds
        # The Store sits below every Bloom filter, as drawn.
        store = next(n for n in plan.walk() if isinstance(n, lp.Store))
        assert isinstance(store.child, lp.SktAccess)

    def test_prefilter_has_no_store_or_bloom(self, scenario):
        bound = scenario.db.bind(scenario.sql)
        plan = prefilter_plan(scenario.db.hidden, bound)
        kinds = {type(n).__name__ for n in plan.walk()}
        assert "Store" not in kinds and "BloomProbe" not in kinds

    def test_figure5_plan_is_correct(self, scenario):
        bound = scenario.db.bind(scenario.sql)
        plan = figure5_postfilter_plan(scenario.db.hidden, bound)
        scenario.db.optimizer.annotate(plan)
        result = scenario.db.execute_plan(plan)
        expected = evaluate_reference(
            scenario.db.tree, scenario.data, bound
        )
        assert same_rows(result.rows, expected)


class TestPhaseThree:
    def test_game_measures_all_candidates(self, scenario):
        game = scenario.phase_game()
        assert len(game.candidates()) == 4
        outcome = game.play(guess_index=0)
        assert len(outcome.measured_ms) == 4
        assert all(ms > 0 for ms in outcome.measured_ms)
        assert 0 <= outcome.winner_index < 4

    def test_leaderboard_marks_guess_and_optimizer(self, scenario):
        outcome = scenario.phase_game().play(guess_index=1)
        board = outcome.leaderboard()
        assert "your guess" in board
        assert "optimizer" in board

    def test_bad_guess_rejected(self, scenario):
        with pytest.raises(IndexError):
            scenario.phase_game().play(guess_index=99)

    def test_game_scores_the_plan_the_optimizer_runs(self, scenario):
        """In a quarter-RAM lease the cheapest estimate does not fit the
        budget: the game marks optimize()'s pick, the plan a query
        runs, not the cheapest estimate.  The candidate that runs out of
        the lease's RAM is measured infinitely slow but keeps the cost
        model's price."""
        lease = scenario.db.open_session("player", 16384)
        try:
            game = PlanGame(lease, scenario.sql)
            outcome = game.play()
            bound = lease.bind(scenario.sql)
            chosen = lease.optimizer.optimize(bound).strategy
            assert game.strategies[outcome.optimizer_index] == chosen
            ranked = lease.optimizer.rank(bound)
            assert chosen != ranked[0].strategy
            assert math.inf in outcome.measured_ms
            prices = {r.strategy: r.estimate.seconds * 1000 for r in ranked}
            assert outcome.estimated_ms == [
                prices[s] for s in game.strategies
            ]
        finally:
            lease.close()

    def test_winner_is_measured_minimum(self, scenario):
        outcome = scenario.phase_game().play()
        assert outcome.measured_ms[outcome.winner_index] == min(
            outcome.measured_ms
        )
