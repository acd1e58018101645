"""The find-the-fastest-plan game (demo phase 3).

"The last phase of the demo invites the visitors to assess their ability
to select the best plan for a simple query.  The rather unusual query
execution strategies implemented in GhostDB may generate unexpected
results for newcomers."

A :class:`PlanGame` presents every PRE/POST strategy for a query, lets
the player guess which will be fastest, then measures them all and
scores the guess (and, for reference, the optimizer's pick), through
the scorecard's candidate loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.scorecard import run_candidates
from repro.core.ghostdb import GhostDB
from repro.optimizer.space import Strategy, enumerate_strategies


@dataclass
class GameOutcome:
    """Measured leaderboard for one game round."""

    labels: list[str]
    measured_ms: list[float]
    winner_index: int
    guess_index: int | None
    optimizer_index: int
    #: The cost model's price for every candidate -- losers included, so
    #: the scorecard can grade the whole ranking, not just the pick.
    estimated_ms: list[float] = field(default_factory=list)

    @property
    def guess_was_right(self) -> bool:
        return self.guess_index == self.winner_index

    @property
    def optimizer_was_right(self) -> bool:
        return self.optimizer_index == self.winner_index

    @property
    def chosen_vs_best_ratio(self) -> float:
        """Measured time of the optimizer's pick over the winner's
        (1.0 means the optimizer picked the fastest plan)."""
        best = self.measured_ms[self.winner_index]
        if best <= 0:
            return 1.0
        return self.measured_ms[self.optimizer_index] / best

    def leaderboard(self) -> str:
        order = sorted(
            range(len(self.labels)), key=lambda i: self.measured_ms[i]
        )
        lines = ["measured leaderboard:"]
        for rank, i in enumerate(order, start=1):
            marks = []
            if i == self.guess_index:
                marks.append("your guess")
            if i == self.optimizer_index:
                marks.append("optimizer")
            suffix = f"   <- {', '.join(marks)}" if marks else ""
            estimate = (
                f"  (est {self.estimated_ms[i]:9.3f} ms)"
                if self.estimated_ms
                else ""
            )
            lines.append(
                f"  {rank}. {self.labels[i]:55s} "
                f"{self.measured_ms[i]:9.3f} ms{estimate}{suffix}"
            )
        return "\n".join(lines)


@dataclass
class PlanGame:
    """One round of the game over one query."""

    db: GhostDB
    sql: str
    strategies: list[Strategy] = field(init=False)
    labels: list[str] = field(init=False)

    def __post_init__(self):
        bound = self.db.bind(self.sql)
        self.strategies = enumerate_strategies(bound)
        self.labels = [s.label(bound) for s in self.strategies]

    def candidates(self) -> list[str]:
        """The strategies on offer, as human-readable labels."""
        return list(self.labels)

    def play(self, guess_index: int | None = None) -> GameOutcome:
        """Measure every candidate and score the guess and the plan the
        optimizer runs.  A candidate that runs out of the session's RAM
        is measured infinitely slow; its estimate stays the cost
        model's."""
        if guess_index is not None and not (
            0 <= guess_index < len(self.strategies)
        ):
            raise IndexError(
                f"guess {guess_index} out of range "
                f"[0, {len(self.strategies)})"
            )
        ranked = self.db.rank_plans(self.sql)
        estimates = {r.strategy: r.estimate.seconds * 1000 for r in ranked}
        strategies, chosen, runs = run_candidates(self.db, self.sql)
        measured = [
            runs[s][0] * 1000 if s in runs else math.inf for s in strategies
        ]
        winner = min(range(len(measured)), key=measured.__getitem__)
        return GameOutcome(
            labels=list(self.labels),
            measured_ms=measured,
            winner_index=winner,
            guess_index=guess_index,
            optimizer_index=strategies.index(chosen),
            estimated_ms=[estimates[s] for s in strategies],
        )
