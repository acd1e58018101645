"""The T9 estimate-quality scorecard: cost model vs simulator.

For every query family the engine supports, every Pre/Post strategy is
executed and its measured simulated time compared with the cost model's
estimate for the very plan that ran, and the optimizer's pick
(:meth:`~repro.optimizer.optimizer.Optimizer.optimize`: the cheapest
plan estimated to fit the RAM) is graded against the measured-best
candidate.  Each family is scored twice: in the default session and in
a quarter-RAM lease, the partition ``repro serve`` clients get.  The
per-family summary is the T9 table of the benchmark suite, written into
the bench artifact; every per-candidate est/meas ratio is also fed into
the session's ``ghostdb_optimizer_est_over_meas`` histogram so the
exposition shows the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.ram import RamExhaustedError
from repro.optimizer.explain import MISESTIMATE_THRESHOLD
from repro.optimizer.space import enumerate_strategies
from repro.workload.queries import QUERY_FAMILIES

#: Measurements below this are treated as free (no meaningful ratio).
_MIN_MEASURABLE_S = 1e-9


@dataclass
class FamilyScore:
    """Estimate quality over one query family's candidate plans."""

    family: str
    candidates: int
    est_over_meas_min: float
    est_over_meas_max: float
    est_over_meas_geomean: float
    #: Measured time of the optimizer's pick over the best runnable
    #: candidate's (1.0 means the optimizer chose the fastest plan;
    #: ``None`` means its pick ran out of RAM).
    chosen_vs_best: float | None
    #: Candidates whose ratio falls outside the misestimate threshold.
    misestimates: int
    #: Candidates that ran out of the session's RAM.
    infeasible: int

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "est_over_meas_min": self.est_over_meas_min,
            "est_over_meas_max": self.est_over_meas_max,
            "est_over_meas_geomean": self.est_over_meas_geomean,
            "chosen_vs_best": self.chosen_vs_best,
            "misestimates": self.misestimates,
            "infeasible": self.infeasible,
        }


def _geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1 / max(1, len(values)))


def run_candidates(session, sql: str) -> tuple[list, object, dict]:
    """Run every Pre/Post candidate of ``sql`` in ``session``, each from
    a reset measurement state: the candidates in enumeration order, the
    optimizer's pick (:meth:`~repro.optimizer.optimizer.Optimizer.optimize`)
    and each runnable candidate's measured and estimated simulated
    seconds.  A candidate that raises
    :class:`~repro.hardware.ram.RamExhaustedError` is infeasible and has
    no entry."""
    bound = session.bind(sql)
    chosen = session.optimizer.optimize(bound).strategy
    strategies = enumerate_strategies(bound)
    runs: dict = {}
    for strategy in strategies:
        session.reset_measurements()
        try:
            result = session.query_with_strategy(sql, strategy)
        except RamExhaustedError:
            continue
        runs[strategy] = (
            result.metrics.elapsed_seconds,
            session.optimizer.cost_model.estimate(result.plan).seconds,
        )
    return strategies, chosen, runs


def score_family(session, sql: str, family: str) -> tuple[FamilyScore, list]:
    """Grade one family in ``session``; returns its score and the raw
    ratios.  An infeasible candidate has no ratio and is never the
    best."""
    strategies, chosen, runs = run_candidates(session, sql)
    ratios = [
        estimate / seconds
        for seconds, estimate in runs.values()
        if seconds > _MIN_MEASURABLE_S
    ]
    best = min((seconds for seconds, _ in runs.values()), default=0.0)
    if chosen not in runs:
        chosen_vs_best = None
    elif best > _MIN_MEASURABLE_S:
        chosen_vs_best = runs[chosen][0] / best
    else:
        chosen_vs_best = 1.0
    score = FamilyScore(
        family=family,
        candidates=len(strategies),
        est_over_meas_min=min(ratios, default=1.0),
        est_over_meas_max=max(ratios, default=1.0),
        est_over_meas_geomean=_geomean(ratios),
        chosen_vs_best=chosen_vs_best,
        misestimates=sum(
            1
            for ratio in ratios
            if not (
                1 / MISESTIMATE_THRESHOLD
                <= ratio
                <= MISESTIMATE_THRESHOLD
            )
        ),
        infeasible=len(strategies) - len(runs),
    )
    return score, ratios


def build_scorecard(session, families: dict[str, str] | None = None) -> dict:
    """The full per-family scorecard as an artifact-ready dict.

    Each family's row scores the default ``session``; its ``lease``
    entry scores the same family in a lease of the default size (a
    quarter of the device RAM, what serve clients get), opened for the
    pass and closed after it.  Every candidate
    strategy runs (resetting the measurement state around each); then --
    after the *last* reset, so the values survive -- every est/meas
    ratio of both passes feeds the session's
    ``ghostdb_optimizer_est_over_meas`` histogram.
    """
    families = families if families is not None else QUERY_FAMILIES
    card: dict[str, dict] = {}
    all_ratios: list[float] = []
    lease = session.open_session("scorecard")
    try:
        for name in sorted(families):
            score, ratios = score_family(session, families[name], name)
            leased, lease_ratios = score_family(lease, families[name], name)
            card[name] = {**score.as_dict(), "lease": leased.as_dict()}
            all_ratios.extend(ratios)
            all_ratios.extend(lease_ratios)
    finally:
        lease.close()
    histogram = session.obs.registry.histogram(
        "ghostdb_optimizer_est_over_meas"
    )
    for ratio in all_ratios:
        histogram.observe(ratio)
    return card


def render_scorecard(card: dict) -> str:
    """The scorecard as an aligned text table (the ``.bench`` view);
    the last column is the optimizer's pick in the quarter-RAM lease."""
    header = (
        f"{'family':<22} {'cands':>5} {'est/meas range':>16} "
        f"{'geomean':>8} {'chosen/best':>11} {'misest':>6} "
        f"{'lease c/b':>9}"
    )
    lines = [header]
    for name in sorted(card):
        row = card[name]
        lines.append(
            f"{name:<22} {row['candidates']:>5} "
            f"{row['est_over_meas_min']:>7.2f}-"
            f"{row['est_over_meas_max']:<8.2f} "
            f"{row['est_over_meas_geomean']:>8.2f} "
            f"{_ratio(row['chosen_vs_best']):>11} "
            f"{row['misestimates']:>6} "
            f"{_ratio(row['lease']['chosen_vs_best']):>9}"
        )
    return "\n".join(lines)


def _ratio(value: float | None) -> str:
    return "dies" if value is None else f"{value:.2f}x"
