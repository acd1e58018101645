"""Plan choice: enumerate, price, rank, annotate.

The optimizer runs on the device (it must see hidden-column statistics),
using visible-column statistics the PC shared at plug-in time.  It prices
every PRE/POST assignment of the visible predicates and returns the
candidates ranked by estimated simulated time -- the ranking the demo's
"find the fastest plan" game is played against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import plan as lp
from repro.engine.database import HiddenDatabase
from repro.engine.executor import ExecConfig
from repro.hardware.profiles import HardwareProfile
from repro.obs import Observability, get_logger
from repro.optimizer.cost import CostEstimate, CostModel, StatsProvider
from repro.optimizer.space import PlanBuilder, Strategy, enumerate_strategies
from repro.sql.binder import BoundQuery
from repro.visible.link import DeviceLink
from repro.visible.site import VisibleSite

log = get_logger(__name__)


@dataclass
class RankedPlan:
    """One candidate with its strategy and estimated cost."""

    strategy: Strategy
    plan: lp.Project
    estimate: CostEstimate

    def label(self, query: BoundQuery) -> str:
        return self.strategy.label(query)


class Optimizer:
    """Prices the strategy space and picks the cheapest plan."""

    def __init__(
        self,
        db: HiddenDatabase,
        site: VisibleSite,
        profile: HardwareProfile,
        link: DeviceLink,
        exec_config: ExecConfig,
        obs: Observability,
        cache_pages: int = 0,
    ):
        self.db = db
        self.profile = profile
        self.obs = obs
        self.stats = StatsProvider(db, site)
        self.cost_model = CostModel(
            profile=profile,
            stats=self.stats,
            db=db,
            link=link,
            exec_config=exec_config,
            cache_pages=cache_pages,
        )

    def rank(self, query: BoundQuery) -> list[RankedPlan]:
        """All candidates, cheapest first."""
        builder = PlanBuilder(self.db, query)
        tracer = self.obs.tracer
        ranked = []
        with tracer.span("optimizer.rank", category="optimizer") as span:
            for strategy in enumerate_strategies(query):
                with tracer.span(
                    "optimizer.candidate", category="optimizer"
                ) as cspan:
                    plan = builder.build(strategy)
                    self.annotate(plan)
                    estimate = self.cost_model.estimate(plan)
                    cspan.set("strategy", strategy.label(query))
                    cspan.set("est_ms", estimate.seconds * 1e3)
                    cspan.set("est_ram_bytes", estimate.ram_bytes)
                ranked.append(
                    RankedPlan(
                        strategy=strategy, plan=plan, estimate=estimate
                    )
                )
            span.set("candidates", len(ranked))
        self.obs.registry.counter("ghostdb_plans_considered_total").inc(
            len(ranked)
        )
        ranked.sort(key=lambda r: r.estimate.seconds)
        return ranked

    def optimize(self, query: BoundQuery) -> RankedPlan:
        """The cheapest candidate *that fits the device RAM*.

        A plan whose estimated working set exceeds the budget would die
        with :class:`~repro.hardware.ram.RamExhaustedError` mid-flight;
        the optimizer prefers a slower plan that fits (Post-filtering
        exists precisely for this).  If nothing is estimated to fit, the
        smallest-footprint candidate is returned as a best effort.
        """
        with self.obs.tracer.span(
            "optimizer.choose", category="optimizer"
        ) as span:
            ranked = self.rank(query)
            budget = 0.8 * self.profile.ram_bytes
            fitting = [r for r in ranked if r.estimate.ram_bytes <= budget]
            chosen = (
                fitting[0]
                if fitting
                else min(ranked, key=lambda r: r.estimate.ram_bytes)
            )
            span.set("chosen", chosen.strategy.label(query))
            span.set("fitting", len(fitting))
            span.set("est_ms", chosen.estimate.seconds * 1e3)
        log.debug(
            "optimizer chose 1 of %d candidates (%d fit the RAM budget)",
            len(ranked), len(fitting),
        )
        return chosen

    def annotate(self, plan: lp.Project) -> None:
        """Fill expected-cardinality hints the executor uses at run time
        (SKT access density, Bloom filter sizing)."""
        for node in plan.walk():
            if isinstance(node, lp.SktAccess) and node.child is not None:
                child_est = self.cost_model.estimate(node.child)
                node.expected_count = max(1, round(child_est.out_count))
            elif isinstance(node, lp.BloomProbe):
                node.expected_ids = max(
                    1, round(self.stats.matching_rows(node.predicate))
                )
