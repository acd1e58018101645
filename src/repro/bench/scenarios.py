"""The figure/table scenarios the bench runner measures.

Each scenario reproduces one bar/point of a paper figure or table as a
single measured execution on a loaded session: the runner resets the
device counters, calls :attr:`Scenario.run`, and records the resulting
:class:`~repro.engine.metrics.ExecutionMetrics` diff.  Scenario names
are stable identifiers -- they key the artifact and the committed
baseline, so renaming one is a baseline change.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Callable

from repro.baselines import run_hash_join_query, run_join_index_query
from repro.optimizer.space import Strategy
from repro.workload.queries import QUERY_FAMILIES, demo_query

#: T8's hospital-statistics aggregate over hidden columns.
AGGREGATE_SQL = """
    SELECT Vis.Purpose, count(*), avg(Pre.Quantity)
    FROM Prescription Pre, Visit Vis
    WHERE Vis.VisID = Pre.VisID
    GROUP BY Vis.Purpose
"""


def _sweep_sql(cutoff: datetime.date) -> str:
    """The D2 Pre-vs-Post sweep query at one visible selectivity."""
    return f"""
        SELECT Pre.Quantity FROM Prescription Pre, Visit Vis
        WHERE Vis.Date > DATE '{cutoff.isoformat()}'
        AND Pre.Quantity = 7
        AND Pre.WhenWritten > DATE '2007-04-01'
        AND Vis.VisID = Pre.VisID
    """


#: D2 sweep endpoints: a selective (~1%) and a wide (~80%) date cut.
SELECTIVE_CUT = datetime.date(2007, 6, 20)
WIDE_CUT = datetime.date(2005, 7, 1)

#: Pool size the cache pair runs under: most of the demo profile's
#: 32-page RAM budget.  The default pool is deliberately small (a
#: quarter of RAM) and gets thrashed or shed before a re-run can hit
#: it; the pair instead measures a pool sized to keep its query's read
#: set resident, so the warm half shows the cache's headline win.
CACHE_PAIR_PAGES = 24

#: The cache pair's query: a PK projection whose full-page read set is
#: small enough to stay resident across back-to-back runs at the
#: committed baseline scale.
CACHE_PAIR_SQL_FAMILY = "projection-of-pks"


@dataclass(frozen=True)
class Scenario:
    """One named, single-execution measurement."""

    name: str
    #: Which reproduced figure/table this point belongs to.
    family: str
    run: Callable

    def __call__(self, session):
        return self.run(session)


def _query(sql: str):
    return lambda session: session.query(sql)


def _strategy(sql: str, steps: tuple):
    return lambda session: session.query_with_strategy(sql, Strategy(steps))


def _fig5_plan(session):
    from repro.demo.plans import figure5_postfilter_plan

    bound = session.bind(demo_query())
    plan = figure5_postfilter_plan(session.hidden, bound)
    session.optimizer.annotate(plan)
    return session.execute_plan(plan)


def _fig6_p1_plan(session):
    from repro.demo.plans import named_demo_plans

    bound = session.bind(demo_query())
    plan = named_demo_plans(session.hidden, bound)["P1 (pre-filtering)"]
    session.optimizer.annotate(plan)
    return session.execute_plan(plan)


#: Attempts a chaos scenario gets before the run is declared broken.
#: The schedules are fixed-seed, so in practice each scenario needs the
#: same number of attempts on every run.
CHAOS_MAX_ATTEMPTS = 8


def _retry_under_faults(session, sql: str, profile_name: str, seed: int, scenario: str):
    """Query ``sql`` under a fixed-seed fault schedule, remounting after
    a power cut, then clear the faults; returns the USB-log mark of the
    attempt that answered and its result."""
    from repro.faults import GhostDBFaultError

    session.set_faults(profile_name, seed)
    try:
        for _ in range(CHAOS_MAX_ATTEMPTS):
            mark = len(session.device.usb.log)
            try:
                return mark, session.query(sql)
            except GhostDBFaultError:
                if session.needs_remount:
                    session.remount()
    finally:
        session.clear_faults()
        if session.needs_remount:
            session.remount()
    raise RuntimeError(
        f"{scenario} scenario gave up after {CHAOS_MAX_ATTEMPTS} "
        f"attempts (profile={profile_name}, seed={seed})"
    )


def _chaos(profile_name: str, seed: int):
    """Run the demo query under a fixed-seed fault schedule.

    A clean reference answer is taken first; the faulted run must then
    produce the identical rows (retrying and remounting as needed) or
    the scenario raises -- silent wrong answers under faults are exactly
    what the bench gate exists to catch.
    """

    def run(session):
        sql = demo_query()
        reference = session.query(sql)
        _mark, result = _retry_under_faults(
            session, sql, profile_name, seed, "chaos"
        )
        if result.rows != reference.rows:
            raise RuntimeError(
                f"chaos answer diverged from the clean reference "
                f"(profile={profile_name}, seed={seed})"
            )
        return result

    return run


def _chaos_powercut(session):
    """Guaranteed power cut mid-query, then remount and re-answer.

    Exercises the full recovery path: the scheduled cut kills the query
    at a fixed flash-op index, the remount's recovery scan rebuilds the
    FTL map, and the re-run must reproduce the clean answer."""
    from repro.faults import PowerCutError

    sql = demo_query()
    reference = session.query(sql)
    injector = session.set_faults("none", seed=0)
    # Early enough that the demo query reaches it even at the smallest
    # scale the bench tests use (13 flash ops at scale 300).
    injector.schedule_power_cut(at_flash_op=8)
    cut = False
    try:
        try:
            session.query(sql)
        except PowerCutError:
            cut = True
    finally:
        session.clear_faults()
    if not cut:
        raise RuntimeError("scheduled power cut never fired")
    session.remount()
    result = session.query(sql)
    if result.rows != reference.rows:
        raise RuntimeError("post-remount answer diverged from reference")
    return result


def _cache_sized(session):
    """Context for the cache pair: a pool of :data:`CACHE_PAIR_PAGES`."""
    prior = session.device.page_cache.capacity_pages
    session.set_cache(CACHE_PAIR_PAGES)
    return prior


def _cache_cold(session):
    """First run of the pair's query on an empty, pair-sized pool."""
    prior = _cache_sized(session)
    try:
        return session.query(QUERY_FAMILIES[CACHE_PAIR_SQL_FAMILY])
    finally:
        session.set_cache(prior)


def _cache_warm(session):
    """Re-run with the pool still warm from an identical first run.

    The committed baseline pins the warm run's strict
    ``flash_page_reads``/``sim_seconds`` win over the cold scenario at
    the bench scale (tolerance zero -- any erosion of the gap fails the
    comparator).  In here only the scale-independent invariants are
    asserted: a warm pool may remove device work but must never add
    any, never change the answer, and never change what crosses the
    USB wire -- hits are invisible to the spy by construction.
    """
    from repro.privacy.meter import profile_records

    sql = QUERY_FAMILIES[CACHE_PAIR_SQL_FAMILY]
    prior = _cache_sized(session)
    try:
        cold_mark = len(session.device.usb.log)
        cold = session.query(sql)
        warm_mark = len(session.device.usb.log)
        warm = session.query(sql)
    finally:
        session.set_cache(prior)
    if warm.rows != cold.rows:
        raise RuntimeError("warm re-run changed the answer")
    cold_sig = profile_records(
        session.device.usb.log[cold_mark:warm_mark]
    ).signature
    warm_sig = profile_records(session.device.usb.log[warm_mark:]).signature
    if warm_sig != cold_sig:
        raise RuntimeError(
            f"buffer pool changed the request-sequence signature "
            f"({cold_sig} cold vs {warm_sig} warm) -- hits must save "
            f"device time, never alter USB traffic"
        )
    if warm.metrics.flash_page_reads > cold.metrics.flash_page_reads:
        raise RuntimeError(
            f"warm run read more flash pages than cold "
            f"({warm.metrics.flash_page_reads} vs "
            f"{cold.metrics.flash_page_reads})"
        )
    if warm.metrics.elapsed_seconds > cold.metrics.elapsed_seconds:
        raise RuntimeError(
            f"warm run was slower than cold "
            f"({warm.metrics.elapsed_seconds} vs "
            f"{cold.metrics.elapsed_seconds} simulated seconds)"
        )
    return warm


def _leak_signature(fault_profile: str | None, seed: int = 0):
    """Run the demo query and pin its traffic-shape contract.

    The ``none`` variant is the clean half of the pair; the faulted
    variant re-runs the same query under a fixed-seed fault schedule and
    asserts the property the leakage meter's classifier keys on: retries
    and refragmentation change *timing*, never the request-sequence
    signature.  A signature drift under faults would mean the fault path
    changes what the spy can fingerprint -- a silent contract break this
    scenario turns into a loud one.
    """

    def run(session):
        from repro.privacy.meter import profile_records

        sql = demo_query()
        mark = len(session.device.usb.log)
        reference = session.query(sql)
        clean = profile_records(session.device.usb.log[mark:])
        if fault_profile is None:
            return reference
        mark, result = _retry_under_faults(
            session, sql, fault_profile, seed, "leak-signature"
        )
        faulted = profile_records(session.device.usb.log[mark:])
        if result.rows != reference.rows:
            raise RuntimeError(
                "faulted answer diverged from the clean reference"
            )
        if faulted.signature != clean.signature:
            raise RuntimeError(
                f"request-sequence signature drifted under faults: "
                f"{clean.signature} clean vs {faulted.signature} faulted "
                f"-- retries must change timing, not the logical sequence"
            )
        if faulted.retransmissions and not (
            faulted.sim_duration_s > clean.sim_duration_s
        ):
            raise RuntimeError(
                "retransmissions should show up as simulated time "
                "(timing is the channel faults are allowed to move)"
            )
        return result

    return run


# ----------------------------------------------------------------------
# Sustained-DML endurance scenarios
# ----------------------------------------------------------------------

#: A quantity value the generated dataset never contains, so the
#: roundtrip's revert restores the exact starting state.
DML_SENTINEL = 4242


def _assert_dml_silent(session, mark: int, what: str) -> None:
    """DML travels the secure channel: zero observable USB traffic.

    This is the property that keeps every *read* scenario's leak
    signature byte-identical whether or not the workload also mutates
    data -- a DML statement that announced itself would hand the spy the
    hidden values named in its text."""
    if len(session.device.usb.log) != mark:
        raise RuntimeError(
            f"{what} generated USB traffic -- DML must stay on the "
            f"secure channel"
        )


def _dml_update_roundtrip(session):
    """Measure a value-matched hidden-column UPDATE, then revert it.

    The revert restores the loaded dataset exactly, so scenario order
    stays irrelevant and the scorecard still measures clean data; only
    the forward statement's metrics are recorded."""
    mark = len(session.device.usb.log)
    result = session.execute(
        f"UPDATE Prescription SET Quantity = {DML_SENTINEL} "
        f"WHERE Quantity = 7"
    )
    session.execute(
        f"UPDATE Prescription SET Quantity = 7 "
        f"WHERE Quantity = {DML_SENTINEL}"
    )
    _assert_dml_silent(session, mark, "update")
    if result.matched == 0:
        raise RuntimeError(
            "roundtrip update matched nothing; the scenario measured "
            "a no-op"
        )
    return result


def _dml_delete_appended(session):
    """Append a batch of fresh rows, then measure deleting them.

    Self-restoring like the roundtrip: the deleted keys are exactly the
    appended ones (all above the loaded maximum), so the table ends in
    its starting state."""
    heap = session.hidden.heaps["prescription"]
    max_pk = heap.pk_of_rowid(heap.extent.count - 1)
    visits = session.hidden.heaps["visit"]
    vis_pk = visits.pk_of_rowid(visits.extent.count - 1)
    meds = session.hidden.heaps["medicine"]
    med_pk = meds.pk_of_rowid(0)
    rows = [
        (
            max_pk + i,
            7,
            "2x daily",
            datetime.date(2026, 1, 1),
            med_pk,
            vis_pk,
        )
        for i in range(1, 33)
    ]
    mark = len(session.device.usb.log)
    session.append("prescription", rows)
    result = session.execute(
        f"DELETE FROM Prescription WHERE PreID > {max_pk}"
    )
    _assert_dml_silent(session, mark, "delete")
    if result.matched != len(rows):
        raise RuntimeError(
            f"delete matched {result.matched} of the {len(rows)} "
            f"appended rows"
        )
    return result


def _dml_noop_update(session):
    """A no-match UPDATE: scan cost only, zero flash writes.

    Pins the no-op short-circuit -- a statement that matches nothing
    must never rebuild the table."""
    result = session.execute(
        "UPDATE Prescription SET Quantity = 1 WHERE Quantity = 424242"
    )
    if result.matched or result.metrics.flash_page_writes:
        raise RuntimeError(
            "no-match update touched flash -- the no-op short-circuit "
            "broke"
        )
    return result


def _endurance_update_churn(session):
    """Repeated full roundtrips: steady-state update cost under churn.

    Six table rebuilds back to back drive allocation, garbage
    collection and wear levelling harder than any single statement; the
    recorded metrics are the final revert's -- the steady-state cost
    after the churn, which a wear-ladder regression (throttling, GC
    thrash) would inflate."""
    last = None
    for _ in range(3):
        session.execute(
            f"UPDATE Prescription SET Quantity = {DML_SENTINEL} "
            f"WHERE Quantity = 7"
        )
        last = session.execute(
            f"UPDATE Prescription SET Quantity = 7 "
            f"WHERE Quantity = {DML_SENTINEL}"
        )
    if last.matched == 0:
        raise RuntimeError("churn updates matched nothing")
    return last


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def _concurrent(per_session_sql: list[list[str]], fairness_floor=None):
    """A multi-client scenario: open one leased session per statement
    list, interleave everything under the DRR scheduler, and fold the
    per-ticket metrics into one gate-able record.

    Every statement is submitted before the scheduler runs.  A session
    has one statement in flight, so its statements run one after
    another while the sessions interleave, and each ticket's metrics
    count only its own device work: the per-ticket diffs sum to what
    the leases did.

    The recorded :class:`ExecutionMetrics` sums the per-ticket diffs
    (``ram_high_water`` sums the per-session partition peaks -- the
    acceptance bound is that this stays within the secure budget);
    ``bench_extra`` adds the latency percentiles and the Jain fairness
    index over per-session mean latency.  ``fairness_floor`` makes the
    row self-describing: the comparator fails the run when the index
    lands below it.
    """

    def run(session):
        from repro.core.scheduler import Scheduler, jain_index
        from repro.engine.metrics import ExecutionMetrics

        core = session.core
        partition = core.profile.ram_bytes // 4
        clients = [
            core.open_session(name=f"bench-client-{i}", ram_bytes=partition)
            for i in range(len(per_session_sql))
        ]
        try:
            scheduler = Scheduler(core)
            by_session: dict[str, list] = {c.name: [] for c in clients}
            # Statement-index-major submission: every client's first
            # statement queues before anyone's second, like clients
            # arriving together.
            rounds = max(len(sqls) for sqls in per_session_sql)
            for i in range(rounds):
                for client, sqls in zip(clients, per_session_sql):
                    if i < len(sqls):
                        by_session[client.name].append(
                            scheduler.submit(client, sqls[i])
                        )
            tickets = [t for ts in by_session.values() for t in ts]
            scheduler.run()

            total = ExecutionMetrics()
            for ticket in tickets:
                if ticket.error is not None:
                    raise ticket.error
                metrics = ticket.result.metrics
                total.time = total.time + metrics.time
                total.flash_page_reads += metrics.flash_page_reads
                total.flash_page_writes += metrics.flash_page_writes
                total.flash_block_erases += metrics.flash_block_erases
                total.usb_messages += metrics.usb_messages
                total.usb_bytes_to_device += metrics.usb_bytes_to_device
                total.usb_bytes_to_host += metrics.usb_bytes_to_host
                total.result_rows += metrics.result_rows
                total.cache_hits += metrics.cache_hits
                total.cache_misses += metrics.cache_misses
            total.ram_high_water = sum(
                client.lease.ram.high_water for client in clients
            )
            if total.ram_high_water > core.profile.ram_bytes:
                raise RuntimeError(
                    "summed session RAM peaks exceed the secure budget"
                )

            latencies = [t.latency_s for t in tickets]
            session_means = [
                sum(t.latency_s for t in ts) / len(ts)
                for ts in by_session.values()
                if ts
            ]
            extra = {
                "sessions": len(clients),
                "queries": len(tickets),
                "fairness_index": round(jain_index(session_means), 6),
                "latency_p50_s": round(_percentile(latencies, 0.50), 9),
                "latency_p95_s": round(_percentile(latencies, 0.95), 9),
            }
            if fairness_floor is not None:
                extra["fairness_floor"] = fairness_floor
            return _ConcurrentResult(metrics=total, bench_extra=extra)
        finally:
            for client in clients:
                core.close_session(client)

    return run


@dataclass
class _ConcurrentResult:
    """What a concurrent scenario hands the runner: summed metrics plus
    the fairness/latency columns to merge into the artifact row."""

    metrics: object
    bench_extra: dict


#: The uniform mix every concurrent client runs: one join-heavy, one
#: light-visible, one hidden-selection statement.
_CONCURRENT_MIX = [
    demo_query(),
    QUERY_FAMILIES["visible-only"],
    QUERY_FAMILIES["hidden-only"],
]


SCENARIOS: tuple[Scenario, ...] = (
    # Figure 1 / Section 4: the demo query under the optimizer's plan.
    Scenario("fig1-demo-query", "fig1", _query(demo_query())),
    # T1: the same query under the baseline execution models.
    Scenario(
        "t1-join-index",
        "t1",
        lambda session: run_join_index_query(session, demo_query()),
    ),
    Scenario(
        "t1-hash-join",
        "t1",
        lambda session: run_hash_join_query(session, demo_query()),
    ),
    # Figure 4: deep hidden selection through the climbing index.
    Scenario(
        "fig4-deep-climbing", "fig4", _query(QUERY_FAMILIES["deep-hidden"])
    ),
    # Figure 5: the Post-filtering QEP exactly as drawn.
    Scenario("fig5-post-plan", "fig5", _fig5_plan),
    # Figure 6: the P1 pre-filtering bar.
    Scenario("fig6-p1-pre-plan", "fig6", _fig6_p1_plan),
    # D2: the Pre-vs-Post sweep's endpoints, both strategies each.
    Scenario(
        "d2-pre-selective", "d2", _strategy(_sweep_sql(SELECTIVE_CUT), ("pre",))
    ),
    Scenario(
        "d2-post-selective",
        "d2",
        _strategy(_sweep_sql(SELECTIVE_CUT), ("post",)),
    ),
    Scenario("d2-pre-wide", "d2", _strategy(_sweep_sql(WIDE_CUT), ("pre",))),
    Scenario("d2-post-wide", "d2", _strategy(_sweep_sql(WIDE_CUT), ("post",))),
    # T8: device-side aggregation.
    Scenario("t8-group-aggregate", "t8", _query(AGGREGATE_SQL)),
    # Query-battery representatives that stress distinct machinery.
    Scenario(
        "battery-five-way-join",
        "battery",
        _query(QUERY_FAMILIES["five-way-join"]),
    ),
    Scenario(
        "battery-hidden-range",
        "battery",
        _query(QUERY_FAMILIES["hidden-range"]),
    ),
    # Buffer pool: the same query cold and then warm.  The committed
    # baseline pins the warm run's flash/sim win at the bench scale;
    # the warm scenario additionally asserts in-line that the pool
    # never adds work, never changes the answer, and never changes the
    # USB traffic shape.
    Scenario("cache-cold-rescan", "cache", _cache_cold),
    Scenario("cache-warm-rescan", "cache", _cache_warm),
    # Chaos: the demo query under fixed-seed fault schedules.  Gated
    # like every other scenario -- the fault path's cost is part of the
    # contract, and a changed schedule shows up as a metric diff.
    Scenario("chaos-usb-demo", "chaos", _chaos("usb", seed=1)),
    Scenario("chaos-flash-demo", "chaos", _chaos("flash", seed=2)),
    Scenario("chaos-mixed-demo", "chaos", _chaos("mixed", seed=3)),
    Scenario("chaos-powercut-remount", "chaos", _chaos_powercut),
    # Leakage: the same query under a clean and a faulted link.  The
    # pair pins the meter's invariance contract -- fault retries move
    # timing, never the request-sequence signature the fingerprinting
    # classifier keys on.
    Scenario("leak-signature-none", "leak", _leak_signature(None)),
    # Seed 1 manifests USB retransmissions at both the bench default
    # and the test scale, so the pair actually exercises the retry path.
    Scenario(
        "leak-signature-mixed", "leak", _leak_signature("mixed", seed=1)
    ),
    # Sustained-DML endurance: UPDATE/DELETE cost through the crash-safe
    # rebuild discipline.  Every scenario restores the loaded dataset
    # before returning (ordering stays irrelevant) and asserts in-line
    # that DML never crosses the spied USB link.
    Scenario("dml-update-roundtrip", "dml", _dml_update_roundtrip),
    Scenario("dml-delete-appended", "dml", _dml_delete_appended),
    Scenario("dml-noop-update", "dml", _dml_noop_update),
    Scenario(
        "endurance-update-churn", "endurance", _endurance_update_churn
    ),
    # Concurrent clients: four leased sessions interleaved by the DRR
    # scheduler.  Per-ticket metrics stay bit-identical to serial runs
    # (the sessions test suite pins that); what these rows gate is the
    # *scheduling* contract -- total device work, summed partition
    # peaks within the secure budget and, for the uniform mix, a Jain
    # fairness index at or above the committed floor.
    Scenario(
        "concurrent-uniform-mix",
        "concurrent",
        _concurrent([_CONCURRENT_MIX] * 4, fairness_floor=0.9),
    ),
    # One tenant runs the heavy join mix three times over while three
    # light tenants run a single visible selection each: DRR should
    # keep the light tenants' latency from scaling with the heavy
    # tenant's appetite.  No floor -- per-session mean latencies are
    # intentionally skewed; the row records the index so drift shows.
    Scenario(
        "concurrent-heavy-tenant",
        "concurrent",
        _concurrent(
            [_CONCURRENT_MIX * 3]
            + [[QUERY_FAMILIES["visible-only"]]] * 3
        ),
    ),
)


def select_scenarios(names: list[str] | None = None) -> list[Scenario]:
    """The scenarios to run, optionally filtered by exact name."""
    if not names:
        return list(SCENARIOS)
    by_name = {s.name: s for s in SCENARIOS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        known = ", ".join(sorted(by_name))
        raise KeyError(f"unknown scenario(s) {unknown}; known: {known}")
    return [by_name[n] for n in names]
