"""Cost-model validation: estimates vs measurements, systematically.

The design claim (DESIGN.md §5): the optimizer prices plans "from the
same constants the simulator charges, so the optimizer's ranking is
testable against measured execution".  These tests hold it to that: for
a battery of queries and strategies, estimates must land within a
bounded factor of measurements, and estimated rankings must not invert
large measured gaps.
"""

from contextlib import contextmanager

import pytest

from repro.hardware.ram import RamExhaustedError
from tests.test_integration_queries import QUERIES

#: Estimated vs measured simulated seconds must agree within this factor
#: (cardinality estimation under independence is the dominant error).
AGREEMENT_FACTOR = 6.0

#: RAM partitions the RAM rules also hold in, besides the full chip.
LEASES = (16 * 1024, 12 * 1024, 10 * 1024)

#: The optimizer admits a plan whose estimate fits this share of RAM.
ADMISSION_SHARE = 0.8


def plans_with_measurements(session, sql):
    """``(strategy, estimate, metrics)`` per candidate; ``metrics`` is
    ``None`` for a candidate that ran out of the session's RAM."""
    builder_plans = []
    for ranked in session.optimizer.rank(session.bind(sql)):
        session.reset_measurements()
        try:
            result = session.query_with_strategy(sql, ranked.strategy)
        except RamExhaustedError:
            builder_plans.append((ranked.strategy, ranked.estimate, None))
            continue
        estimate = session.optimizer.cost_model.estimate(result.plan)
        builder_plans.append((ranked.strategy, estimate, result.metrics))
    return builder_plans


@contextmanager
def sessions(demo_session):
    """The default session, then a lease of each :data:`LEASES` size
    (closed again afterwards)."""
    leases = [
        demo_session.open_session(f"cost-{ram}", ram) for ram in LEASES
    ]
    try:
        yield [demo_session, *leases]
    finally:
        for lease in leases:
            lease.close()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_estimates_within_factor_of_measurements(demo_session, name):
    for strategy, estimate, metrics in plans_with_measurements(
        demo_session, QUERIES[name]
    ):
        measured = metrics.elapsed_seconds
        if measured < 1e-4:
            continue  # sub-0.1ms runs: framing constants dominate
        ratio = estimate.seconds / measured
        assert 1 / AGREEMENT_FACTOR <= ratio <= AGREEMENT_FACTOR, (
            f"{name} [{strategy.assignments}]: estimated "
            f"{estimate.seconds * 1e3:.2f} ms vs measured "
            f"{measured * 1e3:.2f} ms"
        )


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_ram_estimates_are_safe_upper_bounds_ish(demo_session, name):
    """RAM estimates may overshoot but must not undershoot by more than
    2x: an underestimating optimizer would greenlight plans the chip
    then kills.  Holds in the default session and in 16, 12 and 10 KiB
    leases, for every candidate that runs there."""
    with sessions(demo_session) as contexts:
        for session in contexts:
            ram = session.device.ram.capacity
            for strategy, estimate, metrics in plans_with_measurements(
                session, QUERIES[name]
            ):
                if metrics is None:
                    continue
                assert estimate.ram_bytes * 2 >= metrics.ram_high_water, (
                    f"{name} [{strategy.assignments}] in {ram} B: "
                    f"estimated {estimate.ram_bytes:.0f} B vs peak "
                    f"{metrics.ram_high_water} B"
                )


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_candidates_estimated_to_fit_run(demo_session, name):
    """Admission is safe: in every session, a candidate whose estimate
    fits the optimizer's share of the RAM runs without running out of
    it."""
    with sessions(demo_session) as contexts:
        for session in contexts:
            ram = session.device.ram.capacity
            for strategy, estimate, metrics in plans_with_measurements(
                session, QUERIES[name]
            ):
                if estimate.ram_bytes <= ADMISSION_SHARE * ram:
                    assert metrics is not None, (
                        f"{name} [{strategy.assignments}] in {ram} B: "
                        f"estimated {estimate.ram_bytes:.0f} B, ran out"
                    )


def test_large_measured_gaps_are_never_inverted(demo_session):
    """If plan A measures 3x faster than plan B, the estimates must not
    rank B above A -- the ranking property the game relies on."""
    for name in sorted(QUERIES):
        runs = plans_with_measurements(demo_session, QUERIES[name])
        for _sa, est_a, met_a in runs:
            for _sb, est_b, met_b in runs:
                if met_a.elapsed_seconds * 3 < met_b.elapsed_seconds:
                    assert est_a.seconds < est_b.seconds, name
