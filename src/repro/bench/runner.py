"""The bench runner: ``python -m repro bench``.

Builds a fresh session at a fixed scale, executes every registered
scenario once (resetting the measurement state around each), grades the
optimizer with the T9 scorecard, and writes one redacted, leak-checked
``BENCH_<date>.json`` artifact.  With ``--baseline`` it additionally
diffs the run against a committed artifact and exits nonzero on
regression -- the CI gate.
"""

from __future__ import annotations

import argparse
import datetime
import time
from dataclasses import dataclass

from repro.bench.artifact import (
    KIND,
    build_artifact,
    compare_artifacts,
    load_artifact,
    scenario_record,
)
from repro.bench.scenarios import select_scenarios
from repro.bench.scorecard import build_scorecard, render_scorecard
from repro.core.factory import build_session
from repro.hardware.profiles import PROFILES
from repro.obs import get_logger
from repro.obs.vetted import (
    SIGNATURE_KEYS,
    VettedRun,
    dated_name,
    vet,
    write_and_gate,
)
from repro.privacy.leakcheck import LeakChecker
from repro.privacy.meter import profile_records

log = get_logger(__name__)

#: Default dataset size: small enough for a sub-minute CI run, large
#: enough that every crossover the scenarios exercise has happened.
DEFAULT_SCALE = 2000


class BenchError(RuntimeError):
    """A bench run could not produce a trustworthy artifact."""


@dataclass
class BenchConfig:
    """One bench run's knobs."""

    scale: int = DEFAULT_SCALE
    profile: str = "demo"
    #: Exact scenario names to run; ``None`` runs the full registry.
    scenario_names: list[str] | None = None
    #: Skip the (comparatively slow) estimate-quality scorecard.
    scorecard: bool = True


def recorder_overhead(
    total_events: int, total_wall: float, samples: int = 20_000
) -> dict:
    """Measure the flight recorder's host cost and estimate its share
    of the run's scenario wall time.

    The per-event cost is microbenchmarked on a fresh full ring (so
    every sample pays the worst case: eviction plus append) with a
    representative payload, then multiplied by the events the run
    actually journalled.  The comparator fails a run whose estimated
    fraction reaches 5% of host wall.
    """
    from repro.obs.flight import FlightRecorder

    probe = FlightRecorder(capacity=1024, clock=None)
    for _ in range(1024):
        probe.record("warmup", query=0, fingerprint=0)
    start = time.perf_counter()
    for i in range(samples):
        probe.record("query_end", query=i, fingerprint=2531329251, rows=13)
    per_event = (time.perf_counter() - start) / samples
    overhead = per_event * total_events
    return {
        "total_events": total_events,
        "per_event_seconds": per_event,
        "overhead_seconds_est": overhead,
        "overhead_fraction": overhead / total_wall if total_wall > 0 else 0.0,
    }


def run_bench(config: BenchConfig | None = None) -> VettedRun:
    """Execute one full bench run; see the module docstring."""
    config = config or BenchConfig()
    if config.profile not in PROFILES:
        raise BenchError(
            f"unknown profile {config.profile!r}; "
            f"known: {', '.join(sorted(PROFILES))}"
        )
    scenarios = select_scenarios(config.scenario_names)
    log.info(
        "bench run: %d scenarios at scale %d on %s",
        len(scenarios), config.scale, config.profile,
    )
    session, data = build_session(
        profile=config.profile, scale=config.scale
    )

    lines: list[str] = []
    records: dict[str, dict] = {}
    total_wall = 0.0
    total_events = 0
    for scenario in scenarios:
        session.reset_measurements()
        events_before = session.obs.flight.total_recorded
        wall_start = time.perf_counter()
        result = scenario.run(session)
        wall = time.perf_counter() - wall_start
        events = session.obs.flight.total_recorded - events_before
        total_wall += wall
        total_events += events
        # Everything the scenario pushed over the boundary, faults and
        # retransmissions included -- the spy's complete view of it.
        traffic = session.usb_log
        leak = profile_records(traffic) if traffic else None
        records[scenario.name] = scenario_record(
            result.metrics, wall, scenario.family, leak=leak,
            flight_events=events,
            extra=getattr(result, "bench_extra", None),
        )
        lines.append(
            f"{scenario.name:<24} "
            f"{result.metrics.elapsed_seconds * 1e3:9.2f} ms sim  "
            f"{result.metrics.flash_page_reads:6d} fr "
            f"{result.metrics.flash_page_writes:5d} fw  "
            f"{result.metrics.usb_messages:5d} usb  "
            f"{result.metrics.cache_hits:4d} hit  "
            f"{result.metrics.ram_high_water:6d} B ram  "
            f"leak {leak.observable_bytes if leak else 0:6d} B "
            f"sig {leak.signature if leak else '--------'}  "
            f"({wall * 1e3:.0f} ms wall)"
        )

    card = build_scorecard(session) if config.scorecard else {}
    if card:
        lines += ["", render_scorecard(card)]

    recorder = recorder_overhead(total_events, total_wall)
    lines.append(
        f"recorder overhead: {recorder['total_events']} events x "
        f"{recorder['per_event_seconds'] * 1e9:.0f} ns = "
        f"{recorder['overhead_fraction'] * 100:.3f}% of "
        f"{total_wall:.2f}s scenario wall (budget < 5%)"
    )

    artifact = build_artifact(
        scale=config.scale,
        profile=config.profile,
        created=datetime.datetime.now().isoformat(timespec="seconds"),
        scenarios=records,
        scorecard=card,
        recorder=recorder,
    )
    run = vet(
        artifact,
        LeakChecker(session.schema, data),
        "bench-artifact",
        BenchError,
        session.obs.redactor,
        structural=(KIND, artifact["created"], config.profile, "CLEAN"),
        signature_keys=SIGNATURE_KEYS,
    )
    run.lines = lines
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the GhostDB figure/table scenarios and write a "
        "schema-versioned benchmark artifact",
    )
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_SCALE,
        help=f"prescriptions in the dataset (default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="demo",
        help="hardware profile of the simulated device",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    parser.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="artifact path (default BENCH_<date>.json in the cwd)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against this committed artifact and exit nonzero "
        "on regression",
    )
    parser.add_argument(
        "--no-scorecard", action="store_true",
        help="skip the optimizer estimate-quality scorecard",
    )
    args = parser.parse_args(argv)

    try:
        run = run_bench(BenchConfig(
            scale=args.scale,
            profile=args.profile,
            scenario_names=args.scenario,
            scorecard=not args.no_scorecard,
        ))
    except (BenchError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    return write_and_gate(
        run, args.bench_out or dated_name("BENCH"), args.baseline,
        load_artifact, compare_artifacts,
    )


if __name__ == "__main__":
    raise SystemExit(main())
