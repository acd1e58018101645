"""Baseline comparator: diff a bench run against the committed baseline.

The simulated-device metrics in a bench artifact are deterministic, so a
re-run of unchanged code reproduces the baseline *exactly*; any increase
beyond the tolerance is a genuine cost regression introduced by a code
change, not noise.  Host wall time is never gated (see
:data:`repro.bench.artifact.GATED_METRICS`).

Policy:

* a gated metric above ``baseline * (1 + tolerance)`` is a regression;
* a scenario present in the baseline but missing from the run fails
  (coverage must not silently shrink);
* a scenario new in the run is reported but passes (it has no baseline
  yet -- commit a refreshed one);
* mismatched schema version, scale or profile fails outright: the
  numbers would not be comparable.

Usable as a library (:func:`compare_artifacts`) or directly::

    python -m repro.bench.compare benchmarks/baseline.json BENCH_x.json
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.bench.artifact import GATED_METRICS, load_artifact

#: Relative headroom a gated metric may grow before failing.  Zero by
#: default: simulated time is summed in integer clock ticks, so it does
#: not drift with the order of charges, and a change that moves no
#: device work reproduces the baseline exactly.
DEFAULT_TOLERANCE = 0.0

#: Ceiling on the flight recorder's estimated share of host wall time.
#: The recorder is always on, so its cost rides every measurement; a
#: run whose ``recorder.overhead_fraction`` reaches this fails.
RECORDER_OVERHEAD_BUDGET = 0.05


@dataclass
class MetricDelta:
    """One gated metric compared across the two artifacts."""

    scenario: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return 1.0 if self.current == 0 else float("inf")
        return self.current / self.baseline

    def line(self) -> str:
        return (
            f"{self.scenario}: {self.metric} "
            f"{self.baseline:g} -> {self.current:g} "
            f"({self.ratio - 1:+.1%})"
        )


@dataclass
class ComparisonReport:
    """Outcome of one baseline comparison."""

    tolerance: float
    scenarios_compared: int = 0
    regressions: list[MetricDelta] = field(default_factory=list)
    improvements: list[MetricDelta] = field(default_factory=list)
    #: Scenarios whose request-sequence signature changed: the logical
    #: message sequence itself differs, which no tolerance can excuse
    #: (the signature is invariant under fault-injection retries by
    #: construction, so a change means the protocol conversation moved).
    signature_changes: list[str] = field(default_factory=list)
    missing_scenarios: list[str] = field(default_factory=list)
    new_scenarios: list[str] = field(default_factory=list)
    config_errors: list[str] = field(default_factory=list)
    #: Concurrent scenarios whose Jain fairness index landed below the
    #: floor their own row declares (``fairness_floor``).  An absolute
    #: gate on the *current* run, baseline or not: scheduling fairness
    #: is a contract, not a diff.
    fairness_failures: list[str] = field(default_factory=list)
    #: total host wall seconds summed across compared scenarios --
    #: informational only, never gated (host timing is noisy).
    baseline_wall_s: float = 0.0
    current_wall_s: float = 0.0
    #: the current run's ``recorder`` section (flight-recorder journal
    #: volume and measured host cost); ``None`` for pre-v4 artifacts.
    recorder: dict | None = None

    @property
    def recorder_ok(self) -> bool:
        if not self.recorder:
            return True
        fraction = float(self.recorder.get("overhead_fraction", 0.0))
        return fraction < RECORDER_OVERHEAD_BUDGET

    @property
    def ok(self) -> bool:
        return not (
            self.regressions
            or self.signature_changes
            or self.missing_scenarios
            or self.config_errors
            or self.fairness_failures
        ) and self.recorder_ok

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"bench comparison: {status} "
            f"({self.scenarios_compared} scenarios x "
            f"{len(GATED_METRICS)} gated metrics, "
            f"tolerance {self.tolerance:.0%})"
        ]
        for error in self.config_errors:
            lines.append(f"  config mismatch: {error}")
        for name in self.missing_scenarios:
            lines.append(f"  missing scenario: {name} (in baseline, not run)")
        for delta in self.regressions:
            lines.append(f"  REGRESSION {delta.line()}")
        for line in self.signature_changes:
            lines.append(f"  SIGNATURE CHANGED {line}")
        for line in self.fairness_failures:
            lines.append(f"  UNFAIR SCHEDULE {line}")
        for delta in self.improvements:
            lines.append(f"  improved   {delta.line()}")
        for name in self.new_scenarios:
            lines.append(
                f"  new scenario: {name} (no baseline -- commit a "
                f"refreshed benchmarks/baseline.json)"
            )
        if self.recorder:
            fraction = float(self.recorder.get("overhead_fraction", 0.0))
            events = self.recorder.get("total_events", 0)
            per_event = float(self.recorder.get("per_event_seconds", 0.0))
            verdict = (
                "within budget"
                if self.recorder_ok
                else f"OVER BUDGET (>= {RECORDER_OVERHEAD_BUDGET:.0%})"
            )
            lines.append(
                f"  recorder overhead: {fraction:.3%} of host wall "
                f"({events} events x {per_event * 1e9:.0f} ns) -- "
                f"{verdict}"
            )
        if self.baseline_wall_s or self.current_wall_s:
            if self.baseline_wall_s > 0:
                trend = (
                    f"{self.current_wall_s / self.baseline_wall_s:.2f}x, "
                )
            else:
                trend = ""
            lines.append(
                f"  host wall: {self.baseline_wall_s:.2f}s baseline -> "
                f"{self.current_wall_s:.2f}s current ({trend}informational, "
                f"never gated)"
            )
        return "\n".join(lines)


def compare_artifacts(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ComparisonReport:
    """Diff two artifact dicts; see the module docstring for policy."""
    report = ComparisonReport(
        tolerance=tolerance, recorder=current.get("recorder") or None
    )
    for key in ("schema_version",):
        if baseline.get(key) != current.get(key):
            report.config_errors.append(
                f"{key}: baseline {baseline.get(key)!r} "
                f"vs run {current.get(key)!r}"
            )
    base_cfg = baseline.get("config", {})
    cur_cfg = current.get("config", {})
    for key in ("scale", "profile"):
        if base_cfg.get(key) != cur_cfg.get(key):
            report.config_errors.append(
                f"config.{key}: baseline {base_cfg.get(key)!r} "
                f"vs run {cur_cfg.get(key)!r}"
            )

    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    report.missing_scenarios = sorted(
        set(base_scenarios) - set(cur_scenarios)
    )
    report.new_scenarios = sorted(set(cur_scenarios) - set(base_scenarios))
    for name in sorted(set(base_scenarios) & set(cur_scenarios)):
        report.scenarios_compared += 1
        base_row = base_scenarios[name]
        cur_row = cur_scenarios[name]
        report.baseline_wall_s += float(base_row.get("wall_seconds", 0.0))
        report.current_wall_s += float(cur_row.get("wall_seconds", 0.0))
        for metric in GATED_METRICS:
            delta = MetricDelta(
                scenario=name,
                metric=metric,
                baseline=float(base_row.get(metric, 0)),
                current=float(cur_row.get(metric, 0)),
            )
            if delta.current > delta.baseline * (1 + tolerance):
                report.regressions.append(delta)
            elif delta.current < delta.baseline * (1 - tolerance):
                report.improvements.append(delta)
        base_sig = base_row.get("leak_request_signature", "")
        cur_sig = cur_row.get("leak_request_signature", "")
        if base_sig != cur_sig:
            report.signature_changes.append(
                f"{name}: {base_sig or '(none)'} -> {cur_sig or '(none)'}"
            )
    # Fairness is self-describing and absolute: every current-run row
    # carrying a floor is gated, including scenarios too new to have a
    # baseline entry.
    for name in sorted(cur_scenarios):
        row = cur_scenarios[name]
        floor = row.get("fairness_floor")
        if floor is None:
            continue
        index = float(row.get("fairness_index", 0.0))
        if index < float(floor):
            report.fairness_failures.append(
                f"{name}: fairness index {index:.4f} < floor {floor:g}"
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.compare",
        description="diff a bench artifact against a committed baseline",
    )
    parser.add_argument("baseline", help="the committed baseline JSON")
    parser.add_argument("current", help="the fresh BENCH_*.json run")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative headroom before a gated metric fails "
        f"(default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    report = compare_artifacts(
        load_artifact(args.baseline),
        load_artifact(args.current),
        tolerance=args.tolerance,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
