"""Benchmark regression harness: runner, comparator, scorecard.

The benchmark suite under ``benchmarks/`` reproduces the paper's figures
and tables interactively; this package makes the same measurements a
*regression instrument*:

* :mod:`repro.bench.scenarios` -- the figure/table points as named,
  single-execution scenarios over a loaded session;
* :mod:`repro.bench.runner` -- ``python -m repro bench``: runs every
  scenario, writes one schema-versioned, redacted, leak-checked
  ``BENCH_<date>.json`` artifact;
* :mod:`repro.bench.artifact` -- the artifact layout, its redaction
  gate and the list of gated (deterministic) metrics;
* :mod:`repro.bench.compare` -- diffs a run against the committed
  ``benchmarks/baseline.json`` and fails on cost regressions;
* :mod:`repro.bench.scorecard` -- the T9 estimate-quality table
  (est/meas ratio per candidate plan, per query family), also fed into
  the ``ghostdb_optimizer_est_over_meas`` histogram.

Simulated-device metrics are deterministic, so the comparator can gate
*exactly*: an unchanged tree reproduces the baseline bit-for-bit, and
any drift is a real cost change.  Host wall time is recorded for
context but never gated.
"""

from repro.bench.artifact import (
    GATED_METRICS,
    KIND,
    SCHEMA_VERSION,
    build_artifact,
    load_artifact,
    scenario_record,
)
from repro.bench.compare import (
    ComparisonReport,
    MetricDelta,
    compare_artifacts,
)
from repro.bench.runner import BenchConfig, BenchError, BenchRun, run_bench
from repro.bench.scenarios import SCENARIOS, Scenario, select_scenarios
from repro.bench.scorecard import (
    MISESTIMATE_THRESHOLD,
    FamilyScore,
    build_scorecard,
    render_scorecard,
    score_family,
)

__all__ = [
    "GATED_METRICS",
    "KIND",
    "MISESTIMATE_THRESHOLD",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "BenchConfig",
    "BenchError",
    "BenchRun",
    "ComparisonReport",
    "FamilyScore",
    "MetricDelta",
    "Scenario",
    "build_artifact",
    "build_scorecard",
    "compare_artifacts",
    "load_artifact",
    "render_scorecard",
    "run_bench",
    "scenario_record",
    "score_family",
    "select_scenarios",
]
