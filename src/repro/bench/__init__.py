"""Benchmark regression harness: runner, comparator, scorecard.

The benchmark suite under ``benchmarks/`` reproduces the paper's figures
and tables interactively; this package makes the same measurements a
*regression instrument*:

* :mod:`repro.bench.scenarios` -- the figure/table points as named,
  single-execution scenarios over a loaded session;
* :mod:`repro.bench.runner` -- ``python -m repro bench``: runs every
  scenario, writes one schema-versioned, redacted, leak-checked
  ``BENCH_<date>.json`` artifact;
* :mod:`repro.bench.artifact` -- the artifact layout, the list of
  gated (deterministic) metrics, and the comparator that diffs a run
  against the committed ``benchmarks/baseline.json`` through the shared
  baseline gate of :mod:`repro.obs.vetted` and fails on cost
  regressions;
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
    compare_artifacts,
    load_artifact,
    scenario_record,
)
from repro.bench.runner import BenchConfig, BenchError, run_bench
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
    "FamilyScore",
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
