"""Schema-versioned benchmark artifacts (``BENCH_<date>.json``).

One bench run produces one JSON artifact: per-scenario simulated-device
measurements (deterministic -- same code, same scale, same numbers),
host wall times (informational only), and the optimizer estimate-quality
scorecard.  :func:`compare_artifacts` diffs two artifacts; CI commits
one as ``benchmarks/baseline.json`` and gates on the diff.

Artifacts are observable execution artefacts, so the runner serializes
them through the shared redaction gate of :mod:`repro.obs.vetted`
(out-of-vocabulary string tokens scrub to ``?``) and verifies the
payload CLEAN with the adversarial
:class:`~repro.privacy.leakcheck.LeakChecker`.
"""

from __future__ import annotations

from repro.obs.vetted import GateReport, compare_rows, load

#: Bump on any incompatible change to the artifact layout.  The
#: comparator refuses to diff artifacts of different versions.
#: v2 added the per-scenario ``leak_*`` leakage columns.
#: v3 added the buffer-pool ``cache_hits``/``cache_misses`` columns.
#: v4 added the ``flight_events`` column and the top-level ``recorder``
#: overhead section (the comparator gates its host-wall fraction < 5%).
SCHEMA_VERSION = 4

#: Artifact discriminator, so tooling can reject arbitrary JSON.
KIND = "ghostdb-bench"

#: Per-scenario metrics the comparator gates on.  All are deterministic
#: functions of the code and the scenario (simulated device time and
#: event counts); ``wall_seconds`` is deliberately absent -- host speed
#: is informational, never a regression signal.
GATED_METRICS = (
    "sim_seconds",
    "flash_page_reads",
    "flash_page_writes",
    "flash_block_erases",
    "usb_messages",
    "usb_bytes_to_device",
    "usb_bytes_to_host",
    "ram_high_water",
    # Adversary-eye leakage columns (v2): what the scenario's traffic
    # shape reveals.  Deterministic like the rest, gated like the rest --
    # a wider observable channel is a regression even when it is faster.
    "leak_observable_bytes",
    "leak_messages",
    "leak_ids_observed",
)


def scenario_record(
    metrics, wall_seconds: float, family: str, leak=None,
    flight_events: int = 0, extra: dict | None = None,
) -> dict:
    """One scenario's measurements as a plain JSON-ready dict.

    ``metrics`` is the :class:`~repro.engine.metrics.ExecutionMetrics`
    diff of the scenario's single measured execution; ``leak`` is the
    :class:`~repro.privacy.meter.TrafficProfile` of the traffic that
    execution produced (``None`` leaves the leakage columns at zero,
    for scenarios that never touch the boundary); ``flight_events`` is
    how many flight-recorder events the scenario journalled; ``extra``
    merges scenario-specific numeric columns (the concurrent scenarios'
    fairness index / latency percentiles, with ``fairness_floor``
    making the row self-describing for the comparator's gate).
    """
    record = {
        "family": family,
        "sim_seconds": metrics.elapsed_seconds,
        "sim_breakdown": metrics.time.as_dict(),
        "flash_page_reads": metrics.flash_page_reads,
        "flash_page_writes": metrics.flash_page_writes,
        "flash_block_erases": metrics.flash_block_erases,
        "usb_messages": metrics.usb_messages,
        "usb_bytes_to_device": metrics.usb_bytes_to_device,
        "usb_bytes_to_host": metrics.usb_bytes_to_host,
        "ram_high_water": metrics.ram_high_water,
        # Buffer-pool traffic is deterministic like the rest but not
        # gated: more hits is an improvement, and the cost side of a
        # miss is already gated through ``flash_page_reads``.
        "cache_hits": metrics.cache_hits,
        "cache_misses": metrics.cache_misses,
        "result_rows": metrics.result_rows,
        "wall_seconds": wall_seconds,
        # Flight-recorder journal volume: deterministic but not gated --
        # richer instrumentation must not read as a cost regression.
        "flight_events": flight_events,
        "leak_observable_bytes": 0,
        "leak_messages": 0,
        "leak_ids_observed": 0,
        "leak_distinct_shapes": 0,
        "leak_shape_entropy_bits": 0.0,
        "leak_request_signature": "",
    }
    if leak is not None:
        record.update(
            leak_observable_bytes=leak.observable_bytes,
            leak_messages=leak.messages,
            leak_ids_observed=leak.ids_observed,
            leak_distinct_shapes=leak.distinct_shapes,
            leak_shape_entropy_bits=round(leak.shape_entropy_bits, 6),
            leak_request_signature=leak.signature,
        )
    if extra:
        record.update(extra)
    return record


def build_artifact(
    *,
    scale: int,
    profile: str,
    created: str,
    scenarios: dict[str, dict],
    scorecard: dict[str, dict],
    recorder: dict | None = None,
) -> dict:
    """Assemble the full artifact dict (pre-redaction).

    ``recorder`` is the flight-recorder overhead section built by the
    runner (total events, measured per-event host cost, and the
    estimated fraction of scenario wall time spent journalling); the
    comparator fails a run whose fraction reaches 5%.
    """
    return {
        "kind": KIND,
        "schema_version": SCHEMA_VERSION,
        "created": created,
        "config": {"scale": scale, "profile": profile},
        "scenarios": scenarios,
        "scorecard": scorecard,
        "recorder": recorder or {},
        "leak_check": "CLEAN",
    }


def load_artifact(path: str) -> dict:
    """Read one artifact back, refusing foreign or future JSON."""
    return load(path, KIND, SCHEMA_VERSION)


#: Ceiling on the flight recorder's estimated share of host wall time.
#: The recorder is always on, so its cost rides every measurement; a
#: run whose ``recorder.overhead_fraction`` reaches this fails.
RECORDER_OVERHEAD_BUDGET = 0.05


def compare_artifacts(baseline: dict, current: dict) -> GateReport:
    """Diff a bench run against its baseline.

    The run must reproduce the baseline exactly: the shared gate of
    :func:`repro.obs.vetted.compare_rows` fails any increase in a gated
    metric, a missing scenario, a changed request signature or a config
    mismatch (host wall time is never gated).  Two absolute checks on
    the run itself ride along: every concurrent scenario must reach the
    fairness floor its own row declares, and the flight recorder must
    stay under its host-wall budget.
    """
    report = compare_rows(
        "bench comparison", baseline, current,
        "scenarios", GATED_METRICS, "leak_request_signature",
    )
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
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
            report.failures.append(
                f"UNFAIR SCHEDULE {name}: fairness index {index:.4f} "
                f"< floor {floor:g}"
            )
    recorder = current.get("recorder")
    if recorder:
        fraction = float(recorder.get("overhead_fraction", 0.0))
        events = recorder.get("total_events", 0)
        per_event = float(recorder.get("per_event_seconds", 0.0))
        within = fraction < RECORDER_OVERHEAD_BUDGET
        verdict = (
            "within budget" if within
            else f"OVER BUDGET (>= {RECORDER_OVERHEAD_BUDGET:.0%})"
        )
        (report.notes if within else report.failures).append(
            f"recorder overhead: {fraction:.3%} of host wall "
            f"({events} events x {per_event * 1e9:.0f} ns) -- {verdict}"
        )
    shared = set(base_scenarios) & set(cur_scenarios)
    base_wall, cur_wall = (
        sum(float(rows[name].get("wall_seconds", 0.0)) for name in shared)
        for rows in (base_scenarios, cur_scenarios)
    )
    if base_wall or cur_wall:
        trend = f"{cur_wall / base_wall:.2f}x, " if base_wall > 0 else ""
        report.notes.append(
            f"host wall: {base_wall:.2f}s baseline -> {cur_wall:.2f}s "
            f"current ({trend}informational, never gated)"
        )
    return report
