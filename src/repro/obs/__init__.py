"""Privacy-safe observability: tracing, metrics, logging, redaction.

The paper's demo *is* an observability pitch -- clicking an operator pops
up its statistics, Figure 6 plots per-plan execution time.  This package
is that idea grown into a subsystem:

* :mod:`repro.obs.tracer` -- nested spans over the simulated device
  clock *and* the host wall clock;
* :mod:`repro.obs.export` -- Chrome trace-event JSON (loads in
  Perfetto / ``chrome://tracing``) and a compact text tree;
* :mod:`repro.obs.registry` -- counters/gauges/histograms with
  Prometheus-style text exposition, aggregated across queries;
* :mod:`repro.obs.log` -- stdlib logging wiring for the whole package;
* :mod:`repro.obs.redact` -- the gate every span attribute passes
  through, so hidden column values can never enter a trace.

:class:`Observability` bundles one of each per session and is threaded
through the optimizer, executor and hardware layers by
:class:`~repro.core.ghostdb.GhostDB`.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_json,
    render_tree,
    span_tree_dicts,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import (
    FlightEvent,
    FlightRecorder,
    fingerprint_hex,
    plan_fingerprint,
)
from repro.obs.ledger import QueryLedgerEntry, ResourceLedger
from repro.obs.log import configure, configure_from_env, get_logger
from repro.obs.redact import Redactor
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Observability",
    "QueryLedgerEntry",
    "Redactor",
    "ResourceLedger",
    "Span",
    "Tracer",
    "chrome_trace_json",
    "configure",
    "configure_from_env",
    "fingerprint_hex",
    "get_logger",
    "plan_fingerprint",
    "register_query_families",
    "render_tree",
    "span_tree_dicts",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Percentiles the SLO summary (``.metrics``, ``.top``) reports.
SLO_QUANTILES = (0.5, 0.9, 0.99)


def register_query_families(registry: MetricsRegistry) -> None:
    """Pre-register the query-attributed metric families so the
    exposition is complete (at zero) before the first query.

    Get-or-create, and the first registration's help text wins: the
    device core runs it before its hardware registers the families it
    shares (``ghostdb_flight_events_total``, the fault counters)."""
    registry.counter(
        "ghostdb_queries_total",
        "completed SELECT, UPDATE and DELETE statements",
    )
    registry.counter(
        "ghostdb_result_rows_total",
        "SELECT result rows plus UPDATE and DELETE matched rows",
    )
    registry.counter(
        "ghostdb_flash_page_reads_total",
        "flash page reads attributed to queries",
    )
    registry.counter(
        "ghostdb_flash_page_writes_total",
        "flash page writes attributed to queries",
    )
    registry.counter(
        "ghostdb_flash_block_erases_total",
        "flash block erases attributed to queries",
    )
    registry.counter(
        "ghostdb_usb_messages_total",
        "USB messages attributed to queries",
    )
    registry.counter(
        "ghostdb_usb_bytes_total",
        "USB payload bytes attributed to queries, by direction",
    )
    registry.counter(
        "ghostdb_sim_seconds_total",
        "simulated device seconds attributed to queries, by category",
    )
    registry.gauge(
        "ghostdb_ram_high_water_bytes",
        "largest per-query device RAM peak seen this session",
    )
    registry.counter(
        "ghostdb_plans_considered_total",
        "candidate plans priced by the optimizer",
    )
    registry.counter(
        "ghostdb_bloom_false_positives_total",
        "tuples that passed a Bloom filter but failed the host recheck",
    )
    registry.counter(
        "ghostdb_operator_sim_seconds_total",
        "per-operator simulated self time, by operator name",
    )
    registry.counter(
        "ghostdb_trace_redactions_total",
        "span attribute tokens scrubbed by the redaction gate",
    )
    registry.gauge(
        "ghostdb_trace_spans",
        "spans currently held by the tracers of all live sessions",
    )
    registry.histogram(
        "ghostdb_optimizer_est_over_meas",
        "cost-model estimated over measured simulated seconds, "
        "per executed plan",
        buckets=(0.25, 0.5, 0.8, 1.25, 2.0, 4.0),
    )
    # Fault injection and crash recovery (see docs/ROBUSTNESS.md).
    registry.counter(
        "ghostdb_faults_injected_total",
        "faults manifested by the deterministic injector, "
        "by site and kind",
    )
    registry.counter(
        "ghostdb_usb_retries_total",
        "USB frame retransmissions, by reason (corrupt, dropped)",
    )
    registry.counter(
        "ghostdb_flash_remaps_total",
        "FTL write remaps after torn pages or bad blocks, by reason",
    )
    registry.counter(
        "ghostdb_flash_ecc_corrections_total",
        "transient flash read bit-flips corrected by the spare-area "
        "ECC (charged as an extra read)",
    )
    registry.counter(
        "ghostdb_device_flash_bad_blocks_total",
        "blocks that manifested as bad and were retired",
    )
    registry.counter(
        "ghostdb_recovery_remounts_total",
        "device remounts after a power cut or unplug",
    )
    registry.counter(
        "ghostdb_recovery_scans_total",
        "mount-time FTL recovery scans over the spare-area journal",
    )
    registry.counter(
        "ghostdb_recovery_pages_scanned_total",
        "programmed pages visited by recovery scans",
    )
    registry.counter(
        "ghostdb_recovery_torn_pages_total",
        "torn or unjournaled pages rolled back by recovery scans",
    )
    registry.counter(
        "ghostdb_recovery_aborted_queries_total",
        "queries aborted by an injected fault, by reason",
    )
    # Adversary-eye leakage metering (see docs/OBSERVABILITY.md).
    registry.counter(
        "ghostdb_leak_queries_profiled_total",
        "queries whose boundary traffic was leak-profiled",
    )
    registry.counter(
        "ghostdb_leak_observable_bytes_total",
        "bytes a USB observer sees, attributed to queries, "
        "by direction",
    )
    registry.counter(
        "ghostdb_leak_messages_total",
        "boundary messages a USB observer sees, by kind",
    )
    registry.counter(
        "ghostdb_leak_ids_observed_total",
        "row IDs readable off the wire (repeats counted), by kind",
    )
    registry.gauge(
        "ghostdb_leak_distinct_shapes",
        "distinct (direction, kind, size) message shapes of the "
        "last profiled query",
    )
    registry.gauge(
        "ghostdb_leak_shape_entropy_bits",
        "shape-distribution entropy of the last profiled query",
    )
    registry.gauge(
        "ghostdb_leak_request_signature",
        "request-sequence signature (CRC32) of the last profiled "
        "query -- fault-profile invariant by construction",
    )
    # SLO resource families (see docs/OBSERVABILITY.md): per-query
    # distributions of the ledger's resource vectors, the percentile
    # surfaces the multi-session scheduler prices admission against.
    registry.histogram(
        "ghostdb_slo_sim_seconds",
        "per-query simulated device seconds",
        buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0),
    )
    registry.histogram(
        "ghostdb_slo_flash_page_reads",
        "per-query flash page reads",
        buckets=(4, 16, 64, 256, 1024, 4096, 16384),
    )
    registry.histogram(
        "ghostdb_slo_usb_messages",
        "per-query USB boundary messages",
        buckets=(4, 16, 64, 256, 1024, 4096),
    )
    registry.histogram(
        "ghostdb_slo_usb_bytes",
        "per-query USB payload bytes, both directions summed",
        buckets=(1024, 8192, 65536, 262144, 1048576, 4194304),
    )
    registry.histogram(
        "ghostdb_slo_ram_high_water_bytes",
        "per-query device RAM high-water mark",
        buckets=(1024, 4096, 16384, 65536, 262144, 1048576),
    )
    registry.histogram(
        "ghostdb_slo_result_rows",
        "per-query result rows",
        buckets=(1, 10, 100, 1000, 10000, 100000),
    )
    registry.counter(
        "ghostdb_flight_events_total",
        "flight-recorder events journaled since the last reset",
    )
    registry.counter(
        "ghostdb_postmortem_bundles_total",
        "postmortem bundles written, by reason",
    )


class Observability:
    """One session's tracer and ledger over a registry, flight recorder
    and redactor that may be shared with other sessions."""

    def __init__(
        self,
        clock=None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        redactor: Redactor | None = None,
    ):
        """``registry``, ``flight`` and ``redactor`` are injected when
        several sessions on one device share them (one metrics
        exposition, one black box)."""
        self.redactor = redactor if redactor is not None else Redactor()
        self.tracer = Tracer(clock=clock, redactor=self.redactor)
        self.registry = registry if registry is not None else MetricsRegistry()
        # The black box: host-side memory, on the tracer's clock.
        self.flight = (
            flight if flight is not None else FlightRecorder(clock=clock)
        )
        self.ledger = ResourceLedger()
        #: This tracer's share of the shared ``ghostdb_trace_spans``
        #: gauge, as of the registry reset numbered ``_spans_epoch``.
        self._spans_reported = 0
        self._spans_epoch = self.registry.resets
        register_query_families(self.registry)

    # ------------------------------------------------------------------

    def record_query_metrics(
        self,
        metrics,
        fingerprint: int = 0,
        wall_seconds: float = 0.0,
    ) -> QueryLedgerEntry:
        """Fold one query's :class:`ExecutionMetrics` diff into the
        cross-query registry totals, the ``ghostdb_slo_*`` distributions
        and the resource ledger; returns the filed ledger entry."""
        reg = self.registry
        reg.counter("ghostdb_queries_total").inc()
        reg.counter("ghostdb_result_rows_total").inc(metrics.result_rows)
        reg.counter("ghostdb_flash_page_reads_total").inc(
            metrics.flash_page_reads
        )
        reg.counter("ghostdb_flash_page_writes_total").inc(
            metrics.flash_page_writes
        )
        reg.counter("ghostdb_flash_block_erases_total").inc(
            metrics.flash_block_erases
        )
        reg.counter("ghostdb_usb_messages_total").inc(metrics.usb_messages)
        reg.counter("ghostdb_usb_bytes_total").inc(
            metrics.usb_bytes_to_device, direction="to_device"
        )
        reg.counter("ghostdb_usb_bytes_total").inc(
            metrics.usb_bytes_to_host, direction="to_host"
        )
        for category, seconds in metrics.time.as_dict().items():
            reg.counter("ghostdb_sim_seconds_total").inc(
                max(0.0, seconds), category=category
            )
        reg.gauge("ghostdb_ram_high_water_bytes").set_max(
            metrics.ram_high_water
        )
        for op in metrics.operators:
            reg.counter("ghostdb_operator_sim_seconds_total").inc(
                max(0.0, op.self_seconds), operator=op.name
            )
        reg.counter("ghostdb_trace_redactions_total").inc(
            max(
                0,
                self.redactor.redacted_tokens
                - reg.counter("ghostdb_trace_redactions_total").total(),
            )
        )
        self.report_spans()
        self._observe_slo(metrics)
        entry = QueryLedgerEntry.from_metrics(
            self.ledger.next_index, fingerprint, metrics, wall_seconds
        )
        self.ledger.record(entry)
        return entry

    def report_spans(self, live: bool = True) -> None:
        """Bring this session's share of ``ghostdb_trace_spans`` up to
        date: its tracer's span count, or zero once it is not ``live``.

        Sessions sharing a registry each own a tracer, so each applies
        only the change since its last report and the gauge is the total
        over all live sessions.  A registry reset wipes every share.
        """
        reg = self.registry
        if self._spans_epoch != reg.resets:
            self._spans_epoch, self._spans_reported = reg.resets, 0
        count = self.tracer.span_count() if live else 0
        if count != self._spans_reported:
            reg.gauge("ghostdb_trace_spans").inc(count - self._spans_reported)
            self._spans_reported = count

    def record_aborted_query(
        self,
        metrics,
        fingerprint: int = 0,
        wall_seconds: float = 0.0,
        reason: str = "GhostDBFaultError",
    ) -> QueryLedgerEntry:
        """File a fault-aborted query's (real) consumption in the ledger.

        Deliberately *not* folded into ``ghostdb_queries_total`` or the
        SLO distributions: those count completed queries, and a query
        killed halfway would drag every percentile toward its truncated
        cost.  The ledger row -- marked with the abort's exception class
        name -- is what the postmortem bundle surfaces.
        """
        entry = QueryLedgerEntry.from_metrics(
            self.ledger.next_index,
            fingerprint,
            metrics,
            wall_seconds,
            aborted=reason,
        )
        self.ledger.record(entry)
        return entry

    def _observe_slo(self, metrics) -> None:
        reg = self.registry
        reg.histogram("ghostdb_slo_sim_seconds").observe(
            metrics.elapsed_seconds
        )
        reg.histogram("ghostdb_slo_flash_page_reads").observe(
            metrics.flash_page_reads
        )
        reg.histogram("ghostdb_slo_usb_messages").observe(
            metrics.usb_messages
        )
        reg.histogram("ghostdb_slo_usb_bytes").observe(
            metrics.usb_bytes_to_device + metrics.usb_bytes_to_host
        )
        reg.histogram("ghostdb_slo_ram_high_water_bytes").observe(
            metrics.ram_high_water
        )
        reg.histogram("ghostdb_slo_result_rows").observe(
            metrics.result_rows
        )

    def slo_summary(self) -> dict[str, dict]:
        """Percentile estimates for every ``ghostdb_slo_*`` family.

        ``{family: {"count": n, "p50": ..., "p90": ..., "p99": ...}}``,
        families with no observations omitted.  This is what ``.metrics``
        prints above the raw exposition.
        """
        summary = {}
        for metric in self.registry:
            if not metric.name.startswith("ghostdb_slo_"):
                continue
            if metric.kind != "histogram":
                continue
            count = metric.count()
            if count == 0:
                continue
            row = {"count": count}
            for q in SLO_QUANTILES:
                row[f"p{int(q * 100)}"] = metric.quantile(q)
            summary[metric.name] = row
        return summary

    def record_leakage(self, profile) -> None:
        """Fold one query's :class:`~repro.privacy.meter.TrafficProfile`
        into the ``ghostdb_leak_*`` families.

        Everything recorded here is traffic *shape* -- counts, sizes,
        the sequence CRC -- so it passes the same bar as span
        attributes: numbers only, no values.
        """
        reg = self.registry
        reg.counter("ghostdb_leak_queries_profiled_total").inc()
        reg.counter("ghostdb_leak_observable_bytes_total").inc(
            profile.bytes_to_device, direction="to_device"
        )
        reg.counter("ghostdb_leak_observable_bytes_total").inc(
            profile.bytes_to_host, direction="to_host"
        )
        for kind, count in sorted(profile.kind_messages.items()):
            reg.counter("ghostdb_leak_messages_total").inc(count, kind=kind)
        for kind, stats in sorted(profile.id_stats.items()):
            reg.counter("ghostdb_leak_ids_observed_total").inc(
                stats.total, kind=kind
            )
        reg.gauge("ghostdb_leak_distinct_shapes").set(profile.distinct_shapes)
        reg.gauge("ghostdb_leak_shape_entropy_bits").set(
            profile.shape_entropy_bits
        )
        reg.gauge("ghostdb_leak_request_signature").set(profile.signature_int)
