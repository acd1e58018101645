"""GhostDB: one device core, driven through its console session.

A :class:`GhostDB` spans both sides of the boundary -- the simulated
smart USB device (hidden side), the visible site (PC / public server),
the USB link between them, the catalog, the optimizer and the executor.
The API mirrors how the paper describes use:

* declare the schema with standard ``CREATE TABLE`` statements carrying
  the ``HIDDEN`` keyword,
* load data once, in a secure setting (the loader splits each row into
  its public and device parts),
* issue unchanged SQL; the optimizer picks a Pre/Post/Cross-filtering
  plan, and the result comes back via the secure rendering path, never
  over the observable link.

Since the multi-session split, everything shared (hardware, loaded
data, device-wide observability, fault state, session admission) lives
in a :class:`~repro.core.session.DeviceCore`, and everything per-caller
(executor/optimizer wiring, leak scorecards, traces, postmortems) lives
in a :class:`~repro.core.session.SessionContext`.  A :class:`GhostDB`
*is* its core's console: a session on the full-RAM lease the core
builds, outside the admission ledger.  It inherits the whole statement
surface and adds the owner's operations: loading, appends, faults, the
buffer pool, persistence and the device-wide exports.
:meth:`open_session` admits additional leased sessions that the
cooperative scheduler can interleave.

Example::

    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(MedicalDataGenerator().generate())
    result = db.query(demo_query())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import (
    AdmissionError,
    DeviceCore,
    SessionConfig,
    SessionContext,
    SessionError,
)
from repro.engine.executor import QueryResult
from repro.faults import FaultInjector, FaultProfile
from repro.hardware.device import default_cache_pages
from repro.hardware.profiles import DEMO_DEVICE, HardwareProfile
from repro.obs.export import chrome_trace_json, render_tree, write_chrome_trace
from repro.obs.tracer import Span

__all__ = [
    "AdmissionError",
    "GhostDB",
    "QueryTrace",
    "SessionConfig",
    "SessionError",
]


@dataclass
class QueryTrace:
    """One traced query: its result plus the spans it produced."""

    result: QueryResult
    spans: list[Span]

    def chrome_json(self, indent: int | None = None) -> str:
        """Chrome trace-event JSON (loads in Perfetto)."""
        return chrome_trace_json(self.spans, indent=indent)

    def render(self) -> str:
        """The compact text tree of spans."""
        return render_tree(self.spans)

    def save(self, path: str) -> None:
        write_chrome_trace(self.spans, path)


class GhostDB(SessionContext):
    """A complete GhostDB instance over a simulated device.

    The instance is its device's console session: a full-RAM lease
    that was never admitted, so it is neither schedulable nor closable.
    """

    def __init__(
        self,
        profile: HardwareProfile = DEMO_DEVICE,
        config: SessionConfig | None = None,
    ):
        config = config or SessionConfig()
        core = DeviceCore(profile, config)
        super().__init__(
            core=core, name="default", config=config, lease=core.console_lease
        )

    # ------------------------------------------------------------------
    # Shared state (owned by the core)
    # ------------------------------------------------------------------

    @property
    def schema(self):
        return self.core.schema

    @property
    def tree(self):
        return self.core.tree

    @property
    def site(self):
        return self.core.site

    @property
    def hidden(self):
        return self.core.hidden

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self.core.fault_injector

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, rows_by_table: dict[str, list] | None = None) -> None:
        """Split and load the database onto both sides; build indexes.

        ``rows_by_table`` maps table name -> full rows in schema column
        order, sorted by primary key.  Buffered INSERTs are merged in.
        """
        total = self.core.load_data(rows_by_table)
        self.attach()
        self.core.finish_load(total)

    def append(self, table: str, rows: list[tuple]):
        """Append rows after the initial load (a re-synchronisation
        session over the secure channel).

        Every row is checked against the schema before anything is
        written.  Splits each full row like the loader does, rebuilds
        the affected device structures (an out-of-place, GC-feeding
        operation whose cost shows up in the device counters), and
        updates the visible site, all under :meth:`statement`.  Returns
        the maintenance report.
        """
        from repro.engine.maintenance import append_rows

        with self.statement():
            table_def = self.schema.table(table)
            validated = [table_def.validate_row(row) for row in rows]
            report = append_rows(self.hidden, table, validated)
            self.site.append(table, validated)
        return report

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def open_session(
        self, name: str | None = None, ram_bytes: int | None = None
    ) -> SessionContext:
        """Admit an additional leased session (its own RAM partition,
        buffer pool and measurement plane, the console's config).
        Raises :class:`AdmissionError` when the session cap or the
        secure RAM budget is exhausted."""
        return self.core.open_session(name=name, ram_bytes=ram_bytes)

    def close_session(self, session: SessionContext) -> None:
        """Release a leased session's partition and admission slot."""
        self.core.close_session(session)

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------

    def set_faults(
        self,
        profile: str | FaultProfile | None,
        seed: int = 0,
    ) -> FaultInjector | None:
        """Attach a deterministic fault injector to the device.

        ``profile`` is a name from :data:`repro.faults.FAULT_PROFILES`
        (or a :class:`FaultProfile`); ``None`` or ``"none"``-with-no-rates
        still attaches, which is useful for scheduled power cuts.  The
        same (workload, profile, seed) triple always reproduces the
        identical fault schedule.  Returns the injector.
        """
        return self.core.set_faults(profile, seed)

    def clear_faults(self) -> None:
        """Detach the fault injector; the device is healthy again."""
        self.core.clear_faults()

    @property
    def needs_remount(self) -> bool:
        """True after a power cut or unplug, until :meth:`remount`."""
        return self.core.needs_remount

    def remount(self) -> None:
        """Plug the key back in after power loss (FTL recovery scan
        plus the mount-time orphan sweep).  Idempotent."""
        self.core.remount()

    # ------------------------------------------------------------------
    # Buffer pool
    # ------------------------------------------------------------------

    def set_cache(self, capacity_pages: int | None) -> None:
        """Resize the device buffer pool at runtime.

        ``None`` restores the profile default, ``0`` disables the pool
        (every flash access pays the NAND again).  The cost model is
        re-pointed at the new capacity so plan choices follow: without a
        pool, dense SKT access is priced at one partial read per hit
        instead of one full read per touched page.
        """
        if capacity_pages is None:
            capacity_pages = default_cache_pages(
                self.profile.ram_bytes, self.profile.page_size
            )
        self.device.page_cache.resize(capacity_pages)
        if self.optimizer is not None:
            self.optimizer.cost_model.cache_pages = (
                self.device.page_cache.capacity_for_costing
            )

    @property
    def cache_enabled(self) -> bool:
        return self.device.page_cache.enabled

    # ------------------------------------------------------------------
    # Persistence (unplug / replug the key)
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the whole session -- flash image, indexes, wear
        counters, visible store -- to ``path``."""
        from repro.core.persistence import save_session

        save_session(self, path)

    @classmethod
    def restore(cls, path: str) -> "GhostDB":
        """Reopen a session saved with :meth:`save`."""
        from repro.core.persistence import load_session

        return load_session(path)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def trace(self, sql: str) -> QueryTrace:
        """Run a SELECT and return its result together with the trace
        spans it produced (optimizer candidates unless the plan came
        from the session's plan table, operators, hardware counter
        attributes) -- the demo's popup view, as data."""
        tracer = self.obs.tracer
        mark = tracer.mark()
        result = self.query(sql)
        return QueryTrace(result=result, spans=tracer.roots_since(mark))

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the session's metrics:
        query-attributed ``ghostdb_*`` families (counter totals match
        the summed per-query :class:`ExecutionMetrics` diffs) plus
        device-lifetime ``ghostdb_device_*`` families."""
        return self.obs.registry.expose_text()

    def bench_report(self) -> dict:
        """Grade the optimizer's estimates on this loaded session.

        Runs every candidate strategy of every query family (resetting
        the measurement state around each execution), returns the
        per-family T9 scorecard dict and feeds the per-candidate
        est/meas ratios into the ``ghostdb_optimizer_est_over_meas``
        histogram.  See :mod:`repro.bench.scorecard`.
        """
        from repro.bench.scorecard import build_scorecard

        return build_scorecard(self)

    def export_trace(self, path: str) -> None:
        """Write the retained root spans as Chrome trace-event JSON
        (loadable in Perfetto / ``chrome://tracing``): the last
        :data:`~repro.obs.ledger.DEFAULT_WINDOW` (512) roots, one per
        statement, since load or the last reset.  Older trees were
        evicted, their spans counted in ``obs.tracer.dropped``."""
        write_chrome_trace(list(self.obs.tracer.roots), path)

    @property
    def usb_log(self):
        """The device-lifetime capture: every session's trust-boundary
        traffic, interleaved as the spy on the bus sees it."""
        return self.core.device.usb.records()

    def reset_measurements(self) -> None:
        """Zero clock/traffic/counters/metrics/trace between measured
        queries: the device's own plane (clock, lifetime capture, chip
        tallies), the session's, then the whole shared registry (after
        the cache clear, which counts invalidations)."""
        self.core.device.reset_measurements()
        super().reset_measurements()
        self.obs.registry.reset()
