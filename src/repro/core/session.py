"""Re-entrant session cores: shared device state vs per-session state.

The paper's deployment story is many client terminals contending for one
slow USB key.  This module splits what used to be the monolithic
:class:`~repro.core.ghostdb.GhostDB` blob into the two ownership domains
that story implies:

* :class:`DeviceCore` -- everything there is exactly **one** of per
  device: the simulated hardware stack, the FTL and its flash image, the
  loaded catalog/visible/hidden data, the device-wide observability
  (metrics registry, flight recorder, redactor), fault injection, and
  the admission ledger that hands out per-session RAM partitions.
* :class:`SessionContext` -- everything each open session owns
  privately: its RAM partition and buffer pool (a :class:`HardwareLease`),
  its simulated-time account, its USB capture, its tracer and resource
  ledger, its leak scorecard, and its own executor/optimizer/link wired
  against a :class:`SessionDevice` view of the shared hardware.

Every session is a lease.  The console -- the session a
:class:`~repro.core.ghostdb.GhostDB` is -- holds a full-RAM partition
the core builds next to the device and stays outside the admission
ledger; admitted sessions get a partition carved out of the secure RAM.
Each runs its statements under its own *activation*
(:meth:`DeviceCore.activated`), and the cooperative scheduler
(:mod:`repro.core.scheduler`) interleaves admitted sessions at
batch-window boundaries by activating one lease at a time.

Activation swaps the device's volatile per-session surfaces -- RAM
budget, buffer pool, flash op counters, USB capture log -- for the
lease's, tees every simulated-clock charge into the lease's private
clock, and mirrors every USB record into the device-lifetime log.  The
result is the invariant the whole refactor hangs on: a session's rows,
:class:`~repro.engine.metrics.ExecutionMetrics` diffs and leak
signatures are bit-identical whether its statements ran alone or
interleaved with any number of other sessions, while the device log
still shows the spy the full interleaved traffic stream.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.catalog.schema import Schema, SchemaError
from repro.catalog.tree import SchemaTree
from repro.engine.database import HiddenDatabase
from repro.engine.executor import ExecConfig, Executor, QueryResult, drain
from repro.engine.plan import DeletePlan, Project, UpdatePlan
from repro.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    GhostDBFaultError,
    PowerCutError,
)
from repro.hardware.clock import SimClock
from repro.hardware.device import (
    DeviceCounters,
    SmartUsbDevice,
    default_cache_pages,
)
from repro.hardware.flash import FlashStats
from repro.hardware.pagecache import CacheStats, PageCache
from repro.hardware.profiles import DEMO_DEVICE, HardwareProfile
from repro.hardware.ram import RamBudget
from repro.obs import (
    MetricsRegistry,
    Observability,
    Redactor,
    get_logger,
    register_query_families,
)
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.optimizer.optimizer import Optimizer, RankedPlan
from repro.optimizer.space import PlanBuilder, Strategy
from repro.privacy.meter import TrafficProfile, profile_records
from repro.sql import ast
from repro.sql.binder import Binder, BoundQuery
from repro.sql.ddl import create_table
from repro.sql.parser import parse_statement
from repro.visible.link import DeviceLink, batch_sizes
from repro.visible.site import VisibleSite

log = get_logger(__name__)

#: Most prepared plans one session keeps; past it the least recently
#: used entry is evicted.
PLAN_TABLE_SIZE = 256


class SessionError(RuntimeError):
    """The session was used out of order (e.g. query before load)."""


class AdmissionError(SessionError):
    """A session could not be admitted: the device's session cap or
    secure RAM budget is exhausted.  Callers either surface the
    rejection or queue the request until a session closes."""


@dataclass
class SessionConfig:
    """Session-wide tunables."""

    exec_config: ExecConfig | None = None
    index_columns: list | None = None
    #: Seed a postmortem bundle reports while no fault injector is
    #: attached.
    fault_seed: int = 0
    #: Device buffer-pool capacity in pages: ``None`` takes the profile
    #: default (a quarter of RAM), ``0`` disables the pool.
    cache_pages: int | None = None
    #: Flight-recorder ring capacity in events and enablement.  The
    #: ring is host memory, outside the device's secure RAM budget.
    flight_capacity: int = DEFAULT_CAPACITY
    flight_enabled: bool = True
    #: Write a postmortem bundle (``DUMP_<seed>.json`` in ``dump_dir``)
    #: whenever an injected fault aborts a query.
    dump_on_fault: bool = False
    dump_dir: str = "."
    #: Most sessions that may be open against one device at once (the
    #: default session is the console and is not counted).
    max_sessions: int = 8

    def __post_init__(self):
        if self.exec_config is None:
            self.exec_config = ExecConfig()


class HardwareLease:
    """One session's partition of the device's volatile resources.

    A lease owns the four things that make a session's measurements
    private: a RAM budget carved out of the secure chip's RAM, a buffer
    pool over that budget, a simulated clock that starts at zero, and a
    USB capture log plus flash op counters of its own.  Flash contents,
    the FTL map and the secure chip are *not* leased -- they are the
    shared database.
    """

    def __init__(
        self,
        name: str,
        profile: HardwareProfile,
        ram_bytes: int,
        cache_pages: int | None = None,
        flight=None,
        metrics=None,
    ):
        self.name = name
        self.capacity = ram_bytes
        #: Private simulated-time account, fed by the device clock's tee
        #: while this lease is active.  Starts at zero like a
        #: single-session device's clock, so per-query time diffs are
        #: bit-identical to a serial run.
        self.clock = SimClock()
        #: The session's RAM partition and its pool.  Only the console's
        #: report to ``metrics`` (the ``ghostdb_device_ram_*`` and
        #: ``ghostdb_cache_*`` families); an admitted session's peaks
        #: surface via ``ghostdb_session_ram_high_water_bytes``.
        self.ram = RamBudget(capacity=ram_bytes, metrics=metrics, flight=flight)
        self.flash_stats = FlashStats()
        if cache_pages is None:
            # The device default over the partition: a full-RAM lease
            # has the device's own pool size.
            cache_pages = default_cache_pages(ram_bytes, profile.page_size)
        self.cache = PageCache(
            budget=self.ram,
            page_size=profile.page_size,
            capacity_pages=cache_pages,
            metrics=metrics,
        )
        self.cache.flight = flight
        self.usb_log: list = []
        self.bytes_to_device = 0
        self.bytes_to_host = 0

    @property
    def firm_ram_used(self) -> int:
        """Non-reclaimable bytes currently reserved -- the number that
        must be zero once a session has no query in flight."""
        return self.ram.used - self.ram.reclaimable_used

    def remount(self) -> None:
        """Power loss: a fresh budget, the pool re-homed on it silently
        (cached pages were volatile RAM), as the device's own pool is."""
        self.ram = self.ram.fresh()
        self.cache.rewire(self.ram)


class SessionDevice:
    """A session's view of the shared device.

    Hardware that exists once (clock, flash, FTL, chip, USB channel,
    fault injector, flight recorder) resolves to the real device;
    volatile per-session surfaces (RAM budget, buffer pool) resolve to
    the lease; and :meth:`counters` is assembled entirely from lease
    state, so :class:`~repro.engine.metrics.ExecutionMetrics` diffs
    taken through this view are session-pure no matter what other
    sessions did in between.
    """

    def __init__(self, core: "DeviceCore", lease: HardwareLease):
        self._core = core
        self._lease = lease
        device = core.device
        # What lives as long as the device and the lease is bound once.
        self.profile = device.profile
        self.clock = device.clock
        self.flash = device.flash
        self.chip = device.chip
        self.usb = device.usb
        self.flight = device.flight
        self.page_cache = lease.cache

    # -- replaced at runtime ----------------------------------------------
    @property
    def ftl(self):
        """Rebuilt by every remount."""
        return self._core.device.ftl

    @property
    def faults(self):
        """Attached and detached by the owner."""
        return self._core.device.faults

    @property
    def ram(self):
        """The lease's partition, fresh after every remount."""
        return self._lease.ram

    # -- session-pure measurement ---------------------------------------
    def counters(self) -> DeviceCounters:
        lease = self._lease
        # The chip's unsettled tally reaches the lease clock through
        # the device clock's tee: settle before reading the lease clock.
        self.clock.settle()
        if self._core.active_lease is lease:
            # The live byte totals sit on the channel while activated;
            # the lease copies are only synced on deactivation.
            usb = self.usb
            to_device, to_host = usb.bytes_to_device, usb.bytes_to_host
        else:
            to_device, to_host = lease.bytes_to_device, lease.bytes_to_host
        return DeviceCounters(
            time=lease.clock.breakdown(),
            flash=lease.flash_stats.snapshot(),
            ram_high_water=lease.ram.high_water,
            usb_messages=len(lease.usb_log),
            usb_bytes_to_device=to_device,
            usb_bytes_to_host=to_host,
            cache=lease.cache.stats.snapshot(),
        )

    def reset_measurements(self) -> None:
        lease = self._lease
        self.clock.settle()
        lease.clock.reset()
        lease.usb_log.clear()
        fresh = FlashStats()
        lease.flash_stats = fresh
        lease.bytes_to_device = 0
        lease.bytes_to_host = 0
        if self._core.active_lease is lease:
            self.flash.stats = fresh
            self.usb.bytes_to_device = 0
            self.usb.bytes_to_host = 0
        lease.ram.reset_high_water()
        lease.cache.clear()
        lease.cache.stats = CacheStats()

    def __repr__(self) -> str:
        return (
            f"SessionDevice(lease={self._lease.name!r}, "
            f"ram={self._lease.capacity}B)"
        )


class DeviceCore:
    """Everything there is one of per device, plus session admission.

    Owns the simulated hardware, the device-wide observability (one
    metrics registry, flight recorder and redactor), the loaded
    database (catalog, visible site, hidden side), fault injection and
    recovery state -- and the multiplexing machinery:
    the lease ledger that partitions secure RAM across sessions, the
    peer-cache list the FTL broadcasts invalidations to, and the
    activation swap the scheduler wraps around every step.
    """

    def __init__(
        self,
        profile: HardwareProfile = DEMO_DEVICE,
        config: SessionConfig | None = None,
    ):
        self.profile = profile
        self.config = config or SessionConfig()
        self.registry = MetricsRegistry()
        register_query_families(self.registry)
        self.redactor = Redactor()
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity,
            enabled=self.config.flight_enabled,
        )
        self.device = SmartUsbDevice(
            profile,
            metrics=self.registry,
            cache_pages=self.config.cache_pages,
            flight=self.flight,
        )
        # Flight events measure simulated time against this device's
        # clock.
        self.flight.clock = self.device.clock
        self.flight.metric = self.registry.counter(
            "ghostdb_flight_events_total"
        ).labelled()
        #: The console's full-RAM partition.  It reports to the device's
        #: RAM and pool families, and stays outside the admission ledger.
        self.console_lease = HardwareLease(
            "default",
            profile,
            profile.ram_bytes,
            cache_pages=self.config.cache_pages,
            flight=self.flight,
            metrics=self.registry,
        )
        self.schema = Schema()
        self.tree: SchemaTree | None = None
        self.site: VisibleSite | None = None
        self.hidden: HiddenDatabase | None = None
        self._pending_inserts: dict[str, list[tuple]] = {}
        self.fault_injector: FaultInjector | None = None
        self.needs_remount = False
        #: Admitted sessions by name (the console is not listed).
        self.sessions: dict[str, SessionContext] = {}
        self._session_serial = 0
        #: Every live page cache over this device's FTL, the device's own
        #: (load and recovery) included; writes broadcast invalidations
        #: across all of them.
        self._peer_caches = [self.device.page_cache, self.console_lease.cache]
        self.device.ftl.peer_caches = self._peer_caches
        self.active_lease: HardwareLease | None = None

    # ------------------------------------------------------------------
    # Shared database lifecycle
    # ------------------------------------------------------------------

    def create_table(self, statement: ast.CreateTable):
        if self.tree is not None:
            raise SessionError("schema is frozen once data is loaded")
        return create_table(self.schema, statement)

    def buffer_insert(self, statement: ast.Insert) -> int:
        """INSERTs are buffered; :meth:`load_data` flushes them.

        The device is loaded once in a secure setting (Section 2), so
        inserts are collected and loaded together.
        """
        if self.tree is not None:
            raise SessionError(
                "data is loaded; GhostDB devices are loaded once, in a "
                "secure setting"
            )
        table = self.schema.table(statement.table)
        for row in statement.values:
            self._pending_inserts.setdefault(
                table.name.lower(), []
            ).append(table.validate_row(row))
        return len(statement.values)

    def load_data(self, rows_by_table: dict[str, list] | None = None) -> int:
        """Split and load the database onto both sides; build indexes.

        Returns the total row count.  Sessions wire their executors
        afterwards via :meth:`SessionContext.attach`.  An unknown table,
        a short row or a primary key given twice raises
        :class:`SchemaError` before anything is built, so a corrected
        load can follow; the refused load's buffered INSERTs are
        dropped with it.
        """
        if self.tree is not None:
            raise SessionError("data is already loaded")
        rows_by_table = {
            name.lower(): list(rows)
            for name, rows in (rows_by_table or {}).items()
        }
        for name, rows in self._pending_inserts.items():
            rows_by_table.setdefault(name, []).extend(rows)
            rows_by_table[name].sort(
                key=lambda r, t=self.schema.table(name): r[
                    t.column_index(t.pk.name)
                ]
            )
        self._pending_inserts.clear()
        for table in self.schema:
            rows_by_table.setdefault(table.name.lower(), [])
        for name, rows in rows_by_table.items():
            table = self.schema.table(name)
            pk_index = table.column_index(table.pk.name)
            seen: set = set()
            for row in rows:
                if len(row) != len(table.columns):
                    raise SchemaError(
                        f"{table.name}: row has {len(row)} values, "
                        f"expected {len(table.columns)}"
                    )
                if row[pk_index] in seen:
                    raise SchemaError(
                        f"{table.name}: primary key {row[pk_index]} is "
                        f"loaded twice"
                    )
                seen.add(row[pk_index])

        self.tree = SchemaTree(self.schema)
        self.site = VisibleSite(self.schema)
        for name, rows in rows_by_table.items():
            self.site.load(name, rows)
        self.hidden = HiddenDatabase.load(
            self.device,
            self.tree,
            rows_by_table,
            index_columns=self.config.index_columns,
        )
        return sum(len(rows) for rows in rows_by_table.values())

    def finish_load(self, total_rows: int) -> None:
        """Post-attach load steps: redaction allowances and measurement
        reset."""
        # Schema identifiers (names, never values) may appear in traces.
        self.redactor.allow_schema(self.schema)
        # Loading is not part of any query measurement.
        self.device.reset_measurements()
        log.info(
            "session loaded: %d tables, %d rows total",
            sum(1 for _ in self.schema), total_rows,
        )

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
        if profile is None:
            self.clear_faults()
            return None
        if isinstance(profile, str):
            try:
                profile = FAULT_PROFILES[profile]
            except KeyError:
                raise SessionError(
                    f"unknown fault profile {profile!r}; choose from "
                    f"{sorted(FAULT_PROFILES)}"
                ) from None
        self.fault_injector = FaultInjector(profile=profile, seed=seed)
        self.device.attach_faults(self.fault_injector)
        return self.fault_injector

    def clear_faults(self) -> None:
        """Detach the fault injector; the device is healthy again."""
        self.fault_injector = None
        self.device.detach_faults()

    def remount(self) -> None:
        """Plug the key back in after power loss.

        Rebuilds the FTL map from the flash spare-area journal (rolling
        back torn writes to the last committed state) and resets the
        volatile RAM of the device and of every session.  A mount-time
        *orphan sweep* then frees every recovered page the catalog no
        longer references.  Idempotent; safe to call on a healthy
        device.
        """
        if self.active_lease is not None:
            raise SessionError("cannot remount while a session is active")
        self.device.remount()
        # The recovery scan built a fresh FTL: re-point it at the full
        # peer-cache list or dormant sessions resume with stale pages.
        self.device.ftl.peer_caches = self._peer_caches
        self.console_lease.remount()
        for session in self.sessions.values():
            session.lease.remount()
        if self.tree is not None:
            ftl = self.device.ftl
            orphans = ftl.mapped_lpages() - self.hidden.referenced_pages()
            for lpage in orphans:
                ftl.free(lpage)
            if orphans:
                self.registry.counter(
                    "ghostdb_recovery_orphan_pages_total"
                ).inc(len(orphans))
                self.flight.record(
                    "orphan_sweep", freed=len(orphans)
                )
        self.needs_remount = False

    # ------------------------------------------------------------------
    # Session admission
    # ------------------------------------------------------------------

    @property
    def leased_bytes(self) -> int:
        """Secure RAM currently partitioned out to open sessions."""
        return sum(ctx.lease.capacity for ctx in self.sessions.values())

    def open_session(
        self,
        name: str | None = None,
        ram_bytes: int | None = None,
        config: SessionConfig | None = None,
    ) -> "SessionContext":
        """Admit a new leased session, or raise :class:`AdmissionError`.

        ``ram_bytes`` is the session's RAM partition (default: a quarter
        of the device's secure RAM).  Admission fails when the session
        cap is reached or the requested partition does not fit in the
        unleased remainder of the secure budget -- callers queue or
        surface the rejection.
        """
        if self.tree is None:
            raise SessionError("load data before opening sessions")
        registry = self.registry
        self._register_session_families()
        if name is None:
            self._session_serial += 1
            name = f"session-{self._session_serial}"
        if name in self.sessions:
            registry.counter("ghostdb_session_rejections_total").inc(
                reason="duplicate_name"
            )
            raise AdmissionError(f"session {name!r} is already open")
        if len(self.sessions) >= self.config.max_sessions:
            registry.counter("ghostdb_session_rejections_total").inc(
                reason="session_cap"
            )
            raise AdmissionError(
                f"session cap reached ({self.config.max_sessions} open)"
            )
        if ram_bytes is None:
            ram_bytes = self.profile.ram_bytes // 4
        if ram_bytes <= 0:
            raise SessionError(f"unusable RAM partition: {ram_bytes} B")
        if self.leased_bytes + ram_bytes > self.profile.ram_bytes:
            registry.counter("ghostdb_session_rejections_total").inc(
                reason="ram_budget"
            )
            raise AdmissionError(
                f"RAM budget exhausted: {name!r} requested {ram_bytes} B "
                f"but only {self.profile.ram_bytes - self.leased_bytes} B "
                f"of the secure budget remain unleased"
            )
        session_config = config if config is not None else self.config
        lease = HardwareLease(
            name,
            self.profile,
            ram_bytes,
            cache_pages=session_config.cache_pages,
            flight=self.flight,
        )
        ctx = SessionContext(
            core=self, name=name, config=session_config, lease=lease
        )
        ctx.attach()
        self.sessions[name] = ctx
        self._peer_caches.append(lease.cache)
        registry.counter("ghostdb_sessions_opened_total").inc()
        registry.gauge("ghostdb_sessions_open").set(len(self.sessions))
        self.flight.record(
            "session_open", session=name, ram_bytes=ram_bytes
        )
        return ctx

    def close_session(self, session: "SessionContext") -> None:
        """Release a leased session's RAM partition and admission slot."""
        if self.sessions.get(session.name) is not session:
            raise SessionError(f"session {session.name!r} is not open")
        if self.active_lease is session.lease:
            raise SessionError("cannot close a session mid-step")
        del self.sessions[session.name]
        session.closed = True
        session.obs.report_spans(live=False)
        self._peer_caches.remove(session.lease.cache)
        registry = self.registry
        registry.counter("ghostdb_sessions_closed_total").inc()
        registry.gauge("ghostdb_sessions_open").set(len(self.sessions))
        self.flight.record(
            "session_close",
            session=session.name,
            leaked_ram=session.lease.firm_ram_used,
        )

    def _register_session_families(self) -> None:
        """Multi-session metric families, registered when the first
        lease opens (so single-session expositions are unchanged)."""
        reg = self.registry
        reg.gauge(
            "ghostdb_sessions_open", "leased sessions currently open"
        )
        reg.counter(
            "ghostdb_sessions_opened_total", "leased sessions ever admitted"
        )
        reg.counter(
            "ghostdb_sessions_closed_total", "leased sessions ever closed"
        )
        reg.counter(
            "ghostdb_session_rejections_total",
            "session admissions refused, by reason",
        )
        reg.counter(
            "ghostdb_session_queries_total",
            "statements completed, by session",
        )
        reg.counter(
            "ghostdb_session_aborts_total",
            "statements aborted by faults, by session",
        )
        reg.counter(
            "ghostdb_session_sim_seconds_total",
            "simulated device seconds consumed, by session",
        )
        reg.counter(
            "ghostdb_session_steps_total",
            "scheduler steps (batch windows) granted, by session",
        )
        reg.gauge(
            "ghostdb_session_ram_high_water_bytes",
            "largest RAM peak within the session's partition, by session",
        )

    # ------------------------------------------------------------------
    # Activation: swap one lease's volatile surfaces into the device
    # ------------------------------------------------------------------

    @contextmanager
    def activated(self, lease: HardwareLease):
        """Run a block with ``lease``'s volatile surfaces swapped into
        the shared device.

        Re-entry with the already active lease is a no-op.  While
        active: RAM allocations land in the lease's partition, the
        buffer pool is the lease's, flash op counters and the USB
        capture are the lease's, every clock charge is teed into the
        lease's private clock, and every USB record is mirrored into the
        device-lifetime log -- the spy's interleaved view.  Cooperative,
        not concurrent: nesting two different leases is a scheduling bug
        and raises.
        """
        if self.active_lease is lease:
            yield
            return
        if self.active_lease is not None:
            raise SessionError(
                "cannot activate a lease while another is active"
            )
        device = self.device
        usb = device.usb
        saved = (
            device.ram,
            device.page_cache,
            device.ftl.cache,
            device.flash.stats,
            usb.log,
            usb.bytes_to_device,
            usb.bytes_to_host,
        )
        device.ram = lease.ram
        device.page_cache = lease.cache
        device.ftl.cache = lease.cache
        device.flash.stats = lease.flash_stats
        usb.log = lease.usb_log
        usb.bytes_to_device = lease.bytes_to_device
        usb.bytes_to_host = lease.bytes_to_host
        usb.mirror = saved[4]
        device.clock.tee_to(lease.clock)
        self.active_lease = lease
        try:
            yield
        finally:
            lease.bytes_to_device = usb.bytes_to_device
            lease.bytes_to_host = usb.bytes_to_host
            # The swapped-in stats object may have been replaced by a
            # mid-step reset; keep whatever is current as the lease's.
            lease.flash_stats = device.flash.stats
            (
                device.ram,
                device.page_cache,
                device.ftl.cache,
                device.flash.stats,
                usb.log,
                usb.bytes_to_device,
                usb.bytes_to_host,
            ) = saved
            usb.mirror = None
            device.clock.tee_to(None)
            self.active_lease = None


class SessionContext:
    """One session's private state and statement surface.

    Every session owns a tracer and resource ledger (sharing the
    registry, flight recorder and redactor), talks to the device through
    a :class:`SessionDevice` view of its lease, and runs under
    :meth:`DeviceCore.activated` -- which the statement surfaces and
    :meth:`statement` do themselves, and the scheduler does per step.
    """

    def __init__(
        self,
        core: DeviceCore,
        name: str,
        config: SessionConfig,
        lease: HardwareLease,
    ):
        self.core = core
        self.name = name
        self.config = config
        self.lease = lease
        self.closed = False
        self.obs = Observability(
            clock=core.device.clock,
            registry=core.registry,
            flight=core.flight,
            redactor=core.redactor,
        )
        self.device = SessionDevice(core, lease)
        self.link: DeviceLink | None = None
        self.executor: Executor | None = None
        self.optimizer: Optimizer | None = None
        self._last_leak_profile: TrafficProfile | None = None
        #: Prepared plans: SQL text -> (stamp, plan), least recently
        #: used first.  See :meth:`_prepared_plan`.
        self._plans: OrderedDict[str, tuple[tuple, Project]] = OrderedDict()
        #: ``ghostdb_plan_cache_lookups_total`` children by outcome,
        #: bound on the first lookup.
        self._plan_lookups: dict | None = None

    def __getstate__(self):
        # Host caches, like the visible site's indexes: a loaded session
        # starts with an empty plan table.
        state = self.__dict__.copy()
        del state["_plans"], state["_plan_lookups"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plans = OrderedDict()
        self._plan_lookups = None

    @property
    def profile(self) -> HardwareProfile:
        return self.core.profile

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Wire link/executor/optimizer against the loaded database.

        The link's batch sizes scale with the RAM the session's lease
        holds -- the full chip for the console -- so a full-RAM lease
        behaves exactly like the classic device.  The optimizer prices
        plans for that RAM and reads the batch sizes off the same link.
        ``exec_batch`` is not RAM-scaled: batch windows are host-side
        lists, invisible to the device's budget.
        """
        core = self.core
        if core.tree is None:
            raise SessionError("load data before attaching sessions")
        ram_bytes = self.device.ram.capacity
        exec_config = self.config.exec_config
        self.link = DeviceLink(self.device, core.site, *batch_sizes(ram_bytes))
        self.executor = Executor(
            self.device, self.link, core.hidden, exec_config, obs=self.obs
        )
        self.optimizer = Optimizer(
            core.hidden,
            core.site,
            replace(core.profile, ram_bytes=ram_bytes),
            self.link,
            exec_config,
            obs=self.obs,
            cache_pages=self.device.page_cache.capacity_for_costing,
        )

    def _require_loaded(self) -> None:
        if self.core.tree is None:
            raise SessionError("load data before querying")

    def _require_usable(self) -> None:
        """Refuse a statement on an unloaded, closed or unpowered
        session."""
        self._require_loaded()
        if self.closed:
            raise SessionError(f"session {self.name!r} is closed")
        if self.core.needs_remount:
            raise SessionError(
                "device lost power mid-operation; call remount() before "
                "querying again"
            )

    def _abort_on_fault(self, exc: GhostDBFaultError) -> None:
        """Record a fault-aborted query; power loss demands a remount."""
        self.obs.registry.counter(
            "ghostdb_recovery_aborted_queries_total"
        ).inc(reason=type(exc).__name__)
        if isinstance(exc, PowerCutError):
            self.core.needs_remount = True
        if self.config.dump_on_fault:
            self.dump_bundle(reason=type(exc).__name__)

    @contextmanager
    def statement(self):
        """The one guard of a device statement: refuse an unusable
        session, activate its lease, book an escaping fault.
        :meth:`_steps` books its own faults, because the scheduler, not
        the step generator, holds activation between its steps."""
        self._require_usable()
        with self.core.activated(self.lease):
            try:
                yield
            except GhostDBFaultError as exc:
                self._abort_on_fault(exc)
                raise

    # ------------------------------------------------------------------
    # Statement surface
    # ------------------------------------------------------------------

    def execute(self, sql: str):
        """Execute one statement: CREATE TABLE, INSERT, SELECT, UPDATE
        or DELETE."""
        statement = parse_statement(sql)
        if isinstance(statement, ast.CreateTable):
            return self.core.create_table(statement)
        if isinstance(statement, ast.Insert):
            return self.core.buffer_insert(statement)
        if isinstance(statement, (ast.Select, ast.Update, ast.Delete)):
            return self._drain(self._steps(sql, statement))
        raise SessionError(f"unsupported statement {type(statement).__name__}")

    def query(self, sql: str) -> QueryResult:
        """Optimize and execute a SELECT; returns rows plus metrics."""
        return self._drain(self._steps(sql, self._select(sql, "query")))

    def bind(self, sql: str) -> BoundQuery:
        """Parse and bind a SELECT without running it."""
        self._require_loaded()
        return Binder(self.core.tree).bind(self._parse_select(sql, "bind"))

    def statement_steps(self, sql: str):
        """The statement as a step generator for the scheduler, and
        whether it writes (an UPDATE or DELETE).

        The generator yields at every batch-window boundary (SELECT) or
        not at all (DML runs as one atomic rebuild transaction); the
        result object is its return value.  The caller owns activation.
        Parsing happens here, so an unsupported statement fails now;
        a SELECT text the plan table knows needs no parse.
        """
        if sql in self._plans:
            return self._steps(sql, None), False
        statement = parse_statement(sql)
        if not isinstance(statement, (ast.Select, ast.Update, ast.Delete)):
            raise SessionError(
                "the scheduler runs SELECT, UPDATE and DELETE statements"
            )
        write = not isinstance(statement, ast.Select)
        return self._steps(sql, statement), write

    @staticmethod
    def _parse_select(sql: str, surface: str) -> ast.Select:
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise SessionError(f"{surface}() expects a SELECT statement")
        return statement

    def _select(self, sql: str, surface: str) -> ast.Select | None:
        """:meth:`_parse_select` for the surfaces that plan through the
        table: ``None`` for a text it holds (only SELECTs are stored)."""
        if sql in self._plans:
            return None
        return self._parse_select(sql, surface)

    def _drain(self, steps):
        """Run a step generator to completion under activation."""
        with self.core.activated(self.lease):
            return drain(steps)

    def _steps(self, sql: str, statement, strategy: Strategy | None = None):
        """The one statement pipeline, as a step generator.

        Guards, then one ``query`` (SELECT) or ``dml`` root span around
        the whole statement: the query-text announcement, binding, the
        plan source, execution, fault bookkeeping and leak metering.
        The plan comes from the session's plan table or the optimizer
        (:meth:`_prepared_plan`), from ``strategy`` (the demo's
        hand-picked Pre/Post assignment) or, for DML, from the bound
        UPDATE/DELETE.  ``statement`` is ``None`` for a SELECT text the
        plan table held when the caller looked.  A SELECT yields at
        every batch window; DML runs as one atomic rebuild transaction,
        so it finishes in the first step.  The result is the generator's
        return value.
        """
        self._require_usable()
        select = statement is None or isinstance(statement, ast.Select)
        mark = len(self.device.usb.log)
        name = "query" if select else "dml"
        with self.obs.tracer.span(name, category="session") as span:
            # The SQL text passes the redaction gate: constants (which
            # may name hidden values) come out as '?', identifiers stay.
            span.set("sql", " ".join(sql.split()))
            try:
                if select:
                    # The paper accepts that the spy learns "the queries
                    # he poses": the terminal ships the text to the
                    # device.  DML text may name hidden values, so it
                    # travels the secure channel like appends do.
                    self.link.announce(sql)
                    if strategy is None:
                        plan, cached = self._prepared_plan(sql, statement)
                        span.set("plan_cached", int(cached))
                    else:
                        bound = Binder(self.core.tree).bind(statement)
                        span.set("strategy", strategy.label(bound))
                        plan = PlanBuilder(self.core.hidden, bound).build(
                            strategy
                        )
                        self.optimizer.annotate(plan)
                    result = yield from self.executor.execute_steps(plan)
                else:
                    binder = Binder(self.core.tree)
                    if isinstance(statement, ast.Update):
                        plan = UpdatePlan(binder.bind_update(statement))
                    else:
                        plan = DeletePlan(binder.bind_delete(statement))
                    result = self.executor.execute_dml(plan, self.core.site)
            except GhostDBFaultError as exc:
                span.set("aborted", type(exc).__name__)
                self._abort_on_fault(exc)
                raise
            if select:
                span.set("result_rows", result.row_count)
                self._meter_leakage(mark, span)
            else:
                span.set("matched", result.matched)
                span.set("changed", result.changed)
        return result

    def _prepared_plan(self, sql: str, statement) -> tuple[Project, bool]:
        """The optimizer's plan for a SELECT text, and whether it came
        from the plan table.

        An entry is current while its stamp is: the catalog generation
        (:attr:`HiddenDatabase.version`), the visible-statistics
        generation (:attr:`VisibleSite.version`), the pool size the
        cost model prices with and the Bloom false-positive target --
        every input of plan building and pricing.  The stamp is read
        when the statement starts, so a write that ran after a
        scheduler submit is seen.  A miss or a stale entry is parsed
        (if ``statement`` is ``None``), bound, optimized and stored.  Plans are never written after optimize:
        each run's measurements stay on its result.
        """
        core = self.core
        cost_model = self.optimizer.cost_model
        stamp = (
            core.hidden.version,
            core.site.version,
            cost_model.cache_pages,
            cost_model.exec_config.bloom_fp_target,
        )
        plans = self._plans
        entry = plans.get(sql)
        if entry is not None and entry[0] == stamp:
            plans.move_to_end(sql)
            self._count_plan_lookup("hit")
            return entry[1], True
        self._count_plan_lookup("miss" if entry is None else "stale")
        if statement is None:
            statement = parse_statement(sql)
        bound = Binder(core.tree).bind(statement)
        plan = self.optimizer.optimize(bound).plan
        plans[sql] = (stamp, plan)
        plans.move_to_end(sql)
        if len(plans) > PLAN_TABLE_SIZE:
            plans.popitem(last=False)
        return plan, False

    def _count_plan_lookup(self, outcome: str) -> None:
        counters = self._plan_lookups
        if counters is None:
            family = self.obs.registry.counter(
                "ghostdb_plan_cache_lookups_total",
                "prepared-plan table lookups by optimizer-planned "
                "SELECTs, by outcome",
            )
            counters = self._plan_lookups = {
                kind: family.labelled(outcome=kind)
                for kind in ("hit", "miss", "stale")
            }
        counters[outcome].inc()

    # ------------------------------------------------------------------
    # Plan-level surfaces
    # ------------------------------------------------------------------

    def query_with_strategy(self, sql: str, strategy: Strategy) -> QueryResult:
        """Execute with an explicit PRE/POST assignment (the demo GUI's
        ad-hoc plan building)."""
        statement = self._parse_select(sql, "query_with_strategy")
        return self._drain(self._steps(sql, statement, strategy))

    def execute_plan(self, plan: Project) -> QueryResult:
        """Execute a hand-built plan (demo phase 2/3, the join-index
        baseline, the bench's figure plans) under :meth:`statement`.
        There is no query text to announce, so the run is not metered
        either."""
        with self.statement():
            return self.executor.execute(plan)

    def rank_plans(self, sql: str) -> list[RankedPlan]:
        """All candidate plans, cheapest estimate first."""
        bound = self.bind(sql)
        return self.optimizer.rank(bound)

    def explain(self, sql: str) -> str:
        """The chosen plan with per-node estimates."""
        from repro.optimizer.explain import explain_plan

        bound = self.bind(sql)
        best = self.optimizer.optimize(bound)
        return explain_plan(best.plan, self.optimizer.cost_model)

    def explain_analyze(self, sql: str) -> tuple[str, QueryResult]:
        """Execute the chosen plan and report estimated vs measured
        statistics per node (plus the result itself)."""
        from repro.optimizer.explain import explain_analyze

        statement = self._select(sql, "explain_analyze")
        result = self._drain(self._steps(sql, statement))
        cost_model = self.optimizer.cost_model
        report = explain_analyze(result, cost_model)
        measured = result.metrics.elapsed_seconds
        if measured > 1e-9:
            estimated = cost_model.estimate(result.plan).seconds
            self.obs.registry.histogram(
                "ghostdb_optimizer_est_over_meas"
            ).observe(estimated / measured)
        return report, result

    # ------------------------------------------------------------------
    # Leakage
    # ------------------------------------------------------------------

    def _meter_leakage(self, mark: int, span) -> None:
        """Profile the boundary traffic one query generated.

        ``mark`` is the USB log length before the query started.  The
        profile feeds the ``ghostdb_leak_*`` metric families and -- as
        numbers only, same bar as every span attribute -- annotates the
        query span, so traces show what each query *looked like* from
        the spy's side of the boundary.
        """
        records = self.device.usb.log[mark:]
        if not records:
            return
        profile = profile_records(records)
        self._last_leak_profile = profile
        self.obs.record_leakage(profile)
        span.set("leak_messages", profile.messages)
        span.set("leak_bytes", profile.observable_bytes)
        span.set("leak_ids", profile.ids_observed)
        span.set("leak_entropy_bits", round(profile.shape_entropy_bits, 3))
        span.set("leak_signature", profile.signature_int)

    def leak_scorecard(self) -> TrafficProfile | None:
        """The :class:`~repro.privacy.meter.TrafficProfile` of the last
        metered query, or of the whole captured log when no query ran
        since the last reset.  ``None`` with nothing captured."""
        if self._last_leak_profile is not None:
            return self._last_leak_profile
        records = self.usb_log
        return profile_records(records) if records else None

    @property
    def usb_log(self):
        """This session's captured trust-boundary traffic."""
        return list(self.lease.usb_log)

    # ------------------------------------------------------------------
    # Postmortems
    # ------------------------------------------------------------------

    def postmortem(self, reason: str = "dump") -> dict:
        """The full postmortem bundle dict (pre-redaction): the shared
        flight ring and registry, this session's span forest and
        per-query resource ledger, and device/FTL state summaries.  See
        :mod:`repro.obs.bundle`."""
        from repro.obs.bundle import build_bundle

        return build_bundle(self, reason=reason)

    def dump_bundle(
        self, reason: str = "dump", directory: str | None = None
    ) -> str:
        """Write a redaction-gated ``DUMP_<seed>.json`` postmortem
        bundle; returns its path.

        Called automatically on fault aborts when the session was
        configured with ``dump_on_fault``; callable any time for an
        on-demand snapshot.  The shell's ``.dump`` and ``repro doctor``
        build the same bundle but leak-check it before writing.
        """
        from repro.obs.bundle import write_bundle

        path = write_bundle(
            self.postmortem(reason),
            directory=directory if directory is not None else self.config.dump_dir,
            redactor=self.obs.redactor,
        )
        self.obs.registry.counter("ghostdb_postmortem_bundles_total").inc(
            reason=reason
        )
        log.info("postmortem bundle written: %s", path)
        return path

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def reset_measurements(self) -> None:
        """Zero this session's measurement plane (not the shared
        registry -- other sessions' totals live there too)."""
        self.device.reset_measurements()
        self.obs.tracer.clear()
        self.obs.report_spans()
        self._last_leak_profile = None

    def close(self) -> None:
        """Release the lease back to the core; the console, never
        admitted, is refused as not open."""
        if not self.closed:
            self.core.close_session(self)
