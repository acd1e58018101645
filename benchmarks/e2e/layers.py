"""Per-layer tracing for the traced benchmark run.

:class:`LayerTrace` wraps public functions of each module where their
callers look them up (``repro.core.session.parse_statement``,
``Binder.bind``, ``NandFlash.read``, ...) and restores the originals on
:meth:`LayerTrace.uninstall`.  Nothing inside ``src/`` changes.  A
traced run installs the trace for every second window of statements;
what it records accumulates across installs.

Three kinds of wrapper, by how often the function runs:

* **span** -- per-statement layer calls (parse, bind, optimize, execute,
  link calls, meter, ledger bookkeeping, rebuilds).  Each call becomes
  an in-memory span ``(id, parent id, statement id, name, start, end,
  self seconds)``; self time is the duration minus child calls.
* **timed** -- calls made per page or per record (flash, FTL, record
  decode).  Timed on the same stack, so their parents' self times stay
  exact, but only summed: a span per page read would cost more memory
  than the run it measures.
* **counted** -- hot primitives (chip charges, clock advances, field
  decodes, counter increments, flight events, plan candidates, index
  streams): a call count, no clock read.

State is per thread, so the serve front end's handler threads and its
pump thread each keep their own stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

SPAN, TIMED, COUNTED = "span", "timed", "counted"

#: ``(module[:Class], attribute, layer, kind)`` for every wrapped function.
TARGETS = (
    ("repro.core.session", "parse_statement", "sql.parse", SPAN),
    ("repro.sql.binder:Binder", "bind", "sql.bind", SPAN),
    ("repro.sql.binder:Binder", "bind_update", "sql.bind", SPAN),
    ("repro.sql.binder:Binder", "bind_delete", "sql.bind", SPAN),
    ("repro.optimizer.optimizer:Optimizer", "optimize", "optimizer.optimize", SPAN),
    ("repro.optimizer.space:PlanBuilder", "build", "optimizer.candidate", COUNTED),
    ("repro.engine.executor:Executor", "execute_steps", "engine.execute", SPAN),
    ("repro.engine.maintenance", "rebuild_table", "maintenance.rebuild", SPAN),
    ("repro.engine.dml", "rebuild_table", "maintenance.rebuild", SPAN),
    ("repro.index.climbing:ClimbingIndex", "build", "index.build", SPAN),
    ("repro.index.skt:SubtreeKeyTable", "build", "index.build", SPAN),
    ("repro.index.climbing:ClimbingIndex", "stream_eq", "index.stream", COUNTED),
    ("repro.index.climbing:ClimbingIndex", "streams_range", "index.stream", COUNTED),
    ("repro.storage.record:RecordCodec", "decode", "storage.decode", TIMED),
    ("repro.index.skt:SubtreeKeyTable", "decode", "storage.decode", TIMED),
    # Every value decode, whether through RecordCodec.decode_field, a
    # whole-record decode or a projection's direct field read.
    ("repro.storage.types:IntegerType", "decode", "storage.decode_field", COUNTED),
    ("repro.storage.types:FloatType", "decode", "storage.decode_field", COUNTED),
    ("repro.storage.types:DateType", "decode", "storage.decode_field", COUNTED),
    ("repro.storage.types:CharType", "decode", "storage.decode_field", COUNTED),
    ("repro.hardware.chip:SecureChip", "charge", "hardware.chip_charge", COUNTED),
    ("repro.hardware.clock:SimClock", "advance", "hardware.clock_advance", COUNTED),
    ("repro.hardware.flash:NandFlash", "read", "hardware.flash", TIMED),
    ("repro.hardware.flash:NandFlash", "program", "hardware.flash", TIMED),
    ("repro.hardware.flash:NandFlash", "erase_block", "hardware.flash", TIMED),
    ("repro.hardware.ftl:FlashTranslationLayer", "read", "hardware.ftl", TIMED),
    ("repro.hardware.ftl:FlashTranslationLayer", "write", "hardware.ftl", TIMED),
    ("repro.visible.link:DeviceLink", "announce", "visible.link", SPAN),
    ("repro.visible.link:DeviceLink", "select_id_batches", "visible.link", SPAN),
    ("repro.visible.link:DeviceLink", "fetch_values", "visible.link", SPAN),
    ("repro.visible.link:DeviceLink", "count_ids", "visible.link", SPAN),
    ("repro.core.session", "profile_records", "privacy.meter", SPAN),
    ("repro.obs:Observability", "record_query_metrics", "obs.record_query", SPAN),
    ("repro.obs.registry:BoundCounter", "inc", "obs.counter_inc", COUNTED),
    ("repro.obs.flight:FlightRecorder", "record", "obs.flight_event", COUNTED),
    ("repro.core.scheduler:Scheduler", "run", "core.scheduler_run", SPAN),
    ("repro.serve:GhostDBServer", "call", "serve.call", SPAN),
)

#: Per-statement self milliseconds: metric -> layer.
SELF_MS = {
    "sql.parse_ms": "sql.parse",
    "sql.bind_ms": "sql.bind",
    "optimizer.optimize_ms": "optimizer.optimize",
    "engine.execute_self_ms": "engine.execute",
    "maintenance.rebuild_ms": "maintenance.rebuild",
    "storage.decode_ms": "storage.decode",
    "index.build_ms": "index.build",
    "hardware.flash_ms": "hardware.flash",
    "hardware.ftl_ms": "hardware.ftl",
    "visible.link_ms": "visible.link",
    "privacy.meter_ms": "privacy.meter",
    "obs.record_query_ms": "obs.record_query",
    "core.activation_ms": "core.activation",
    "core.scheduler_run_ms": "core.scheduler_run",
    "serve.call_ms": "serve.call",
}

#: Per-statement call counts: metric -> layers summed.  A span layer's
#: count is its resumes, so ``engine.steps_per_stmt`` counts the batch
#: windows each execution yielded (plus the final one).
CALLS_PER_STMT = {
    "optimizer.candidates_per_stmt": ("optimizer.candidate",),
    "engine.steps_per_stmt": ("engine.execute",),
    "storage.decode_calls_per_stmt": ("storage.decode", "storage.decode_field"),
    "index.stream_calls_per_stmt": ("index.stream",),
    "hardware.chip_charges_per_stmt": ("hardware.chip_charge",),
    "hardware.clock_advances_per_stmt": ("hardware.clock_advance",),
    "obs.counter_incs_per_stmt": ("obs.counter_inc",),
    "obs.flight_events_per_stmt": ("obs.flight_event",),
}


class _State:
    """One thread's open-call stack, statement id and records."""

    __slots__ = ("stack", "stmt", "self_s", "calls", "spans")

    def __init__(self):
        #: Open calls: ``[start, child seconds, span id]``.
        self.stack: list[list] = []
        self.stmt = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []


class _TimedContext:
    """Times a context manager's enter and exit, not its body."""

    __slots__ = ("_cm", "_trace", "_layer")

    def __init__(self, cm, trace: "LayerTrace", layer: str):
        self._cm = cm
        self._trace = trace
        self._layer = layer

    def __enter__(self):
        st, frame = self._trace._enter()
        try:
            return self._cm.__enter__()
        finally:
            self._trace._exit(st, frame, self._layer)

    def __exit__(self, *exc_info):
        st, frame = self._trace._enter()
        try:
            return self._cm.__exit__(*exc_info)
        finally:
            self._trace._exit(st, frame, self._layer)


class LayerTrace:
    """Installs the wrappers and collects what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_State] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        #: Serve only: session name -> scheduler ticket of its statement
        #: in flight, so pump-thread spans carry the right statement id.
        self._ticket_of: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def _state(self) -> _State:
        try:
            return self._local.state
        except AttributeError:
            st = _State()
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    def statement(self, stmt: int) -> None:
        """Attribute this thread's following calls to statement ``stmt``."""
        self._state().stmt = stmt

    def _enter(self, span_id=None):
        st = self._state()
        if span_id is None and st.stack:
            span_id = st.stack[-1][2]
        frame = [time.perf_counter(), 0.0, span_id]
        st.stack.append(frame)
        return st, frame

    def _exit(self, st: _State, frame: list, layer: str) -> float:
        end = time.perf_counter()
        st.stack.pop()
        duration = end - frame[0]
        st.self_s[layer] += duration - frame[1]
        st.calls[layer] += 1
        if st.stack:
            st.stack[-1][1] += duration
        return end

    def _record(self, st, span_id, parent_id, layer, start, end, self_s):
        st.spans.append((span_id, parent_id, st.stmt, layer, start, end, self_s))

    # -- wrappers --------------------------------------------------------

    def _counted(self, fn, layer):
        local = self._local
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = state()
            st.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, layer, span: bool):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(trace._ids) if span else None
            st, frame = trace._enter(span_id)
            parent = st.stack[-2][2] if len(st.stack) > 1 else None
            try:
                return fn(*args, **kwargs)
            finally:
                end = trace._exit(st, frame, layer)
                if span:
                    trace._record(
                        st, span_id, parent, layer, frame[0], end,
                        end - frame[0] - frame[1],
                    )

        return wrapper

    def _generator(self, fn, layer):
        """A span over a generator: each resume is timed on the stack;
        one span covers first resume to last, with the summed self time."""
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span_id = next(trace._ids)
            st = trace._state()
            parent = st.stack[-1][2] if st.stack else None
            first = last = None
            self_s = 0.0
            sent = None
            try:
                while True:
                    st, frame = trace._enter(span_id)
                    try:
                        item = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        last = trace._exit(st, frame, layer)
                        first = frame[0] if first is None else first
                        self_s += last - frame[0] - frame[1]
                    try:
                        sent = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
            finally:
                if first is not None:
                    trace._record(st, span_id, parent, layer, first, last, self_s)

        return wrapper

    def _wrap(self, fn, layer, kind):
        if kind == COUNTED:
            return self._counted(fn, layer)
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, layer)
        return self._timed(fn, layer, span=kind == SPAN)

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(make(original.__func__))
        else:
            patched = make(original)
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target."""
        for path, attr, layer, kind in TARGETS:
            module, _, cls = path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            self._patch(
                owner, attr,
                lambda fn, layer=layer, kind=kind: self._wrap(fn, layer, kind),
            )
        from repro.core.scheduler import Scheduler
        from repro.core.session import DeviceCore

        self._patch(DeviceCore, "activated", self._activation)
        self._patch(Scheduler, "submit", self._submission)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _activation(self, fn):
        """``DeviceCore.activated``: time the lease swap in and out, and
        attribute the step to the lease's statement in flight."""
        trace = self

        @functools.wraps(fn)
        def wrapper(core, lease):
            if lease is not None:
                st = trace._state()
                st.stmt = trace._ticket_of.get(lease.name, st.stmt)
            return _TimedContext(fn(core, lease), trace, "core.activation")

        return wrapper

    def _submission(self, fn):
        """``Scheduler.submit``: remember which ticket each session runs."""
        trace = self

        @functools.wraps(fn)
        def wrapper(scheduler, session, sql):
            ticket = len(scheduler.tickets)
            trace._ticket_of[session.name] = ticket
            trace.statement(ticket)
            return fn(scheduler, session, sql)

        return wrapper

    # -- results ---------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            return sorted(s for st in self._states for s in st.spans)

    def snapshot(self) -> dict:
        """Summed self seconds and call counts per layer, plus how much
        the per-query ledger bookkeeping grew over the run."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        with self._lock:
            for st in self._states:
                for layer, seconds in st.self_s.items():
                    self_s[layer] += seconds
                for layer, count in st.calls.items():
                    calls[layer] += count
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "record_query_growth_x": self._growth("obs.record_query"),
        }

    def _growth(self, layer: str) -> float:
        """Mean duration of ``layer`` calls in the last quarter of
        statements over the first quarter (1.0 with too few calls)."""
        durations = [
            (s[2], s[5] - s[4]) for s in self.spans() if s[3] == layer
        ]
        durations.sort()
        quarter = len(durations) // 4
        if quarter == 0:
            return 1.0
        first = sum(d for _, d in durations[:quarter])
        last = sum(d for _, d in durations[-quarter:])
        return last / first if first > 0 else 1.0

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent, stmt, layer, start, end,
        self seconds."""
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def layer_metrics(
    snap: dict,
    delta: dict,
    *,
    stmts: int,
    traced_stmts: int,
    writes: int,
    traced_writes: int,
    result_rows: int,
    extra: dict,
    scale: float,
) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    ``snap`` is :meth:`LayerTrace.snapshot`, covering the ``traced_stmts``
    statements (``traced_writes`` of them writes) of the traced windows;
    ``delta`` is the device-counter difference over the whole loop of
    ``stmts`` statements, ``writes`` of them writes (see
    ``measure.device_totals``).  ``extra`` carries values measured
    outside the trace, already in reference seconds: ``gc_runs``,
    ``spans_retained``, ``leakcheck_s``, ``age_slowdown_x``,
    ``trace_overhead_x``, and for serve ``grants`` and
    ``client_ms_per_stmt``.  Trace times are scaled to reference
    seconds by ``scale``.
    """
    self_s, calls = snap["self_s"], snap["calls"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics = {
        name: ratio(self_s.get(layer, 0.0) * 1e3 * scale, traced_stmts)
        for name, layer in SELF_MS.items()
    }
    metrics.update(
        (name, ratio(sum(calls.get(layer, 0) for layer in layers), traced_stmts))
        for name, layers in CALLS_PER_STMT.items()
    )
    metrics.update(
        {
            "engine.rows_per_flash_read": ratio(result_rows, delta["flash_reads"]),
            "maintenance.rebuilds_per_write": ratio(
                calls.get("maintenance.rebuild", 0), traced_writes
            ),
            "maintenance.flash_writes_per_write": ratio(delta["flash_writes"], writes),
            "hardware.gc_runs": extra["gc_runs"],
            "hardware.erases_per_write": ratio(delta["erases"], writes),
            "hardware.cache_hit_ratio": ratio(delta["cache_hits"], lookups),
            "visible.usb_msgs_per_stmt": ratio(delta["usb_messages"], stmts),
            "privacy.leakcheck_s": extra["leakcheck_s"],
            "age_slowdown_x": extra["age_slowdown_x"],
            "obs.record_query_growth_x": snap["record_query_growth_x"],
            "obs.spans_retained": extra["spans_retained"],
            "core.grants_per_stmt": ratio(extra.get("grants", 0), stmts),
            "serve.wire_ms": (
                extra["client_ms_per_stmt"] - metrics["serve.call_ms"]
                if "client_ms_per_stmt" in extra
                else 0.0
            ),
            "serve.stmts_per_round": ratio(
                calls.get("serve.call", 0), calls.get("core.scheduler_run", 0)
            ),
            "trace_overhead_x": extra["trace_overhead_x"],
        }
    )
    return metrics
