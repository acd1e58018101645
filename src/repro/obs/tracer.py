"""Span tracer over the simulated device clock and the host wall clock.

A :class:`Span` is one named interval of work with parent/child nesting,
measured on *two* timelines at once:

* **simulated device time** -- deltas of the session's
  :class:`~repro.hardware.clock.SimClock`, the metric the paper's
  Figure 6 plots; and
* **host wall time** -- ``time.perf_counter()`` deltas, which measure the
  simulator itself (optimizer costing, for instance, burns wall time but
  zero simulated time).

Spans are opened with a context manager (``with tracer.span(...)``) or
recorded post-hoc from already-collected timestamps
(:meth:`Tracer.record`), which is how the executor turns per-operator
enter/exit stamps into a nested trace after a query finishes.

Every span name and attribute passes through the session's
:class:`~repro.obs.redact.Redactor` before it is stored, so hidden column
values cannot enter a trace even if instrumentation code tries.

A tracer's memory and its per-statement cost are bounded: it keeps the
span trees of the most recent :data:`~repro.obs.ledger.DEFAULT_WINDOW`
root spans (the resource ledger's window), evicting the oldest finished
tree first, and it counts its spans as they come and go, so
:meth:`Tracer.span_count` never walks the forest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.ledger import DEFAULT_WINDOW
from repro.obs.redact import Redactor


@dataclass
class Span:
    """One traced interval on both timelines."""

    span_id: int
    name: str
    category: str
    start_sim: float
    start_wall: float
    end_sim: float | None = None
    end_wall: float | None = None
    attrs: dict = field(default_factory=dict)
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)
    _redactor: Redactor | None = None

    @property
    def finished(self) -> bool:
        return self.end_sim is not None

    @property
    def sim_seconds(self) -> float:
        return (self.end_sim or self.start_sim) - self.start_sim

    @property
    def wall_seconds(self) -> float:
        return (self.end_wall or self.start_wall) - self.start_wall

    @property
    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth, node = depth + 1, node.parent
        return depth

    def set(self, key: str, value) -> None:
        """Attach one attribute, through the redaction gate."""
        if self._redactor is not None:
            self.attrs[self._redactor.scrub(str(key))] = (
                self._redactor.value(value)
            )
        else:
            self.attrs[str(key)] = value

    def walk(self):
        """This span then all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def line(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        return (
            f"{self.name} [sim {self.sim_seconds * 1e3:.3f} ms | "
            f"wall {self.wall_seconds * 1e3:.3f} ms]"
            + (f" {extras}" if extras else "")
        )


class _NullSpan:
    """No-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one session; one instance per GhostDB.

    :attr:`roots` holds at most :data:`~repro.obs.ledger.DEFAULT_WINDOW`
    (512) span trees, oldest first.  Opening a root when the list is
    full evicts the oldest *finished* tree (an open root is never
    evicted) and adds its spans to :attr:`dropped`, as
    :class:`~repro.obs.flight.FlightRecorder` counts the events its ring
    drops.  A long session therefore traces its most recent 512
    statements, in constant memory.
    """

    def __init__(
        self,
        clock=None,
        redactor: Redactor | None = None,
        enabled: bool = True,
    ):
        #: The session's :class:`~repro.hardware.clock.SimClock` (or any
        #: object with a ``now`` property).  Standalone use without a
        #: clock gets a flat simulated timeline (wall time still works).
        #: Held as an object, not a closure, so sessions stay picklable.
        self.clock = clock
        self.redactor = redactor if redactor is not None else Redactor()
        self.enabled = enabled
        self.roots: list[Span] = []
        #: Spans evicted with their trees (not those forgotten by clear).
        self.dropped = 0
        self._stack: list[Span] = []
        self._next_id = 1
        #: Spans currently held in :attr:`roots`' trees.
        self._count = 0

    def sim_now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def _open(self, name: str, category: str, parent: Span | None) -> Span:
        if parent is None and len(self.roots) >= DEFAULT_WINDOW:
            self._evict()
        span_id = self._next_id
        self._next_id = span_id + 1
        self._count += 1
        span = Span(
            span_id=span_id,
            name=self.redactor.scrub(str(name)),
            category=self.redactor.scrub(str(category)),
            start_sim=self.sim_now(),
            start_wall=time.perf_counter(),
            parent=parent,
            _redactor=self.redactor,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    def _evict(self) -> None:
        """Drop the oldest finished trees until one more root fits."""
        roots = self.roots
        i = 0
        while len(roots) >= DEFAULT_WINDOW and i < len(roots):
            if roots[i].finished:
                size = sum(1 for _ in roots.pop(i).walk())
                self._count -= size
                self.dropped += size
            else:
                i += 1

    @contextmanager
    def span(self, name: str, category: str = "engine", **attrs):
        """Open a nested span for the duration of the ``with`` block."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = self._open(name, category, self.current())
        for key, value in attrs.items():
            span.set(key, value)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            # Exception class names are code identifiers, not data.
            self.redactor.allow(type(exc).__name__)
            span.set("error", type(exc).__name__)
            raise
        finally:
            self._stack.pop()
            span.end_sim = self.sim_now()
            span.end_wall = time.perf_counter()

    def record(
        self,
        name: str,
        category: str,
        start_sim: float,
        end_sim: float,
        start_wall: float | None = None,
        end_wall: float | None = None,
        attrs: dict | None = None,
        parent: Span | None = None,
    ) -> Span | None:
        """Add a span from already-collected timestamps.

        ``parent=None`` nests under the currently open span (or becomes a
        root).  This is how per-operator stamps become trace spans after
        the pull-based execution interleaving is over.
        """
        if not self.enabled:
            return None
        span = self._open(name, category, parent or self.current())
        span.start_sim = start_sim
        span.end_sim = end_sim
        span.start_wall = (
            start_wall if start_wall is not None else span.start_wall
        )
        span.end_wall = end_wall if end_wall is not None else span.start_wall
        for key, value in (attrs or {}).items():
            span.set(key, value)
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def spans(self):
        """Every retained span, pre-order across all roots."""
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        """Spans currently retained -- a running count, not a walk."""
        return self._count

    def mark(self) -> int:
        """A position in the span stream for :meth:`roots_since`.

        Span ids only grow, while eviction shifts :attr:`roots`'
        indexes, so a mark is an id rather than a list length.
        """
        return self._next_id

    def roots_since(self, mark: int) -> list[Span]:
        """The roots opened after :meth:`mark` returned ``mark``."""
        roots = self.roots
        i = len(roots)
        while i and roots[i - 1].span_id >= mark:
            i -= 1
        return roots[i:]

    def clear(self) -> None:
        """Forget recorded spans (open spans stay on the stack)."""
        self.roots = [s for s in self.roots if not s.finished]
        self._count = sum(1 for _ in self.spans())
