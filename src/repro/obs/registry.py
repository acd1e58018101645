"""Named counters, gauges and histograms with Prometheus-style text
exposition.

The demo's popups show one query at a time; the registry is the
cross-query view: flash page reads/writes/erases, USB messages and bytes
by direction, RAM high-water, plans considered, Bloom false positives --
accumulated over the whole session and rendered in the standard
``# HELP`` / ``# TYPE`` / sample-line text format, so the numbers drop
straight into any Prometheus-compatible tooling.

Metric *values* are only ever counts, sizes and durations; label values
are structural identifiers (category names, directions, operator names).
Hidden data has no path into the registry by construction.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One process-wide lock guarding the *slow* paths only: registering a
#: new metric family and creating a bound counter child.  The hot paths
#: (an existing family's dict lookup, a bound child's ``inc``) stay
#: lock-free.  Module-level rather than per-instance so registries (and
#: the sessions holding them) stay picklable -- ``threading.Lock`` is
#: not, and session persistence pickles the whole object graph.
_SLOW_PATH_LOCK = threading.Lock()


class MetricError(ValueError):
    """Invalid metric name, label, or type conflict."""


def _check_name(name: str) -> str:
    if not _NAME.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple:
    # Hot path: the hardware layer bumps unlabelled (or single-label)
    # counters on every simulated flash/USB/CPU event, so skip the
    # sort-and-validate machinery when there is nothing to sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        if not _LABEL.match(key):
            raise MetricError(f"invalid label name {key!r}")
        return ((key, str(value)),)
    for label in labels:
        if not _LABEL.match(label):
            raise MetricError(f"invalid label name {label!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: tuple, extra: tuple = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class BoundCounter:
    """A counter child with its label key pre-resolved.

    The hardware layer bumps the same counter with the same labels once
    per simulated USB message or flash write; binding once moves the label
    validation and key construction out of the per-event path.  The
    child writes into the parent's value dict, which ``reset()`` clears
    in place, so bound children survive measurement resets.
    """

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: "Counter", key: tuple):
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(
                f"{self._parent.name}: counters cannot decrease"
            )
        values = self._parent._values
        values[self._key] = values.get(self._key, 0) + amount


@dataclass
class Counter:
    """A monotonically increasing total, optionally labelled."""

    name: str
    help: str
    _values: dict[tuple, float] = field(default_factory=dict)
    #: Memoized bound children by label key, so two sessions asking for
    #: the same child race on a dict *read*, not on construction.
    _bound: dict[tuple, BoundCounter] = field(
        default_factory=dict, repr=False
    )

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def labelled(self, **labels) -> BoundCounter:
        """A bound child for per-event hot paths (see above).

        Child creation is the slow path and takes the shared lock; a
        child that already exists is returned lock-free.  Sessions can
        therefore resolve the same ``(name, labels)`` child concurrently
        and always share one object (and one value slot).
        """
        key = _label_key(labels)
        bound = self._bound.get(key)
        if bound is not None:
            return bound
        with _SLOW_PATH_LOCK:
            bound = self._bound.get(key)
            if bound is None:
                bound = BoundCounter(self, key)
                self._bound[key] = bound
            return bound

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def expose(self) -> list[str]:
        lines = []
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(self._values[key])}"
            )
        return lines or [f"{self.name} 0"]

    def reset(self) -> None:
        self._values.clear()


@dataclass
class Gauge:
    """A value that can go up and down (or track a maximum)."""

    name: str
    help: str
    _values: dict[tuple, float] = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value

    def set_max(self, value: float, **labels) -> None:
        """Keep the largest value seen (e.g. session RAM high-water)."""
        key = _label_key(labels)
        self._values[key] = max(self._values.get(key, value), value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def expose(self) -> list[str]:
        lines = []
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(self._values[key])}"
            )
        return lines or [f"{self.name} 0"]

    def reset(self) -> None:
        self._values.clear()


#: Default histogram buckets, tuned for byte sizes and small counts.
DEFAULT_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)


@dataclass
class Histogram:
    """Cumulative-bucket histogram (``le`` convention)."""

    name: str
    help: str
    buckets: tuple = DEFAULT_BUCKETS
    _counts: dict[tuple, list[int]] = field(default_factory=dict)
    _sums: dict[tuple, float] = field(default_factory=dict)
    _totals: dict[tuple, int] = field(default_factory=dict)

    kind = "histogram"

    def __post_init__(self):
        self.buckets = tuple(sorted(self.buckets))
        if not self.buckets:
            raise MetricError(f"{self.name}: histogram needs buckets")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels) -> int:
        return self._totals.get(_label_key(labels), 0)

    def quantile(self, q: float, **labels) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Standard Prometheus-style ``histogram_quantile``: find the first
        bucket whose cumulative count covers rank ``q * total``, then
        interpolate linearly within it (the lower edge of the first
        bucket is taken as 0).  Observations above the highest finite
        bound land in the implicit ``+Inf`` bucket, for which the best
        bounded answer -- and the conventional one -- is the highest
        finite bound.  Returns 0.0 when nothing has been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(
                f"{self.name}: quantile must be in [0, 1], got {q!r}"
            )
        key = _label_key(labels)
        total = self._totals.get(key, 0)
        if total == 0:
            return 0.0
        rank = q * total
        counts = self._counts[key]
        lower = 0.0
        prev = 0
        for bound, cumulative in zip(self.buckets, counts):
            if cumulative >= rank:
                span = cumulative - prev
                if span == 0:
                    return float(bound)
                return lower + (float(bound) - lower) * (rank - prev) / span
            lower = float(bound)
            prev = cumulative
        return float(self.buckets[-1])

    def expose(self) -> list[str]:
        lines = []
        for key in sorted(self._totals):
            counts = self._counts[key]
            for bound, count in zip(self.buckets, counts):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, (('le', _format_value(float(bound))),))}"
                    f" {count}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(key, (('le', '+Inf'),))}"
                f" {self._totals[key]}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(self._sums[key])}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {self._totals[key]}"
            )
        return lines or [f"{self.name}_count 0"]

    def reset(self) -> None:
        self._counts.clear()
        self._sums.clear()
        self._totals.clear()


class MetricsRegistry:
    """Get-or-create metric store with text exposition."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        #: How many times :meth:`reset` ran; lets a writer that applies
        #: deltas to a shared gauge notice its past share was wiped.
        self.resets = 0
        #: Callables that fold counts held back elsewhere (the secure
        #: chip's cycle tally, the flash's page-read tallies, the buffer
        #: pool's lookup tallies) into their families; run before the
        #: registry is iterated, exposed or reset.
        self._settlers: list = []

    def add_settler(self, settle) -> None:
        """Run ``settle()`` before every whole-registry read or reset."""
        self._settlers.append(settle)

    def _settle(self) -> None:
        for settle in self._settlers:
            settle()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        # Hot path first: per-event instrument lookups vastly outnumber
        # registrations, and a name already in the store has passed the
        # name check once at creation.
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name!r} is already registered as a "
                    f"{existing.kind}, not a {cls.kind}"
                )
            return existing
        # Slow path: registration.  Two interleaved sessions asking for
        # the same family must converge on one object, or the loser's
        # bound children write into a family nobody exposes.
        with _SLOW_PATH_LOCK:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"{name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                return existing
            _check_name(name)
            metric = cls(name=name, help=help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple | None = None
    ) -> Histogram:
        if buckets is not None:
            return self._get_or_create(
                Histogram, name, help, buckets=tuple(buckets)
            )
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str):
        return self._metrics.get(name)

    def __iter__(self):
        # Sorted by name, like expose_text: iteration order (and thus
        # every dump or artifact built from it) must not depend on the
        # order in which call sites happened to register families.
        self._settle()
        return iter(
            self._metrics[name] for name in sorted(self._metrics)
        )

    def expose_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
        self._settle()
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every value; registrations and help text survive."""
        self._settle()
        for metric in self._metrics.values():
            metric.reset()
        self.resets += 1
