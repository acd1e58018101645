"""Adversary-eye leakage metering: quantify what traffic *shape* reveals.

The :class:`~repro.privacy.leakcheck.LeakChecker` proves hidden *values*
never cross the USB boundary.  This module measures the channel that
remains: message counts, sizes, directions, ID-list cardinalities and
simulated timing -- the access-pattern side channel the oblivious-query
literature attacks (ObliDB, Oblivious Query Processing; see PAPERS.md).

Three layers:

* :func:`profile_records` turns one captured trace into a
  :class:`TrafficProfile`: per-kind histograms, ID statistics,
  inter-message simulated-time gaps, and derived scalars -- total
  observable bytes, distinct-shape entropy, and a **request-sequence
  signature** (a CRC over the logical message sequence, invariant under
  link-level retransmissions: a retried frame changes *timing*, never
  the signature).
* :class:`FingerprintClassifier` is the attack simulator: trained on
  traces from the bench query families, it re-identifies which family
  (and selectivity band) produced a fresh trace.  Its leave-one-out
  accuracy *is* the leakage number -- 1/labels means the shape reveals
  nothing, 1.0 means the spy names your query from the traffic alone.
* :func:`run_leakage_meter` runs the whole workbook on a deterministic
  session and writes a redaction-gated, LeakChecker-CLEAN
  ``LEAK_<date>.json`` scorecard; :func:`compare_leakage` diffs it
  against ``benchmarks/leakage_baseline.json`` through the shared
  baseline gate of :mod:`repro.obs.vetted` and fails on any change that
  *widens* the channel -- the ``leakage-regression`` CI gate.

The scorecard is bit-identical across reruns: simulated traffic is
deterministic and the artifact carries no wall timestamps.
"""

from __future__ import annotations

import argparse
import datetime
import math
import zlib
from dataclasses import dataclass

from repro.hardware.usb import Direction, TrafficRecord
from repro.obs.vetted import (
    SIGNATURE_KEYS,
    GateReport,
    VettedRun,
    compare_rows,
    dated_name,
    load,
    vet,
    write_and_gate,
)
from repro.privacy.spy import ID_STREAMS, IdStats, SpyView, is_lost
from repro.visible.frame import payload_of

#: Bump on any incompatible change to the scorecard layout.
SCHEMA_VERSION = 1

#: Artifact discriminator, so tooling can reject arbitrary JSON.
KIND = "ghostdb-leakage"

#: The protocol's message kinds in wire order, fixing the feature layout.
KIND_ORDER = ("query", "request", "ids", "count", "values")

#: Outbound request verbs, fixing the feature layout.
OP_ORDER = ("select_ids", "count_ids", "fetch_values")

#: Default dataset size for the metering workbook: large enough that
#: every query family produces distinctive traffic, small enough for a
#: sub-minute CI gate.
DEFAULT_LEAK_SCALE = 1000

#: Absolute headroom the classifier accuracy may grow before the gate
#: fails (re-identification getting *easier* is a leakage regression).
ACCURACY_TOLERANCE = 0.02


class LeakMeterError(RuntimeError):
    """A metering run could not produce a trustworthy scorecard."""


# ----------------------------------------------------------------------
# Traffic-shape profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GapStats:
    """Inter-message simulated-time gaps (completion-to-completion)."""

    count: int
    total_s: float
    mean_s: float
    max_s: float


@dataclass
class TrafficProfile:
    """Everything the shape of one captured trace reveals."""

    messages: int
    observable_bytes: int
    bytes_to_device: int
    bytes_to_host: int
    #: Per-kind message counts and on-the-wire byte totals.
    kind_messages: dict[str, int]
    kind_bytes: dict[str, int]
    #: Outbound request verbs, one per request body, decoded from the
    #: readable JSON requests.
    request_ops: dict[str, int]
    #: ID statistics per ID stream (from :meth:`SpyView.id_stats`).
    id_stats: dict[str, IdStats]
    #: Distinct (direction, kind, size) message shapes.
    distinct_shapes: int
    #: Shannon entropy of the shape distribution, in bits.
    shape_entropy_bits: float
    #: Simulated seconds from first to last message completion.
    sim_duration_s: float
    gaps: GapStats
    #: Messages bearing a lost-in-flight fault tag (retransmitted).
    retransmissions: int
    #: CRC32 of the logical message sequence, as 8 hex digits.
    signature: str

    @property
    def signature_int(self) -> int:
        return int(self.signature, 16)

    @property
    def ids_observed(self) -> int:
        return sum(s.total for s in self.id_stats.values())

    def to_record(self) -> dict:
        """The profile as a JSON-ready dict (deterministic key order
        comes from ``json.dumps(sort_keys=True)`` at serialization)."""
        return {
            "messages": self.messages,
            "observable_bytes": self.observable_bytes,
            "bytes_to_device": self.bytes_to_device,
            "bytes_to_host": self.bytes_to_host,
            "kind_messages": dict(self.kind_messages),
            "kind_bytes": dict(self.kind_bytes),
            "request_ops": dict(self.request_ops),
            "ids_observed": self.ids_observed,
            "id_stats": {
                kind: {
                    "total": s.total,
                    "distinct": s.distinct,
                    "repeated_ratio": round(s.repeated_ratio, 6),
                }
                for kind, s in self.id_stats.items()
            },
            "distinct_shapes": self.distinct_shapes,
            "shape_entropy_bits": round(self.shape_entropy_bits, 6),
            "sim_duration_s": round(self.sim_duration_s, 9),
            "mean_gap_s": round(self.gaps.mean_s, 9),
            "max_gap_s": round(self.gaps.max_s, 9),
            "retransmissions": self.retransmissions,
            "request_signature": self.signature,
        }

    def feature_vector(self) -> tuple[float, ...]:
        """The profile as a fixed-order numeric vector (see
        :data:`FEATURE_NAMES`)."""
        features: list[float] = [
            float(self.messages),
            float(self.observable_bytes),
            float(self.bytes_to_device),
            float(self.bytes_to_host),
        ]
        for kind in KIND_ORDER:
            features.append(float(self.kind_messages.get(kind, 0)))
            features.append(float(self.kind_bytes.get(kind, 0)))
        for stream in ID_STREAMS:
            stats = self.id_stats.get(stream)
            features.append(float(stats.total if stats else 0))
            features.append(float(stats.distinct if stats else 0))
            features.append(stats.repeated_ratio if stats else 0.0)
        for op in OP_ORDER:
            features.append(float(self.request_ops.get(op, 0)))
        features.append(float(self.distinct_shapes))
        features.append(self.shape_entropy_bits)
        features.append(self.sim_duration_s)
        features.append(self.gaps.mean_s)
        features.append(self.gaps.max_s)
        return tuple(features)


#: Names of :meth:`TrafficProfile.feature_vector` positions, in order.
FEATURE_NAMES: tuple[str, ...] = (
    ("messages", "observable_bytes", "bytes_to_device", "bytes_to_host")
    + tuple(
        f"{kind}_{suffix}" for kind in KIND_ORDER for suffix in ("messages", "bytes")
    )
    + tuple(
        f"{stream}_{suffix}"
        for stream in ID_STREAMS
        for suffix in ("ids", "distinct_ids", "repeated_ratio")
    )
    + tuple(f"op_{op}" for op in OP_ORDER)
    + (
        "distinct_shapes",
        "shape_entropy_bits",
        "sim_duration_s",
        "mean_gap_s",
        "max_gap_s",
    )
)


def _ops(bodies: list[tuple[dict, list[int]]] | None) -> list[str]:
    """The op of each body of one request, ``["?"]`` if it did not parse."""
    if bodies is None:
        return ["?"]
    return [str(body.get("op", "?")) for body, _ids in bodies]


def request_signature(records: list[TrafficRecord]) -> str:
    """CRC32 over the logical message sequence, as 8 hex digits.

    The sequence element for each message is direction, kind, unframed
    payload size -- plus the request verbs for outbound requests, one
    per body, which the spy reads off the readable JSON.  Copies of
    messages that were mangled or dropped in flight (and therefore
    retransmitted) are excluded, so fault-injected runs produce the
    *same* signature as clean ones: retries shift timing, never the
    logical sequence.
    """
    return _signature(SpyView(list(records)))


def _signature(spy: SpyView) -> str:
    parts: list[str] = []
    for position, record in enumerate(spy.records):
        if is_lost(record):
            continue
        element = (
            f"{record.direction.value}:{record.kind}:"
            f"{len(payload_of(record.payload))}"
        )
        if position in spy.request_bodies:
            element += ":" + "+".join(_ops(spy.request_bodies[position]))
        parts.append(element)
    crc = zlib.crc32("|".join(parts).encode("utf-8"))
    return f"{crc:08x}"


def profile_records(records: list[TrafficRecord]) -> TrafficProfile:
    """Build the :class:`TrafficProfile` of one captured trace."""
    kind_messages: dict[str, int] = {}
    kind_bytes: dict[str, int] = {}
    request_ops: dict[str, int] = {}
    shapes: dict[tuple[str, str, int], int] = {}
    spy = SpyView(list(records))
    bytes_to_device = 0
    bytes_to_host = 0
    retransmissions = 0
    for position, record in enumerate(records):
        kind_messages[record.kind] = kind_messages.get(record.kind, 0) + 1
        kind_bytes[record.kind] = kind_bytes.get(record.kind, 0) + record.size
        if record.direction is Direction.TO_DEVICE:
            bytes_to_device += record.size
        else:
            bytes_to_host += record.size
        if is_lost(record):
            retransmissions += 1
        shape = (record.direction.value, record.kind, record.size)
        shapes[shape] = shapes.get(shape, 0) + 1
        if position in spy.request_bodies and not is_lost(record):
            for op in _ops(spy.request_bodies[position]):
                request_ops[op] = request_ops.get(op, 0) + 1

    total = len(records)
    entropy = 0.0
    if total:
        for count in shapes.values():
            p = count / total
            entropy -= p * math.log2(p)

    gaps = [
        later.completed_at - earlier.completed_at
        for earlier, later in zip(records, records[1:])
    ]
    gap_stats = GapStats(
        count=len(gaps),
        total_s=sum(gaps),
        mean_s=sum(gaps) / len(gaps) if gaps else 0.0,
        max_s=max(gaps) if gaps else 0.0,
    )
    duration = (
        records[-1].completed_at - records[0].completed_at if len(records) > 1 else 0.0
    )

    return TrafficProfile(
        messages=total,
        observable_bytes=bytes_to_device + bytes_to_host,
        bytes_to_device=bytes_to_device,
        bytes_to_host=bytes_to_host,
        kind_messages=kind_messages,
        kind_bytes=kind_bytes,
        request_ops=request_ops,
        id_stats=spy.id_stats(),
        distinct_shapes=len(shapes),
        shape_entropy_bits=entropy,
        sim_duration_s=duration,
        gaps=gap_stats,
        retransmissions=retransmissions,
        signature=_signature(spy),
    )


def render_profile(profile: TrafficProfile) -> str:
    """The scorecard of one trace as a compact text table."""
    lines = [
        "leakage scorecard (what the traffic shape reveals):",
        f"  messages            {profile.messages}",
        f"  observable bytes    {profile.observable_bytes} "
        f"({profile.bytes_to_device} to device, "
        f"{profile.bytes_to_host} to host)",
    ]
    for kind in KIND_ORDER:
        if kind in profile.kind_messages:
            lines.append(
                f"  kind {kind:<14s} {profile.kind_messages[kind]:5d} msgs "
                f"{profile.kind_bytes[kind]:8d} B"
            )
    for op in OP_ORDER:
        if op in profile.request_ops:
            lines.append(
                f"  request op {op:<12s} x{profile.request_ops[op]}"
            )
    for kind, stats in sorted(profile.id_stats.items()):
        lines.append(
            f"  ids in {kind:<12s} {stats.total:6d} total "
            f"{stats.distinct:6d} distinct "
            f"(repeat ratio {stats.repeated_ratio:.2f})"
        )
    lines.extend(
        [
            f"  distinct shapes     {profile.distinct_shapes} "
            f"(entropy {profile.shape_entropy_bits:.3f} bits)",
            f"  sim duration        {profile.sim_duration_s * 1e3:.3f} ms "
            f"(mean gap {profile.gaps.mean_s * 1e6:.1f} us, "
            f"max {profile.gaps.max_s * 1e6:.1f} us)",
            f"  retransmissions     {profile.retransmissions}",
            f"  request signature   {profile.signature}",
        ]
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The fingerprinting attack
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledTrace:
    """One training/evaluation example for the classifier."""

    label: str
    features: tuple[float, ...]


class FingerprintClassifier:
    """Nearest-centroid re-identification over traffic-shape features.

    Deliberately simple: the point is not a strong attacker but a
    *reproducible lower bound* -- if even a centroid classifier names
    the query family from the traffic, the channel is real.  Features
    are z-normalized with statistics from the training set; ties break
    toward the lexicographically first label so results are stable.
    """

    def __init__(self, training: list[LabeledTrace]):
        if not training:
            raise LeakMeterError("classifier needs at least one trace")
        width = len(training[0].features)
        self._means = [0.0] * width
        self._stds = [0.0] * width
        n = len(training)
        for i in range(width):
            column = [t.features[i] for t in training]
            mean = sum(column) / n
            self._means[i] = mean
            self._stds[i] = math.sqrt(
                sum((v - mean) ** 2 for v in column) / n
            )
        by_label: dict[str, list[tuple[float, ...]]] = {}
        for trace in training:
            by_label.setdefault(trace.label, []).append(
                self._normalize(trace.features)
            )
        self.centroids: dict[str, tuple[float, ...]] = {
            label: tuple(
                sum(vec[i] for vec in vectors) / len(vectors)
                for i in range(width)
            )
            for label, vectors in by_label.items()
        }

    def _normalize(self, features: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(
            (v - m) / s if s > 0 else 0.0
            for v, m, s in zip(features, self._means, self._stds)
        )

    def classify(self, features: tuple[float, ...]) -> str:
        vector = self._normalize(features)
        best_label, best_distance = "", math.inf
        for label in sorted(self.centroids):
            centroid = self.centroids[label]
            distance = sum((a - b) ** 2 for a, b in zip(vector, centroid))
            if distance < best_distance:
                best_label, best_distance = label, distance
        return best_label


def evaluate_fingerprinting(traces: list[LabeledTrace]) -> dict:
    """Leave-one-out accuracy of the attack over ``traces``.

    Returns a JSON-ready dict: overall and per-label accuracy, the
    confusion matrix, and the chance baseline (1 / labels).
    """
    labels = sorted({t.label for t in traces})
    hits = 0
    per_label_hits = {label: 0 for label in labels}
    per_label_total = {label: 0 for label in labels}
    confusion: dict[str, dict[str, int]] = {}
    for i, held_out in enumerate(traces):
        rest = traces[:i] + traces[i + 1 :]
        predicted = FingerprintClassifier(rest).classify(held_out.features)
        per_label_total[held_out.label] += 1
        row = confusion.setdefault(held_out.label, {})
        row[predicted] = row.get(predicted, 0) + 1
        if predicted == held_out.label:
            hits += 1
            per_label_hits[held_out.label] += 1
    return {
        "labels": labels,
        "traces": len(traces),
        "chance_accuracy": round(1 / len(labels), 6) if labels else 0.0,
        "accuracy": round(hits / len(traces), 6) if traces else 0.0,
        "per_label_accuracy": {
            label: round(
                per_label_hits[label] / per_label_total[label], 6
            )
            for label in labels
            if per_label_total[label]
        },
        "confusion": confusion,
    }


# ----------------------------------------------------------------------
# The metering workbook: bench query families x selectivity bands
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LeakTrial:
    """One metered query: a (family, band) label plus concrete SQL."""

    family: str
    band: str
    sql: str

    @property
    def label(self) -> str:
        return f"{self.family}/{self.band}"


#: Visible-date cutoffs per selectivity band (the D2 sweep's endpoints,
#: with two neighbours each so every band has distinct trials).
SELECTIVE_CUTS = (
    datetime.date(2007, 3, 1),
    datetime.date(2007, 4, 10),
    datetime.date(2007, 5, 20),
)
WIDE_CUTS = (
    datetime.date(2005, 7, 1),
    datetime.date(2005, 10, 1),
    datetime.date(2006, 1, 15),
)


def leakage_workbook() -> list[LeakTrial]:
    """The bench query families as labeled, parameterised trials."""
    from repro.workload.queries import (
        demo_query,
        query_date_selectivity,
        query_purpose_only,
        query_type_selectivity,
    )

    trials: list[LeakTrial] = []
    for cut in SELECTIVE_CUTS:
        trials.append(
            LeakTrial("demo-join", "selective", demo_query(date_cutoff=cut))
        )
        trials.append(
            LeakTrial("date-sweep", "selective", query_date_selectivity(cut))
        )
    for cut in WIDE_CUTS:
        trials.append(LeakTrial("demo-join", "wide", demo_query(date_cutoff=cut)))
        trials.append(
            LeakTrial("date-sweep", "wide", query_date_selectivity(cut))
        )
    for med_type in ("Antibiotic", "Statin", "Analgesic"):
        trials.append(
            LeakTrial("type-only", "all", query_type_selectivity(med_type))
        )
    for purpose in ("Sclerosis", "Neuropathy", "Hypertension"):
        trials.append(
            LeakTrial("purpose-only", "all", query_purpose_only(purpose))
        )
    return trials


# ----------------------------------------------------------------------
# The metering run and its artifact
# ----------------------------------------------------------------------


@dataclass
class LeakMeterConfig:
    """One metering run's knobs."""

    scale: int = DEFAULT_LEAK_SCALE
    profile: str = "demo"


def build_leak_artifact(
    *,
    scale: int,
    profile: str,
    families: dict[str, dict],
    classifier: dict,
) -> dict:
    """Assemble the scorecard dict.

    Deliberately timestamp-free: reruns on the same code and seed must
    serialize bit-identically (the determinism the gate rests on).
    """
    return {
        "kind": KIND,
        "schema_version": SCHEMA_VERSION,
        "config": {"scale": scale, "profile": profile},
        "families": families,
        "classifier": classifier,
        "leak_check": "CLEAN",
    }


def load_leak_artifact(path: str) -> dict:
    """Read one scorecard back, refusing foreign or future JSON."""
    return load(path, KIND, SCHEMA_VERSION)


def run_leakage_meter(config: LeakMeterConfig | None = None) -> VettedRun:
    """Execute the metering workbook; see the module docstring."""
    from repro.core.factory import build_session
    from repro.hardware.profiles import PROFILES
    from repro.privacy.leakcheck import LeakChecker

    config = config or LeakMeterConfig()
    if config.profile not in PROFILES:
        raise LeakMeterError(
            f"unknown profile {config.profile!r}; "
            f"known: {', '.join(sorted(PROFILES))}"
        )
    session, data = build_session(
        profile=config.profile, scale=config.scale
    )

    trials = leakage_workbook()
    traces: list[LabeledTrace] = []
    by_label: dict[str, list[TrafficProfile]] = {}
    for trial in trials:
        session.reset_measurements()
        session.query(trial.sql)
        profile = profile_records(session.usb_log)
        by_label.setdefault(trial.label, []).append(profile)
        traces.append(
            LabeledTrace(label=trial.label, features=profile.feature_vector())
        )

    families: dict[str, dict] = {}
    lines: list[str] = []
    for label in sorted(by_label):
        profiles = by_label[label]
        families[label] = {
            "trials": len(profiles),
            "observable_bytes": sum(p.observable_bytes for p in profiles),
            "messages": sum(p.messages for p in profiles),
            "ids_observed": sum(p.ids_observed for p in profiles),
            "shape_entropy_bits_mean": round(
                sum(p.shape_entropy_bits for p in profiles) / len(profiles), 6
            ),
            "sim_seconds": round(
                sum(p.sim_duration_s for p in profiles), 9
            ),
            "signatures": sorted({p.signature for p in profiles}),
        }
        row = families[label]
        lines.append(
            f"{label:<22} {row['messages']:5d} msgs "
            f"{row['observable_bytes']:8d} B  {row['ids_observed']:7d} ids  "
            f"{row['shape_entropy_bits_mean']:.3f} bits  "
            f"{len(row['signatures'])} signature(s)"
        )

    classifier = evaluate_fingerprinting(traces)
    lines.append(
        f"fingerprint accuracy: {classifier['accuracy']:.3f} "
        f"(chance {classifier['chance_accuracy']:.3f}, "
        f"{classifier['traces']} traces x {len(classifier['labels'])} labels)"
    )

    artifact = build_leak_artifact(
        scale=config.scale,
        profile=config.profile,
        families=families,
        classifier=classifier,
    )
    # Family and band labels are authored here, like the dict keys.
    run = vet(
        artifact,
        LeakChecker(session.schema, data),
        "leakage-artifact",
        LeakMeterError,
        session.obs.redactor,
        structural=(KIND, "CLEAN", config.profile),
        signature_keys=SIGNATURE_KEYS | {"labels"},
    )
    run.lines = lines
    return run


# ----------------------------------------------------------------------
# The leakage-regression gate
# ----------------------------------------------------------------------

#: Per-family scalars the gate fails on when they *increase* (a wider
#: observable channel).  Decreases pass and are reported.
GATED_CHANNEL_METRICS = ("observable_bytes", "messages", "ids_observed")


def compare_leakage(baseline: dict, current: dict) -> GateReport:
    """Diff two scorecards; any widening of the channel fails.

    The shared gate of :func:`repro.obs.vetted.compare_rows` fails any
    growth in observable bytes, message counts or ID cardinalities and
    any changed request-sequence signature; a classifier-accuracy gain
    beyond :data:`ACCURACY_TOLERANCE` fails too.
    """
    report = compare_rows(
        "leakage comparison", baseline, current,
        "families", GATED_CHANNEL_METRICS, "signatures",
    )
    base_acc = float(baseline.get("classifier", {}).get("accuracy", 0.0))
    cur_acc = float(current.get("classifier", {}).get("accuracy", 0.0))
    if cur_acc > base_acc + ACCURACY_TOLERANCE:
        report.failures.append(
            f"MORE IDENTIFIABLE fingerprint accuracy {base_acc:.3f} -> "
            f"{cur_acc:.3f}"
        )
    return report


# ----------------------------------------------------------------------
# CLI: ``python -m repro leakmeter``
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro leakmeter",
        description="meter the traffic-shape leakage channel and write a "
        "deterministic LEAK_<date>.json scorecard",
    )
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_LEAK_SCALE,
        help=f"prescriptions in the dataset (default {DEFAULT_LEAK_SCALE})",
    )
    parser.add_argument(
        "--profile", default="demo",
        help="hardware profile of the simulated device (default demo)",
    )
    parser.add_argument(
        "--leak-out", default=None, metavar="PATH",
        help="scorecard path (default LEAK_<date>.json in the cwd)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against this committed scorecard and exit nonzero "
        "on a leakage regression",
    )
    args = parser.parse_args(argv)

    try:
        run = run_leakage_meter(
            LeakMeterConfig(scale=args.scale, profile=args.profile)
        )
    except LeakMeterError as exc:
        print(f"error: {exc}")
        return 2
    return write_and_gate(
        run, args.leak_out or dated_name("LEAK"), args.baseline,
        load_leak_artifact, compare_leakage,
    )


if __name__ == "__main__":
    raise SystemExit(main())
