"""Vetted artifacts: the one path an exported JSON artifact takes.

BENCH, LEAK, SOAK and DUMP files and the shell's leakage scorecard are
observable execution artefacts.  ObliDB's threat model (see PAPERS.md)
treats every such artefact as visible to the adversary, so all of them
share one serializer, one writer and one loader:

* :func:`serialize` gates the artifact through a default-deny
  :class:`~repro.obs.redact.Redactor`.  Dict keys (authored by this
  code base), the caller's structural values and string values under
  the caller's signature keys (hex CRCs of traffic *shape*, never data)
  pass; any other string token scrubs to ``?`` and shows up in review
  instead of leaking.  The result is canonical JSON.
* :func:`write_atomic` puts bytes on disk through a temporary file,
  fsync and an atomic rename, so a crash leaves the old file or the new
  one, never a torn mix.  Session files use it too.
* :func:`load` reads an artifact back, refusing foreign kinds and other
  schema versions.

Callers that hold the raw dataset (bench, leakmeter, soak, the shell)
also feed the serialized bytes to the adversarial
:class:`~repro.privacy.leakcheck.LeakChecker` before anything is
written; :func:`vet` is that step for the three harnesses.

The bench and leakage baselines share one gate: :func:`compare_rows`
diffs a run against a committed artifact, and :func:`write_and_gate`
is the command-line tail both harnesses end with.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.obs.redact import Redactor

#: Keys whose string values are shape-derived hex signatures computed by
#: :mod:`repro.privacy.meter`, never data.
SIGNATURE_KEYS = frozenset(
    {"leak_request_signature", "request_signature", "signatures"}
)


def serialize(
    artifact: dict,
    redactor: Redactor | None = None,
    structural=(),
    signature_keys=frozenset(),
) -> bytes:
    """Gate ``artifact`` through redaction and serialize it.

    A fresh default-deny :class:`Redactor` is used unless one is given
    (sessions pass their own, which already knows the schema
    vocabulary: table and column *names* are part of the accepted
    revelation; values never are).
    """
    redactor = redactor or Redactor()
    redactor.allow(*structural)

    def allow_keys(value, parent_key: str = "") -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                redactor.allow(str(key))
                allow_keys(sub, str(key))
        elif isinstance(value, (list, tuple)):
            for sub in value:
                allow_keys(sub, parent_key)
        elif isinstance(value, str) and parent_key in signature_keys:
            redactor.allow(value)

    allow_keys(artifact)
    scrubbed = redactor.value(artifact)
    text = json.dumps(scrubbed, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def write_atomic(
    path: str, data: bytes, prefix: str = ".ghostdb-artifact-"
) -> None:
    """Write ``data`` to ``path`` crash-safely, creating its directory.

    The bytes go to a temporary file next to ``path``, are flushed and
    fsynced, and the file is renamed over the destination.  On any
    failure the temporary file is removed and the destination keeps its
    previous contents.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load(path: str, kind: str, version: int, noun: str = "artifact") -> dict:
    """Read one artifact back, refusing foreign or future JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict) or artifact.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} {noun}")
    found = artifact.get("schema_version")
    if found != version:
        raise ValueError(
            f"{path}: {noun} schema_version {found!r}, "
            f"this tool speaks {version}"
        )
    return artifact


@dataclass
class VettedRun:
    """A finished harness run: the artifact plus its vetted bytes."""

    artifact: dict
    #: Redacted JSON bytes, already verified CLEAN by the leak checker.
    payload: bytes
    leak_summary: str
    #: The run's progress report, one printed line each.
    lines: list[str] = field(default_factory=list)

    def write(self, path: str) -> None:
        write_atomic(path, self.payload)


def vet(
    artifact: dict,
    checker,
    kind: str,
    error: type[Exception],
    redactor: Redactor | None = None,
    structural=(),
    signature_keys=frozenset(),
) -> VettedRun:
    """Serialize ``artifact`` (see :func:`serialize`) and have
    ``checker``, a :class:`~repro.privacy.leakcheck.LeakChecker` over
    the raw dataset, call the bytes CLEAN; raise ``error`` otherwise."""
    payload = serialize(artifact, redactor, structural, signature_keys)
    leak = checker.check_bytes(payload, kind=kind)
    if not leak.ok:
        raise error(f"artifact failed leak check: {leak.summary()}")
    return VettedRun(artifact, payload, leak.summary())


def dated_name(prefix: str) -> str:
    """Today's default artifact file name, ``<prefix>_<YYYYMMDD>.json``."""
    return f"{prefix}_{datetime.date.today():%Y%m%d}.json"


@dataclass
class GateReport:
    """One baseline comparison: any failure line fails it, notes only
    inform."""

    title: str
    #: What was compared, e.g. ``27 scenarios x 11 gated metrics``.
    scope: str
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{self.title}: {status} ({self.scope})"]
        lines.extend(f"  {line}" for line in self.failures + self.notes)
        return "\n".join(lines)


def compare_rows(
    title: str,
    baseline: dict,
    current: dict,
    rows: str,
    metrics,
    signature: str,
) -> GateReport:
    """Diff the ``rows`` section of a run against a committed baseline.

    The gated numbers are integer clock ticks and counts, deterministic
    for a given code, scale and profile, so the gate is exact:

    * schema version, ``config.scale`` and ``config.profile`` must
      match, or the numbers would not be comparable;
    * a baseline row the run lacks fails (coverage must not silently
      shrink); a row new in the run is reported, since it has no
      baseline yet;
    * any increase in one of ``metrics`` fails; a decrease is reported;
    * a changed ``signature`` field fails: the logical message sequence
      itself moved (it is invariant under fault-injection retries).

    Callers append their own absolute checks to the report's failures.
    """
    base_cfg = baseline.get("config", {})
    run_cfg = current.get("config", {})
    pairs = [
        ("schema_version", baseline.get("schema_version"),
         current.get("schema_version")),
    ] + [
        (f"config.{key}", base_cfg.get(key), run_cfg.get(key))
        for key in ("scale", "profile")
    ]
    failures = [
        f"config mismatch: {key}: baseline {before!r} vs run {after!r}"
        for key, before, after in pairs
        if before != after
    ]
    base_rows = baseline.get(rows, {})
    run_rows = current.get(rows, {})
    failures.extend(
        f"missing {name} (in baseline, not run)"
        for name in sorted(set(base_rows) - set(run_rows))
    )
    shared = sorted(set(base_rows) & set(run_rows))
    signatures: list[str] = []
    notes: list[str] = []
    for name in shared:
        base_row = base_rows[name]
        run_row = run_rows[name]
        for metric in metrics:
            before = base_row.get(metric, 0)
            after = run_row.get(metric, 0)
            line = f"{name}: {metric} {before} -> {after}"
            if after > before:
                failures.append(f"REGRESSION {line}")
            elif after < before:
                notes.append(f"improved   {line}")
        before = base_row.get(signature) or "(none)"
        after = run_row.get(signature) or "(none)"
        if before != after:
            signatures.append(f"SIGNATURE CHANGED {name}: {before} -> {after}")
    notes.extend(
        f"new {name} (no baseline -- commit a refreshed one)"
        for name in sorted(set(run_rows) - set(base_rows))
    )
    return GateReport(
        title,
        f"{len(shared)} {rows} x {len(metrics)} gated metrics",
        failures + signatures,
        notes,
    )


def write_and_gate(
    run: VettedRun, path: str, baseline: str | None, load_baseline, compare
) -> int:
    """The harnesses' command-line tail: print the run's report, write
    its artifact to ``path`` and, given a ``baseline`` path, gate the
    run against it with ``compare``.

    Exit code 0 passes, 1 is a failed gate, 2 an artifact that could
    not be written or a baseline that could not be read.
    """
    for line in run.lines:
        print(line)
    print()
    print(run.leak_summary)
    try:
        run.write(path)
    except OSError as exc:
        print(f"error: could not write artifact: {exc}")
        return 2
    print(f"wrote {path} ({len(run.payload)} bytes)")
    if not baseline:
        return 0
    try:
        committed = load_baseline(baseline)
    except (OSError, ValueError) as exc:
        print(f"error: could not read baseline: {exc}")
        return 2
    report = compare(committed, run.artifact)
    print()
    print(report.render())
    return 0 if report.ok else 1
