"""Mechanical verification that hidden data never crossed the boundary.

Three independent checks over the captured traffic:

1. **Structural**: device->host messages may only be ``request`` -- the
   protocol's one outbound verb.  Anything else is a protocol violation
   (there is no verb for hidden data, but a bug could invent one).
2. **Hidden value scan**: no hidden *string* value may appear (as UTF-8)
   in any payload, in either direction after load.  Strings of three or
   more characters are distinctive enough to scan for; numeric and date
   encodings are not (any 8-byte pattern eventually collides with packed
   ID streams), so for those columns the structural checks carry the
   guarantee.  The query text the user poses is exempt: the paper
   accepts revealing "the queries he poses", constants included.
3. **Request transparency**: outbound requests must parse as the known
   request forms (:func:`repro.visible.frame.parse_request`: a JSON
   header, and for a fetch round an ID tail that matches its bodies'
   counts), every body must carry a known op, and bodies may only name
   visible columns.

The checker is deliberately adversarial toward the engine: it is built
from the raw dataset, not from engine internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.schema import Schema
from repro.hardware.usb import Direction, TrafficRecord
from repro.visible.frame import RequestError, parse_request, payload_of

#: Byte patterns shorter than this are too unspecific to scan for.
MIN_PATTERN_LEN = 3

#: Fault tags that mangle a frame in flight.  Such records are copies of
#: traffic that failed its CRC and was retransmitted; the intact
#: retransmission is also captured and fully checked, so the mangled
#: copy is exempt from *structural* parsing (its bytes are still
#: pattern-scanned -- corruption must not be a leak loophole).
MANGLING_FAULTS = {"corrupt", "truncate"}

ALLOWED_OUTBOUND_KINDS = {"request"}
ALLOWED_REQUEST_OPS = {"select_ids", "count_ids", "fetch_values"}


@dataclass
class LeakViolation:
    """One detected leak or protocol violation."""

    seq: int
    kind: str
    reason: str

    def __str__(self) -> str:
        return f"message #{self.seq} ({self.kind}): {self.reason}"


@dataclass
class LeakReport:
    """Outcome of a leak-check pass."""

    checked_messages: int
    checked_patterns: int
    violations: list[LeakViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "CLEAN" if self.ok else f"{len(self.violations)} VIOLATIONS"
        lines = [
            f"leak check: {status} "
            f"({self.checked_messages} messages x "
            f"{self.checked_patterns} hidden patterns)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class LeakChecker:
    """Builds the hidden-value corpus and scans captured traffic."""

    def __init__(self, schema: Schema, rows_by_table: dict[str, list]):
        self.schema = schema
        self._patterns: list[tuple[bytes, str]] = []
        self._collect_patterns(rows_by_table)

    def _collect_patterns(self, rows_by_table: dict[str, list]) -> None:
        seen: set[bytes] = set()
        for table in self.schema:
            rows = rows_by_table.get(table.name.lower())
            if not rows:
                continue
            hidden = [
                (i, col)
                for i, col in enumerate(table.columns)
                if col.hidden
            ]
            for row in rows:
                for idx, col in hidden:
                    value = row[idx]
                    if not isinstance(value, str):
                        continue
                    raw = value.encode("utf-8")
                    if len(raw) >= MIN_PATTERN_LEN and raw not in seen:
                        seen.add(raw)
                        self._patterns.append(
                            (raw, f"{table.name}.{col.name}={value!r}")
                        )

    @property
    def pattern_count(self) -> int:
        return len(self._patterns)

    # ------------------------------------------------------------------

    def check(self, records: list[TrafficRecord]) -> LeakReport:
        report = LeakReport(
            checked_messages=len(records),
            checked_patterns=len(self._patterns),
        )
        for record in records:
            self._check_structure(record, report)
            self._scan_payload(record, report)
        self._scan_streams(records, report)
        return report

    def check_bytes(self, payload: bytes, kind: str = "blob") -> LeakReport:
        """Scan one arbitrary byte blob for hidden values.

        Used for artefacts other than USB traffic -- exported traces,
        metric expositions, log captures -- which must uphold the same
        invariant: no hidden string value may appear anywhere in them.
        """
        report = LeakReport(
            checked_messages=1, checked_patterns=len(self._patterns)
        )
        for pattern, where in self._patterns:
            if pattern in payload:
                report.violations.append(
                    LeakViolation(
                        0, kind, f"payload contains hidden value {where}"
                    )
                )
        return report

    def _check_structure(self, record: TrafficRecord, report: LeakReport) -> None:
        if record.direction is not Direction.TO_HOST:
            return
        if record.kind not in ALLOWED_OUTBOUND_KINDS:
            report.violations.append(
                LeakViolation(
                    record.seq, record.kind,
                    f"outbound message kind {record.kind!r} is not in the "
                    f"protocol whitelist {sorted(ALLOWED_OUTBOUND_KINDS)}",
                )
            )
            return
        if record.kind == "request":
            if MANGLING_FAULTS.intersection(record.faults):
                # An injected fault garbled this frame in flight; the
                # link retransmitted it and the intact copy is checked.
                return
            self._check_request(record, report)

    def _check_request(self, record: TrafficRecord, report: LeakReport) -> None:
        try:
            bodies = parse_request(payload_of(record.payload))
        except RequestError as exc:
            report.violations.append(
                LeakViolation(
                    record.seq, record.kind,
                    f"outbound request is not transparent: {exc}",
                )
            )
            return
        for body, _ids in bodies:
            op = body.get("op")
            if op not in ALLOWED_REQUEST_OPS:
                report.violations.append(
                    LeakViolation(
                        record.seq, record.kind,
                        f"unknown request op {op!r}",
                    )
                )
                continue
            named_columns: list[tuple[str, str]] = []
            predicate = body.get("predicate")
            if predicate:
                named_columns.append((predicate["table"], predicate["column"]))
            for wire in body.get("recheck", []):
                named_columns.append((wire["table"], wire["column"]))
            for column in body.get("columns", []):
                named_columns.append((body["table"], column))
            for table_name, column_name in named_columns:
                table = self.schema.table(table_name)
                column = table.column(column_name)
                if column.hidden:
                    report.violations.append(
                        LeakViolation(
                            record.seq, record.kind,
                            f"request names hidden column "
                            f"{table_name}.{column_name}",
                        )
                    )

    def _scan_payload(self, record: TrafficRecord, report: LeakReport) -> None:
        if record.kind == "query" and record.direction is Direction.TO_DEVICE:
            # The user's own query text is an accepted revelation; its
            # constants may legitimately name hidden values.
            return
        payload = record.payload
        for pattern, where in self._patterns:
            if pattern in payload:
                report.violations.append(
                    LeakViolation(
                        record.seq, record.kind,
                        f"payload contains hidden value {where}",
                    )
                )

    def _scan_streams(self, records: list[TrafficRecord], report: LeakReport) -> None:
        """Catch hidden values split across consecutive messages.

        A value fragmented over two frames of the same logical stream
        (say, a ``values`` reply split across fetch batches) is invisible
        to the per-message scan: neither fragment alone matches.  The
        spy, however, sees the concatenated stream -- so the checker
        scans it too: unwrapped payloads concatenated per
        (direction, kind), reporting only matches no single message
        already accounted for.
        """
        streams: dict[tuple[str, str], list[TrafficRecord]] = {}
        for record in records:
            if record.kind == "query" and record.direction is Direction.TO_DEVICE:
                # Same exemption as the per-message scan.
                continue
            key = (record.direction.value, record.kind)
            streams.setdefault(key, []).append(record)
        for (direction, kind), members in streams.items():
            if len(members) < 2:
                continue
            payloads = [payload_of(r.payload) for r in members]
            joined = b"".join(payloads)
            for pattern, where in self._patterns:
                if pattern in joined and not any(
                    pattern in payload for payload in payloads
                ):
                    report.violations.append(
                        LeakViolation(
                            members[0].seq, kind,
                            f"hidden value {where} spans a message boundary "
                            f"in the {direction} {kind!r} stream",
                        )
                    )
