"""The spy's view of the trust boundary.

Everything in here works from the captured USB traffic alone -- exactly
the position of a Trojan horse on the terminal.  It can read requests
(they are JSON by design), see ID lists and fetched values, count bytes
and time transfers.  It can *not* see inside the device; this module is
the demo's proof of that, because what it renders is all there is.

:mod:`repro.privacy.meter` builds on this view: it turns the same
captured traffic into quantitative leakage scorecards and runs the
query-fingerprinting attack the traffic shape enables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.hardware.usb import Direction, TrafficRecord
from repro.visible.frame import RequestError, parse_request, payload_of

#: The ID streams the spy reads: ``ids`` are the packed batches of
#: visible-selection results sent to the device, ``fetch`` the IDs each
#: fetch request names after its JSON header.
ID_STREAMS = ("ids", "fetch")

#: Fault tags marking a copy of a message that never arrived intact.
#: The link retransmits such frames, and the intact retransmission is
#: also captured, so these copies are excluded from the *logical*
#: message sequence: the request signature, the request verbs and the
#: ID statistics (they still count toward observable bytes -- the spy
#: sees them).  A "stall" arrives intact, merely late, and stays.
LOST_FAULTS = frozenset({"corrupt", "truncate", "drop"})


def is_lost(record: TrafficRecord) -> bool:
    """Is ``record`` a mangled or dropped copy the link retransmitted?"""
    return not LOST_FAULTS.isdisjoint(record.faults)


def unpack_ids(payload: bytes) -> list[int]:
    """Decode a packed ID-list payload the way the spy would.

    Trailing bytes that do not fill a whole ID (a truncated frame) are
    ignored -- the spy reads what it can.
    """
    whole = len(payload) - len(payload) % ID_WIDTH
    return [v for (v,) in ID_STRUCT.iter_unpack(payload[:whole])]


@dataclass
class TrafficSummary:
    """Aggregate of one direction/kind bucket."""

    direction: str
    kind: str
    messages: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class IdStats:
    """What the spy learns about the IDs crossing in one ID stream."""

    kind: str
    #: IDs observed, counting repeats.
    total: int
    #: Distinct ID values observed.
    distinct: int

    @property
    def repeated_ratio(self) -> float:
        """Fraction of observed IDs that were repeats of earlier ones.

        Re-fetched IDs correlate messages with each other -- a join that
        probes the same rows twice shows up here even though every
        individual message looks innocent.
        """
        if self.total == 0:
            return 0.0
        return 1.0 - self.distinct / self.total


@dataclass
class SpyView:
    """Everything an observer of the USB bus learns."""

    records: list[TrafficRecord]

    def summary(self) -> list[TrafficSummary]:
        """Per (direction, kind) message and byte counts."""
        buckets: dict[tuple[str, str], TrafficSummary] = {}
        for record in self.records:
            key = (record.direction.value, record.kind)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = TrafficSummary(
                    direction=record.direction.value, kind=record.kind
                )
                buckets[key] = bucket
            bucket.messages += 1
            bucket.bytes += record.size
        return [buckets[k] for k in sorted(buckets)]

    @cached_property
    def request_bodies(self) -> dict[int, list[tuple[dict, list[int]]] | None]:
        """Each device->host request's bodies with the IDs they name
        (:func:`~repro.visible.frame.parse_request`), keyed by the
        request's position in :attr:`records`; ``None`` for a payload
        that does not parse (a mangled copy).  Parsed once per view."""
        bodies: dict[int, list[tuple[dict, list[int]]] | None] = {}
        for position, record in enumerate(self.records):
            if record.direction is Direction.TO_HOST and record.kind == "request":
                try:
                    bodies[position] = parse_request(payload_of(record.payload))
                except RequestError:
                    bodies[position] = None
        return bodies

    def _readable(self, position: int) -> str:
        """A request as the spy reads it: each body's JSON, followed by
        the IDs a fetch body names; a payload that does not parse is
        shown as text, as far as it decodes."""
        bodies = self.request_bodies[position]
        if bodies is None:
            return payload_of(self.records[position].payload).decode(
                "utf-8", errors="replace"
            )
        return " ".join(
            json.dumps(body) + (f" ids {ids}" if ids else "")
            for body, ids in bodies
        )

    def requests(self) -> list[str]:
        """The decoded device->host requests (readable by design)."""
        return [self._readable(position) for position in self.request_bodies]

    def observed_ids(self) -> dict[str, int]:
        """How many IDs crossed, by ID stream (repeats counted)."""
        return {
            kind: stats.total for kind, stats in self.id_stats().items()
        }

    def id_stats(self) -> dict[str, IdStats]:
        """Total, distinct and repeated-ID statistics per ID stream
        (see :data:`ID_STREAMS`).

        The leakage meter consumes these: ID-list cardinalities are the
        single most query-identifying observable, and the repeated-ID
        ratio separates re-probing plans from streaming ones.  Copies
        lost in flight are skipped (:data:`LOST_FAULTS`): their intact
        retransmission carries the same IDs, so counting both would
        make the figures depend on fault luck.
        """
        observed: dict[str, list[int]] = {}
        for record in self.records:
            if record.kind == "ids" and not is_lost(record):
                observed.setdefault("ids", []).extend(
                    unpack_ids(payload_of(record.payload))
                )
        for position, bodies in self.request_bodies.items():
            if is_lost(self.records[position]):
                continue
            for _body, ids in bodies or ():
                if ids:
                    observed.setdefault("fetch", []).extend(ids)
        return {
            kind: IdStats(kind=kind, total=len(ids), distinct=len(set(ids)))
            for kind, ids in observed.items()
        }

    def transcript(self, max_payload: int = 60) -> str:
        """A human-readable dump of the captured traffic.

        CRC frames are unwrapped first (:func:`payload_of`), so readable
        JSON payloads render as JSON instead of a hex-dumped frame
        header, and requests render as :meth:`requests` shows them; the
        reported size stays the on-the-wire (framed) size.
        """
        lines = []
        for position, record in enumerate(self.records):
            payload = payload_of(record.payload)
            if position in self.request_bodies:
                text = self._readable(position)
                shown, length = text[:max_payload], len(text)
            else:
                shown_bytes = payload[:max_payload]
                try:
                    shown = shown_bytes.decode("utf-8")
                except UnicodeDecodeError:
                    shown = shown_bytes.hex()
                length = len(payload)
            suffix = "..." if length > max_payload else ""
            shown = shown.replace("\n", "\\n").replace("\r", "\\r")
            lines.append(
                f"[{record.seq:4d}] {record.direction.value:14s} "
                f"{record.kind:13s} {record.size:6d} B  {shown}{suffix}"
            )
        return "\n".join(lines)

    @property
    def total_bytes(self) -> int:
        return sum(record.size for record in self.records)
