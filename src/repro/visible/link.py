"""The client protocol between the device and the visible site.

Every byte of this protocol crosses the USB trust boundary, so its design
*is* the privacy argument:

* device -> host messages carry only **requests**: a visible predicate to
  evaluate, or the IDs whose visible attributes the projection needs.
  Both are information the paper accepts revealing ("the queries he
  poses and the visible data he accesses").
* host -> device messages carry visible data only: sorted ID lists
  (packed 32-bit, in batches) and projected visible values (JSON).
* there is **no verb** for moving hidden data or intermediate results out
  of the device.  The leak checker additionally scans all captured
  payloads, but the protocol's shape is the first line of defence.

Requests are JSON for observability -- a spy (and our tests) can read
them, which is the point.  A fetch request carries its IDs after its
JSON header (:func:`repro.visible.frame.fetch_request`).

Every message pays a fixed setup cost on the bus, so the protocol spends
as few as it can: an ID stream ends on its first batch shorter than
``id_batch`` (an empty one when the last batch is full), and one fetch
round -- one request, one ``values`` reply -- serves every table a
projection window needs.
"""

from __future__ import annotations

import datetime
import json
from collections.abc import Sequence
from typing import NamedTuple

from repro.columns import ID_WIDTH, IdColumn
from repro.faults.errors import UsbTransferError
from repro.hardware.clock import to_ticks
from repro.hardware.device import SmartUsbDevice
from repro.hardware.usb import Direction, UsbDroppedError
from repro.sql.binder import Predicate
from repro.visible.frame import (
    FrameError,
    fetch_request,
    frame,
    parse_request,
    unframe,
)
from repro.visible.site import VisibleSite

#: IDs per host->device batch message (1 KiB of payload at 4 B/ID).
DEFAULT_ID_BATCH = 256

#: IDs per table in one fetch round.
DEFAULT_FETCH_BATCH = 128

#: How many times a corrupted or dropped frame is retransmitted before
#: the transfer is abandoned with :class:`UsbTransferError`.
MAX_RETRIES = 5

#: Initial retransmission backoff (simulated seconds); doubles per
#: attempt, charged to the "usb" clock category.
RETRY_BACKOFF_S = 0.002


def batch_sizes(ram_bytes: int) -> tuple[int, int]:
    """A session's ``(id_batch, fetch_batch)`` for the secure RAM it
    has.  Receive buffers are real allocations, so a 16 KiB partition
    cannot afford 64 KiB-class batches: one ID per 256 B of RAM (at
    least 32) and one fetch row per 512 B (at least 8), each capped at
    its default."""
    return (
        min(DEFAULT_ID_BATCH, max(32, ram_bytes // 256)),
        min(DEFAULT_FETCH_BATCH, max(8, ram_bytes // 512)),
    )


class ProtocolError(Exception):
    """Malformed or corrupted link traffic."""


class Fetch(NamedTuple):
    """One table's share of a fetch: the PKs whose ``columns`` the
    projection needs, with the visible predicates to re-check."""

    table: str
    pks: list[int]
    columns: list[str]
    recheck: Sequence[Predicate] = ()


def encode_value(value):
    """JSON-encode a SQL value (dates get a marker object)."""
    if isinstance(value, datetime.date):
        return {"__date__": value.isoformat()}
    return value


def decode_value(value):
    if isinstance(value, dict) and "__date__" in value:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def predicate_to_wire(predicate: Predicate) -> dict:
    return {
        "table": predicate.table,
        "column": predicate.column,
        "kind": predicate.kind,
        "value": encode_value(predicate.value),
        "low": encode_value(predicate.low),
        "low_inclusive": predicate.low_inclusive,
        "high": encode_value(predicate.high),
        "high_inclusive": predicate.high_inclusive,
        "values": [encode_value(v) for v in predicate.values],
    }


class DeviceLink:
    """Device-side protocol client, talking to a :class:`VisibleSite`.

    In the demo platform these are separate machines; in the simulation
    the host endpoint is invoked synchronously after each USB transfer,
    which preserves exactly the observable traffic.  The link is the
    one holder of its session's batch sizes (:func:`batch_sizes`).
    """

    def __init__(
        self,
        device: SmartUsbDevice,
        site: VisibleSite,
        id_batch: int = DEFAULT_ID_BATCH,
        fetch_batch: int = DEFAULT_FETCH_BATCH,
    ):
        self.device = device
        self.site = site
        self.id_batch = id_batch
        self.fetch_batch = fetch_batch

    # ------------------------------------------------------------------
    # Reliable transfer
    # ------------------------------------------------------------------

    def _send(
        self,
        direction: Direction,
        kind: str,
        payload: bytes,
        description: str = "",
    ) -> bytes:
        """Move ``payload`` across the bus inside a CRC32 frame.

        A frame that arrives corrupted or truncated, or never arrives at
        all, is retransmitted up to :data:`MAX_RETRIES` times with
        exponential backoff charged to the simulated clock.  Every
        attempt -- including the mangled ones -- lands in the USB
        capture log, so the spy sees retransmissions too.  Exhausting
        the budget raises :class:`~repro.faults.UsbTransferError`; an
        unplug mid-transfer propagates as ``DeviceUnpluggedError``.
        """
        framed = frame(payload)
        attempt = 0
        while True:
            try:
                delivered = self.device.usb.transfer(
                    direction, kind, framed, description=description
                )
                return unframe(delivered)
            except (FrameError, UsbDroppedError) as exc:
                reason = (
                    "dropped" if isinstance(exc, UsbDroppedError) else "corrupt"
                )
                attempt += 1
                if self.device.usb.metrics is not None:
                    self.device.usb.metrics.counter(
                        "ghostdb_usb_retries_total"
                    ).inc(reason=reason)
                if self.device.flight is not None:
                    self.device.flight.record(
                        "usb_retry", reason=reason, attempt=attempt
                    )
                if attempt > MAX_RETRIES:
                    if self.device.flight is not None:
                        self.device.flight.record(
                            "usb_exhausted", reason=reason, attempt=attempt
                        )
                    raise UsbTransferError(
                        f"{kind} transfer failed after {MAX_RETRIES} "
                        f"retries ({reason})"
                    ) from exc
                self.device.clock.advance(
                    to_ticks(RETRY_BACKOFF_S * (2 ** (attempt - 1))), "usb"
                )

    def announce(self, sql: str) -> None:
        """Ship the user's query text to the device, as the terminal
        would.  An accepted revelation ("the queries he poses")."""
        self._send(
            Direction.TO_DEVICE, "query", sql.strip().encode("utf-8"),
            description="query text from the terminal",
        )

    # ------------------------------------------------------------------
    # Visible selection -> ID stream
    # ------------------------------------------------------------------

    def select_ids(self, table: str, predicate: Predicate):
        """Yield the sorted PKs satisfying a visible predicate, one at
        a time (a flattening of :meth:`select_id_batches`)."""
        for batch in self.select_id_batches(table, predicate):
            yield from batch

    def select_id_batches(self, table: str, predicate: Predicate):
        """Yield the sorted PKs satisfying a visible predicate, one
        :class:`~repro.columns.IdColumn` per host->device batch message.

        The request crosses to the host; the host evaluates the predicate
        on its copy of the data (free of device cost) and streams the IDs
        back in packed batches.  The device holds one batch in RAM.  The
        first batch shorter than ``id_batch`` ends the stream, so a
        stream whose last batch is full ends on an empty one.  The frame's
        length check makes that safe: a truncated batch fails it and is
        retransmitted, never read as an early end.  The batch boundaries
        *are* the USB message boundaries -- consuming per message or per
        ID produces identical observable traffic, because each message is
        only requested when its first ID is demanded either way.
        """
        request = json.dumps(
            {"op": "select_ids", "predicate": predicate_to_wire(predicate)}
        ).encode("utf-8")
        self._send(
            Direction.TO_HOST, "request", request,
            description=f"select_ids {table}.{predicate.column}",
        )
        ids = self.site.select_ids(table, predicate)
        with self.device.ram.allocate(
            self.id_batch * ID_WIDTH, f"usb-rx:{table}"
        ):
            start = 0
            while True:
                batch = ids[start : start + self.id_batch]
                start += self.id_batch
                delivered = self._send(
                    Direction.TO_DEVICE, "ids",
                    IdColumn.from_ids(batch).to_be_bytes(),
                    description=f"{len(batch)} ids of {table}",
                )
                count, rest = divmod(len(delivered), ID_WIDTH)
                if rest:
                    raise ProtocolError("truncated ID batch")
                if count:
                    yield IdColumn.from_be_bytes(delivered, count)
                if count < self.id_batch:
                    return

    def count_ids(self, table: str, predicate: Predicate) -> int:
        """Ask the host for an exact visible-selection cardinality."""
        request = json.dumps(
            {"op": "count_ids", "predicate": predicate_to_wire(predicate)}
        ).encode("utf-8")
        self._send(
            Direction.TO_HOST, "request", request,
            description=f"count_ids {table}.{predicate.column}",
        )
        count = self.site.count_ids(table, predicate)
        reply = json.dumps({"op": "count", "count": count}).encode("utf-8")
        self._send(
            Direction.TO_DEVICE, "count", reply,
            description=f"count for {table}",
        )
        return count

    # ------------------------------------------------------------------
    # Projection -> visible value fetch
    # ------------------------------------------------------------------

    def fetch_values(self, fetches: list[Fetch]) -> list[dict[int, tuple]]:
        """Fetch visible values for every table in ``fetches``.

        Each round is one request and one ``values`` reply, and carries
        up to ``fetch_batch`` PKs of every table that still has some, so
        a projection window of at most ``fetch_batch`` rows is exactly
        one round.  The host endpoint reads the IDs off the request that
        crossed, and re-checks each table's ``recheck`` predicates while
        serving, so IDs that were Bloom-filter false positives simply
        come back absent.  Requested IDs are visible on the wire -- the
        accepted revelation.  Returns one ``{pk: values}`` map per fetch,
        in order.
        """
        results: list[dict[int, tuple]] = [{} for _ in fetches]
        longest = max((len(fetch.pks) for fetch in fetches), default=0)
        for start in range(0, longest, self.fetch_batch):
            members = [
                (i, fetch.pks[start : start + self.fetch_batch])
                for i, fetch in enumerate(fetches)
                if len(fetch.pks) > start
            ]
            bodies = [
                {
                    "op": "fetch_values",
                    "table": fetches[i].table,
                    "columns": fetches[i].columns,
                    "recheck": [predicate_to_wire(p) for p in fetches[i].recheck],
                    "count": len(pks),
                }
                for i, pks in members
            ]
            tables = ", ".join(body["table"] for body in bodies)
            delivered = self._send(
                Direction.TO_HOST, "request",
                fetch_request(
                    bodies,
                    [IdColumn.from_ids(pks).to_be_bytes() for _i, pks in members],
                ),
                description=f"fetch from {tables}",
            )
            # The host endpoint serves the IDs that crossed.
            served = [
                self.site.fetch_values(
                    body["table"], ids, body["columns"], fetches[i].recheck
                )
                for (body, ids), (i, _pks) in zip(
                    parse_request(delivered), members
                )
            ]
            reply = json.dumps(
                [
                    {
                        str(pk): [encode_value(v) for v in values]
                        for pk, values in rows.items()
                    }
                    for rows in served
                ]
            ).encode("utf-8")
            with self.device.ram.allocate(max(64, len(reply)), "usb-rx-values"):
                delivered = self._send(
                    Direction.TO_DEVICE, "values", reply,
                    description=f"{sum(map(len, served))} rows of {tables}",
                )
                try:
                    decoded = json.loads(delivered.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(f"corrupted values reply: {exc}")
            for (i, _pks), rows in zip(members, decoded):
                results[i].update(
                    (int(pk_str), tuple(decode_value(v) for v in values))
                    for pk_str, values in rows.items()
                )
        return results
