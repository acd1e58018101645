"""The USB link between the untrusted terminal and the smart USB device.

This is the trust boundary of GhostDB.  Everything that crosses it is, by
assumption, visible to a spy (a Trojan horse on the terminal, a sniffer on
the bus).  The channel therefore does two jobs:

* **timing** -- USB 2.0 full speed moves 12 Mb/s, plus a fixed per-message
  cost, charged to the shared :class:`~repro.hardware.clock.SimClock`; and
* **observability** -- every message is recorded as a
  :class:`TrafficRecord` with its raw payload, so
  :mod:`repro.privacy` can show the demo's "what a pirate would observe"
  view and mechanically verify that no hidden data ever crossed.

The channel itself enforces no policy; policy lives in
:mod:`repro.visible.link`, which simply has no verbs for exporting hidden
data ("data flows in only one direction: from public to private").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.faults.errors import DeviceUnpluggedError, GhostDBFaultError
from repro.faults.injector import FaultInjector
from repro.hardware.clock import SimClock, to_ticks
from repro.hardware.profiles import HardwareProfile
from repro.obs.registry import MetricsRegistry


class UsbError(Exception):
    """Malformed use of the USB channel."""


class UsbDroppedError(GhostDBFaultError):
    """A message was lost on the bus (receiver timed out waiting).

    Transient: the link layer retries the transfer."""


class Direction(enum.Enum):
    """Which way a message crossed the trust boundary."""

    TO_DEVICE = "host->device"
    TO_HOST = "device->host"


@dataclass(frozen=True)
class TrafficRecord:
    """One observed message on the bus: what the spy gets to see."""

    seq: int
    direction: Direction
    kind: str
    payload: bytes
    #: Simulated time at which the transfer completed.
    completed_at: float
    description: str = ""
    #: Fault kinds the injector applied to this message ("corrupt",
    #: "truncate", "drop", "stall", "unplug").  Empty for clean
    #: transfers.  The spy still sees faulted bytes; the leak checker
    #: uses the tags to skip structural parsing of mangled frames.
    faults: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass
class UsbChannel:
    """A half-duplex message channel with timing and full capture."""

    profile: HardwareProfile
    clock: SimClock
    log: list[TrafficRecord] = field(default_factory=list)
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    #: Optional deterministic fault injector (see :mod:`repro.faults`).
    faults: FaultInjector | None = None
    #: Optional device-lifetime metrics sink (monotonic; includes load).
    metrics: MetricsRegistry | None = None

    def transfer(
        self,
        direction: Direction,
        kind: str,
        payload: bytes,
        description: str = "",
    ) -> bytes:
        """Move ``payload`` across the bus; returns the delivered bytes.

        The delivered bytes normally equal the payload; with fault
        injection enabled they may be corrupted, which upper layers must
        detect via their own checksums.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise UsbError(
                f"USB payloads must be bytes, got {type(payload).__name__}"
            )
        payload = bytes(payload)
        self.clock.advance(
            self.profile.usb_message_ticks(len(payload)), "usb"
        )
        if direction is Direction.TO_DEVICE:
            self.bytes_to_device += len(payload)
        else:
            self.bytes_to_host += len(payload)
        if self.metrics is not None:
            label = (
                "to_device" if direction is Direction.TO_DEVICE else "to_host"
            )
            self.metrics.counter("ghostdb_device_usb_messages_total").inc(
                direction=label
            )
            self.metrics.counter("ghostdb_device_usb_bytes_total").inc(
                len(payload), direction=label
            )
            self.metrics.histogram(
                "ghostdb_device_usb_message_bytes"
            ).observe(len(payload), direction=label)
        delivered = payload
        fault_tags: tuple[str, ...] = ()
        decision = None
        if self.faults is not None:
            decision = self.faults.usb_decision(len(payload))
        if decision is not None:
            fault_tags = (decision.kind,)
            if decision.kind == "corrupt" and payload:
                corrupted = bytearray(payload)
                corrupted[decision.position] ^= decision.xor_mask
                delivered = bytes(corrupted)
            elif decision.kind == "truncate" and payload:
                delivered = payload[: decision.length]
            elif decision.kind == "stall":
                # The bus hiccupped; the message arrives intact but late.
                self.clock.advance(to_ticks(decision.seconds), "usb")
        seq = len(self.log)
        record = TrafficRecord(
            seq=seq,
            direction=direction,
            kind=kind,
            payload=delivered,
            completed_at=self.clock.now,
            description=description,
            faults=fault_tags,
        )
        self.log.append(record)
        if decision is not None:
            if decision.kind == "drop":
                raise UsbDroppedError(
                    f"message #{seq} ({kind}) was lost on the bus"
                )
            if decision.kind == "unplug":
                raise DeviceUnpluggedError(
                    f"device unplugged during message #{seq} ({kind})"
                )
        return delivered

    @property
    def message_count(self) -> int:
        return len(self.log)

    def records(self, direction: Direction | None = None) -> list[TrafficRecord]:
        """All captured traffic, optionally filtered by direction."""
        if direction is None:
            return list(self.log)
        return [r for r in self.log if r.direction is direction]

    def clear_log(self) -> None:
        """Forget captured traffic (between benchmark repetitions)."""
        self.log.clear()
        self.bytes_to_device = 0
        self.bytes_to_host = 0
