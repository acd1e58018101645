"""Deterministic, seed-driven fault injection (`repro.faults`).

The injector is the single source of randomness for every simulated
hardware failure.  It owns one ``random.Random(seed)`` stream and makes
one *decision* per hardware operation, in call order, so a given
(workload, profile, seed) triple always produces the identical fault
schedule, retry trace, and simulated-time outcome -- the property the
chaos benchmarks and the determinism tests gate on.

The injector only *decides*; the hardware layers *manifest*.  A decision
is a :class:`FaultDecision` naming the fault kind plus the drawn
parameters (corrupt position, truncate length, stall duration, ...), and
every decision is appended to :attr:`FaultInjector.events` and counted
in ``ghostdb_faults_injected_total{site=...}`` so tests can assert the
exact schedule and operators can see fault pressure in the metrics
exposition.

Besides rate-driven faults, a power cut can be *scheduled* at an exact
flash-operation index (:meth:`FaultInjector.schedule_power_cut`); the
recovery sweep test uses this to cut power at every single flash op of a
workload and prove the mount-time scan always restores the last
committed state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class FaultProfile:
    """Per-operation fault probabilities for one chaos regime.

    All rates are per-operation probabilities in [0, 1].  USB rates are
    evaluated once per :meth:`~repro.hardware.usb.UsbChannel.transfer`;
    flash rates once per page program / page read / block erase.
    """

    name: str
    # USB link faults (per transfer).
    usb_corrupt_rate: float = 0.0
    usb_truncate_rate: float = 0.0
    usb_drop_rate: float = 0.0
    usb_stall_rate: float = 0.0
    usb_unplug_rate: float = 0.0
    usb_stall_seconds: float = 0.05
    # Flash faults (per page/block operation).
    flash_read_bitflip_rate: float = 0.0
    flash_torn_write_rate: float = 0.0
    flash_bad_block_rate: float = 0.0
    flash_power_cut_rate: float = 0.0

    def __post_init__(self) -> None:
        # A bad value would otherwise surface mid-transfer (a negative
        # stall) or poison the clock for good (a NaN stall).
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:  # False for NaN too
                raise ValueError(
                    f"fault profile {self.name!r}: {name} must be in "
                    f"[0, 1], got {rate!r}"
                )
        stall = self.usb_stall_seconds
        if not (math.isfinite(stall) and stall >= 0):
            raise ValueError(
                f"fault profile {self.name!r}: usb_stall_seconds must be "
                f"finite and >= 0, got {stall!r}"
            )

    def scaled(self, factor: float) -> "FaultProfile":
        """A copy with every rate multiplied by ``factor`` (capped at 1)."""
        rates = {
            name: min(1.0, getattr(self, name) * factor) for name in _RATES
        }
        return replace(self, **rates)


#: The per-operation probability fields of :class:`FaultProfile`.
_RATES = (
    "usb_corrupt_rate", "usb_truncate_rate", "usb_drop_rate",
    "usb_stall_rate", "usb_unplug_rate",
    "flash_read_bitflip_rate", "flash_torn_write_rate",
    "flash_bad_block_rate", "flash_power_cut_rate",
)


#: Named regimes selectable from the CLI (``--fault-profile``) and the
#: ``.fault`` shell command.  Rates are tuned so the demo workload sees
#: a handful of faults per query -- enough to exercise every recovery
#: path, rare enough that bounded retry usually still succeeds.
FAULT_PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "usb": FaultProfile(
        name="usb",
        usb_corrupt_rate=0.05,
        usb_truncate_rate=0.02,
        usb_drop_rate=0.02,
        usb_stall_rate=0.05,
    ),
    "flash": FaultProfile(
        name="flash",
        flash_read_bitflip_rate=0.01,
        flash_torn_write_rate=0.005,
        flash_bad_block_rate=0.001,
    ),
    "powercut": FaultProfile(
        name="powercut",
        flash_power_cut_rate=0.0005,
        usb_unplug_rate=0.002,
    ),
    "mixed": FaultProfile(
        name="mixed",
        usb_corrupt_rate=0.03,
        usb_truncate_rate=0.01,
        usb_drop_rate=0.01,
        usb_stall_rate=0.03,
        flash_read_bitflip_rate=0.005,
        flash_torn_write_rate=0.002,
        flash_bad_block_rate=0.0005,
    ),
}


@dataclass(frozen=True)
class FaultDecision:
    """One manifested fault: what, where, and the drawn parameters."""

    kind: str           # corrupt | truncate | drop | stall | unplug |
                        # bitflip | torn | bad_block | power_cut
    site: str           # "usb" or "flash"
    op_index: int       # usb transfer index or flash op index
    position: int = 0   # corrupt/bitflip byte offset
    xor_mask: int = 0   # corrupt/bitflip bit pattern (never 0 when used)
    length: int = 0     # truncate: bytes kept
    seconds: float = 0.0  # stall: simulated delay


@dataclass
class FaultInjector:
    """Seed-driven decision engine shared by all hardware layers.

    One injector instance is attached to a device
    (:meth:`repro.hardware.device.SmartUsbDevice.attach_faults`); the
    USB channel and the NAND flash each consult it per operation.  All
    random draws come from the single :attr:`rng` stream in call order,
    which is what makes the schedule reproducible.
    """

    profile: FaultProfile
    seed: int = 0
    metrics: object | None = None  # MetricsRegistry, wired on attach
    flight: object | None = None  # FlightRecorder, wired on attach
    rng: random.Random = field(init=False, repr=False)
    events: list[FaultDecision] = field(default_factory=list)
    usb_ops: int = 0
    flash_ops: int = 0
    _cut_at_flash_op: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    # -- configuration ------------------------------------------------

    def schedule_power_cut(self, at_flash_op: int) -> None:
        """Force a power cut when the flash-op counter reaches
        ``at_flash_op`` (0-based), regardless of profile rates."""
        self._cut_at_flash_op = at_flash_op

    # -- decision points ----------------------------------------------

    def usb_decision(self, payload_len: int) -> FaultDecision | None:
        """Decide the fate of one USB transfer of ``payload_len`` bytes.

        Exactly one rate draw per transfer; extra draws only when a
        fault fires (to pick its parameters).  Returns ``None`` for a
        clean transfer.
        """
        index = self.usb_ops
        self.usb_ops += 1
        p = self.profile
        roll = self.rng.random()
        edge = p.usb_unplug_rate
        if roll < edge:
            return self._record(FaultDecision("unplug", "usb", index))
        edge += p.usb_drop_rate
        if roll < edge:
            return self._record(FaultDecision("drop", "usb", index))
        edge += p.usb_corrupt_rate
        if roll < edge:
            pos = self.rng.randrange(max(1, payload_len))
            mask = self.rng.randrange(1, 256)
            return self._record(FaultDecision(
                "corrupt", "usb", index, position=pos, xor_mask=mask))
        edge += p.usb_truncate_rate
        if roll < edge:
            keep = self.rng.randrange(max(1, payload_len))
            return self._record(FaultDecision(
                "truncate", "usb", index, length=keep))
        edge += p.usb_stall_rate
        if roll < edge:
            return self._record(FaultDecision(
                "stall", "usb", index, seconds=p.usb_stall_seconds))
        return None

    def flash_decision(self, op: str, data_len: int = 0) -> FaultDecision | None:
        """Decide the fate of one flash operation.

        ``op`` is ``"program"``, ``"read"``, or ``"erase"``.  A
        scheduled power cut takes precedence over rate draws and does
        not consume one, so sweeping cut points never perturbs the
        rate-driven schedule before the cut.
        """
        index = self.flash_ops
        self.flash_ops += 1
        if self._cut_at_flash_op is not None and index >= self._cut_at_flash_op:
            return self._record(self._power_cut(op, index, data_len))
        p = self.profile
        if p.flash_power_cut_rate > 0 and self.rng.random() < p.flash_power_cut_rate:
            return self._record(self._power_cut(op, index, data_len))
        if op == "read" and p.flash_read_bitflip_rate > 0:
            if self.rng.random() < p.flash_read_bitflip_rate:
                pos = self.rng.randrange(max(1, data_len))
                mask = 1 << self.rng.randrange(8)
                return self._record(FaultDecision(
                    "bitflip", "flash", index, position=pos, xor_mask=mask))
        elif op == "program":
            if p.flash_bad_block_rate > 0 and self.rng.random() < p.flash_bad_block_rate:
                return self._record(FaultDecision("bad_block", "flash", index))
            if p.flash_torn_write_rate > 0 and self.rng.random() < p.flash_torn_write_rate:
                return self._record(FaultDecision("torn", "flash", index))
        elif op == "erase":
            if p.flash_bad_block_rate > 0 and self.rng.random() < p.flash_bad_block_rate:
                return self._record(FaultDecision("bad_block", "flash", index))
        return None

    def _power_cut(self, op: str, index: int, data_len: int) -> FaultDecision:
        """Build a power-cut decision; a cut mid-erase also draws how many
        pages of the block were physically wiped before power died."""
        wiped = 0
        if op == "erase" and data_len > 0:
            wiped = self.rng.randrange(data_len + 1)
        return FaultDecision("power_cut", "flash", index, length=wiped)

    # -- bookkeeping --------------------------------------------------

    def _record(self, decision: FaultDecision) -> FaultDecision:
        self.events.append(decision)
        if self.metrics is not None:
            self.metrics.counter("ghostdb_faults_injected_total").inc(
                site=decision.site, kind=decision.kind
            )
        if self.flight is not None:
            # "fault" is the event kind; the decision's own kind rides
            # in the payload under a distinct key.
            self.flight.record(
                "fault",
                site=decision.site,
                fault=decision.kind,
                op=decision.op_index,
            )
        return decision

    def schedule_signature(self) -> tuple[tuple[str, str, int], ...]:
        """Compact, comparable form of the full fault schedule."""
        return tuple((e.site, e.kind, e.op_index) for e in self.events)
