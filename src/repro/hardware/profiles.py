"""Hardware profiles: the constants that define a smart USB device.

The paper (Section 3) characterises the target platform:

* secure chip with a 32-bit RISC processor and *tens of KB* of static RAM;
* gigabyte-sized external NAND flash whose writes are 3-10x slower than
  reads (full-page vs single-word reads differ too) and which forbids
  writes in place;
* USB 2.0 full-speed link at 12 Mb/s, with high speed (480 Mb/s)
  "envisioned for future platforms".

A :class:`HardwareProfile` bundles those constants.  :data:`DEMO_DEVICE` is
the paper's platform; the other profiles support the ablation benchmarks
(harsher flash asymmetry, the envisioned high-speed link, and an even
smaller RAM for stress tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from repro.hardware.clock import TICKS_PER_SECOND

#: The per-operation time constants, in seconds, each mirrored by an
#: integer ``*_ticks`` field.
_TIMED = (
    "flash_read_full_s",
    "flash_read_partial_s",
    "flash_write_s",
    "flash_erase_s",
    "usb_setup_s",
)


def _whole_ticks(name: str, ticks: Fraction) -> int:
    if ticks.denominator != 1 or ticks < 0:
        raise ValueError(
            f"{name} must be a whole, non-negative number of clock ticks "
            f"(femtoseconds), got {float(ticks)!r} ticks"
        )
    return int(ticks)


@dataclass(frozen=True)
class HardwareProfile:
    """All timing/sizing constants of a simulated smart USB device."""

    name: str
    #: Secure-chip static RAM available to the query engine, in bytes.
    ram_bytes: int
    #: NAND flash page size in bytes (unit of read/program).
    page_size: int
    #: Pages per erase block.
    pages_per_block: int
    #: Number of erase blocks (page_size * pages_per_block * num_blocks
    #: total flash capacity).
    num_blocks: int
    #: Seconds to read one full page.
    flash_read_full_s: float
    #: Seconds to read a small portion (single word .. few bytes) of a page.
    flash_read_partial_s: float
    #: Seconds to program one page (out of place).
    flash_write_s: float
    #: Seconds to erase one block.
    flash_erase_s: float
    #: USB link raw throughput, bits per second.
    usb_bits_per_s: float
    #: Fixed per-message USB cost (framing, turnaround), seconds.
    usb_setup_s: float
    #: Secure-chip CPU clock, Hz.
    cpu_hz: float
    #: Program/erase cycles a block endures before wearing out.  ``None``
    #: disables wear-out (the default for benchmarks; tests enable it).
    max_erase_cycles: int | None = None

    #: The constants above in integer clock ticks (see
    #: :mod:`repro.hardware.clock`), derived once: each is exactly the
    #: constant as written, so simulated totals stay exact.
    flash_read_full_ticks: int = field(init=False, repr=False, compare=False)
    flash_read_partial_ticks: int = field(
        init=False, repr=False, compare=False
    )
    flash_write_ticks: int = field(init=False, repr=False, compare=False)
    flash_erase_ticks: int = field(init=False, repr=False, compare=False)
    usb_setup_ticks: int = field(init=False, repr=False, compare=False)
    #: Ticks per CPU cycle.
    cycle_ticks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Decimal constants ("80e-6") convert exactly through their
        # shortest repr; a constant finer than a tick is refused.
        for name in _TIMED:
            ticks = Fraction(repr(getattr(self, name))) * TICKS_PER_SECOND
            object.__setattr__(
                self, name[:-2] + "_ticks", _whole_ticks(name, ticks)
            )
        cpu_hz = Fraction(repr(self.cpu_hz))
        if cpu_hz <= 0:
            raise ValueError(f"cpu_hz must be positive, got {self.cpu_hz!r}")
        object.__setattr__(
            self,
            "cycle_ticks",
            _whole_ticks("one cpu cycle", TICKS_PER_SECOND / cpu_hz),
        )
        bits = Fraction(repr(self.usb_bits_per_s))
        if bits <= 0 or bits.denominator != 1:
            raise ValueError(
                "usb_bits_per_s must be a positive whole number, got "
                f"{self.usb_bits_per_s!r}"
            )

    def usb_message_ticks(self, nbytes: int) -> int:
        """Ticks to move one ``nbytes`` message: the setup cost plus the
        byte time, rounded once to the nearest tick (halves up)."""
        bits_per_s = int(self.usb_bits_per_s)
        return self.usb_setup_ticks + (
            (16 * nbytes * TICKS_PER_SECOND + bits_per_s) // (2 * bits_per_s)
        )

    @property
    def block_size(self) -> int:
        return self.page_size * self.pages_per_block

    @property
    def flash_bytes(self) -> int:
        return self.block_size * self.num_blocks

    @property
    def write_read_ratio(self) -> float:
        """Flash write/read cost asymmetry (the paper's 3-10x)."""
        return self.flash_write_s / self.flash_read_full_s

    def with_overrides(self, **changes) -> "HardwareProfile":
        """A copy of this profile with some constants replaced."""
        return replace(self, **changes)


#: The paper's demo platform: 64 KB RAM secure chip, 1 GB NAND flash with a
#: 3x write/read page cost ratio, USB 2.0 full speed (12 Mb/s), 50 MHz RISC.
DEMO_DEVICE = HardwareProfile(
    name="demo-device",
    ram_bytes=64 * 1024,
    page_size=2048,
    pages_per_block=64,
    num_blocks=8192,  # 1 GiB
    flash_read_full_s=80e-6,
    flash_read_partial_s=25e-6,
    flash_write_s=240e-6,  # 3x full-page read
    flash_erase_s=1.5e-3,
    usb_bits_per_s=12e6,
    usb_setup_s=1e-3,
    cpu_hz=50e6,
)

#: Worst-case flash asymmetry the paper quotes: writes 10x reads.
HARSH_FLASH_DEVICE = DEMO_DEVICE.with_overrides(
    name="harsh-flash-device",
    flash_write_s=800e-6,
)

#: The "envisioned future platform" with USB 2.0 high speed (480 Mb/s).
HIGH_SPEED_DEVICE = DEMO_DEVICE.with_overrides(
    name="high-speed-device",
    usb_bits_per_s=480e6,
)

#: A deliberately starved device (16 KB RAM) for RAM-pressure stress tests.
TINY_DEVICE = DEMO_DEVICE.with_overrides(
    name="tiny-device",
    ram_bytes=16 * 1024,
)

#: The named profiles surfaces accept (``--profile`` on the CLI, the
#: bench runner's config): short alias -> profile.
PROFILES = {
    "demo": DEMO_DEVICE,
    "harsh-flash": HARSH_FLASH_DEVICE,
    "high-speed": HIGH_SPEED_DEVICE,
    "tiny": TINY_DEVICE,
}
