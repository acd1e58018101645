"""Bloom filters (paper, Section 4; Bloom 1970).

Post-filtering plans apply an unselective visible predicate *after* the
hidden joins: the PC streams the qualifying IDs over USB and the device
folds them into a Bloom filter -- "compactness and a very low false
positive rate, making them well adapted to RAM-constrained environments".

The filter's bit array is a real allocation against the device RAM
budget, so a filter sized too generously genuinely collides with the rest
of the plan's memory needs.  False positives are possible by design; the
engine removes them during projection, when the PC re-checks its own
predicate while serving visible values (no hidden information leaves the
device in either case).
"""

from __future__ import annotations

import math

from repro.hardware.device import SmartUsbDevice

#: False-positive rate a Bloom filter is sized for, unless the session's
#: ``ExecConfig.bloom_fp_target`` says otherwise.
BLOOM_FP_TARGET = 0.01

#: splitmix64 constants for deterministic double hashing.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def bloom_parameters(expected_n: int, target_fp: float) -> tuple[int, int]:
    """Optimal (bits, hash count) for ``expected_n`` keys at ``target_fp``.

    Classical sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
    """
    if expected_n <= 0:
        return 8, 1
    if not 0 < target_fp < 1:
        raise ValueError(f"false-positive target must be in (0,1): {target_fp}")
    ln2 = math.log(2)
    m = math.ceil(-expected_n * math.log(target_fp) / (ln2 * ln2))
    k = max(1, round((m / expected_n) * ln2))
    return max(8, m), k


class BloomFilter:
    """A k-hash Bloom filter over 32-bit IDs, RAM-budgeted."""

    def __init__(
        self,
        device: SmartUsbDevice,
        bits: int,
        hashes: int,
        label: str = "bloom",
    ):
        if bits < 8:
            raise ValueError("a Bloom filter needs at least 8 bits")
        if hashes < 1:
            raise ValueError("a Bloom filter needs at least one hash")
        self.device = device
        self.bits = bits
        self.hashes = hashes
        self.label = label
        self.inserted = 0
        self._alloc = device.ram.allocate((bits + 7) // 8, label)
        self._array = bytearray((bits + 7) // 8)
        self._closed = False

    @classmethod
    def for_expected(
        cls,
        device: SmartUsbDevice,
        expected_n: int,
        target_fp: float = BLOOM_FP_TARGET,
        label: str = "bloom",
    ) -> "BloomFilter":
        bits, hashes = bloom_parameters(expected_n, target_fp)
        return cls(device, bits, hashes, label)

    # ------------------------------------------------------------------

    def _positions(self, key: int):
        h = _splitmix64(key)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1  # odd, so the double-hash walk covers all bits
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bits

    def insert(self, key: int) -> None:
        if self._closed:
            raise ValueError("Bloom filter already released")
        self.device.chip.charge("bloom_insert")
        for pos in self._positions(key):
            self._array[pos >> 3] |= 1 << (pos & 7)
        self.inserted += 1

    def may_contain(self, key: int) -> bool:
        if self._closed:
            raise ValueError("Bloom filter already released")
        self.device.chip.charge("bloom_probe")
        for pos in self._positions(key):
            if not self._array[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def insert_many(self, keys) -> None:
        """Insert a batch of keys, charging the per-key cycles in bulk
        (identical totals to per-key :meth:`insert` calls)."""
        if self._closed:
            raise ValueError("Bloom filter already released")
        keys = list(keys)
        if not keys:
            return
        self.device.chip.charge("bloom_insert", len(keys))
        array = self._array
        for key in keys:
            for pos in self._positions(key):
                array[pos >> 3] |= 1 << (pos & 7)
        self.inserted += len(keys)

    def probe_many(self, keys) -> list[bool]:
        """Probe a batch of keys, charging the per-key cycles in bulk
        (identical totals to per-key :meth:`may_contain` calls)."""
        if self._closed:
            raise ValueError("Bloom filter already released")
        keys = list(keys)
        if not keys:
            return []
        self.device.chip.charge("bloom_probe", len(keys))
        array = self._array
        results = []
        for key in keys:
            hit = True
            for pos in self._positions(key):
                if not array[pos >> 3] & (1 << (pos & 7)):
                    hit = False
                    break
            results.append(hit)
        return results

    # ------------------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        return (self.bits + 7) // 8

    def expected_fp_rate(self) -> float:
        """Theoretical FP rate for the number of keys actually inserted."""
        if self.inserted == 0:
            return 0.0
        exponent = -self.hashes * self.inserted / self.bits
        return (1.0 - math.exp(exponent)) ** self.hashes

    def fill_ratio(self) -> float:
        """Fraction of bits set (diagnostic)."""
        set_bits = sum(bin(b).count("1") for b in self._array)
        return set_bits / self.bits

    def close(self) -> None:
        if not self._closed:
            self._alloc.release()
            self._closed = True

    def __enter__(self) -> "BloomFilter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
