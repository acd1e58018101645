"""SQL value types and their fixed-width binary codecs.

GhostDB's demo schema uses INTEGER, DATE, CHAR(n) and numeric columns.
Each type encodes to a *fixed* number of bytes so records have a fixed
width and a rowid maps to a (page, slot) arithmetically -- no per-page
slot directories to read, which matters when every page read is charged
simulated time.

Encodings are chosen so that unsigned byte-wise comparison of encodings
matches value order where we rely on it (integers and dates use
offset-binary big-endian), which keeps sorted-run merging trivial.

A type's byte format is declared once: a big-endian ``struct`` field
``code`` and one transform pair, ``to_field`` (validate a value and map
it to the field ``struct`` packs) and ``from_field`` (its inverse on an
unpacked field).  :meth:`DataType.encode`, :meth:`DataType.decode` and
every compiled record layout (:class:`repro.storage.record.RecordCodec`)
go through that pair.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass

#: Offset applied to signed 64-bit integers so their big-endian encoding
#: sorts like the values do.
_I64_BIAS = 1 << 63

#: Offset applied to day numbers so dates before 1970 encode unsigned.
_DAYS_BIAS = 1 << 31

#: Day number of 1970-01-01 in ``datetime.date.toordinal()`` terms.
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()

#: A stored DATE field minus this is the date's ordinal.
_DATE_FIELD_SHIFT = _DAYS_BIAS - _EPOCH_ORDINAL

_SIGN = 1 << 63
_ALL_BITS = (1 << 64) - 1
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


class TypeError_(ValueError):
    """A value does not fit the declared SQL type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


def date_to_days(value: datetime.date) -> int:
    """Days since the Unix epoch (negative before 1970)."""
    return value.toordinal() - _EPOCH_ORDINAL


def days_to_date(days: int) -> datetime.date:
    return datetime.date.fromordinal(days + _EPOCH_ORDINAL)


@dataclass(frozen=True)
class DataType:
    """Base class: a fixed-width, order-preserving value codec."""

    @property
    def code(self) -> str:
        """The ``struct`` code of the stored field (byte order ``>``)."""
        raise NotImplementedError

    @property
    def width(self) -> int:
        return struct.calcsize(">" + self.code)

    def validate(self, value):
        """Return ``value`` normalised, or raise :class:`TypeError_`."""
        raise NotImplementedError

    def to_field(self, value):
        """``value`` validated and mapped to the field ``code`` packs."""
        raise NotImplementedError

    def from_field(self, field):
        """The value of a field ``code`` unpacked."""
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes):
        raise NotImplementedError

    def sql_name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerType(DataType):
    """64-bit signed integer, offset-binary big-endian."""

    code = "Q"

    def validate(self, value):
        self.to_field(value)
        return value

    def to_field(self, value):
        if value.__class__ is not int and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise TypeError_(f"INTEGER requires an int, got {value!r}")
        if not -(1 << 63) <= value < (1 << 63):
            raise TypeError_(f"INTEGER out of 64-bit range: {value!r}")
        return value + _I64_BIAS

    def from_field(self, field):
        return field - _I64_BIAS

    def encode(self, value) -> bytes:
        return _U64.pack(self.to_field(value))

    def decode(self, data: bytes):
        return self.from_field(_U64.unpack(data)[0])

    def sql_name(self) -> str:
        return "INTEGER"


@dataclass(frozen=True)
class FloatType(DataType):
    """IEEE-754 double, stored order-preservingly.

    Raw IEEE bytes do not sort correctly (negative doubles have the sign
    bit set, so they compare *above* positives bytewise).  The classic
    total-order transform fixes that: flip all bits of negatives, flip
    only the sign bit of non-negatives.  Sorted-run merging and ORDER BY
    rely on this monotonicity.
    """

    code = "Q"

    def validate(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"FLOAT requires a number, got {value!r}")
        return float(value)

    def to_field(self, value):
        bits = _U64.unpack(_F64.pack(self.validate(value)))[0]
        if bits & _SIGN:
            return bits ^ _ALL_BITS  # negative: flip everything
        return bits ^ _SIGN  # non-negative: flip the sign bit

    def from_field(self, field):
        bits = field ^ _SIGN if field & _SIGN else field ^ _ALL_BITS
        return _F64.unpack(_U64.pack(bits))[0]

    def encode(self, value) -> bytes:
        return _U64.pack(self.to_field(value))

    def decode(self, data: bytes):
        return self.from_field(_U64.unpack(data)[0])

    def sql_name(self) -> str:
        return "FLOAT"


@dataclass(frozen=True)
class DateType(DataType):
    """Calendar date, stored as biased days-since-epoch (4 bytes)."""

    code = "I"

    def validate(self, value):
        if isinstance(value, datetime.datetime):
            value = value.date()
        if not isinstance(value, datetime.date):
            raise TypeError_(f"DATE requires a datetime.date, got {value!r}")
        return value

    def to_field(self, value):
        return date_to_days(self.validate(value)) + _DAYS_BIAS

    def from_field(self, field):
        return datetime.date.fromordinal(field - _DATE_FIELD_SHIFT)

    def encode(self, value) -> bytes:
        return _U32.pack(self.to_field(value))

    def decode(self, data: bytes):
        return self.from_field(_U32.unpack(data)[0])

    def sql_name(self) -> str:
        return "DATE"


@dataclass(frozen=True)
class CharType(DataType):
    """CHAR(n): UTF-8, NUL-padded to ``length`` bytes."""

    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise TypeError_(f"CHAR length must be positive, got {self.length}")

    @property
    def code(self) -> str:
        return f"{self.length}s"

    def validate(self, value):
        self.to_field(value)
        return value

    def to_field(self, value):
        # ``struct``'s ``s`` code pads with NULs but silently truncates a
        # longer string, so the length check has to stay here.
        if not isinstance(value, str):
            raise TypeError_(f"CHAR requires a str, got {value!r}")
        raw = value.encode("utf-8")
        if len(raw) > self.length:
            raise TypeError_(
                f"string of {len(value)} chars exceeds CHAR({self.length})"
            )
        return raw

    def from_field(self, field):
        return field.rstrip(b"\x00").decode("utf-8")

    def encode(self, value) -> bytes:
        return self.to_field(value).ljust(self.length, b"\x00")

    def decode(self, data: bytes):
        # An ``s`` field unpacks to its own bytes.
        return self.from_field(data)

    def sql_name(self) -> str:
        return f"CHAR({self.length})"


def type_from_sql(name: str, length: int | None = None) -> DataType:
    """Resolve a SQL type name (as parsed) to a :class:`DataType`."""
    upper = name.upper()
    if upper in ("INTEGER", "INT", "BIGINT"):
        return IntegerType()
    if upper in ("FLOAT", "REAL", "DOUBLE"):
        return FloatType()
    if upper == "DATE":
        return DateType()
    if upper in ("CHAR", "VARCHAR"):
        if length is None:
            raise TypeError_(f"{upper} requires a length, e.g. {upper}(20)")
        return CharType(length)
    raise TypeError_(f"unsupported SQL type: {name!r}")
