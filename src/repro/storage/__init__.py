"""Device-side storage engine.

Fixed-width records on NAND flash pages behind the FTL.  Hidden columns
and the replicated primary keys of every table live here.  Every device
structure is one format, an :class:`~repro.storage.pagestore.Extent`
written by the one :class:`PageWriter` and read by the one
:class:`PageReader`; the layout is deliberately simple (append-only,
ID-ordered records) because the paper's whole point is that *sorted-ID
streaming*, not clever in-place structures, is what works on
write-averse flash with tens of KB of RAM.
"""

from repro.storage.types import (
    CharType,
    DataType,
    DateType,
    FloatType,
    IntegerType,
    TypeError_,
    date_to_days,
    days_to_date,
    type_from_sql,
)
from repro.storage.record import RecordCodec
from repro.storage.pagestore import Extent, PageReader, PageWriter
from repro.storage.heap import HeapTable
from repro.storage.runs import merge_runs, merge_sorted

__all__ = [
    "CharType",
    "DataType",
    "DateType",
    "Extent",
    "FloatType",
    "HeapTable",
    "IntegerType",
    "PageReader",
    "PageWriter",
    "RecordCodec",
    "TypeError_",
    "date_to_days",
    "days_to_date",
    "merge_runs",
    "merge_sorted",
    "type_from_sql",
]
