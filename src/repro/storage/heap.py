"""ID-ordered table storage on the device.

A :class:`HeapTable` stores one table's device-resident columns (its
primary key plus all hidden columns) as fixed-width records in primary-key
order.  Key-order storage is what makes SKT lookups and projections by
sorted ID lists sequential -- the access pattern flash likes.

Primary keys are usually dense (1..N) in the demo dataset, in which case
``rowid_for_pk`` is arithmetic.  For sparse keys the table keeps a packed
sorted PK array on flash and binary-searches it with cheap partial reads.
"""

from __future__ import annotations

from repro.columns import ID_STRUCT, ID_WIDTH
from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import Extent, PageReader, PageWriter
from repro.storage.record import RecordCodec


class KeyNotFoundError(KeyError):
    """A primary key has no row in the table."""


class HeapTable:
    """A device-resident table extent in primary-key order."""

    def __init__(
        self,
        device: SmartUsbDevice,
        name: str,
        codec: RecordCodec,
        pk_field: int,
    ):
        self.device = device
        self.name = name
        self.codec = codec
        self.pk_field = pk_field
        page_size = device.profile.page_size
        self.extent = Extent(codec.width, page_size)
        #: The sorted PK array of a sparse table (empty when keys are dense).
        self.pk_extent = Extent(ID_WIDTH, page_size)
        #: pk == _dense_base + rowid for every row, when keys are dense.
        self._dense_base: int | None = None
        self._loaded = False

    @property
    def extents(self) -> list[Extent]:
        """Every extent this table owns on flash."""
        return [self.extent, self.pk_extent]

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, rows) -> None:
        """Bulk-load ``rows`` (already sorted by primary key).

        Raises ``ValueError`` on unsorted or duplicate keys: GhostDB loads
        the device "in a secure setting" once, so the loader is strict.
        """
        if self._loaded:
            raise ValueError(f"table {self.name!r} is already loaded")
        last_pk = None
        first_pk = None
        loaded = 0
        # The sparse-PK array is written only once a key breaks the
        # dense run: its writer opens at the first gap and writes the
        # dense prefix it skipped.  Both writers are aborted on any
        # failure, also once the records writer has closed and the PK
        # writer's final flush is what raised.
        pk_writer = None
        writers = []
        try:
            writer = PageWriter(self.device, self.codec.width, f"load:{self.name}")
            writers.append(writer)
            encode = self.codec.encode
            for row in rows:
                pk = row[self.pk_field]
                if last_pk is not None and pk <= last_pk:
                    raise ValueError(
                        f"{self.name}: rows must be sorted by unique PK "
                        f"(saw {pk} after {last_pk})"
                    )
                if not 0 <= pk <= (1 << 32) - 1:
                    raise ValueError(
                        f"{self.name}: PK {pk} outside 32-bit ID range"
                    )
                if first_pk is None:
                    first_pk = pk
                elif pk_writer is None and pk != first_pk + loaded:
                    pk_writer = PageWriter(
                        self.device, ID_WIDTH, f"load-pk:{self.name}"
                    )
                    writers.append(pk_writer)
                    pk_writer.append_ids(range(first_pk, first_pk + loaded))
                if pk_writer is not None:
                    pk_writer.append(ID_STRUCT.pack(pk))
                loaded += 1
                last_pk = pk
                writer.append(encode(row))
            self.extent = writer.close()
            if pk_writer is not None:
                self.pk_extent = pk_writer.close()
        except BaseException:
            for w in writers:
                w.abort()
            raise
        if pk_writer is None and loaded > 0:
            self._dense_base = first_pk
        self._loaded = True

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def reader(self, label: str) -> PageReader:
        """A record reader for batch access (caller manages lifetime)."""
        return PageReader(self.device, self.extent, label)

    def row(self, rowid: int) -> tuple:
        """Decode one full row (transient reader; one partial read)."""
        with self.reader(f"row:{self.name}") as r:
            raw = r.record(rowid)
        self.device.chip.charge("decode_field", self.codec.arity)
        return self.codec.decode(raw)

    def field(self, rowid: int, field_index: int):
        """Decode one field of one row (single cheap partial read)."""
        off, width = self.codec.field_slice(field_index)
        with self.reader(f"field:{self.name}") as r:
            raw = r.field(rowid, off, width)
        self.device.chip.charge("decode_field")
        return self.codec.types[field_index].decode(raw)

    def scan(self):
        """Yield decoded rows in PK order (full-page sequential reads)."""
        charge, arity = self.device.chip.charge, self.codec.arity
        decode = self.codec.decode
        with self.reader(f"scan:{self.name}") as r:
            for raw in r.scan():
                charge("decode_field", arity)
                yield decode(raw)

    def rowid_for_pk(self, pk: int) -> int:
        """Resolve a primary key to its rowid.

        Dense tables answer arithmetically; sparse tables binary-search the
        packed PK array with partial flash reads.
        """
        count = self.extent.count
        if count == 0:
            raise KeyNotFoundError(pk)
        if self._dense_base is not None:
            rowid = pk - self._dense_base
            if not 0 <= rowid < count:
                raise KeyNotFoundError(pk)
            return rowid
        lo, hi = 0, count - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            value = self.pk_extent.read_id(self.device.ftl, mid)
            self.device.chip.charge("compare")
            if value == pk:
                return mid
            if value < pk:
                lo = mid + 1
            else:
                hi = mid - 1
        raise KeyNotFoundError(pk)

    def pk_of_rowid(self, rowid: int) -> int:
        """The primary key stored at ``rowid``."""
        if self._dense_base is None:
            return self.pk_extent.read_id(self.device.ftl, rowid)
        if not 0 <= rowid < self.extent.count:
            raise IndexError(
                f"rowid {rowid} out of range [0, {self.extent.count})"
            )
        return self._dense_base + rowid

    @property
    def is_dense(self) -> bool:
        return self._dense_base is not None
