"""Subtree Key Tables (paper, Section 4 and Figure 3).

An SKT "joins all tables in the subtree to the subtree root with the IDs
sorted based on the order of IDs in the root table".  For the demo schema
the SKT rooted at Prescription has columns (PreID, MedID, VisID, DocID,
PatID), one row per prescription, sorted by PreID.

With it, once a plan knows the qualifying root IDs it can "directly
associate" any tuple of the subtree without running joins: one SKT row
fetch yields the matching key of every table at once.
"""

from __future__ import annotations

from repro.catalog.tree import SchemaTree
from repro.columns import ID_WIDTH, ids_struct
from repro.hardware.device import SmartUsbDevice
from repro.storage.heap import HeapTable
from repro.storage.pagestore import Extent, PageReader, PageWriter


class SubtreeKeyTable:
    """The generalized join index for one subtree root."""

    def __init__(self, device: SmartUsbDevice, root: str, tables: list[str]):
        """``tables`` is the pre-order subtree list; ``tables[0] == root``."""
        if not tables or tables[0] != root:
            raise ValueError("tables must start with the subtree root")
        self.device = device
        self.root = root
        self.tables = tables
        self.extent = Extent(ID_WIDTH * len(tables), device.profile.page_size)

    @property
    def extents(self) -> list[Extent]:
        """Every extent this SKT owns on flash."""
        return [self.extent]

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        device: SmartUsbDevice,
        tree: SchemaTree,
        root: str,
        heaps: dict[str, HeapTable],
    ) -> "SubtreeKeyTable":
        """Materialise the SKT from loaded device heaps.

        The build walks root rows in PK order and resolves each deeper
        table's key by following FK fields through the heaps -- paying the
        (load-time) flash reads that a real device would.
        """
        root = root.lower()
        tables = tree.subtree_of(root)
        skt = cls(device, root, tables)
        charge = device.chip.charge

        # Resolve, per table, its PK decoder and subtree slot, and for
        # each FK field its decoder and the child table it names.
        layout: dict[str, tuple] = {}
        for slot, name in enumerate(tables):
            table_def, codec = tree.table(name), heaps[name].codec
            fks = [
                (
                    codec.field_decoder(table_def.device_column_index(fk_col)),
                    child,
                )
                for fk_col, child in tree.children_of(name)
            ]
            layout[name] = (codec.field_decoder(heaps[name].pk_field), slot, fks)

        readers = {
            name: heaps[name].reader(f"skt-build:{name}")
            for name in tables
            if layout[name][2] or name == root
        }

        def resolve(table: str, raw: bytes, row_ids: list[int]) -> None:
            """Fill ``row_ids`` for ``table``'s subtree from its record."""
            pk_of, slot, fks = layout[table]
            row_ids[slot] = pk_of(raw)
            charge("decode_field")
            for fk_of, child in fks:
                fk_value = fk_of(raw)
                charge("decode_field")
                child_rowid = heaps[child].rowid_for_pk(fk_value)
                if layout[child][2]:
                    resolve(child, readers[child].record(child_rowid), row_ids)
                else:
                    row_ids[layout[child][1]] = fk_value

        record = ids_struct(len(tables))
        try:
            with PageWriter(
                device, skt.extent.record_width, f"skt:{root}"
            ) as writer:
                for raw in readers[root].scan():
                    row_ids = [0] * len(tables)
                    resolve(root, raw, row_ids)
                    writer.append(record.pack(*row_ids))
            skt.extent = writer.extent
        finally:
            for reader in readers.values():
                reader.close()
        return skt

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column_index(self, table: str) -> int:
        try:
            return self.tables.index(table.lower())
        except ValueError:
            raise KeyError(
                f"SKT rooted at {self.root!r} has no column for "
                f"{table!r}"
            ) from None

    def reader(self, label: str) -> PageReader:
        return PageReader(self.device, self.extent, label)

    def decode(self, raw: bytes) -> tuple[int, ...]:
        """Decode one SKT row into a tuple of IDs (subtree pre-order)."""
        return ids_struct(len(self.tables)).unpack(raw)
