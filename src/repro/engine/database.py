"""The hidden database living on the smart USB device.

One object bundles everything device-resident: the heaps (PKs, FKs and
hidden columns of every table), the Subtree Key Tables, the climbing
indexes on hidden attributes, the key (PK) climbing indexes used for ID
conversion, and the statistics over device columns.  Loading happens once
"in a secure setting" (Section 2); all load-time I/O is still charged to
the device so the storage/Flash-cost benchmarks are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.statistics import StatisticsCollector, TableStats
from repro.catalog.tree import SchemaTree
from repro.hardware.device import SmartUsbDevice
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.storage.heap import HeapTable


@dataclass
class StorageReport:
    """Flash footprint per structure (the paper's 'extra cost in terms
    of Flash storage')."""

    heap_bytes: dict[str, int] = field(default_factory=dict)
    skt_bytes: dict[str, int] = field(default_factory=dict)
    index_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def base_total(self) -> int:
        return sum(self.heap_bytes.values())

    @property
    def index_total(self) -> int:
        return sum(self.skt_bytes.values()) + sum(self.index_bytes.values())


class HiddenDatabase:
    """Device-resident storage, indexes and statistics."""

    #: Catalog generation, bumped by every committed
    #: :func:`~repro.engine.maintenance.rebuild_table` (appends, UPDATE
    #: and DELETE all commit there).  A plan priced at one generation
    #: is stale at the next; the class default is the first generation.
    version = 0

    def __init__(self, device: SmartUsbDevice, tree: SchemaTree):
        self.device = device
        self.tree = tree
        self.heaps: dict[str, HeapTable] = {}
        self.skts: dict[str, SubtreeKeyTable] = {}
        #: (table, column) -> climbing index on a hidden attribute.
        self.climbing: dict[tuple[str, str], ClimbingIndex] = {}
        #: table -> climbing index on its primary key (ID conversion).
        self.key_indexes: dict[str, ClimbingIndex] = {}
        #: statistics over device columns (hidden attrs, PKs, FKs).
        self.stats: dict[str, TableStats] = {}

    def referenced_pages(self) -> set[int]:
        """Every logical page the catalog currently points at.

        The FTL map of a consistent device is exactly this set; pages
        mapped but not referenced are orphans (e.g. a rebuild cut short
        by power loss) and are reclaimed by the mount-time orphan sweep.
        """
        pages: set[int] = set()
        for structure in (
            *self.heaps.values(),
            *self.skts.values(),
            *self.climbing.values(),
            *self.key_indexes.values(),
        ):
            for extent in structure.extents:
                pages.update(extent.pages)
        return pages

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    @classmethod
    def load(
        cls,
        device: SmartUsbDevice,
        tree: SchemaTree,
        rows_by_table: dict[str, list],
        index_columns: list[tuple[str, str]] | None = None,
    ) -> "HiddenDatabase":
        """Load full rows (schema column order) and build all structures.

        ``index_columns`` selects which hidden attributes get climbing
        indexes; by default every hidden non-FK attribute gets one.
        Rows must be sorted by primary key (the secure loader's job).
        """
        db = cls(device, tree)
        for table_def in tree.schema:
            name = table_def.name.lower()
            if name not in rows_by_table:
                raise ValueError(f"no rows provided for table {name!r}")
            device_cols = table_def.device_columns()
            source_idx = [
                table_def.column_index(c.name) for c in device_cols
            ]
            collector = StatisticsCollector(
                table=name,
                column_names=[c.name for c in device_cols],
            )

            def device_rows(rows=rows_by_table[name], idx=source_idx,
                            coll=collector):
                for row in rows:
                    reduced = tuple(row[i] for i in idx)
                    coll.add(reduced)
                    yield reduced

            heap = HeapTable(
                device, name, table_def.device_codec(), pk_field=0
            )
            heap.load(device_rows())
            db.heaps[name] = heap
            db.stats[name] = collector.finish()

        for root in tree.skt_roots():
            db.skts[root] = SubtreeKeyTable.build(device, tree, root, db.heaps)

        if index_columns is None:
            index_columns = db.default_index_columns()
        edge_cache: dict = {}
        for table, column in index_columns:
            index = ClimbingIndex.build(
                device, tree, db.heaps, table, column, edge_cache
            )
            db.climbing[(table.lower(), column.lower())] = index
        for table_def in tree.schema:
            name = table_def.name.lower()
            if name == tree.root:
                continue
            index = ClimbingIndex.build(
                device, tree, db.heaps, name, table_def.pk.name, edge_cache
            )
            db.key_indexes[name] = index
        return db

    def default_index_columns(self) -> list[tuple[str, str]]:
        """Every hidden, non-FK, non-PK attribute gets a climbing index."""
        result = []
        for table_def in self.tree.schema:
            for column in table_def.columns:
                if (
                    column.hidden
                    and not column.primary_key
                    and column.references is None
                ):
                    result.append((table_def.name.lower(), column.name.lower()))
        return result

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def climbing_index(self, table: str, column: str) -> ClimbingIndex | None:
        return self.climbing.get((table.lower(), column.lower()))

    def key_index(self, table: str) -> ClimbingIndex | None:
        return self.key_indexes.get(table.lower())

    def skt_for_root(self, root: str) -> SubtreeKeyTable | None:
        return self.skts.get(root.lower())

    def table_stats(self, table: str) -> TableStats:
        return self.stats[table.lower()]

    def row_count(self, table: str) -> int:
        return self.heaps[table.lower()].extent.count

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        report = StorageReport()
        for name, heap in self.heaps.items():
            report.heap_bytes[name] = heap.extent.flash_bytes
        for root, skt in self.skts.items():
            report.skt_bytes[f"SKT_{root}"] = skt.extent.flash_bytes
        for (table, column), index in self.climbing.items():
            report.index_bytes[f"cidx:{table}.{column}"] = index.flash_bytes
        for table, index in self.key_indexes.items():
            report.index_bytes[f"kidx:{table}"] = index.flash_bytes
        return report
