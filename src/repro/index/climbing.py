"""Climbing indexes (paper, Section 4 and Figure 4).

A climbing index on column ``T.A`` maps each value to sorted ID lists for
``T`` *and for every ancestor of T on the way to the root*: the entry for
"Spain" in Doctor.Country holds Doctor IDs, Visit IDs and Prescription
IDs, precomputing the joins along the Doctor -> Visit -> Prescription
path.  Selections on any level can therefore produce root IDs in one
index traversal, ready to merge with other predicates' lists.

A climbing index on a table's *primary key* is the ID-conversion index:
given a VisID, its Prescription-level posting is the list of PreIDs whose
prescriptions belong to that visit.  That is how visible selections,
which arrive as ID lists from the PC, climb to the root (the paper
converts the Vis.Date result "into lists of PreID thanks to the climbing
index on Vis.VisID").

Each level's posting lists are packed back to back, in value order, into
one extent of 4-byte ID records; a list is the ``(first, count)`` slice
of it that the directory remembers.  Most lists are short, so a page
per list would inflate the index's flash footprint, which the paper
counts as the price of its indexing model.  The directory (value ->
slices) is a B-tree on a real device; the simulator keeps its content
in host memory and charges the modeled probe I/O explicitly (see
``DIRECTORY_PROBE_READS``).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from repro.catalog.tree import SchemaTree
from repro.columns import ID_WIDTH
from repro.hardware.device import SmartUsbDevice
from repro.storage.heap import HeapTable
from repro.storage.pagestore import Extent, PageReader, PageWriter

#: Partial page reads charged per directory probe (root + leaf of the
#: modeled two-level B-tree).
DIRECTORY_PROBE_READS = 2


@dataclass
class LevelStats:
    """Optimizer inputs for one level of a climbing index."""

    table: str
    total_ids: int = 0


def build_edge_map(
    device: SmartUsbDevice,
    heaps: dict[str, HeapTable],
    parent: str,
    fk_col_index: int,
) -> dict[int, list[int]]:
    """Invert one FK edge: child PK -> sorted list of parent PKs.

    One full scan of the parent heap, charged to the device.
    """
    heap = heaps[parent]
    pk_of = heap.codec.field_decoder(heap.pk_field)
    fk_of = heap.codec.field_decoder(fk_col_index)
    charge = device.chip.charge
    mapping: dict[int, list[int]] = {}
    with heap.reader(f"edge-scan:{parent}") as reader:
        for raw in reader.scan():
            parent_pk = pk_of(raw)
            child_pk = fk_of(raw)
            charge("decode_field", 2)
            mapping.setdefault(child_pk, []).append(parent_pk)
    return mapping


class ClimbingIndex:
    """One climbing index: a column's values -> per-level sorted IDs."""

    def __init__(
        self,
        device: SmartUsbDevice,
        table: str,
        column: str,
        levels: list[str],
        is_key_index: bool,
    ):
        self.device = device
        self.table = table.lower()
        self.column = column.lower()
        #: level tables, self first, root last.
        self.levels = levels
        self.is_key_index = is_key_index
        #: value -> ``(first, count)`` posting slice per level (index 0 is
        #: None for key indexes: the level-0 posting of a PK value is the
        #: value itself).
        self._directory: dict[object, list[tuple[int, int] | None]] = {}
        self._sorted_keys: list = []
        #: The posting extent of each level (None where the directory
        #: holds no slices).
        self._postings: list[Extent | None] = []
        self.level_stats: list[LevelStats] = []

    @property
    def extents(self) -> list[Extent]:
        """Every extent this index owns on flash."""
        return [e for e in self._postings if e is not None]

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        device: SmartUsbDevice,
        tree: SchemaTree,
        heaps: dict[str, HeapTable],
        table: str,
        column: str,
        edge_cache: dict | None = None,
    ) -> "ClimbingIndex":
        """Build the index from loaded heaps (a load-time operation).

        ``edge_cache`` shares inverted FK edges across index builds.
        """
        table = table.lower()
        column = column.lower()
        levels = tree.path_to_root(table)
        table_def = tree.table(table)
        column_def = table_def.column(column)
        is_key_index = column_def.primary_key
        index = cls(device, table, column, levels, is_key_index)
        if edge_cache is None:
            edge_cache = {}

        # Level 0: scan the indexed table once.
        heap = heaps[table]
        value_ids: dict[object, list[int]] = {}
        pk_of = heap.codec.field_decoder(heap.pk_field)
        value_of = heap.codec.field_decoder(
            table_def.device_column_index(column)
        )
        charge = device.chip.charge
        with heap.reader(f"index-scan:{table}.{column}") as reader:
            for raw in reader.scan():
                pk = pk_of(raw)
                value = value_of(raw)
                charge("decode_field", 2)
                value_ids.setdefault(value, []).append(pk)

        per_level_ids: list[dict[object, list[int]]] = [value_ids]
        for upper in levels[1:]:
            # Map each value's IDs one level up through the inverted edge.
            lower = levels[len(per_level_ids) - 1]
            parent_info = tree.parent_of(lower)
            parent, fk_col = parent_info
            cache_key = (parent, fk_col.lower())
            if cache_key not in edge_cache:
                fk_idx = tree.table(parent).device_column_index(fk_col)
                edge_cache[cache_key] = build_edge_map(
                    device, heaps, parent, fk_idx
                )
            edge = edge_cache[cache_key]
            mapped: dict[object, list[int]] = {}
            below = per_level_ids[-1]
            for value, ids in below.items():
                lists = [edge.get(i, ()) for i in ids]
                lists = [lst for lst in lists if lst]
                merged = list(heapq.merge(*lists))
                device.chip.charge("merge_step", len(merged))
                mapped[value] = merged
            per_level_ids.append(mapped)

        # Write the posting extents and directory, values in sorted order.
        index._sorted_keys = sorted(value_ids)
        index.level_stats = [LevelStats(table=t) for t in levels]
        writers: list[PageWriter | None] = []
        try:
            for li in range(len(levels)):
                writers.append(
                    None if li == 0 and is_key_index else PageWriter(
                        device, ID_WIDTH, f"cindex:{table}.{column}:L{li}"
                    )
                )
            for value in index._sorted_keys:
                refs: list[tuple[int, int] | None] = []
                for li, writer in enumerate(writers):
                    ids = per_level_ids[li].get(value, [])
                    index.level_stats[li].total_ids += len(ids)
                    if writer is None:
                        refs.append(None)
                        continue
                    if ids != sorted(ids):
                        raise ValueError(
                            f"posting lists must be sorted: {value!r} at "
                            f"level {li}"
                        )
                    refs.append((writer.extent.count, len(ids)))
                    writer.append_ids(ids)
                index._directory[value] = refs
            index._postings = [w and w.close() for w in writers]
        except BaseException:
            for writer in writers:
                if writer is not None:
                    writer.abort()
            raise
        return index

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def n_values(self) -> int:
        return len(self._sorted_keys)

    def level_of(self, target_table: str) -> int:
        try:
            return self.levels.index(target_table.lower())
        except ValueError:
            raise KeyError(
                f"climbing index {self.table}.{self.column} has no level "
                f"for {target_table!r} (levels: {self.levels})"
            ) from None

    def _charge_probe(self) -> None:
        self.device.flash.charge_partial_reads(DIRECTORY_PROBE_READS)
        self.device.chip.charge(
            "compare", max(1, self.n_values.bit_length())
        )

    def posting_count(self, value, target_table: str) -> int:
        """Number of IDs ``value`` maps to at ``target_table``'s level."""
        refs = self._directory.get(value)
        if refs is None:
            return 0
        level = self.level_of(target_table)
        if refs[level] is None:
            return 1  # key index, level 0: the value itself
        return refs[level][1]

    def stream_eq(self, value, target_table: str, label: str = "cindex"):
        """A stream factory for one value's IDs at the given level.

        Returns a zero-argument callable producing ``(iterator, closer)``
        (the shape :func:`merge_posting_streams` consumes), or ``None``
        when the value is absent.  Charges the directory probe now.
        """
        self._charge_probe()
        if value not in self._directory:
            return None
        return self._factory(value, self.level_of(target_table), label)

    def streams_range(
        self,
        low,
        low_inclusive: bool,
        high,
        high_inclusive: bool,
        target_table: str,
        label: str = "cindex",
    ) -> list:
        """Stream factories for every value in the range, in value order.

        Charges one directory probe for the descent plus one modeled leaf
        read per 64 qualifying values (leaf scans are sequential).
        """
        self._charge_probe()
        keys = self._sorted_keys
        if low is None:
            lo_idx = 0
        elif low_inclusive:
            lo_idx = bisect.bisect_left(keys, low)
        else:
            lo_idx = bisect.bisect_right(keys, low)
        if high is None:
            hi_idx = len(keys)
        elif high_inclusive:
            hi_idx = bisect.bisect_right(keys, high)
        else:
            hi_idx = bisect.bisect_left(keys, high)
        matching = keys[lo_idx:hi_idx]
        if matching:
            self.device.flash.charge_partial_reads(1 + len(matching) // 64)
        level = self.level_of(target_table)
        return [self._factory(value, level, label) for value in matching]

    def _factory(self, value, level: int, label: str):
        """A stream factory for ``value``'s posting at ``level``."""
        ref = self._directory[value][level]
        if ref is None:
            return lambda: (iter((value,)), lambda: None)
        extent = self._postings[level]
        label = f"{label}:{self.table}.{self.column}"

        def open_stream():
            reader = PageReader(self.device, extent, label)
            return reader.ids(*ref), reader.close

        return open_stream

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def flash_bytes(self) -> int:
        """Flash footprint: posting extents plus the modeled directory."""
        postings = sum(e.flash_bytes for e in self.extents)
        key_width = 8  # modeled directory key slot
        entry = key_width + 8 * len(self.levels)
        return postings + self.n_values * entry

    def describe(self) -> str:
        parts = [f"climbing index on {self.table}.{self.column}"]
        for li, stats in enumerate(self.level_stats):
            parts.append(
                f"  level {li} ({stats.table}): {stats.total_ids} ids"
            )
        return "\n".join(parts)
