"""Cost model: pricing plans with the simulator's own constants.

Every formula here mirrors what the corresponding physical operator
actually charges -- same flash timings, same USB framing, same CPU cycle
table -- so the optimizer's ranking can be validated against measured
executions (and the benchmarks do exactly that).  Cardinalities come from
the classical statistics of :mod:`repro.catalog.statistics` under the
usual independence assumptions.

Costs decompose into *per-batch* and *per-tuple* terms.  Per-batch terms
price fixed overheads paid once per transfer unit -- USB message setup
per ``id_batch`` IDs, one fetch round trip per ``fetch_batch`` rows --
while per-tuple terms scale with cardinality (payload bytes, CPU cycles,
partial flash reads).  Both batch terms use the link's full-RAM
defaults (:data:`~repro.visible.link.DEFAULT_ID_BATCH`,
:data:`~repro.visible.link.DEFAULT_FETCH_BATCH`) for every session,
including a lease whose link runs smaller batches (pricing a lease
with its own sizes would change its plans).  The executor's host-side
batch window (``ExecConfig.exec_batch``) deliberately has *no* term
here: it groups Python-level pulls on the PC and never changes what the
simulated device charges, so pricing it would skew plan ranking with
host noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine import plan as lp
from repro.engine.database import HiddenDatabase
from repro.engine.executor import ExecConfig
from repro.hardware.chip import CYCLES
from repro.hardware.profiles import HardwareProfile
from repro.index.bloom import bloom_parameters
from repro.index.climbing import DIRECTORY_PROBE_READS
from repro.sql.binder import EQ, IN, NEQ, Predicate
from repro.columns import ID_WIDTH
from repro.visible.link import DEFAULT_FETCH_BATCH, DEFAULT_ID_BATCH
from repro.visible.site import VisibleSite


class StatsProvider:
    """Unified selectivity/cardinality access over both sides.

    Hidden-column statistics live on the device; visible-column
    statistics are computed by the PC and shared with the device's
    optimizer at plug-in time (they describe public data, so sharing
    them reveals nothing).
    """

    def __init__(self, db: HiddenDatabase, site: VisibleSite):
        self.db = db
        self.site = site

    def row_count(self, table: str) -> int:
        return self.db.row_count(table)

    def selectivity(self, predicate: Predicate) -> float:
        stats = (
            self.db.table_stats(predicate.table)
            if predicate.hidden
            else self.site.statistics(predicate.table)
        )
        column = stats.column(predicate.column)
        if predicate.kind == EQ:
            return column.selectivity_eq(predicate.value)
        if predicate.kind == NEQ:
            return max(0.0, 1.0 - column.selectivity_eq(predicate.value))
        if predicate.kind == IN:
            return min(
                1.0,
                sum(
                    column.selectivity_eq(value)
                    for value in predicate.values
                ),
            )
        return column.selectivity_range(
            predicate.low,
            predicate.high,
            include_low=predicate.low_inclusive,
            include_high=predicate.high_inclusive,
        )

    def matching_rows(self, predicate: Predicate) -> float:
        return self.selectivity(predicate) * self.row_count(predicate.table)

    def distinct_values(self, predicate: Predicate) -> int:
        stats = (
            self.db.table_stats(predicate.table)
            if predicate.hidden
            else self.site.statistics(predicate.table)
        )
        return max(1, stats.column(predicate.column).n_distinct)


@dataclass
class CostEstimate:
    """Estimated cost and cardinality of a (sub)plan."""

    flash_read_s: float = 0.0
    flash_write_s: float = 0.0
    usb_s: float = 0.0
    cpu_s: float = 0.0
    #: estimated output cardinality (ids or tuples).
    out_count: float = 0.0
    #: estimated peak RAM of the subplan, bytes.
    ram_bytes: float = 0.0

    @property
    def seconds(self) -> float:
        return self.flash_read_s + self.flash_write_s + self.usb_s + self.cpu_s

    def absorb(self, other: "CostEstimate") -> None:
        """Add another estimate's costs (not its cardinality).

        RAM adds up too: a pull-based pipeline keeps every operator's
        buffers live at once, so the plan's working set is the *sum*
        along the pipeline (slightly conservative for stages that are
        strictly sequential, which is the safe direction on a chip that
        kills over-budget plans outright).
        """
        self.flash_read_s += other.flash_read_s
        self.flash_write_s += other.flash_write_s
        self.usb_s += other.usb_s
        self.cpu_s += other.cpu_s
        self.ram_bytes += other.ram_bytes


class CostModel:
    """Bottom-up plan pricing."""

    def __init__(
        self,
        profile: HardwareProfile,
        stats: StatsProvider,
        db: HiddenDatabase,
        fan_in: int,
        exec_config: ExecConfig,
        cache_pages: int = 0,
    ):
        self.profile = profile
        self.stats = stats
        self.db = db
        self.fan_in = fan_in
        #: The session's execution settings, read when a plan is priced:
        #: the executor sizes Bloom filters from the same object.
        self.exec_config = exec_config
        #: Buffer-pool capacity the device runs with (0 = no pool).
        #: Flash-read terms that rely on a page being served from the
        #: pool on re-access are only priced when a pool exists.
        self.cache_pages = cache_pages

    # -- primitive prices ----------------------------------------------

    def _cpu(self, op: str, count: float) -> float:
        return CYCLES[op] * count / self.profile.cpu_hz

    def _usb_transfer(self, payload_bytes: float, messages: float = 1) -> float:
        return (
            messages * self.profile.usb_setup_s
            + payload_bytes * 8 / self.profile.usb_bits_per_s
        )

    def _id_stream_usb(self, count: float) -> float:
        """USB cost of streaming ``count`` IDs between PC and device.

        Per-batch term: the request, then ``floor(count / id_batch) + 1``
        batches, since the stream ends on its first short batch (an
        empty one when the last is full); each message pays
        ``usb_setup_s``.  Per-tuple term: the ID payload itself plus
        ~150 B of framing, at line rate.  Shared by every operator that
        ships an ID list over the wire (visible selection, Bloom
        construction).
        """
        messages = 2 + math.floor(count / DEFAULT_ID_BATCH)
        return self._usb_transfer(count * ID_WIDTH + 150, messages)

    def _sequential_read_s(self, total_bytes: float) -> float:
        pages = math.ceil(total_bytes / self.profile.page_size)
        return pages * self.profile.flash_read_full_s

    def _directory_probe_s(self) -> float:
        return DIRECTORY_PROBE_READS * self.profile.flash_read_partial_s

    # -- node estimates ---------------------------------------------------

    def estimate(self, node: lp.PlanNode) -> CostEstimate:
        method = getattr(self, f"_est_{type(node).__name__}", None)
        if method is None:
            raise ValueError(f"no cost rule for {type(node).__name__}")
        return method(node)

    def _est_ClimbingSelect(self, node: lp.ClimbingSelect) -> CostEstimate:
        predicate = node.predicate
        target_rows = self.stats.row_count(node.target_table)
        sel = self.stats.selectivity(predicate)
        out = sel * target_rows
        est = CostEstimate(out_count=out)
        if predicate.kind == EQ:
            values = 1
        elif predicate.kind == IN:
            values = len(predicate.values)
        else:
            values = max(1, round(sel * self.stats.distinct_values(predicate)))
        est.flash_read_s += self._directory_probe_s() * min(values, 1) + (
            self.profile.flash_read_partial_s * (values // 64)
        )
        est.flash_read_s += self._sequential_read_s(out * ID_WIDTH)
        est.cpu_s += self._cpu("merge_step", out if values > 1 else 0)
        est.ram_bytes = self.profile.page_size * min(values + 1, self.fan_in + 1)
        if values > self.fan_in:
            # Multi-pass union spills: one extra write+read pass (approx).
            passes = max(0, math.ceil(math.log(values, self.fan_in)) - 1)
            bytes_out = out * ID_WIDTH
            est.flash_write_s += passes * (
                math.ceil(bytes_out / self.profile.page_size)
                * self.profile.flash_write_s
            )
            est.flash_read_s += passes * self._sequential_read_s(bytes_out)
        return est

    def _est_VisibleSelect(self, node: lp.VisibleSelect) -> CostEstimate:
        out = self.stats.matching_rows(node.predicate)
        est = CostEstimate(out_count=out)
        est.usb_s += self._id_stream_usb(out)
        est.ram_bytes = DEFAULT_ID_BATCH * ID_WIDTH
        return est

    def _est_DeviceScanSelect(self, node: lp.DeviceScanSelect) -> CostEstimate:
        heap = self.db.heaps[node.table.lower()]
        rows = heap.extent.count
        sel = 1.0
        for predicate in node.predicates:
            sel *= self.stats.selectivity(predicate)
        est = CostEstimate(out_count=sel * rows)
        est.flash_read_s += len(heap.extent.pages) * self.profile.flash_read_full_s
        per_row = len(node.predicates) or 1
        est.cpu_s += self._cpu("decode_field", rows * per_row)
        est.cpu_s += self._cpu("compare", rows * len(node.predicates))
        est.ram_bytes = self.profile.page_size
        return est

    def _est_ConvertIds(self, node: lp.ConvertIds) -> CostEstimate:
        child = self.estimate(node.child)
        from_table = node.child.output_table
        est = CostEstimate()
        est.absorb(child)
        if from_table == node.target_table.lower():
            est.out_count = child.out_count
            return est
        n_from = max(1, self.stats.row_count(from_table))
        n_to = self.stats.row_count(node.target_table)
        fanout = n_to / n_from
        k = child.out_count
        out = min(float(n_to), k * fanout)
        est.out_count = out
        # One directory probe per incoming ID dominates long lists.
        est.flash_read_s += k * self._directory_probe_s()
        est.flash_read_s += self._sequential_read_s(out * ID_WIDTH)
        est.cpu_s += self._cpu("merge_step", out)
        est.ram_bytes += (min(k, self.fan_in) + 1) * self.profile.page_size
        if k > self.fan_in:
            passes = max(1, math.ceil(math.log(max(2, k), self.fan_in)) - 1)
            bytes_out = out * ID_WIDTH
            est.flash_write_s += passes * (
                math.ceil(bytes_out / self.profile.page_size)
                * self.profile.flash_write_s
            )
            est.flash_read_s += passes * self._sequential_read_s(bytes_out)
            est.cpu_s += self._cpu("merge_step", passes * out)
        return est

    def _est_MergeIntersect(self, node: lp.MergeIntersect) -> CostEstimate:
        est = CostEstimate()
        table_rows = max(1.0, float(self.stats.row_count(node.output_table)))
        product_sel = 1.0
        total_in = 0.0
        for child in node.inputs:
            c = self.estimate(child)
            est.absorb(c)
            product_sel *= min(1.0, c.out_count / table_rows)
            total_in += c.out_count
        est.out_count = product_sel * table_rows
        est.cpu_s += self._cpu("merge_step", total_in)
        return est

    def _est_SktAccess(self, node: lp.SktAccess) -> CostEstimate:
        skt = self.db.skt_for_root(node.skt_root)
        rows_per_page = skt.extent.slots_per_page
        total_pages = max(1, math.ceil(skt.extent.count / rows_per_page))
        est = CostEstimate()
        if node.child is None:
            est.out_count = skt.extent.count
            est.flash_read_s += total_pages * self.profile.flash_read_full_s
            est.cpu_s += self._cpu(
                "decode_field", skt.extent.count * len(skt.tables)
            )
            est.ram_bytes = self.profile.page_size
            return est
        child = self.estimate(node.child)
        est.absorb(child)
        n = child.out_count
        est.out_count = n
        # Expected distinct pages touched by n sorted hits.
        if skt.extent.count > 0:
            distinct_pages = total_pages * (
                1.0 - (1.0 - 1.0 / total_pages) ** n
            )
        else:
            distinct_pages = 0.0
        partial_cost = n * self.profile.flash_read_partial_s
        if self.cache_pages > 0:
            # Dense hit patterns read each touched page once in full and
            # serve the other hits from the buffer pool; the operator
            # picks whichever is cheaper, so price the better of the two.
            cached_cost = distinct_pages * self.profile.flash_read_full_s
            est.flash_read_s += min(partial_cost, cached_cost)
        else:
            # No pool to hold a page between hits: every hit is its own
            # partial read.
            est.flash_read_s += partial_cost
        est.cpu_s += self._cpu("decode_field", n * len(skt.tables))
        est.ram_bytes += self.profile.page_size
        return est

    def _est_IdsToTuples(self, node: lp.IdsToTuples) -> CostEstimate:
        return self.estimate(node.child)

    def _est_BloomProbe(self, node: lp.BloomProbe) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        keys = self.stats.matching_rows(node.predicate)
        fp = self.exec_config.bloom_fp_target
        bits, _hashes = bloom_parameters(max(1, round(keys)), fp)
        # Count round trip, then the ID stream, then inserts and probes.
        est.usb_s += self._usb_transfer(200, 2)
        est.usb_s += self._id_stream_usb(keys)
        est.cpu_s += self._cpu("bloom_insert", keys)
        est.cpu_s += self._cpu("bloom_probe", child.out_count)
        sel = self.stats.selectivity(node.predicate)
        est.out_count = child.out_count * min(1.0, sel + fp)
        est.ram_bytes += bits / 8 + DEFAULT_ID_BATCH * ID_WIDTH
        return est

    def _est_Store(self, node: lp.Store) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        est.out_count = child.out_count
        width = ID_WIDTH * len(node.child.output_tables)
        total_bytes = child.out_count * width
        pages = math.ceil(total_bytes / self.profile.page_size)
        est.flash_write_s += pages * self.profile.flash_write_s
        est.flash_read_s += pages * self.profile.flash_read_full_s
        est.ram_bytes += self.profile.page_size
        return est

    def _est_Project(self, node: lp.Project) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        n = child.out_count
        # Residual predicates shrink the output.  The child stream
        # already passed Bloom filters for the recheck predicates; only
        # false positives get removed now, so the recheck is not priced
        # as a filter -- but every surviving tuple pays fetch cost.
        out = n
        for predicate in node.residual_hidden:
            out *= self.stats.selectivity(predicate)
        est.out_count = out
        hidden_by_table: dict[str, int] = {}
        for table, column in node.projections:
            if column.hidden:
                hidden_by_table[table] = hidden_by_table.get(table, 0) + 1
        for predicate in node.residual_hidden:
            hidden_by_table[predicate.table] = (
                hidden_by_table.get(predicate.table, 0) + 1
            )
        hidden_reads = sum(hidden_by_table.values())
        for table, cols in hidden_by_table.items():
            partial_cost = n * cols * self.profile.flash_read_partial_s
            heap = self.db.heaps.get(table.lower())
            if self.cache_pages > 0 and heap is not None and heap.extent.count > 0:
                # Dense row sets route through the buffer pool: each
                # touched heap page is read once in full and every other
                # field on it is served for free.  Mirror the operator's
                # per-fetch-batch density gate (with the estimated
                # cardinality standing in for the actual batch fill) so
                # the estimate tracks the path execution will take.
                rows_per_page = heap.extent.slots_per_page
                batch_fill = min(DEFAULT_FETCH_BATCH, n)
                dense = batch_fill * rows_per_page >= 2 * heap.extent.count
                total_pages = max(1, math.ceil(heap.extent.count / rows_per_page))
                distinct_pages = total_pages * (
                    1.0 - (1.0 - 1.0 / total_pages) ** n
                )
                cached_cost = (
                    distinct_pages * self.profile.flash_read_full_s
                )
                if dense:
                    est.flash_read_s += min(partial_cost, cached_cost)
                else:
                    est.flash_read_s += partial_cost
            else:
                est.flash_read_s += partial_cost
        est.cpu_s += self._cpu("decode_field", n * max(1, hidden_reads))
        # Visible fetches: one round trip (a request and a reply) per
        # fetch batch, whatever the table count; ~40 B per row of JSON
        # and ~150 B of headers per table and batch.
        visible_tables = {
            t for t, c in node.projections if not c.hidden and not c.primary_key
        }
        visible_tables |= {p.table for p in node.visible_recheck}
        if visible_tables:
            batches = math.ceil(n / DEFAULT_FETCH_BATCH) if n else 0
            est.usb_s += self._usb_transfer(
                len(visible_tables) * (n * (ID_WIDTH + 40) + batches * 150),
                2 * batches,
            )
        est.ram_bytes += DEFAULT_FETCH_BATCH * ID_WIDTH * max(
            1, len(node.child.output_tables)
        )
        return est

    # -- value-row nodes ---------------------------------------------------

    def _est_Aggregate(self, node: lp.Aggregate) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        n = child.out_count
        groups = min(n, max(1.0, n / 4))  # coarse distinct estimate
        est.cpu_s += self._cpu("hash", n)
        est.out_count = groups
        entry = 48 + 8 * (len(node.group_indexes) + len(node.aggregates))
        state = groups * entry
        if state > self.profile.ram_bytes * 0.5:
            # Spill path: re-produce the input and external-sort it.
            width = sum(d.width for d in node.input_dtypes)
            bytes_total = n * width
            est.flash_write_s += (
                math.ceil(bytes_total / self.profile.page_size)
                * self.profile.flash_write_s
            )
            est.flash_read_s += self._sequential_read_s(bytes_total)
            est.cpu_s += child.seconds  # the re-pull, roughly
            est.ram_bytes += self.profile.page_size * 4
        else:
            est.ram_bytes += state
        return est

    def _est_OrderBy(self, node: lp.OrderBy) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        n = child.out_count
        est.out_count = n
        width = sum(d.width for d in node.row_dtypes)
        bytes_total = n * width
        sort_buffer = min(
            self.profile.ram_bytes // 2, 8 * self.profile.page_size
        )
        if bytes_total > sort_buffer:
            pages = math.ceil(bytes_total / self.profile.page_size)
            est.flash_write_s += pages * self.profile.flash_write_s
            est.flash_read_s += pages * self.profile.flash_read_full_s
        est.cpu_s += self._cpu("compare", n * max(1, int(n).bit_length()))
        est.ram_bytes += sort_buffer
        return est

    def _est_Limit(self, node: lp.Limit) -> CostEstimate:
        child = self.estimate(node.child)
        est = CostEstimate()
        est.absorb(child)
        est.out_count = min(child.out_count, node.count)
        return est
