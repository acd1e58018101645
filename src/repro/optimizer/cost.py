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
partial flash reads).  Both batch sizes are read from the session's
:class:`~repro.visible.link.DeviceLink` when a plan is priced, so a
lease is priced with the batches its link sends and the receive buffers
it allocates.  The executor's host-side batch window
(``ExecConfig.exec_batch``) deliberately has *no* term here: it groups
Python-level pulls on the PC and never changes what the simulated device
charges, so pricing it would skew plan ranking with host noise.

A plan's RAM estimate is its peak working set as the executor allocates
it: reader and writer pages, link receive buffers and Bloom bits, each
held for as long as its operator holds it (see :class:`CostEstimate`).
Merges are priced at the fan-in the executor will grant beside the rest
of the plan's buffers (:func:`~repro.storage.runs.fan_in_for`), RAM and
spill passes alike.
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
from repro.storage.runs import fan_in_for
from repro.visible.link import DeviceLink
from repro.visible.site import VisibleSite

#: Modeled JSON bytes per row and table of a ``values`` reply.
VALUE_ROW_BYTES = 40


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
        return self.column_distinct(
            predicate.table, predicate.column, predicate.hidden
        )

    def column_distinct(self, table: str, column: str, hidden: bool) -> int:
        stats = (
            self.db.table_stats(table)
            if hidden
            else self.site.statistics(table)
        )
        return max(1, stats.column(column).n_distinct)


@dataclass
class CostEstimate:
    """Estimated cost, cardinality and RAM of a (sub)plan.

    RAM has three readings, all in bytes.  ``ram_bytes`` is the peak:
    the most the subplan's operators hold at once.  ``held_bytes`` is
    what the subplan holds while it streams its output, once its first
    item is out -- the buffers a parent's later allocations (a sibling
    arm's merge, a fetch round's receive buffer) sit beside.
    ``own_ram_bytes`` is the node's own buffers at their largest, the
    figure EXPLAIN ANALYZE lines up against the operator.
    """

    flash_read_s: float = 0.0
    flash_write_s: float = 0.0
    usb_s: float = 0.0
    cpu_s: float = 0.0
    #: estimated output cardinality (ids or tuples).
    out_count: float = 0.0
    ram_bytes: float = 0.0
    held_bytes: float = 0.0
    own_ram_bytes: float = 0.0

    @property
    def seconds(self) -> float:
        return self.flash_read_s + self.flash_write_s + self.usb_s + self.cpu_s

    def absorb(self, other: "CostEstimate") -> None:
        """Add another estimate's costs (not its cardinality or RAM:
        each node rule combines working sets the way its operator
        holds them)."""
        self.flash_read_s += other.flash_read_s
        self.flash_write_s += other.flash_write_s
        self.usb_s += other.usb_s
        self.cpu_s += other.cpu_s

    def hold(self, own: float, child: "CostEstimate | None" = None) -> None:
        """RAM of a pipelined node: its ``own`` buffers stay allocated
        while its child runs, so they add to the child's peak and to
        what the child holds."""
        self.own_ram_bytes = own
        self.ram_bytes = own + (child.ram_bytes if child else 0.0)
        self.held_bytes = own + (child.held_bytes if child else 0.0)


class CostModel:
    """Bottom-up plan pricing for one session.

    Every node rule takes ``beside``: the bytes the rest of the plan
    holds while the node's operator allocates.  A parent passes its own
    held buffers down to its child, so a merge's fan-in -- and with it
    the merge's RAM and spill passes -- is the one the executor's
    :meth:`~repro.engine.operators.base.ExecContext.fan_in` will grant.
    """

    def __init__(
        self,
        profile: HardwareProfile,
        stats: StatsProvider,
        db: HiddenDatabase,
        link: DeviceLink,
        exec_config: ExecConfig,
        cache_pages: int = 0,
    ):
        self.profile = profile
        self.stats = stats
        self.db = db
        #: The session's link, read when a plan is priced: it is the one
        #: holder of the batch sizes its operators send and receive.
        self.link = link
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
        messages = 2 + math.floor(count / self.link.id_batch)
        return self._usb_transfer(count * ID_WIDTH + 150, messages)

    def _id_rx_bytes(self) -> int:
        """The receive buffer an ID stream holds: one ``ids`` batch."""
        return self.link.id_batch * ID_WIDTH

    def _sequential_read_s(self, total_bytes: float) -> float:
        pages = math.ceil(total_bytes / self.profile.page_size)
        return pages * self.profile.flash_read_full_s

    def _directory_probe_s(self) -> float:
        return DIRECTORY_PROBE_READS * self.profile.flash_read_partial_s

    def _merge(
        self, est: CostEstimate, streams: float, out: float, beside: float
    ) -> None:
        """Price a posting union of ``streams`` sorted lists (``out``
        IDs) opened beside ``beside`` bytes: its pages, and its spill
        passes once it opens more streams than the granted fan-in.

        Up to ``fan_in`` streams are unioned directly, one page each.
        More are unioned ``fan_in`` at a time into runs on flash and
        laddered down (``fan_in`` readers and one writer) until at most
        ``fan_in`` runs remain for the last, streaming pass.  Above the
        fan-in floor the executor sizes the merge to the RAM it finds
        free, so the expected stream count prices it; at the floor it
        can shrink no further, so a spill's pages are priced whatever
        the count turns out to be.
        """
        page = self.profile.page_size
        free = self.profile.ram_bytes - beside
        fan_in = fan_in_for(free, page)
        streams = math.ceil(streams)
        runs = streams
        if streams > fan_in:
            runs = math.ceil(streams / fan_in)
            while runs > fan_in:
                runs = math.ceil(runs / fan_in)
            passes = max(1, math.ceil(math.log(streams, fan_in)) - 1)
            bytes_out = out * ID_WIDTH
            est.flash_write_s += passes * (
                math.ceil(bytes_out / page) * self.profile.flash_write_s
            )
            est.flash_read_s += passes * self._sequential_read_s(bytes_out)
            est.cpu_s += self._cpu("merge_step", passes * out)
        # Below four free pages the fan-in is held at its floor.
        at_floor = free // page - 2 < fan_in
        spills = streams > fan_in or at_floor
        est.own_ram_bytes = (fan_in + 1 if spills else streams) * page
        est.held_bytes = runs * page

    # -- node estimates ---------------------------------------------------

    def estimate(self, node: lp.PlanNode) -> CostEstimate:
        """Price ``node``'s subplan as a plan of its own."""
        return self._price(node, 0.0, None)

    def estimate_nodes(self, plan: lp.PlanNode) -> dict[int, CostEstimate]:
        """Every node's estimate as priced inside ``plan``, keyed by
        ``id(node)`` (a pass-through node shares its child's)."""
        nodes: dict[int, CostEstimate] = {}
        self._price(plan, 0.0, nodes)
        return nodes

    def _price(
        self, node: lp.PlanNode, beside: float, nodes: dict | None
    ) -> CostEstimate:
        method = getattr(self, f"_est_{type(node).__name__}", None)
        if method is None:
            raise ValueError(f"no cost rule for {type(node).__name__}")
        est = method(node, beside, nodes)
        if nodes is not None:
            nodes[id(node)] = est
        return est

    def _est_ClimbingSelect(
        self, node: lp.ClimbingSelect, beside: float, nodes
    ) -> CostEstimate:
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
        if predicate.kind == EQ:
            # An equality reads its one posting, without a merge.
            est.hold(self.profile.page_size)
        else:
            self._merge(est, values, out, beside)
            est.ram_bytes = est.own_ram_bytes
        return est

    def _est_VisibleSelect(
        self, node: lp.VisibleSelect, beside: float, nodes
    ) -> CostEstimate:
        out = self.stats.matching_rows(node.predicate)
        est = CostEstimate(out_count=out)
        est.usb_s += self._id_stream_usb(out)
        est.hold(self._id_rx_bytes())
        return est

    def _est_DeviceScanSelect(
        self, node: lp.DeviceScanSelect, beside: float, nodes
    ) -> CostEstimate:
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
        est.hold(self.profile.page_size)
        return est

    def _est_ConvertIds(
        self, node: lp.ConvertIds, beside: float, nodes
    ) -> CostEstimate:
        # The conversion drains its child before it opens a posting, so
        # the child runs beside the same buffers the merge will.
        child = self._price(node.child, beside, nodes)
        from_table = node.child.output_table
        if from_table == node.target_table.lower():
            return child
        est = CostEstimate()
        est.absorb(child)
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
        self._merge(est, k, out, beside)
        est.ram_bytes = max(child.ram_bytes, est.own_ram_bytes)
        return est

    def _est_MergeIntersect(
        self, node: lp.MergeIntersect, beside: float, nodes
    ) -> CostEstimate:
        # Arms start in order, each once the ones before it stream.
        est = CostEstimate()
        table_rows = max(1.0, float(self.stats.row_count(node.output_table)))
        product_sel = 1.0
        total_in = 0.0
        for child in node.inputs:
            c = self._price(child, beside + est.held_bytes, nodes)
            est.absorb(c)
            est.ram_bytes = max(est.ram_bytes, est.held_bytes + c.ram_bytes)
            est.held_bytes += c.held_bytes
            product_sel *= min(1.0, c.out_count / table_rows)
            total_in += c.out_count
        est.out_count = product_sel * table_rows
        est.cpu_s += self._cpu("merge_step", total_in)
        return est

    def _est_SktAccess(
        self, node: lp.SktAccess, beside: float, nodes
    ) -> CostEstimate:
        skt = self.db.skt_for_root(node.skt_root)
        page = self.profile.page_size
        rows_per_page = skt.extent.slots_per_page
        total_pages = max(1, math.ceil(skt.extent.count / rows_per_page))
        est = CostEstimate()
        if node.child is None:
            est.out_count = skt.extent.count
            est.flash_read_s += total_pages * self.profile.flash_read_full_s
            est.cpu_s += self._cpu(
                "decode_field", skt.extent.count * len(skt.tables)
            )
            est.hold(page)
            return est
        child = self._price(node.child, beside + page, nodes)
        est.absorb(child)
        est.hold(page, child)
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
        return est

    def _est_IdsToTuples(
        self, node: lp.IdsToTuples, beside: float, nodes
    ) -> CostEstimate:
        return self._price(node.child, beside, nodes)

    def _est_BloomProbe(
        self, node: lp.BloomProbe, beside: float, nodes
    ) -> CostEstimate:
        keys = self.stats.matching_rows(node.predicate)
        fp = self.exec_config.bloom_fp_target
        bits, _hashes = bloom_parameters(max(1, round(keys)), fp)
        filter_bytes = (bits + 7) // 8
        # The filter is built from the host's ID stream before the child
        # is pulled: the stream's receive buffer is gone by then, the
        # filter's bits are not.
        child = self._price(node.child, beside + filter_bytes, nodes)
        est = CostEstimate()
        est.absorb(child)
        rx = self._id_rx_bytes()
        est.own_ram_bytes = filter_bytes + rx
        est.ram_bytes = filter_bytes + max(rx, child.ram_bytes)
        est.held_bytes = filter_bytes + child.held_bytes
        # Count round trip, then the ID stream, then inserts and probes.
        est.usb_s += self._usb_transfer(200, 2)
        est.usb_s += self._id_stream_usb(keys)
        est.cpu_s += self._cpu("bloom_insert", keys)
        est.cpu_s += self._cpu("bloom_probe", child.out_count)
        sel = self.stats.selectivity(node.predicate)
        est.out_count = child.out_count * min(1.0, sel + fp)
        return est

    def _est_Store(self, node: lp.Store, beside: float, nodes) -> CostEstimate:
        # The run's writer page is held while the child drains; the
        # replay then holds one reader page.
        page = self.profile.page_size
        child = self._price(node.child, beside + page, nodes)
        est = CostEstimate()
        est.absorb(child)
        est.hold(page, child)
        est.held_bytes = page
        est.out_count = child.out_count
        width = ID_WIDTH * len(node.child.output_tables)
        total_bytes = child.out_count * width
        pages = math.ceil(total_bytes / page)
        est.flash_write_s += pages * self.profile.flash_write_s
        est.flash_read_s += pages * self.profile.flash_read_full_s
        return est

    def _est_Project(self, node: lp.Project, beside: float, nodes) -> CostEstimate:
        page = self.profile.page_size
        hidden_by_table: dict[str, int] = {}
        for table, column in node.projections:
            if column.hidden:
                hidden_by_table[table] = hidden_by_table.get(table, 0) + 1
        for predicate in node.residual_hidden:
            hidden_by_table[predicate.table] = (
                hidden_by_table.get(predicate.table, 0) + 1
            )
        # One heap reader per hidden table, opened before the child.
        readers = len(hidden_by_table) * page
        child = self._price(node.child, beside + readers, nodes)
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
        fetch_batch = self.link.fetch_batch
        hidden_reads = sum(hidden_by_table.values())
        # Dense row sets route through the buffer pool: each touched
        # heap page is read in full and every other field on it is
        # served from the pool.  Mirror the operator's per-fetch-batch
        # density gate (with the estimated cardinality standing in for
        # the actual batch fill) so the estimate tracks the path
        # execution will take.
        routes = []
        for table, cols in hidden_by_table.items():
            partial_cost = n * cols * self.profile.flash_read_partial_s
            heap = self.db.heaps.get(table.lower())
            dense, distinct_pages = False, 0.0
            if self.cache_pages > 0 and heap is not None and heap.extent.count > 0:
                rows_per_page = heap.extent.slots_per_page
                batch_fill = min(fetch_batch, n)
                dense = batch_fill * rows_per_page >= 2 * heap.extent.count
                total_pages = max(1, math.ceil(heap.extent.count / rows_per_page))
                distinct_pages = total_pages * (
                    1.0 - (1.0 - 1.0 / total_pages) ** n
                )
            routes.append((table.lower(), partial_cost, dense, distinct_pages))
        share = self.cache_pages / max(1, sum(r[2] for r in routes))
        root = node.child.output_tables[0].lower()
        for table, partial_cost, dense, distinct_pages in routes:
            if not dense:
                est.flash_read_s += partial_cost
                continue
            reads = distinct_pages
            if table != root and distinct_pages > share:
                # Rows arrive in root order, scattered over this table's
                # pages: a page beyond its share of the pool has been
                # evicted by the time a later row needs it again.
                reads += (n - distinct_pages) * (1.0 - share / distinct_pages)
            est.flash_read_s += min(
                partial_cost, reads * self.profile.flash_read_full_s
            )
        est.cpu_s += self._cpu("decode_field", n * max(1, hidden_reads))
        # Visible fetches: one round trip (a request and a reply) per
        # fetch batch, whatever the table count; ~VALUE_ROW_BYTES per
        # row of JSON and ~150 B of headers per table and batch.
        visible_tables = {
            t for t, c in node.projections if not c.hidden and not c.primary_key
        }
        visible_tables |= {p.table for p in node.visible_recheck}
        rx = 0.0
        if visible_tables:
            batches = math.ceil(n / fetch_batch) if n else 0
            est.usb_s += self._usb_transfer(
                len(visible_tables)
                * (n * (ID_WIDTH + VALUE_ROW_BYTES) + batches * 150),
                2 * batches,
            )
            # Each reply lands in a receive buffer while the child
            # streams (the link allocates at least 64 B).
            rx = max(
                64.0,
                len(visible_tables) * min(n, fetch_batch) * VALUE_ROW_BYTES,
            )
        est.own_ram_bytes = readers + rx
        est.ram_bytes = readers + max(child.ram_bytes, child.held_bytes + rx)
        est.held_bytes = readers + child.held_bytes
        return est

    # -- value-row nodes ---------------------------------------------------

    def _sort_buffer(self, row_width: int, beside: float) -> float:
        """The sort buffer ``_external_sort`` asks for beside ``beside``
        bytes: half the free RAM, at most 8 pages, at least 4 rows."""
        return max(
            row_width * 4,
            min(
                (self.profile.ram_bytes - beside) // 2,
                8 * self.profile.page_size,
            ),
        )

    def _external_sort(
        self, est: CostEstimate, child: CostEstimate, sort_buffer: float,
        row_width: int, total_bytes: float, beside: float,
    ) -> None:
        """RAM of an external sort of ``total_bytes`` that drains
        ``child`` into runs, merges them and reads the last one back.

        The sort buffer is allocated before the child's first pull; once
        the first row is in, it shrinks until the run writer has a page.
        The merge then opens at the fan-in free RAM affords, and the
        read-back holds one page.
        """
        page = self.profile.page_size
        free = self.profile.ram_bytes - beside
        kept = min(sort_buffer, max(row_width, free - child.held_bytes - page))
        runs = max(1, math.ceil(total_bytes / kept))
        merge = (min(runs, fan_in_for(free, page)) + 1) * page if runs > 1 else 0
        est.own_ram_bytes = max(sort_buffer, kept + page, merge)
        est.ram_bytes = max(
            sort_buffer + child.ram_bytes,
            kept + child.held_bytes + page,
            merge,
        )
        est.held_bytes = page

    def _est_Aggregate(
        self, node: lp.Aggregate, beside: float, nodes
    ) -> CostEstimate:
        # The hash table starts empty and grows while the child streams.
        child = self._price(node.child, beside, nodes)
        est = CostEstimate()
        est.absorb(child)
        n = child.out_count
        # Distinct grouping keys under independence, at most one per row.
        keys = 1.0
        for index in node.group_indexes:
            table, column = node.child.projections[index]
            keys *= self.stats.column_distinct(table, column.name, column.hidden)
        groups = min(n, keys)
        est.cpu_s += self._cpu("hash", n)
        est.out_count = groups
        entry = 48 + 8 * (len(node.group_indexes) + len(node.aggregates))
        state = groups * entry
        if state > self.profile.ram_bytes * 0.5:
            # Spill path: re-produce the input and external-sort it.
            # (The abandoned hash attempt's growth is given back when
            # the budget refuses it, so it is not priced.)
            width = sum(d.width for d in node.input_dtypes)
            bytes_total = n * width
            est.flash_write_s += (
                math.ceil(bytes_total / self.profile.page_size)
                * self.profile.flash_write_s
            )
            est.flash_read_s += self._sequential_read_s(bytes_total)
            est.cpu_s += child.seconds  # the re-pull, roughly
            self._external_sort(
                est, child, self._sort_buffer(width, beside), width,
                bytes_total, beside,
            )
        else:
            est.own_ram_bytes = est.held_bytes = state
            est.ram_bytes = state + child.ram_bytes
        return est

    def _est_OrderBy(self, node: lp.OrderBy, beside: float, nodes) -> CostEstimate:
        width = sum(d.width for d in node.row_dtypes)
        sort_buffer = self._sort_buffer(width, beside)
        child = self._price(node.child, beside + sort_buffer, nodes)
        est = CostEstimate()
        est.absorb(child)
        n = child.out_count
        est.out_count = n
        bytes_total = n * width
        if bytes_total > sort_buffer:
            pages = math.ceil(bytes_total / self.profile.page_size)
            est.flash_write_s += pages * self.profile.flash_write_s
            est.flash_read_s += pages * self.profile.flash_read_full_s
        est.cpu_s += self._cpu("compare", n * max(1, int(n).bit_length()))
        self._external_sort(
            est, child, sort_buffer, width, bytes_total, beside
        )
        return est

    def _est_Limit(self, node: lp.Limit, beside: float, nodes) -> CostEstimate:
        child = self._price(node.child, beside, nodes)
        est = CostEstimate()
        est.absorb(child)
        est.hold(0.0, child)
        est.out_count = min(child.out_count, node.count)
        return est
