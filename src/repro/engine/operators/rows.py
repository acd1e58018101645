"""Value-row operators: aggregation, ordering, limiting.

These run on the device *after* projection -- aggregates over hidden
values are exactly the queries GhostDB exists for (a hospital computing
average dosage per purpose must not reveal either column).  All working
state is RAM-budgeted; both grouping and sorting degrade gracefully to
external (flash-spilling) algorithms when the tiny RAM cannot hold their
state, just like every other operator on the chip.
"""

from __future__ import annotations

from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.hardware.ram import RamExhaustedError
from repro.storage.pagestore import PageReader
from repro.storage.record import RecordCodec
from repro.storage.runs import make_runs, merge_runs

#: Modeled per-group bookkeeping overhead (hash bucket + accumulators).
GROUP_ENTRY_OVERHEAD = 48


class _Accumulator:
    """Streaming state for one group."""

    __slots__ = ("count", "sums", "mins", "maxs")

    def __init__(self, n_aggs: int):
        self.count = 0
        self.sums = [0.0] * n_aggs
        self.mins = [None] * n_aggs
        self.maxs = [None] * n_aggs

    def feed(self, aggregates, row) -> None:
        self.count += 1
        for i, aggregate in enumerate(aggregates):
            if aggregate.input_index is None:
                continue
            value = row[aggregate.input_index]
            if aggregate.func in ("sum", "avg"):
                self.sums[i] += value
            elif aggregate.func == "min":
                if self.mins[i] is None or value < self.mins[i]:
                    self.mins[i] = value
            elif aggregate.func == "max":
                if self.maxs[i] is None or value > self.maxs[i]:
                    self.maxs[i] = value

    def result(self, aggregate, index: int):
        if aggregate.func == "count":
            return self.count
        if aggregate.func == "sum":
            total = self.sums[index]
            from repro.storage.types import IntegerType

            if isinstance(aggregate.column.dtype, IntegerType):
                return int(total)
            return total
        if aggregate.func == "avg":
            return self.sums[index] / self.count if self.count else 0.0
        if aggregate.func == "min":
            return self.mins[index]
        if aggregate.func == "max":
            return self.maxs[index]
        raise PlanExecutionError(f"unknown aggregate {aggregate.func!r}")


class AggregateOp(Operator):
    """Hash grouping with an external sort-based fallback.

    The hash table's growth is charged against the RAM budget per new
    group; when it no longer fits, the operator spills the *input* to
    sorted runs on flash (key-ordered) and aggregates in one streaming
    pass over the merged run -- the classical two-strategy design, under
    a 64 KB budget.
    """

    name = "aggregate"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_indexes: list[int],
        aggregates: list,
        output_items: list[tuple[str, int]],
        input_dtypes: list,
        having: list | None = None,
    ):
        detail = ", ".join(a.label() for a in aggregates) or "distinct"
        super().__init__(ctx, detail=detail, children=(child,))
        self.child = child
        self.group_indexes = group_indexes
        self.aggregates = aggregates
        self.output_items = output_items
        self.input_dtypes = input_dtypes
        self.having = having or []
        #: exposed for tests: which strategy ran.
        self.spilled = False

    def _passes_having(self, key: tuple, acc: "_Accumulator") -> bool:
        from repro.sql.binder import compare_values

        self.ctx.device.chip.charge("compare", len(self.having))
        for kind, index, op, literal in self.having:
            if kind == "key":
                actual = key[self.group_indexes.index(index)]
            else:
                actual = acc.result(self.aggregates[index], index)
            if not compare_values(op, actual, literal):
                return False
        return True

    def _emit(self, key: tuple, acc: _Accumulator) -> tuple:
        out = []
        for kind, ref in self.output_items:
            if kind == "key":
                position = self.group_indexes.index(ref)
                out.append(key[position])
            else:
                aggregate = self.aggregates[ref]
                out.append(acc.result(aggregate, ref))
        return tuple(out)

    def _produce(self):
        device = self.ctx.device
        # Per-item pulls: the hash attempt breaks off mid-stream on RAM
        # exhaustion, so demand must be exact -- a batch window would
        # run the child ahead of the break point.
        rows_iter = self.child.unbatched()
        groups: dict[tuple, _Accumulator] = {}
        entry_bytes = GROUP_ENTRY_OVERHEAD + 8 * (
            len(self.group_indexes) + len(self.aggregates)
        )
        alloc = device.ram.allocate(0, "aggregate-hash")
        overflowed = False
        try:
            for row in rows_iter:
                key = tuple(row[i] for i in self.group_indexes)
                device.chip.charge("hash")
                acc = groups.get(key)
                if acc is None:
                    try:
                        alloc.resize(alloc.size + entry_bytes)
                    except RamExhaustedError:
                        overflowed = True
                        break
                    acc = _Accumulator(len(self.aggregates))
                    groups[key] = acc
                acc.feed(self.aggregates, row)
            if not overflowed:
                self.reserve(alloc.size)
                device.chip.charge(
                    "compare",
                    len(groups) * max(1, len(groups).bit_length()),
                )
                for key in sorted(groups):
                    if self._passes_having(key, groups[key]):
                        yield self._emit(key, groups[key])
                return
        finally:
            alloc.release()
        # The group state no longer fits: abandon the hash attempt,
        # release the suspended pipeline's buffers, and restart the
        # child through a key-ordered external sort.  Re-producing the
        # input costs real (simulated) time -- spilling is expensive,
        # which is exactly the pressure the tiny RAM creates.
        rows_iter.close()
        del rows_iter
        groups.clear()
        self.spilled = True
        yield from self._sorted_aggregate()

    def _sorted_aggregate(self):
        codec = RecordCodec(self.input_dtypes)
        key_slices = [codec.field_slice(i) for i in self.group_indexes]

        def sort_key(raw: bytes) -> bytes:
            return b"".join(raw[off : off + width] for off, width in key_slices)

        current_key = None
        acc = None
        for row in _external_sort(
            self, self.child.rows(), codec, sort_key, "aggregate-spill"
        ):
            key = tuple(row[i] for i in self.group_indexes)
            if key != current_key:
                if acc is not None and self._passes_having(current_key, acc):
                    yield self._emit(current_key, acc)
                current_key = key
                acc = _Accumulator(len(self.aggregates))
            acc.feed(self.aggregates, row)
        if acc is not None and self._passes_having(current_key, acc):
            yield self._emit(current_key, acc)


class OrderByOp(Operator):
    """External sort of value rows by output-column keys.

    Ascending keys use the codecs' order-preserving encodings directly;
    descending keys use the bytewise complement.
    """

    name = "order-by"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        keys: list[tuple[int, bool]],
        row_dtypes: list,
    ):
        detail = ", ".join(
            f"#{i} {'asc' if asc else 'desc'}" for i, asc in keys
        )
        super().__init__(ctx, detail=detail, children=(child,))
        self.child = child
        self.keys = keys
        self.row_dtypes = row_dtypes

    def _produce(self):
        codec = RecordCodec(self.row_dtypes)
        slices = [
            (codec.field_slice(i), ascending) for i, ascending in self.keys
        ]

        def sort_key(raw: bytes) -> bytes:
            parts = []
            for (off, width), ascending in slices:
                chunk = raw[off : off + width]
                if not ascending:
                    chunk = bytes(255 - b for b in chunk)
                parts.append(chunk)
            return b"".join(parts)

        yield from _external_sort(
            self, self.child.rows(), codec, sort_key, "order-by"
        )


def _external_sort(op: Operator, rows, codec: RecordCodec, sort_key, label):
    """Value rows in ``sort_key`` order of their encodings, through flash.

    Sorted runs fill a RAM-budgeted sort buffer (what it keeps is
    declared as ``op``'s reservation), :func:`~repro.storage.runs.merge_runs`
    merges them down to one run at the fan-in free RAM affords, and the
    run is read back and decoded row by row, then freed.
    """
    device = op.ctx.device
    sort_buffer = max(
        codec.width * 4,
        min(device.ram.soft_available // 2, 8 * device.profile.page_size),
    )
    runs = make_runs(
        device,
        (codec.encode(row) for row in rows),
        codec.width,
        key=sort_key,
        sort_buffer_bytes=sort_buffer,
        label=label,
        declare=op.reserve,
    )
    runs = merge_runs(device, runs, label, op.ctx.fan_in(), key=sort_key)
    try:
        for run in runs:
            with PageReader(device, run, f"{op.name}-read") as reader:
                for raw in reader.scan():
                    device.chip.charge("decode_field", codec.arity)
                    yield codec.decode(raw)
    finally:
        for run in runs:
            run.free(device.ftl)


class LimitOp(Operator):
    """Stop after ``count`` rows (and stop pulling the child)."""

    name = "limit"

    def __init__(self, ctx: ExecContext, child: Operator, count: int):
        super().__init__(ctx, detail=str(count), children=(child,))
        self.child = child
        self.count = count

    def _produce(self):
        # ``limit=`` makes demand exact at the batch layer: the child is
        # advanced at most ``count`` items in total (``count == 0`` never
        # pulls it at all), so the subtree cannot over-produce.
        for batch in self.child.batches(limit=self.count):
            yield from batch
