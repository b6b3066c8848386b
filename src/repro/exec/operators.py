"""The physical execution engine.

A recursive interpreter over the *physical* plan produced by
:mod:`repro.plan.optimizer`: every operator fully materializes its
result as a :class:`~repro.exec.batch.Batch` before the parent consumes
it, mirroring the MonetDB/MAL execution model of the paper's prototype.

Join strategy is decided at plan time: :class:`~repro.plan.physical.PHashJoin`
arrives with its equi-key pairs and build side already chosen,
:class:`~repro.plan.physical.PNestedLoopJoin` and
:class:`~repro.plan.physical.PCrossJoin` carry the guarded fallback
paths.

Every key-driven operator (DISTINCT, GROUP BY, equi-join probing, set
operations, ORDER BY, recursive-CTE dedup) runs through the vectorized
kernels of :mod:`repro.exec.kernels` — factorized int64 key codes
instead of per-row Python tuples — whenever the database's
``vectorized`` knob is on and the key columns are codifiable.  Large
inputs additionally run those kernels morsel-parallel on the database's
shared worker pool (:mod:`repro.exec.parallel`, ``exec_workers``), with
results bit-identical to the serial kernels; join/sort payload gathers
are spread column-per-task over the same pool.  The
original row-at-a-time paths are kept verbatim underneath as the
automatic fallback and as the ``Database(vectorized=False)``
correctness oracle: Python hash tables over row keys for grouping and
distinct, a stable multi-pass merge with SQL null ordering (NULLS LAST
ascending, NULLS FIRST descending) for sorting.  Kernel hits and
fallbacks are counted per operation on the database's
:class:`~repro.exec.kernels.KernelCounters` and surfaced by profiler
reports and ``Database.kernel_stats()``.

Graph select / graph join are delegated to :mod:`repro.exec.graph_ops`.

Every cross-product-shaped materialization (cross join, nested-loop
join; the graph join's pair grid lives in graph_ops) is capped by
:data:`MAX_CROSS_ROWS` and fails fast with a typed
:class:`~repro.errors.ResourceLimitError` instead of exhausting memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ExecutionError, NotSupportedError, ResourceLimitError
from ..plan import exprs as bx
from ..plan import logical as lp
from ..plan import physical as pp
from ..storage import Column, DataType
from ..storage.spill import (
    SPILL_CHUNK_ROWS,
    MemoryAccountant,
    estimate_batch_bytes,
)
from ..storage.types import coerce_python_value
from ..storage.zonemap import ZONE_ROWS, ZonePredicate, select_zone_spans
from . import kernels
from .batch import Batch, ZeroColumnBatch
from .evaluator import EvalContext, evaluate
from .kernels import KernelFallback

#: Hard cap on materialized cross products, to fail fast instead of
#: exhausting memory (the MonetDB prototype shares the failure mode).
MAX_CROSS_ROWS = 20_000_000

#: Absolute ceiling for equi-join outputs: a legitimate (selective)
#: join may exceed MAX_CROSS_ROWS, but nothing this engine can finish
#: materializes 4x that many rows.
MAX_JOIN_ROWS = 4 * MAX_CROSS_ROWS

#: Iteration guard for WITH RECURSIVE evaluation.
MAX_RECURSION_STEPS = 100_000

#: Recursive-CTE dedup switches from the vectorized per-iteration
#: re-codification (O(accumulated) per step, unbeatable for the big
#: frontier deltas of graph workloads) to the incremental row-key set
#: (O(delta) per step) once deltas shrink below this fraction of the
#: accumulated result — long thin recursions would otherwise pay a full
#: re-sort per row produced.
DEDUP_DELTA_FRACTION = 8


class ExecContext:
    """Execution-time state shared by all operators of one statement.

    ``snapshot`` is the statement's (or enclosing transaction's) pinned
    :class:`~repro.storage.snapshot.Snapshot`; every base-table scan
    resolves through it, never through the live table, so readers run
    entirely lock-free.  A ``None`` snapshot (bare ``execute_plan``
    callers, tests) falls back to the table's current committed version
    — still a single atomic read.
    """

    def __init__(self, database, params: tuple, profiler=None, snapshot=None):
        self.database = database
        self.catalog = database.catalog
        self.params = params
        self.snapshot = snapshot
        self.cte_tables: dict[str, Batch] = {}
        self.profiler = profiler
        #: Worker-thread budget for the graph runtime's batch solver
        #: (the Database's ``path_workers`` knob; 1 = always serial).
        self.path_workers = getattr(database, "path_workers", 1)
        #: Whether key-driven operators use the vectorized kernels of
        #: :mod:`repro.exec.kernels` (the Database's ``vectorized`` knob;
        #: False preserves the row-at-a-time oracle paths).
        self.vectorized = getattr(database, "vectorized", True)
        self.kernel_counters = getattr(database, "kernel_counters", None)
        #: Morsel-parallel handle on the database's shared kernel worker
        #: pool (:class:`~repro.exec.parallel.ExecPool`); None when the
        #: pool has one worker or the kernels are off — kernels then run
        #: their unchanged serial paths (the ``exec_workers=1`` oracle).
        self.parallel = None
        if self.vectorized:
            pool = getattr(database, "exec_pool", None)
            if pool is not None:
                self.parallel = pool.context()
        #: Whether scans consult per-morsel zone maps (the Database's
        #: ``compression`` knob; False is the plain-storage oracle).
        self.compression = getattr(database, "compression", True)
        self.storage_counters = getattr(database, "storage_counters", None)
        #: Memory-budgeted execution (the Database's ``memory_budget``
        #: knob; None = unlimited = the fully-materialized oracle).  The
        #: accountant records per-query stream/spill decisions for the
        #: profiler and EXPLAIN footers; the spill manager owns the
        #: temp files partitioned operators write.
        self.spill_manager = getattr(database, "spill_manager", None)
        self.accountant = MemoryAccountant(
            getattr(database, "memory_budget", None),
            getattr(database, "spill_counters", None),
        )
        #: Runtime zone predicates installed for the duration of a
        #: probe-side execution by the hash-join operator
        #: (``id(PScan) -> list[ZonePredicate]``).
        self.dynamic_zones: dict[int, list] = {}

    def kernel_hit(self, op: str) -> None:
        if self.kernel_counters is not None:
            self.kernel_counters.hit(op)

    def kernel_fallback(self, op: str, exc: Optional[Exception] = None) -> None:
        if self.kernel_counters is not None:
            self.kernel_counters.fallback(op, getattr(exc, "reason", None))

    def run(self, plan: pp.PhysicalNode) -> Batch:
        return execute_plan(plan, self)

    def eval(self, expr: bx.BoundExpr, batch: Batch) -> Column:
        # built per call: an EvalContext kept on ``self`` holds the bound
        # ``self.run``, a reference cycle that would leave every
        # statement's context to the cyclic garbage collector
        return evaluate(expr, batch, EvalContext(self.params, self.run))


def execute_plan(plan: pp.PhysicalNode, ctx: ExecContext) -> Batch:
    if isinstance(plan, lp.LogicalNode):
        # compatibility shim: callers holding a bare logical plan get a
        # trivial (pass-free) lowering
        from ..plan.optimizer import lower_plan

        plan = lower_plan(plan, ctx.catalog)
    handler = _DISPATCH.get(type(plan))
    if handler is None:
        raise NotSupportedError(f"no executor for {type(plan).__name__}")
    if ctx.profiler is not None:
        return ctx.profiler.run(plan, handler, ctx)
    return handler(plan, ctx)


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------
def _scan_version(plan: pp.PScan, ctx: ExecContext):
    if ctx.snapshot is not None:
        return ctx.snapshot.table_version(plan.table)
    return ctx.catalog.get(plan.table).current()


def _scan_columns(plan: pp.PScan, ctx: ExecContext, version) -> list[Column]:
    columns = list(version.columns)
    if len(plan.schema) != len(version.schema):
        # narrowed scan (projection pruning): select the kept columns
        columns = [
            columns[version.schema.index_of(c.name)] for c in plan.schema
        ]
    return columns


def _insub_resolver(ctx: ExecContext):
    """The ``select_zone_spans`` resolver for ``insub`` zone predicates:
    runs the IN-subquery's physical plan and reports its values' (lo,
    hi) range, ``()`` when the probe set has no matchable value, or None
    when the result is undecidable (strings, coercion failure, error —
    the residual filter then decides every row, so keeping all zones is
    always safe).  The subquery may run a second time inside the
    residual filter; zone pruning trades that re-execution for skipped
    morsels, which wins exactly when the probed table is large."""

    def resolve(zf, col_type):
        (_, plan), = zf.operands
        try:
            batch = ctx.run(plan)
        except Exception:
            return None
        if not batch.columns:
            return None
        values = []
        for value in batch.columns[0].to_pylist():
            if value is None:
                continue
            try:
                value = coerce_python_value(value, col_type)
            except Exception:
                return None
            if value is None or isinstance(value, str):
                return None
            if isinstance(value, float) and value != value:
                continue  # NaN probe value never equals anything
            values.append(value)
        if ctx.storage_counters is not None:
            ctx.storage_counters.note_dynamic("in_subquery")
        if not values:
            return ()
        return (min(values), max(values))

    return resolve


def _scan_spans(plan: pp.PScan, ctx: ExecContext, version):
    """Surviving row spans after static + dynamic zone filters, or None
    when nothing can be skipped (callers then scan zero-copy)."""
    if not ctx.compression:
        return None
    dynamic = ctx.dynamic_zones.get(id(plan), ())
    zone_filters = tuple(plan.zone_filters) + tuple(dynamic)
    if not zone_filters:
        return None
    spans, skipped, total = select_zone_spans(
        version, zone_filters, ctx.params, resolver=_insub_resolver(ctx)
    )
    if plan.zone_filters and ctx.storage_counters is not None:
        ctx.storage_counters.note_scan(plan.table, total, skipped)
    return spans


def _exec_scan(plan: pp.PScan, ctx: ExecContext) -> Batch:
    version = _scan_version(plan, ctx)
    columns = _scan_columns(plan, ctx, version)
    spans = _scan_spans(plan, ctx, version)
    if spans is not None:
        # whole morsels proven empty by the zone maps are dropped
        # before the residual filter ever touches them; kept morsels
        # stay in row order, so results are bit-identical.  Budgeted
        # execution slices through slice_morsel (same values, bounded
        # decode) instead of the full-column decode of .slice
        if ctx.accountant.active:
            if columns and spans == [(0, len(columns[0]))]:
                # nothing pruned: keep the resting-encoded columns as
                # they are (a [0, n) slice is the identity) so later
                # budgeted operators can decode morsel-wise instead of
                # inheriting a fully decoded copy
                return Batch(plan.schema, columns)
            cut = lambda c, s, e: c.slice_morsel(s, e)  # noqa: E731
        else:
            cut = lambda c, s, e: c.slice(s, e)  # noqa: E731
        if not spans:
            columns = [c.slice(0, 0) for c in columns]
        elif len(spans) == 1:
            columns = [cut(c, *spans[0]) for c in columns]
        else:
            columns = [
                Column.concat([cut(c, s, e) for s, e in spans])
                for c in columns
            ]
    return Batch(plan.schema, columns)


def _exec_single_row(plan: pp.PSingleRow, ctx: ExecContext) -> Batch:
    return ZeroColumnBatch(1)


def _infer_output_type(values: list) -> DataType:
    """Runtime type of a parameter-typed output column (host parameters
    and literal-normalized plans have no static type).  Numeric widths
    are promoted across all values, so mixed INTEGER/DOUBLE inputs land
    on the common supertype instead of failing on the first sample."""
    from ..storage import infer_literal_type, promote

    result = None
    for value in values:
        if value is None:
            continue
        inferred = infer_literal_type(value)
        result = inferred if result is None else promote(result, inferred)
        if result == DataType.VARCHAR or result == DataType.DOUBLE:
            break  # already the top of its promotion chain
    return result if result is not None else DataType.VARCHAR


def _exec_values(plan: pp.PValues, ctx: ExecContext) -> Batch:
    single = ZeroColumnBatch(1)
    width = len(plan.schema)
    values: list[list] = [[] for _ in range(width)]
    for row in plan.rows:
        for j, expr in enumerate(row):
            values[j].append(ctx.eval(expr, single).value(0))
    columns = []
    for col_def, column_values in zip(plan.schema, values):
        type_ = col_def.type or _infer_output_type(column_values)
        columns.append(Column.from_values(type_, column_values))
    return Batch(plan.schema, columns)


def _exec_cte_ref(plan: pp.PCTERef, ctx: ExecContext) -> Batch:
    batch = ctx.cte_tables.get(plan.cte_name)
    if batch is None:
        raise ExecutionError(f"CTE {plan.cte_name!r} is not materialized")
    return batch.relabel(plan.schema)


# ---------------------------------------------------------------------------
# unary
# ---------------------------------------------------------------------------
def _exec_filter(plan: pp.PFilter, ctx: ExecContext) -> Batch:
    if plan.streamable and ctx.accountant.active:
        streamed = _streamed_filter(plan, ctx)
        if streamed is not None:
            return streamed
    batch = execute_plan(plan.input, ctx)
    predicate = ctx.eval(plan.predicate, batch)
    keep = predicate.data.astype(np.bool_)
    if predicate.mask is not None:
        keep = keep & ~predicate.mask
    return batch.filter(keep)


def _stream_chain(plan) -> "tuple[list, pp.PScan] | None":
    """The ``[outermost..innermost]`` streamable-filter chain under
    ``plan`` down to a base-table scan, or None when the shape does not
    stream."""
    filters = []
    node = plan
    while isinstance(node, pp.PFilter) and node.streamable:
        filters.append(node)
        node = node.input
    if not isinstance(node, pp.PScan):
        return None
    return filters, node


def _filter_morsel(filters, morsel: Batch, ctx: ExecContext) -> Batch:
    """Apply a filter chain to one morsel, innermost predicate first —
    the same rows each predicate would see in the materialized plan
    (outer predicates only ever evaluate over inner survivors)."""
    for f in reversed(filters):
        predicate = ctx.eval(f.predicate, morsel)
        keep = predicate.data.astype(np.bool_)
        if predicate.mask is not None:
            keep = keep & ~predicate.mask
        morsel = morsel.filter(keep)
    return morsel


def _streamed_filter(plan: pp.PFilter, ctx: ExecContext) -> "Batch | None":
    """Fused filter chain over a scan, one morsel at a time: each morsel
    is sliced (decoding only its zones), filtered, and the survivors
    concatenated in row order — elementwise predicates commute with
    concatenation, so the result is bit-identical to the materialized
    path while the working set stays one morsel plus survivors."""
    chain = _stream_chain(plan)
    if chain is None:
        return None
    filters, scan = chain
    version = _scan_version(scan, ctx)
    if not version.columns:
        return None
    n = len(version.columns[0])
    if n <= SPILL_CHUNK_ROWS:
        return None  # single morsel: streaming would not bound anything
    columns = _scan_columns(scan, ctx, version)
    spans = _scan_spans(scan, ctx, version)
    if spans is None:
        spans = [(0, n)]
    pieces: list[Batch] = []
    morsels = 0
    for start, stop in spans:
        for ms in range(start, stop, SPILL_CHUNK_ROWS):
            me = min(ms + SPILL_CHUNK_ROWS, stop)
            morsel = Batch(
                scan.schema, [c.slice_morsel(ms, me) for c in columns]
            )
            morsel = _filter_morsel(filters, morsel, ctx)
            morsels += 1
            if morsel.num_rows:
                pieces.append(morsel)
    ctx.accountant.note_stream(morsels)
    if not pieces:
        return Batch(
            plan.schema, [Column.empty(c.type) for c in columns]
        )
    out = [
        Column.concat([piece.columns[i] for piece in pieces])
        for i in range(len(columns))
    ]
    return Batch(plan.schema, out)


def _exec_project(plan: pp.PProject, ctx: ExecContext) -> Batch:
    batch = execute_plan(plan.input, ctx)
    columns = [ctx.eval(expr, batch) for expr in plan.exprs]
    if not columns:
        return ZeroColumnBatch(batch.num_rows)
    return Batch(plan.schema, columns)


def _exec_limit(plan: pp.PLimit, ctx: ExecContext) -> Batch:
    batch = execute_plan(plan.input, ctx)
    start = plan.offset
    stop = batch.num_rows if plan.limit is None else min(
        batch.num_rows, start + plan.limit
    )
    start = min(start, batch.num_rows)
    indices = np.arange(start, stop, dtype=np.int64)
    return batch.take(indices)


def _row_key(batch: Batch, index: int) -> tuple:
    return tuple(col.value(index) for col in batch.columns)


def _batch_rows(batch: Batch) -> list[tuple]:
    """All row tuples at once — much faster than per-row _row_key."""
    if not batch.columns:
        return [()] * batch.num_rows
    return list(zip(*(col.to_pylist() for col in batch.columns)))


def _gather_streamed(column: Column, indices: np.ndarray) -> Column:
    """``column.take(indices)`` with bounded decode: a resting-encoded
    column is gathered zone by zone (sort the indices, decode each
    touched zone once via ``slice_morsel``, then invert the sort), so a
    selective gather never materializes the whole column.  Bit-identical
    to ``take`` — the same values land in the same positions, and the
    per-zone decodes equal the corresponding full-decode slices."""
    if column._data is not None or column.encoding is None or len(indices) == 0:
        return column.take(indices)
    indices = np.asarray(indices, dtype=np.int64)
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    zones = sorted_idx // ZONE_ROWS
    n = len(column)
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(zones)) + 1, [len(sorted_idx)])
    )
    parts = []
    for i in range(len(bounds) - 1):
        s, e = int(bounds[i]), int(bounds[i + 1])
        lo = int(zones[s]) * ZONE_ROWS
        hi = min(lo + ZONE_ROWS, n)
        parts.append(column.slice_morsel(lo, hi).take(sorted_idx[s:e] - lo))
    gathered = Column.concat(parts)
    inverse = np.empty(len(indices), dtype=np.int64)
    inverse[order] = np.arange(len(indices), dtype=np.int64)
    return gathered.take(inverse)


def _take_columns(
    columns: list[Column], indices: np.ndarray, ctx: ExecContext
) -> list[Column]:
    """Gather each column by ``indices``, one pooled task per column when
    the morsel layer is active (payload gathers dominate wide joins and
    sorts; column granularity parallelizes them without any reordering
    concern — each task fills exactly one output column).  Under a
    memory budget, resting-encoded columns gather zone-at-a-time
    instead of decoding whole."""
    if ctx.accountant.active:
        return [_gather_streamed(c, indices) for c in columns]
    par = ctx.parallel
    if par is None or len(columns) <= 1 or not par.active_for(len(indices)):
        return [c.take(indices) for c in columns]
    return par.map("gather", lambda c: c.take(indices), list(columns))


def _distinct_batch(batch: Batch, ctx: Optional[ExecContext] = None) -> Batch:
    if ctx is not None and ctx.vectorized:
        try:
            keep = kernels.distinct_mask(
                batch.columns, batch.num_rows, ctx.parallel
            )
            ctx.kernel_hit("distinct")
            return batch.filter(keep)
        except KernelFallback as exc:
            ctx.kernel_fallback("distinct", exc)
    seen: set = set()
    keep = np.zeros(batch.num_rows, dtype=np.bool_)
    for i, key in enumerate(_batch_rows(batch)):
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return batch.filter(keep)


def _exec_distinct(plan: pp.PDistinct, ctx: ExecContext) -> Batch:
    return _distinct_batch(execute_plan(plan.input, ctx), ctx)


def _exec_sort(plan: pp.PSort, ctx: ExecContext) -> Batch:
    batch = execute_plan(plan.input, ctx)
    keys = [(ctx.eval(key.expr, batch), key.ascending) for key in plan.keys]
    if ctx.vectorized:
        try:
            order = None
            if (
                keys
                and ctx.accountant.active
                and ctx.spill_manager is not None
                and batch.num_rows > SPILL_CHUNK_ROWS
                and ctx.accountant.decide(
                    "sort", estimate_batch_bytes(batch.columns)
                )
            ):
                order = _external_sort_order(keys, batch.num_rows, ctx)
            if order is None:
                order = kernels.sort_order(keys, batch.num_rows, ctx.parallel)
            ctx.kernel_hit("sort")
            if ctx.accountant.active and plan.limit is not None:
                # top-k fusion: the PLimit above slices [offset,
                # offset+limit), which is a prefix of this truncated
                # permutation — identical rows, bounded payload gather
                order = order[: plan.limit]
            if not batch.columns:
                return batch.take(order)
            return Batch(batch.schema, _take_columns(batch.columns, order, ctx))
        except KernelFallback as exc:
            ctx.kernel_fallback("sort", exc)
    order = np.arange(batch.num_rows, dtype=np.int64)
    # stable multi-pass: least-significant key first
    for column, ascending in reversed(keys):
        materialized = column.to_pylist()  # one bulk conversion per key
        values = [materialized[int(i)] for i in order]

        def sort_key(pos: int) -> tuple:
            value = values[pos]
            # NULLS LAST ascending; reversing makes them FIRST descending
            return (1, 0) if value is None else (0, value)

        positions = sorted(range(len(order)), key=sort_key, reverse=not ascending)
        order = order[np.asarray(positions, dtype=np.int64)]
    return batch.take(order)


def _external_sort_order(
    keys, n: int, ctx: ExecContext
) -> "np.ndarray | None":
    """External merge sort: the sort permutation via sorted on-disk runs.

    Every key column folds into one mixed-radix int64 rank whose stable
    argsort equals ``kernels.sort_order`` (ties in the rank are ties in
    every key).  Runs of ``SPILL_CHUNK_ROWS`` rows are stably argsorted
    and spilled as (rank, row) pairs; runs then merge pairwise in
    balanced rounds — each merge combines two *adjacent* runs with
    ``searchsorted``, the earlier run (smaller original row numbers)
    taking the left side on rank ties, and spills the result back
    until one run remains.  Stable two-way merge with that tie rule is
    associative, so the surviving order is the unique stable
    permutation by (rank, original row) regardless of merge shape —
    identical to the one-shot stable argsort — while memory stays two
    runs plus their merge (the final merge drops the rank side
    entirely).  Returns None when the combined key-code space
    overflows int64 (callers then lexsort in memory)."""
    rank = kernels.composite_sort_rank(keys, n, ctx.parallel)
    if rank is None:
        return None
    counters = ctx.accountant.counters
    runs = []
    for ms in range(0, n, SPILL_CHUNK_ROWS):
        me = min(ms + SPILL_CHUNK_ROWS, n)
        local = np.argsort(rank[ms:me], kind="stable").astype(np.int64)
        run = ctx.spill_manager.create_file(f"sortrun{len(runs):03d}")
        run.append_columns(
            [
                Column(DataType.BIGINT, rank[ms:me][local]),
                Column(DataType.BIGINT, local + ms),
            ]
        )
        run.finish()
        runs.append(run)
        if counters is not None:
            counters.note("sort_runs")
    del rank  # the runs carry it now; keep the merge loop's floor low
    if not runs:
        return np.empty(0, dtype=np.int64)
    try:
        while len(runs) > 1:
            next_round = []
            for i in range(0, len(runs) - 1, 2):
                a = runs[i].read_columns()
                runs[i].remove()
                b = runs[i + 1].read_columns()
                runs[i + 1].remove()
                a_rank, a_rows = a[0].data, a[1].data
                b_rank, b_rows = b[0].data, b[1].data
                at_a = np.arange(len(a_rank), dtype=np.int64) + (
                    np.searchsorted(b_rank, a_rank, side="left")
                )
                at_b = np.arange(len(b_rank), dtype=np.int64) + (
                    np.searchsorted(a_rank, b_rank, side="right")
                )
                out_rows = np.empty(len(a_rows) + len(b_rows), dtype=np.int64)
                out_rows[at_a] = a_rows
                out_rows[at_b] = b_rows
                if counters is not None:
                    counters.note("merges")
                if len(runs) == 2:
                    runs = []
                    return out_rows  # final merge: the permutation itself
                out_rank = np.empty_like(out_rows)
                out_rank[at_a] = a_rank
                out_rank[at_b] = b_rank
                merged = ctx.spill_manager.create_file(
                    f"sortmerge{len(next_round):03d}"
                )
                merged.append_columns(
                    [
                        Column(DataType.BIGINT, out_rank),
                        Column(DataType.BIGINT, out_rows),
                    ]
                )
                merged.finish()
                next_round.append(merged)
            if len(runs) % 2:
                next_round.append(runs[-1])  # odd run rides to the next round
            runs = next_round
        columns = runs[0].read_columns()
        runs[0].remove()
        runs = []
        return columns[1].data
    finally:
        for run in runs:
            run.remove()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def _exec_aggregate(plan: pp.PAggregate, ctx: ExecContext) -> Batch:
    if plan.streamable and ctx.accountant.active and ctx.vectorized:
        streamed = _streamed_aggregate(plan, ctx)
        if streamed is not None:
            return streamed
    batch = execute_plan(plan.input, ctx)
    n = batch.num_rows
    key_columns = [ctx.eval(e, batch) for e in plan.group_exprs]
    arg_columns = [
        ctx.eval(a.arg, batch) if a.arg is not None else None for a in plan.aggs
    ]
    if ctx.vectorized:
        if (
            key_columns
            and ctx.accountant.active
            and ctx.spill_manager is not None
            and n > SPILL_CHUNK_ROWS
            and ctx.accountant.decide(
                "group_by", estimate_batch_bytes(batch.columns)
            )
        ):
            try:
                return _spilled_aggregate(plan, key_columns, arg_columns, n, ctx)
            except KernelFallback:
                pass  # the in-memory paths below handle (and count) it
        try:
            return _vectorized_aggregate(plan, key_columns, arg_columns, n, ctx)
        except KernelFallback as exc:
            ctx.kernel_fallback("group_by", exc)
    groups: dict[tuple, list[int]] = {}
    if key_columns:
        key_lists = [col.to_pylist() for col in key_columns]
        for i, key in enumerate(zip(*key_lists)):
            groups.setdefault(key, []).append(i)
    else:
        groups[()] = list(range(n))  # global aggregate: one group, even empty
    out_keys: list[list] = [[] for _ in key_columns]
    out_aggs: list[list] = [[] for _ in plan.aggs]
    for key, rows in groups.items():
        for j, value in enumerate(key):
            out_keys[j].append(value)
        for j, (spec, arg_col) in enumerate(zip(plan.aggs, arg_columns)):
            out_aggs[j].append(_compute_agg(spec, arg_col, rows))
    columns: list[Column] = []
    for col_def, values in zip(plan.schema, out_keys + out_aggs):
        type_ = col_def.type or _infer_output_type(values)
        columns.append(Column.from_values(type_, values))
    return Batch(plan.schema, columns)


def _vectorized_aggregate(
    plan: pp.PAggregate,
    key_columns: list[Column],
    arg_columns: list[Optional[Column]],
    n: int,
    ctx: ExecContext,
) -> Batch:
    """GROUP BY over factorized group ids: keys come from each group's
    first row; aggregates run through bincount/reduceat kernels, with a
    per-group Python fallback only for aggregates without a kernel."""
    if key_columns:
        ids, n_groups, first_rows = kernels.group_ids(key_columns, n, ctx.parallel)
    else:
        # global aggregate: one group, even over an empty input
        ids = np.zeros(n, dtype=np.int64)
        n_groups, first_rows = 1, None
    ctx.kernel_hit("group_by")
    out_columns: list[Column] = []
    for column in key_columns:
        out_columns.append(column.take(first_rows))
    group_rows = None  # lazily materialized for non-kernel aggregates
    # one ids argsort shared by SUM/MIN/MAX & co. (thread-local entries)
    sort_cache = kernels.ArgsortCache()
    for spec, arg_col in zip(plan.aggs, arg_columns):
        try:
            out_columns.append(
                kernels.grouped_aggregate(
                    spec.func,
                    spec.distinct,
                    arg_col,
                    ids,
                    n_groups,
                    sort_cache,
                    ctx.parallel,
                )
            )
        except KernelFallback as exc:
            ctx.kernel_fallback("aggregate", exc)
            if group_rows is None:
                group_rows = kernels.group_row_lists(ids, n_groups)
            values = [_compute_agg(spec, arg_col, rows) for rows in group_rows]
            position = len(out_columns)
            type_ = plan.schema[position].type or _infer_output_type(values)
            out_columns.append(Column.from_values(type_, values))
    columns = []
    for col_def, column in zip(plan.schema, out_columns):
        if col_def.type is not None and column.type != col_def.type:
            column = column.cast(col_def.type)
        columns.append(column)
    return Batch(plan.schema, columns)


def _streamed_aggregate(plan: pp.PAggregate, ctx: ExecContext) -> "Batch | None":
    """Fused scan→filter→aggregate over one morsel at a time.

    Only for plans the optimizer marked streamable: ungrouped,
    non-distinct aggregates whose input is a streamable-filter chain
    over a base scan, with SUM/AVG restricted to integral arguments.
    The accumulators mirror the kernels exactly — int64 wrap-around
    sums (``np.add.reduce`` over any chunking of the same int64 values
    is associative mod 2^64), AVG as ``float64(sum) / float64(count)``,
    MIN/MAX as order-independent folds — so the single output row is
    bit-identical to the materialized kernel path.  Returns None (and
    the caller materializes) whenever the kernels would fall back:
    NaN ordering for float MIN/MAX, uncomparable object values."""
    chain = _stream_chain(plan.input)
    if chain is None:
        return None
    filters, scan = chain
    version = _scan_version(scan, ctx)
    if not version.columns:
        return None
    n = len(version.columns[0])
    if n <= SPILL_CHUNK_ROWS:
        return None  # single morsel: streaming would not bound anything
    columns = _scan_columns(scan, ctx, version)
    spans = _scan_spans(scan, ctx, version)
    if spans is None:
        spans = [(0, n)]
    n_aggs = len(plan.aggs)
    counts = [0] * n_aggs
    sums = [np.zeros(1, dtype=np.int64) for _ in range(n_aggs)]
    mins: list = [None] * n_aggs
    maxs: list = [None] * n_aggs
    total_rows = 0
    morsels = 0
    for start, stop in spans:
        for ms in range(start, stop, SPILL_CHUNK_ROWS):
            me = min(ms + SPILL_CHUNK_ROWS, stop)
            morsel = Batch(
                scan.schema, [c.slice_morsel(ms, me) for c in columns]
            )
            morsel = _filter_morsel(filters, morsel, ctx)
            morsels += 1
            total_rows += morsel.num_rows
            if not morsel.num_rows:
                continue
            for j, spec in enumerate(plan.aggs):
                if spec.func == "count_star":
                    continue
                arg = ctx.eval(spec.arg, morsel)
                data = arg.data
                if arg.mask is not None:
                    data = data[~arg.mask]
                if not len(data):
                    continue
                counts[j] += len(data)
                if spec.func == "count":
                    continue
                if spec.func in ("sum", "avg"):
                    sums[j][0] += data.astype(np.int64, copy=False).sum()
                    continue
                if data.dtype.kind == "f" and np.isnan(data).any():
                    return None  # kernel falls back on NaN ordering
                if data.dtype == np.dtype(object):
                    try:
                        lo, hi = min(data.tolist()), max(data.tolist())
                    except TypeError:
                        return None  # uncomparable: kernel falls back too
                else:
                    lo, hi = data.min().item(), data.max().item()
                if spec.func == "min":
                    mins[j] = lo if mins[j] is None else min(mins[j], lo)
                else:
                    maxs[j] = hi if maxs[j] is None else max(maxs[j], hi)
    values_out: list = []
    for j, spec in enumerate(plan.aggs):
        if spec.func == "count_star":
            values_out.append(total_rows)
        elif spec.func == "count":
            values_out.append(counts[j])
        elif counts[j] == 0:
            values_out.append(None)
        elif spec.func == "sum":
            values_out.append(int(sums[j][0]))
        elif spec.func == "avg":
            values_out.append(
                float(np.float64(sums[j][0]) / np.float64(counts[j]))
            )
        elif spec.func == "min":
            values_out.append(mins[j])
        else:
            values_out.append(maxs[j])
    out_columns = []
    for col_def, value in zip(plan.schema, values_out):
        type_ = col_def.type or _infer_output_type([value])
        column = Column.from_values(type_, [value])
        if col_def.type is not None and column.type != col_def.type:
            column = column.cast(col_def.type)
        out_columns.append(column)
    ctx.accountant.note_stream(morsels)
    ctx.kernel_hit("group_by")
    return Batch(plan.schema, out_columns)


def _spilled_aggregate(
    plan: pp.PAggregate,
    key_columns: list[Column],
    arg_columns: list[Optional[Column]],
    n: int,
    ctx: ExecContext,
) -> Batch:
    """GROUP BY with inputs radix-partitioned into spill files by group
    id, aggregated one partition at a time through the unchanged
    kernels.

    Every group's rows land wholly in one partition (``id % parts`` is
    deterministic) and partition routing preserves row order, so each
    per-partition kernel run sees exactly the global run's value
    sequence for its groups — results scatter back by global group id
    and are bit-identical to the single-shot path, while only one
    partition's rows are ever decoded at once."""
    for column in arg_columns:
        if column is not None and column.type is None:
            raise KernelFallback("spilled aggregate requires typed arguments")
    ids, n_groups, first_rows = kernels.group_ids(key_columns, n, ctx.parallel)
    ctx.kernel_hit("group_by")
    args_idx = [j for j, c in enumerate(arg_columns) if c is not None]
    est = estimate_batch_bytes(
        key_columns + [arg_columns[j] for j in args_idx]
    )
    parts = ctx.accountant.partition_count(est)
    spill = ctx.spill_manager.partitions(parts, "agg")
    try:
        for ms in range(0, n, SPILL_CHUNK_ROWS):
            me = min(ms + SPILL_CHUNK_ROWS, n)
            chunk_ids = ids[ms:me]
            cols = [Column(DataType.BIGINT, chunk_ids)]
            for j in args_idx:
                cols.append(arg_columns[j].slice_morsel(ms, me))
            spill.add(chunk_ids % parts, cols)
        out_aggs: list[list] = [[None] * n_groups for _ in plan.aggs]
        for part in range(parts):
            cols = spill.read_partition(part)
            if cols is None:
                continue
            uniq, local = np.unique(
                cols[0].data, return_inverse=True
            )
            local = local.reshape(-1).astype(np.int64, copy=False)
            part_args = {j: cols[1 + k] for k, j in enumerate(args_idx)}
            sort_cache = kernels.ArgsortCache()
            group_rows = None
            for j, spec in enumerate(plan.aggs):
                arg_col = part_args.get(j)
                try:
                    values = kernels.grouped_aggregate(
                        spec.func,
                        spec.distinct,
                        arg_col,
                        local,
                        len(uniq),
                        sort_cache,
                        ctx.parallel,
                    ).to_pylist()
                except KernelFallback as exc:
                    ctx.kernel_fallback("aggregate", exc)
                    if group_rows is None:
                        group_rows = kernels.group_row_lists(local, len(uniq))
                    values = [
                        _compute_agg(spec, arg_col, rows) for rows in group_rows
                    ]
                out = out_aggs[j]
                for g, value in enumerate(values):
                    out[int(uniq[g])] = value
    finally:
        spill.close()
    out_columns = [_gather_streamed(c, first_rows) for c in key_columns]
    for j, values in enumerate(out_aggs):
        position = len(key_columns) + j
        type_ = plan.schema[position].type or _infer_output_type(values)
        out_columns.append(Column.from_values(type_, values))
    columns = []
    for col_def, column in zip(plan.schema, out_columns):
        if col_def.type is not None and column.type != col_def.type:
            column = column.cast(col_def.type)
        columns.append(column)
    return Batch(plan.schema, columns)


def _compute_agg(spec: lp.AggSpec, arg_col: Optional[Column], rows: list[int]):
    if spec.func == "count_star":
        return len(rows)
    values = [arg_col.value(i) for i in rows]
    values = [v for v in values if v is not None]
    if spec.distinct:
        values = list(dict.fromkeys(values))
    if spec.func == "count":
        return len(values)
    if not values:
        return None
    if spec.func == "sum":
        return sum(values)
    if spec.func == "min":
        return min(values)
    if spec.func == "max":
        return max(values)
    if spec.func == "avg":
        return float(sum(values)) / len(values)
    raise ExecutionError(f"unknown aggregate {spec.func!r}")


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------
def _guard_pair_count(n: int, m: int, what: str) -> None:
    if n * m > MAX_CROSS_ROWS:
        raise ResourceLimitError(
            f"{what} of {n} x {m} rows exceeds the safety limit"
        )


def _guard_degenerate_join(total: int, n: int, m: int) -> None:
    """Two-tier guard for equi-join outputs.  At MAX_CROSS_ROWS the
    join trips only when the output is also cross-product *shaped*
    (within 2x of |L| x |R|) — a genuinely selective join may
    legitimately exceed the cross-product cap, while a degenerate key
    distribution is just the cross-product failure mode wearing an ON
    clause.  MAX_JOIN_ROWS is the absolute ceiling for any shape."""
    if total > MAX_CROSS_ROWS and 2 * total >= n * m:
        raise ResourceLimitError(
            f"hash join would produce {total} rows from {n} x {m} inputs "
            "(degenerate key distribution exceeds the safety limit)"
        )
    if total > MAX_JOIN_ROWS:
        raise ResourceLimitError(
            f"hash join would produce {total} rows, "
            f"exceeding the {MAX_JOIN_ROWS}-row safety limit"
        )


def _exec_hash_join(plan: pp.PHashJoin, ctx: ExecContext) -> Batch:
    if plan.probe_zone and ctx.vectorized and ctx.compression:
        left, right = _exec_join_inputs_zoned(plan, ctx)
    else:
        left = execute_plan(plan.left, ctx)
        right = execute_plan(plan.right, ctx)
    indices = None
    if (
        ctx.vectorized
        and plan.pairs
        and ctx.accountant.active
        and ctx.spill_manager is not None
        and left.num_rows + right.num_rows > SPILL_CHUNK_ROWS
        and ctx.accountant.decide(
            "join",
            estimate_batch_bytes(left.columns)
            + estimate_batch_bytes(right.columns),
        )
    ):
        indices = _spilled_hash_join(plan, left, right, ctx)
    if indices is not None:
        li, ri = indices
    elif plan.build_left:
        # build the hash table on the (estimated) smaller left side, then
        # restore the probe-side output order so results are identical to
        # the build-right plan
        swapped = [(b, a) for a, b in plan.pairs]
        ri, li = _hash_join_indices(right, left, swapped, ctx)
        order = np.argsort(li, kind="stable")
        li, ri = li[order], ri[order]
    else:
        li, ri = _hash_join_indices(left, right, plan.pairs, ctx)
    joined = Batch(
        plan.left.schema + plan.right.schema,
        _take_columns(left.columns, li, ctx) + _take_columns(right.columns, ri, ctx),
    )
    if plan.residual:
        joined, li = _apply_residual(plan.residual, joined, li, ctx)
    if plan.kind == "left":
        joined = _add_unmatched_left(plan, left, joined, li)
    return joined.relabel(plan.schema)


def _exec_join_inputs_zoned(plan: pp.PHashJoin, ctx: ExecContext):
    """Execute the build side first and install its key range as
    dynamic zone predicates on the probe side's base scan — zone maps
    pruning join probes, not only pushed-down filters.  Kept morsels
    stay in row order, so the probe batch is the zone-pruned
    equivalent of the plain scan and the join output is unchanged
    (pruned zones cannot contain a matching key).  When the build side
    is the *right* input, a failing build falls back to executing the
    left input so the materialized plan's left-then-right error
    surfacing is preserved."""
    build_plan, probe_plan = (
        (plan.left, plan.right) if plan.build_left else (plan.right, plan.left)
    )
    base = probe_plan
    while isinstance(base, pp.PFilter):
        base = base.input
    if not isinstance(base, pp.PScan):
        return execute_plan(plan.left, ctx), execute_plan(plan.right, ctx)
    if plan.build_left:
        build = execute_plan(build_plan, ctx)
    else:
        try:
            build = execute_plan(build_plan, ctx)
        except Exception:
            # the materialized plan runs left before right: give the
            # left (probe) input the chance to raise its own error
            # first, as it would have; if it runs clean, the build
            # side's failure is the one the plain order reports too
            execute_plan(probe_plan, ctx)
            raise
    preds = []
    for pair_index, column_name in plan.probe_zone:
        pair = plan.pairs[pair_index]
        build_expr = pair[0] if plan.build_left else pair[1]
        key = ctx.eval(build_expr, build)
        if key.data.dtype.kind not in "iufb":
            continue
        valid = ~key.null_mask()
        if key.data.dtype.kind == "f":
            valid &= ~np.isnan(key.data)
        vals = key.data[valid]
        if not len(vals):
            continue  # empty build side: nothing to bound probes by
        preds.append(
            ZonePredicate(column_name, ">=", (("lit", vals.min().item()),))
        )
        preds.append(
            ZonePredicate(column_name, "<=", (("lit", vals.max().item()),))
        )
    if preds:
        if ctx.storage_counters is not None:
            ctx.storage_counters.note_dynamic("join_probe")
        entry = ctx.dynamic_zones.setdefault(id(base), [])
        entry.extend(preds)
        try:
            probe = execute_plan(probe_plan, ctx)
        finally:
            del entry[-len(preds):]
            if not entry:
                ctx.dynamic_zones.pop(id(base), None)
    else:
        probe = execute_plan(probe_plan, ctx)
    if plan.build_left:
        return build, probe
    return probe, build


def _spilled_hash_join(
    plan: pp.PHashJoin, left: Batch, right: Batch, ctx: ExecContext
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Equi-join with both inputs' (row, key-code) pairs radix-
    partitioned into spill files, joined one partition at a time.

    Key codes come from the kernels' shared dictionary (NULLs excluded
    up front, NaNs coded distinct — never matching, like the in-memory
    probe), so every matching pair falls in exactly one partition and
    the union over partitions is exactly the in-memory pair set; the
    final lexsort restores probe order (ascending left row, ascending
    right row within), the unique order every in-memory path emits.
    Returns None when the keys cannot be codified — the caller then
    runs the unchanged in-memory paths."""
    left_keys = [ctx.eval(a, left) for a, _ in plan.pairs]
    right_keys = [ctx.eval(b, right) for _, b in plan.pairs]
    n_left, n_right = left.num_rows, right.num_rows
    try:
        l_ids, r_ids, _radix = kernels._joint_codes(
            left_keys, right_keys, n_left, n_right, par=ctx.parallel
        )
    except KernelFallback:
        return None
    left_valid = np.ones(n_left, dtype=np.bool_)
    for column in left_keys:
        if column.mask is not None:
            left_valid &= ~column.mask
    right_valid = np.ones(n_right, dtype=np.bool_)
    for column in right_keys:
        if column.mask is not None:
            right_valid &= ~column.mask
    est = estimate_batch_bytes(left.columns) + estimate_batch_bytes(
        right.columns
    )
    parts = ctx.accountant.partition_count(est)
    lparts = ctx.spill_manager.partitions(parts, "joinl")
    rparts = ctx.spill_manager.partitions(parts, "joinr")
    out_li, out_ri = [], []
    running = 0
    try:
        for ids, valid, sink, n in (
            (l_ids, left_valid, lparts, n_left),
            (r_ids, right_valid, rparts, n_right),
        ):
            for ms in range(0, n, SPILL_CHUNK_ROWS):
                me = min(ms + SPILL_CHUNK_ROWS, n)
                sel = np.flatnonzero(valid[ms:me]).astype(np.int64)
                if not len(sel):
                    continue
                codes = ids[ms:me][sel]
                sink.add(
                    codes % parts,
                    [
                        Column(DataType.BIGINT, sel + ms),
                        Column(DataType.BIGINT, codes),
                    ],
                )
        # the codes now live in the spill partitions; drop the full-size
        # id/validity arrays before the per-partition joins allocate
        del l_ids, r_ids, left_valid, right_valid, left_keys, right_keys
        for part in range(parts):
            lcols = lparts.read_partition(part)
            rcols = rparts.read_partition(part)
            if lcols is None or rcols is None:
                continue
            lrows, lcodes = lcols[0].data, lcols[1].data
            rrows, rcodes = rcols[0].data, rcols[1].data

            def _part_guard(total, _n, _m, base=running):
                # cumulative check against the *global* input shape —
                # monotone in the pair total, so it trips iff the
                # in-memory join's one-shot guard would
                _guard_degenerate_join(base + total, n_left, n_right)

            pli, pri = kernels._sorted_equi_join(
                lcodes,
                rcodes,
                np.ones(len(lcodes), dtype=np.bool_),
                np.ones(len(rcodes), dtype=np.bool_),
                _part_guard,
                ctx.parallel,
            )
            running += len(pli)
            if len(pli):
                out_li.append(lrows[pli])
                out_ri.append(rrows[pri])
    finally:
        lparts.close()
        rparts.close()
    if out_li:
        li = np.concatenate(out_li)
        ri = np.concatenate(out_ri)
        order = np.lexsort((ri, li))
        li, ri = li[order], ri[order]
    else:
        li = np.empty(0, dtype=np.int64)
        ri = np.empty(0, dtype=np.int64)
    ctx.kernel_hit("join")
    return li, ri


def _apply_residual(residual, joined: Batch, li, ctx: ExecContext):
    keep = np.ones(joined.num_rows, dtype=np.bool_)
    for conjunct in residual:
        col = ctx.eval(conjunct, joined)
        hit = col.data.astype(np.bool_)
        if col.mask is not None:
            hit &= ~col.mask
        keep &= hit
    return joined.filter(keep), li[keep]


def _exec_nested_loop_join(plan: pp.PNestedLoopJoin, ctx: ExecContext) -> Batch:
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    n, m = left.num_rows, right.num_rows
    _guard_pair_count(n, m, "nested-loop join")
    li = np.repeat(np.arange(n, dtype=np.int64), m)
    ri = np.tile(np.arange(m, dtype=np.int64), n)
    joined = Batch(
        plan.left.schema + plan.right.schema,
        [c.take(li) for c in left.columns] + [c.take(ri) for c in right.columns],
    )
    joined, li = _apply_residual(plan.residual, joined, li, ctx)
    if plan.kind == "left":
        joined = _add_unmatched_left(plan, left, joined, li)
    return joined.relabel(plan.schema)


def _exec_cross_join(plan: pp.PCrossJoin, ctx: ExecContext) -> Batch:
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    n, m = left.num_rows, right.num_rows
    _guard_pair_count(n, m, "cross product")
    li = np.repeat(np.arange(n, dtype=np.int64), m)
    ri = np.tile(np.arange(m, dtype=np.int64), n)
    columns = [c.take(li) for c in left.columns] + [c.take(ri) for c in right.columns]
    if not columns:
        return ZeroColumnBatch(n * m)
    return Batch(plan.schema, columns)


def _hash_join_indices(left: Batch, right: Batch, pairs, ctx: ExecContext):
    left_keys = [ctx.eval(a, left) for a, _ in pairs]
    right_keys = [ctx.eval(b, right) for _, b in pairs]
    if ctx.vectorized:
        try:
            result = kernels.join_indices(
                left_keys,
                right_keys,
                guard=_guard_degenerate_join,
                par=ctx.parallel,
            )
            ctx.kernel_hit("join")
            return result
        except KernelFallback as exc:
            ctx.kernel_fallback("join", exc)
    if len(pairs) == 1 and (
        left_keys[0].type is not None
        and left_keys[0].type.is_numeric
        and left_keys[0].type != DataType.DOUBLE
        and right_keys[0].type is not None
        and right_keys[0].type.is_numeric
        and right_keys[0].type != DataType.DOUBLE
    ):
        # the PR-2 single-integer-key fast path, part of the
        # vectorized=False oracle's behavior
        return _sorted_join_indices(left_keys[0], right_keys[0])
    table: dict[tuple, list[int]] = {}
    right_tuples = list(zip(*(col.to_pylist() for col in right_keys)))
    for j, key in enumerate(right_tuples):
        if any(v is None for v in key):
            continue
        table.setdefault(key, []).append(j)
    li: list[int] = []
    ri: list[int] = []
    left_tuples = list(zip(*(col.to_pylist() for col in left_keys)))
    for i, key in enumerate(left_tuples):
        if any(v is None for v in key):
            continue
        for j in table.get(key, ()):
            li.append(i)
            ri.append(j)
        if len(li) > MAX_CROSS_ROWS:
            _guard_degenerate_join(len(li), len(left_tuples), len(right_tuples))
    return np.asarray(li, dtype=np.int64), np.asarray(ri, dtype=np.int64)


def _sorted_join_indices(left_key: Column, right_key: Column):
    """Vectorized single-integer-key equi-join via sort + searchsorted.

    Orders of magnitude faster than the per-row dict probe for the large
    intermediate results that recursive CTE evaluation produces.
    """
    lk = left_key.data.astype(np.int64)
    rk = right_key.data.astype(np.int64)
    left_valid = ~left_key.null_mask()
    right_valid = ~right_key.null_mask()
    right_rows = np.flatnonzero(right_valid)
    order = right_rows[np.argsort(rk[right_rows], kind="stable")]
    sorted_rk = rk[order]
    left_rows = np.flatnonzero(left_valid)
    lo = np.searchsorted(sorted_rk, lk[left_rows], side="left")
    hi = np.searchsorted(sorted_rk, lk[left_rows], side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    _guard_degenerate_join(total, len(lk), len(rk))
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    li = np.repeat(left_rows, counts)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(lo - cum, counts) + np.arange(total, dtype=np.int64)
    ri = order[slots]
    return li, ri


def _add_unmatched_left(plan, left: Batch, joined: Batch, li):
    matched = np.zeros(left.num_rows, dtype=np.bool_)
    if len(li):
        matched[li] = True
    missing = np.flatnonzero(~matched)
    if len(missing) == 0:
        return joined
    left_part = [c.take(missing) for c in left.columns]
    null_part = [
        Column.nulls(c.type or DataType.VARCHAR, len(missing))
        for c in plan.right.schema
    ]
    extra = Batch(plan.left.schema + plan.right.schema, left_part + null_part)
    columns = [
        Column.concat([a, b]) for a, b in zip(joined.columns, extra.columns)
    ]
    return Batch(joined.schema, columns)


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------
def _exec_setop(plan: pp.PSetOp, ctx: ExecContext) -> Batch:
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    left = _coerce_batch(left, plan.schema)
    right = _coerce_batch(right, plan.schema)
    if plan.op == "union":
        columns = [_concat_promote(a, b) for a, b in zip(left.columns, right.columns)]
        if not columns:
            result = ZeroColumnBatch(left.num_rows + right.num_rows)
        else:
            result = Batch(plan.schema, columns)
        if plan.all:
            return result
        return _distinct_batch(result, ctx)
    if ctx.vectorized:
        try:
            keep = kernels.setop_mask(
                left.columns,
                left.num_rows,
                right.columns,
                right.num_rows,
                keep_members=plan.op == "intersect",
                par=ctx.parallel,
            )
            ctx.kernel_hit("setop")
            return left.filter(keep)
        except KernelFallback as exc:
            ctx.kernel_fallback("setop", exc)
    right_keys = set(_batch_rows(right))
    keep = np.zeros(left.num_rows, dtype=np.bool_)
    seen: set = set()
    for i, key in enumerate(_batch_rows(left)):
        if key in seen:
            continue
        member = key in right_keys
        if (plan.op == "intersect" and member) or (plan.op == "except" and not member):
            keep[i] = True
            seen.add(key)
    return left.filter(keep)


def _concat_promote(left: Column, right: Column) -> Column:
    """Concatenate two columns, promoting numeric widths when they differ
    (host parameters have no static type, so INTEGER/BIGINT mixes are
    only discovered at runtime)."""
    if left.type != right.type:
        from ..storage import promote

        target = promote(left.type, right.type)
        left = left.cast(target)
        right = right.cast(target)
    return Column.concat([left, right])


def _coerce_batch(batch: Batch, schema: tuple[lp.PlanColumn, ...]) -> Batch:
    columns = []
    for col, out in zip(batch.columns, schema):
        if out.type is not None and col.type != out.type:
            col = col.cast(out.type)
        columns.append(col)
    return Batch(schema, columns) if columns else ZeroColumnBatch(batch.num_rows)


# ---------------------------------------------------------------------------
# recursive CTEs
# ---------------------------------------------------------------------------
def _exec_materialize(plan: pp.PMaterialize, ctx: ExecContext) -> Batch:
    result = execute_plan(plan.definition, ctx)
    previous = ctx.cte_tables.get(plan.cte_name)
    ctx.cte_tables[plan.cte_name] = result
    try:
        return execute_plan(plan.body, ctx)
    finally:
        if previous is None:
            ctx.cte_tables.pop(plan.cte_name, None)
        else:
            ctx.cte_tables[plan.cte_name] = previous


def _exec_recursive(plan: pp.PRecursive, ctx: ExecContext) -> Batch:
    accumulated = _coerce_batch(execute_plan(plan.base, ctx), plan.schema)
    seen: Optional[set] = None
    # vectorized dedup carries no row-key set across iterations: each
    # delta is checked against the accumulated batch by codified ids.
    # On the first uncodifiable batch we build the seen-set from the
    # accumulated rows and continue row-at-a-time.
    use_kernels = ctx.vectorized and not plan.union_all
    if not plan.union_all:
        if use_kernels:
            try:
                accumulated = accumulated.filter(
                    kernels.distinct_mask(
                        accumulated.columns, accumulated.num_rows, ctx.parallel
                    )
                )
                ctx.kernel_hit("dedup")
            except KernelFallback as exc:
                ctx.kernel_fallback("dedup", exc)
                use_kernels = False
        if not use_kernels:
            seen = set()
            accumulated = _dedup_batch(accumulated, seen)
    delta = accumulated
    steps = 0
    previous = ctx.cte_tables.get(plan.cte_name)
    try:
        while delta.num_rows:
            steps += 1
            if steps > MAX_RECURSION_STEPS:
                raise ExecutionError(
                    f"recursive CTE {plan.cte_name!r} exceeded "
                    f"{MAX_RECURSION_STEPS} iterations"
                )
            ctx.cte_tables[plan.cte_name] = delta
            produced = execute_plan(plan.recursive, ctx)
            produced = _coerce_batch(produced, plan.schema)
            if plan.union_all:
                delta = produced
            else:
                if use_kernels and (
                    accumulated.num_rows >= 1024
                    and produced.num_rows * DEDUP_DELTA_FRACTION
                    < accumulated.num_rows
                ):
                    # thin deltas: re-codifying the whole accumulated
                    # batch every step no longer pays — build the
                    # incremental seen-set once and stay row-at-a-time
                    use_kernels = False
                    seen = set(_batch_rows(accumulated))
                if use_kernels:
                    try:
                        delta = produced.filter(
                            kernels.new_rows_mask(
                                accumulated.columns,
                                accumulated.num_rows,
                                produced.columns,
                                produced.num_rows,
                                ctx.parallel,
                            )
                        )
                        ctx.kernel_hit("dedup")
                    except KernelFallback as exc:
                        ctx.kernel_fallback("dedup", exc)
                        use_kernels = False
                        seen = set(_batch_rows(accumulated))
                if not use_kernels:
                    delta = _dedup_batch(produced, seen)
            if delta.num_rows:
                accumulated = Batch(
                    plan.schema,
                    [
                        _concat_promote(a, b)
                        for a, b in zip(accumulated.columns, delta.columns)
                    ],
                )
    finally:
        if previous is None:
            ctx.cte_tables.pop(plan.cte_name, None)
        else:
            ctx.cte_tables[plan.cte_name] = previous
    return accumulated


def _dedup_batch(batch: Batch, seen: set) -> Batch:
    keep = np.zeros(batch.num_rows, dtype=np.bool_)
    for i, key in enumerate(_batch_rows(batch)):
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return batch.filter(keep)


# ---------------------------------------------------------------------------
# UNNEST (Section 3.3)
# ---------------------------------------------------------------------------
def _exec_unnest(plan: pp.PUnnest, ctx: ExecContext) -> Batch:
    from ..nested import NestedTableValue

    batch = execute_plan(plan.input, ctx)
    operand = ctx.eval(plan.operand, batch)
    n = batch.num_rows
    repeats = np.zeros(n, dtype=np.int64)
    values: list[Optional[NestedTableValue]] = []
    for i in range(n):
        value = operand.value(i)
        values.append(value)
        count = len(value) if isinstance(value, NestedTableValue) else 0
        repeats[i] = max(count, 1) if plan.outer else count
    input_indices = np.repeat(np.arange(n, dtype=np.int64), repeats)
    input_part = [c.take(input_indices) for c in batch.columns]

    # fast path: every non-empty nested table shares one source batch
    sources = {id(v.source) for v in values if isinstance(v, NestedTableValue) and len(v)}
    total = int(repeats.sum())
    nested_columns: list[Column] = []
    ordinality_values = np.zeros(total, dtype=np.int64)
    ordinality_mask = np.zeros(total, dtype=np.bool_)
    if len(sources) <= 1:
        source = None
        for v in values:
            if isinstance(v, NestedTableValue) and len(v):
                source = v.source
                break
        gather: list[np.ndarray] = []
        null_rows: list[int] = []  # positions (in output) that are padding
        cursor = 0
        for i, value in enumerate(values):
            count = len(value) if isinstance(value, NestedTableValue) else 0
            if count:
                gather.append(value.row_ids)
                ordinality_values[cursor : cursor + count] = np.arange(1, count + 1)
                cursor += count
            elif plan.outer:
                null_rows.append(cursor)
                ordinality_mask[cursor] = True
                cursor += 1
        row_ids = (
            np.concatenate(gather) if gather else np.empty(0, dtype=np.int64)
        )
        # build each nested output column: gathered values with padding holes
        for position, out_col in enumerate(plan.unnested):
            if source is not None:
                base = source.columns[position].take(row_ids)
            else:
                base = Column.empty(out_col.type or DataType.VARCHAR)
            if null_rows:
                nested_columns.append(
                    _scatter_with_nulls(base, total, null_rows, out_col.type)
                )
            else:
                nested_columns.append(base)
    else:
        # mixed sources (e.g. a union of two path columns): per-row gather
        parts_per_column: list[list[Column]] = [[] for _ in plan.unnested]
        cursor = 0
        for value in values:
            count = len(value) if isinstance(value, NestedTableValue) else 0
            if count:
                for position in range(len(plan.unnested)):
                    parts_per_column[position].append(
                        value.source.columns[position].take(value.row_ids)
                    )
                ordinality_values[cursor : cursor + count] = np.arange(1, count + 1)
                cursor += count
            elif plan.outer:
                for position, out_col in enumerate(plan.unnested):
                    parts_per_column[position].append(
                        Column.nulls(out_col.type or DataType.VARCHAR, 1)
                    )
                ordinality_mask[cursor] = True
                cursor += 1
        for position, out_col in enumerate(plan.unnested):
            parts = parts_per_column[position]
            nested_columns.append(
                Column.concat(parts)
                if parts
                else Column.empty(out_col.type or DataType.VARCHAR)
            )
    columns = input_part + nested_columns
    if plan.ordinality is not None:
        columns.append(
            Column(
                DataType.BIGINT,
                ordinality_values,
                ordinality_mask if ordinality_mask.any() else None,
            )
        )
    return Batch(plan.schema, columns)


def _scatter_with_nulls(base: Column, total: int, null_rows: list[int], type_):
    type_ = type_ or base.type
    data = np.empty(total, dtype=base.data.dtype)
    if base.data.dtype != np.dtype(object):
        data[:] = 0
    mask = np.zeros(total, dtype=np.bool_)
    null_set = set(null_rows)
    src_i = 0
    for out_i in range(total):
        if out_i in null_set:
            mask[out_i] = True
        else:
            data[out_i] = base.data[src_i]
            if base.mask is not None and base.mask[src_i]:
                mask[out_i] = True
            src_i += 1
    return Column(base.type, data, mask if mask.any() else None)


# ---------------------------------------------------------------------------
# dispatch table (graph operators registered by graph_ops to avoid cycle)
# ---------------------------------------------------------------------------
_DISPATCH = {
    pp.PScan: _exec_scan,
    pp.PSingleRow: _exec_single_row,
    pp.PValues: _exec_values,
    pp.PCTERef: _exec_cte_ref,
    pp.PFilter: _exec_filter,
    pp.PProject: _exec_project,
    pp.PLimit: _exec_limit,
    pp.PDistinct: _exec_distinct,
    pp.PSort: _exec_sort,
    pp.PAggregate: _exec_aggregate,
    pp.PHashJoin: _exec_hash_join,
    pp.PNestedLoopJoin: _exec_nested_loop_join,
    pp.PCrossJoin: _exec_cross_join,
    pp.PSetOp: _exec_setop,
    pp.PMaterialize: _exec_materialize,
    pp.PRecursive: _exec_recursive,
    pp.PUnnest: _exec_unnest,
}


def register_operator(node_type, handler) -> None:
    """Extension hook used by :mod:`repro.exec.graph_ops`."""
    _DISPATCH[node_type] = handler
