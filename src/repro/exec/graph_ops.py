"""Physical graph select / graph join.

This module is the executor counterpart of the paper's code-generation
stage (Section 3.1):

1. the edge-table expression is executed and fully materialized;
2. the vertex set ``V = S ∪ D`` is computed and the X/Y endpoint values
   are joined with it ("an initial filtering on the values that are not
   vertices");
3. the weights attached to each CHEAPEST SUM are materialized by
   evaluating the weight expression over the edge batch (strictly
   positive, or a runtime exception);
4. all keys are translated into the dense domain ``H = {0..|V|-1}`` and
   the external graph library is invoked;
5. the result set is materialized back: connected tuples are kept, cost
   columns appended, and paths wrapped as nested-table values pointing
   into the edge batch (Section 3.3).

The graph-index cache (the paper's Section 6 future work) keys a
prepared, *unweighted* domain+CSR on (table, S, D, table version).  A
library the index serves also keeps its weighted views, keyed by the
weight expression (columns by edge-table name, host parameters by their
bound values) and the edge-table version: step 3 — evaluating, checking
and gathering the weights into CSR order — runs once per expression and
table version, and later statements reuse it.  A weight expression the
key cannot name (a subquery, say) and a library built for an un-indexed
statement build their view for the one statement.  An indexed library
also keeps its transpose, so its unweighted single-target pairs — point
Q13 and most of batched Q13 — run bidirectional search; a library built
for an un-indexed statement keeps forward BFS (see
:mod:`repro.graph.library`).  Every library call reports which searches
ran to the database's graph-index counters, and every weighted view an
indexed library serves counts as a weight build or hit there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphRuntimeError, ResourceLimitError
from ..graph import GraphLibrary
from ..nested import NestedTableValue
from ..plan import exprs as bx
from ..plan import logical as lp
from ..plan import physical as pp
from ..storage import Column, DataType
from .batch import Batch
from .operators import ExecContext, execute_plan, register_operator

#: Guard for the pair matrix materialized by a graph join.
MAX_JOIN_CELLS = 200_000_000


# ---------------------------------------------------------------------------
# building the prepared graph (with the §6 index cache)
# ---------------------------------------------------------------------------
def _composite_array(columns: list) -> np.ndarray:
    """One key array from one or more columns.

    Single-attribute keys pass the raw data through; composite keys (the
    paper's multi-attribute extension) become object arrays of tuples,
    which the vertex domain dictionary-encodes like any other key.
    """
    if len(columns) == 1:
        return columns[0].data
    n = len(columns[0])
    datas = [c.data for c in columns]
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = tuple(d[i] for d in datas)
    return out


def _edge_keys(edge_batch: Batch, spec: lp.GraphSpec):
    """Raw S/D key arrays plus the row filter removing NULL endpoints."""
    src_columns = [edge_batch.column_by_id(c.col_id) for c in spec.src_cols]
    dst_columns = [edge_batch.column_by_id(c.col_id) for c in spec.dst_cols]
    valid = np.ones(edge_batch.num_rows, dtype=np.bool_)
    for column in src_columns + dst_columns:
        valid &= ~column.null_mask()
    return _composite_array(src_columns), _composite_array(dst_columns), valid


def _encode_endpoints(
    ctx: ExecContext, exprs, batch: Batch, library: GraphLibrary
) -> np.ndarray:
    """Evaluate the X/Y endpoint expression tuple and encode it into H.

    NULL endpoints can reach nothing: their slots are forced to
    NOT_A_VERTEX after encoding (a NULL never joins with V).
    """
    from ..graph import NOT_A_VERTEX

    columns = [ctx.eval(e, batch) for e in exprs]
    keys = _composite_array(columns)
    ids = library.domain.encode(keys)
    for column in columns:
        if column.mask is not None:
            ids[column.mask] = NOT_A_VERTEX
    return ids


def _materialize_weights(
    ctx: ExecContext, edge_batch: Batch, cheapest: lp.CheapestSpec, valid: np.ndarray
) -> np.ndarray:
    """The weight vector of one weighted CHEAPEST SUM, one value per
    edge row with non-NULL endpoints."""
    column = ctx.eval(cheapest.weight, edge_batch)
    if column.mask is not None and (column.mask & valid).any():
        raise GraphRuntimeError("CHEAPEST SUM weight must not be NULL")
    if column.type is not None and not column.type.is_numeric:
        raise GraphRuntimeError("CHEAPEST SUM weight must be numeric")
    weights = column.data
    if weights.dtype.kind not in "iuf":
        raise GraphRuntimeError("CHEAPEST SUM weight must be numeric")
    return weights if valid.all() else weights[valid]


class _Unkeyable(Exception):
    """The weight expression holds a node :func:`_weight_key` cannot name."""


def _weight_key(expr: bx.BoundExpr, edge_plan: pp.PScan, params: tuple):
    """A hashable key for what ``expr`` computes over the edge table, or
    None when it cannot be named (subqueries, aggregates, unknown nodes).

    Columns become edge-table column names, since column ids differ
    between plans of one query; host parameters become their bound
    values, since literal normalization turns constants into
    parameters.
    """
    names = {column.col_id: column.name.lower() for column in edge_plan.schema}

    def key(node):
        if isinstance(node, bx.BColumn):
            if node.col_id not in names:  # an outer query's column
                raise _Unkeyable(node.name)
            return ("column", names[node.col_id])
        if isinstance(node, bx.BParam):
            if node.index >= len(params):  # the executor reports it
                raise _Unkeyable("parameter")
            value = params[node.index]
            return ("param", type(value), value)
        if isinstance(node, bx.BLiteral):
            return ("literal", node.type, type(node.value), node.value)
        if isinstance(node, bx.BCall):
            return ("call", node.op, node.type, *map(key, node.args))
        if isinstance(node, bx.BCast):
            return ("cast", node.type, key(node.operand))
        if isinstance(node, bx.BIsNull):
            return ("isnull", node.negated, key(node.operand))
        if isinstance(node, bx.BInList):
            return ("in", node.negated, key(node.operand), *map(key, node.items))
        if isinstance(node, bx.BCase):
            whens = tuple((key(test), key(then)) for test, then in node.whens)
            otherwise = None if node.else_ is None else key(node.else_)
            return ("case", node.type, whens, otherwise)
        raise _Unkeyable(type(node).__name__)

    try:
        result = key(expr)
    except _Unkeyable:
        return None
    try:
        hash(result)
    except TypeError:  # an unhashable parameter value
        return None
    return result


def _weighted_library(
    ctx: ExecContext,
    base: GraphLibrary,
    version_id: Optional[int],
    edge_plan,
    edge_batch: Batch,
    cheapest: lp.CheapestSpec,
    valid: np.ndarray,
) -> GraphLibrary:
    """The weighted view of ``base`` for one CHEAPEST SUM.

    A library a graph index holds keeps its views per (weight key,
    table version); any other library, or a weight without a key, builds
    the view for this statement only."""

    def weights() -> np.ndarray:
        return _materialize_weights(ctx, edge_batch, cheapest, valid)

    key = None
    if base.indexed and version_id is not None:
        key = _weight_key(cheapest.weight, edge_plan, ctx.params)
    if key is None:
        return base.with_weights(weights())
    view, built = base.weighted_view(key, version_id, weights)
    ctx.database.graph_indices.note_weighted_view(built)
    return view


def _library_from_cache(ctx: ExecContext, edge_plan, spec: lp.GraphSpec):
    """Reuse a prepared domain+CSR when a graph index covers this edge plan.

    Returns (library or None, the snapshot's edge-table version id or
    None).  The lookup is pinned to the statement's snapshot version of
    the edge table, so a cached CSR built from a newer committed state
    is never served to an older snapshot (and vice versa).
    """
    database = ctx.database
    if database is None or not isinstance(edge_plan, pp.PScan):
        return None, None
    if len(spec.src_cols) != 1:
        return None, None  # graph indices cover single-attribute keys only
    table_version = (
        ctx.snapshot.table_version(edge_plan.table)
        if ctx.snapshot is not None
        else None
    )
    library = database.lookup_graph_index(
        edge_plan.table,
        spec.src_cols[0].name,
        spec.dst_cols[0].name,
        table_version=table_version,
    )
    if table_version is None:
        return library, None
    return library, table_version.version_id


def _prepare_libraries(
    ctx: ExecContext, edge_plan, edge_batch: Batch, spec: lp.GraphSpec
):
    """One GraphLibrary per distinct weighting (plus the unweighted base).

    Returns (base_library, [(cheapest_spec, library)]).  ``base_library``
    answers the pure reachability question and is unweighted; per-spec
    libraries share its vertex domain and CSR ordering.
    """
    src, dst, valid = _edge_keys(edge_batch, spec)
    base, version_id = _library_from_cache(ctx, edge_plan, spec)
    if base is None:
        # only a graph-index miss needs the filtered key copies
        base = GraphLibrary(src[valid], dst[valid])
    weighted: list[tuple[lp.CheapestSpec, GraphLibrary]] = []
    for cheapest in spec.cheapest:
        if cheapest.constant_one:
            weighted.append((cheapest, base))
        else:
            weighted.append(
                (
                    cheapest,
                    _weighted_library(
                        ctx, base, version_id, edge_plan, edge_batch, cheapest, valid
                    ),
                )
            )
    # map positions in the filtered edge set back to edge-batch rows
    original_rows = np.flatnonzero(valid).astype(np.int64)
    return base, weighted, original_rows


def _solve(ctx: ExecContext, library: GraphLibrary, sources, dests, **wants):
    """One library call on the statement's pool, counted in the
    database's graph-index traversal counters."""
    result = library.solve_encoded(sources, dests, par=ctx.parallel, **wants)
    if ctx.database is not None:
        ctx.database.graph_indices.note_solve(result)
    return result


def _path_column(
    edge_batch: Batch,
    original_rows: np.ndarray,
    paths: list[Optional[np.ndarray]],
    keep: np.ndarray,
) -> Column:
    """Wrap per-pair path row ids (filtered-edge positions) as values."""
    data = np.empty(int(keep.sum()), dtype=object)
    cursor = 0
    for position in np.flatnonzero(keep):
        path = paths[position]
        rows = original_rows[path] if path is not None else np.empty(0, np.int64)
        data[cursor] = NestedTableValue(edge_batch, rows)
        cursor += 1
    return Column(DataType.NESTED_TABLE, data)


def _cost_column(costs: np.ndarray, keep: np.ndarray, type_) -> Column:
    values = costs[keep]
    if type_ == DataType.DOUBLE:
        return Column(DataType.DOUBLE, values.astype(np.float64))
    return Column(DataType.BIGINT, values.astype(np.int64))


# ---------------------------------------------------------------------------
# graph select
# ---------------------------------------------------------------------------
def _exec_graph_select(plan: pp.PGraphSelect, ctx: ExecContext) -> Batch:
    edge_batch = execute_plan(plan.edge, ctx)
    input_batch = execute_plan(plan.input, ctx)
    spec = plan.spec
    base, weighted, original_rows = _prepare_libraries(
        ctx, plan.edge, edge_batch, spec
    )
    sources = _encode_endpoints(ctx, spec.source, input_batch, base)
    dests = _encode_endpoints(ctx, spec.dest, input_batch, base)

    if not spec.cheapest:
        result = _solve(ctx, base, sources, dests)
        return input_batch.filter(result.connected)

    keep: Optional[np.ndarray] = None
    extra_schema: list[lp.PlanColumn] = []
    extra_columns: list[Column] = []
    for cheapest, library in weighted:
        want_path = cheapest.path is not None
        result = _solve(
            ctx, library, sources, dests, want_cost=True, want_path=want_path
        )
        if keep is None:
            keep = result.connected
        extra_schema.append(cheapest.cost)
        extra_columns.append(_cost_column(result.costs, keep, cheapest.cost.type))
        if want_path:
            extra_schema.append(cheapest.path)
            extra_columns.append(
                _path_column(edge_batch, original_rows, result.paths, keep)
            )
    filtered = input_batch.filter(keep)
    return filtered.append_columns(extra_schema, extra_columns)


# ---------------------------------------------------------------------------
# graph join
# ---------------------------------------------------------------------------
def _exec_graph_join(plan: pp.PGraphJoin, ctx: ExecContext) -> Batch:
    edge_batch = execute_plan(plan.edge, ctx)
    left_batch = execute_plan(plan.left, ctx)
    right_batch = execute_plan(plan.right, ctx)
    spec = plan.spec
    base, weighted, original_rows = _prepare_libraries(
        ctx, plan.edge, edge_batch, spec
    )
    left_ids = _encode_endpoints(ctx, spec.source, left_batch, base)
    right_ids = _encode_endpoints(ctx, spec.dest, right_batch, base)
    n, m = len(left_ids), len(right_ids)
    if n * m > MAX_JOIN_CELLS:
        raise ResourceLimitError(
            f"graph join over {n} x {m} candidate pairs exceeds the safety limit"
        )

    # deduplicate endpoint *ids*: traversals run once per distinct pair
    uniq_left, inv_left = np.unique(left_ids, return_inverse=True)
    uniq_right, inv_right = np.unique(right_ids, return_inverse=True)
    ul, ur = len(uniq_left), len(uniq_right)
    grid_src = np.repeat(uniq_left, ur)
    grid_dst = np.tile(uniq_right, ul)

    solutions = []
    if not spec.cheapest:
        solutions.append((None, _solve(ctx, base, grid_src, grid_dst)))
    else:
        for cheapest, library in weighted:
            solutions.append(
                (
                    cheapest,
                    _solve(
                        ctx,
                        library,
                        grid_src,
                        grid_dst,
                        want_cost=True,
                        want_path=cheapest.path is not None,
                    ),
                )
            )
    connected_grid = solutions[0][1].connected.reshape(ul, ur)
    pair_matrix = connected_grid[inv_left][:, inv_right]
    li, ri = np.nonzero(pair_matrix)
    flat = inv_left[li] * ur + inv_right[ri]

    columns = [c.take(li) for c in left_batch.columns] + [
        c.take(ri) for c in right_batch.columns
    ]
    schema = plan.left.schema + plan.right.schema
    out = Batch(schema, columns)
    extra_schema: list[lp.PlanColumn] = []
    extra_columns: list[Column] = []
    for cheapest, solution in solutions:
        if cheapest is None:
            continue
        extra_schema.append(cheapest.cost)
        cost_values = solution.costs[flat]
        extra_columns.append(
            Column(
                DataType.DOUBLE
                if cheapest.cost.type == DataType.DOUBLE
                else DataType.BIGINT,
                cost_values.astype(
                    np.float64 if cheapest.cost.type == DataType.DOUBLE else np.int64
                ),
            )
        )
        if cheapest.path is not None:
            data = np.empty(len(flat), dtype=object)
            for out_i, grid_i in enumerate(flat):
                path = solution.paths[grid_i]
                rows = (
                    original_rows[path] if path is not None else np.empty(0, np.int64)
                )
                data[out_i] = NestedTableValue(edge_batch, rows)
            extra_schema.append(cheapest.path)
            extra_columns.append(Column(DataType.NESTED_TABLE, data))
    out = out.append_columns(extra_schema, extra_columns)
    return out.relabel(plan.schema)


register_operator(pp.PGraphSelect, _exec_graph_select)
register_operator(pp.PGraphJoin, _exec_graph_join)
