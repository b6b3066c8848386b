"""Reference executors for differential tests of the kernels and storage.

Two contexts, beside ``reference_plan``'s reference planner:

* :func:`row_at_a_time` installs row-at-a-time handlers for every
  key-driven operator — DISTINCT, GROUP BY and its aggregates, hash
  joins, set operations, ORDER BY and recursive-CTE dedup — through
  :func:`repro.exec.operators.register_operator`.  Production has one
  body per operator, its kernel; these handlers are the oracle the
  kernels are fuzzed against and the ``BENCH_exec.json`` baseline, and
  nothing else.  They group, deduplicate and join through Python hash
  tables over row tuples, sort with a stable multi-pass ``list.sort``
  and fold aggregates per group in Python.  They share with production
  only the plumbing around the keys (plan execution, expression
  evaluation, the key-type check of ``=``, residual filters and outer
  padding).  The NaN rule is written here independently of the
  kernels: NaN is greater than every number and less than NULL, so a
  sort key is ``(is_null, is_nan, value)``, MAX is NaN once a group
  holds one, and MIN skips NaN unless the group holds nothing else.
* :func:`plain_storage` keeps every column plain — ANALYZE and ``save``
  attach no resting encoding and build no zone map — and makes scans
  consult no zone map, so nothing is pruned.  ``save`` then writes the
  plain layout (every descriptor ``plain``, no ``.zones.npz``).

Both change module state for the duration of the ``with`` block, for
every database in the process; :class:`PlainDatabase` scopes
:func:`plain_storage` to the calls made on one database instead.
"""

from __future__ import annotations

import functools
import operator
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.errors import ExecutionError
from repro.exec import operators
from repro.exec.batch import Batch, ZeroColumnBatch
from repro.exec.operators import (
    MAX_CROSS_ROWS,
    MAX_RECURSION_STEPS,
    _add_unmatched_left,
    _apply_residual,
    _coerce_batch,
    _concat_promote,
    _guard_degenerate_join,
    _infer_output_type,
    _join_keys,
    execute_plan,
)
from repro.plan import physical as pp
from repro.storage import Column, encoding, promote, zonemap


def _rows(columns, n: int) -> list[tuple]:
    """Row tuples of ``columns`` (``n`` empty tuples for no columns)."""
    if not columns:
        return [()] * n
    return list(zip(*(column.to_pylist() for column in columns)))


def _dedup(batch: Batch, seen: set) -> Batch:
    """The rows of ``batch`` not in ``seen``, first occurrences only;
    adds them to ``seen``.  A fresh Python float per NaN slot makes
    every NaN its own key."""
    keep = np.zeros(batch.num_rows, dtype=np.bool_)
    for i, row in enumerate(_rows(batch.columns, batch.num_rows)):
        if row not in seen:
            seen.add(row)
            keep[i] = True
    return batch.filter(keep)


# ---------------------------------------------------------------------------
# DISTINCT and set operations
# ---------------------------------------------------------------------------
def _row_distinct(plan: pp.PDistinct, ctx) -> Batch:
    return _dedup(execute_plan(plan.input, ctx), set())


def _row_setop(plan: pp.PSetOp, ctx) -> Batch:
    left = _coerce_batch(execute_plan(plan.left, ctx), plan.schema)
    right = _coerce_batch(execute_plan(plan.right, ctx), plan.schema)
    if plan.op == "union":
        columns = [_concat_promote(a, b) for a, b in zip(left.columns, right.columns)]
        if columns:
            result = Batch(plan.schema, columns)
        else:
            result = ZeroColumnBatch(left.num_rows + right.num_rows)
        return result if plan.all else _dedup(result, set())
    for a, b in zip(left.columns, right.columns):
        if a.type != b.type:
            promote(a.type, b.type)  # the error UNION's concatenation raises
    members = set(_rows(right.columns, right.num_rows))
    keep = np.zeros(left.num_rows, dtype=np.bool_)
    seen: set = set()
    for i, row in enumerate(_rows(left.columns, left.num_rows)):
        if row in seen:
            continue
        if (row in members) == (plan.op == "intersect"):
            keep[i] = True
            seen.add(row)
    return left.filter(keep)


# ---------------------------------------------------------------------------
# ORDER BY
# ---------------------------------------------------------------------------
def _sort_key(value) -> tuple:
    """Ascending order: numbers, then NaN, then NULL.  NaN never reaches
    a comparison, so the order is total."""
    if value is None:
        return (1, 0, None)
    if value != value:
        return (0, 1, None)
    return (0, 0, value)


def _row_sort(plan: pp.PSort, ctx) -> Batch:
    """Stable multi-pass sort, least-significant key first; a descending
    pass reverses the key order, which puts NULL first, then NaN."""
    batch = execute_plan(plan.input, ctx)
    order = list(range(batch.num_rows))
    for key in reversed(plan.keys):
        values = ctx.eval(key.expr, batch).to_pylist()
        order.sort(key=lambda i: _sort_key(values[i]), reverse=not key.ascending)
    if plan.limit is not None:
        order = order[: plan.limit]
    return batch.take(np.asarray(order, dtype=np.int64))


# ---------------------------------------------------------------------------
# GROUP BY
# ---------------------------------------------------------------------------
def _sequential_sum(values: list):
    """Left to right from int 0, as ``sum()`` did before Python 3.12
    compensated float sums."""
    return functools.reduce(operator.add, values, 0)


def _aggregate(spec, values: list, rows: list[int]):
    if spec.func == "count_star":
        return len(rows)
    present = [values[i] for i in rows if values[i] is not None]
    if spec.distinct:
        present = list(dict.fromkeys(present))
    if spec.func == "count":
        return len(present)
    if not present:
        return None
    if spec.func == "sum":
        return _sequential_sum(present)
    if spec.func == "avg":
        return float(_sequential_sum(present)) / len(present)
    numbers = [v for v in present if v == v]
    if spec.func == "min":
        return min(numbers) if numbers else present[0]
    if spec.func == "max":
        return max(numbers) if len(numbers) == len(present) else float("nan")
    raise ExecutionError(f"unknown aggregate {spec.func!r}")


def _row_aggregate(plan: pp.PAggregate, ctx) -> Batch:
    batch = execute_plan(plan.input, ctx)
    keys = [ctx.eval(e, batch) for e in plan.group_exprs]
    args = [
        ctx.eval(a.arg, batch).to_pylist() if a.arg is not None else None
        for a in plan.aggs
    ]
    groups: dict[tuple, list[int]] = {}
    if keys:
        for i, key in enumerate(_rows(keys, batch.num_rows)):
            groups.setdefault(key, []).append(i)
    else:
        groups[()] = list(range(batch.num_rows))  # one group, even empty
    out_keys: list[list] = [[] for _ in keys]
    out_aggs: list[list] = [[] for _ in plan.aggs]
    for key, rows in groups.items():
        for j, value in enumerate(key):
            out_keys[j].append(value)
        for j, (spec, values) in enumerate(zip(plan.aggs, args)):
            out_aggs[j].append(_aggregate(spec, values, rows))
    columns = [
        Column.from_values(col_def.type or _infer_output_type(values), values)
        for col_def, values in zip(plan.schema, out_keys + out_aggs)
    ]
    return Batch(plan.schema, columns)


# ---------------------------------------------------------------------------
# equi-joins
# ---------------------------------------------------------------------------
def _row_hash_join(plan: pp.PHashJoin, ctx) -> Batch:
    """Dict probe: a NULL key component matches nothing, nor does NaN
    (a fresh float per slot).  Pairs come out in probe order."""
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    left_keys, right_keys = _join_keys(plan.pairs, left, right, ctx)
    n, m = left.num_rows, right.num_rows
    table: dict[tuple, list[int]] = {}
    for j, key in enumerate(_rows(right_keys, m)):
        if None not in key:
            table.setdefault(key, []).append(j)
    li: list[int] = []
    ri: list[int] = []
    for i, key in enumerate(_rows(left_keys, n)):
        if None in key:
            continue
        for j in table.get(key, ()):
            li.append(i)
            ri.append(j)
        if len(li) > MAX_CROSS_ROWS:
            _guard_degenerate_join(len(li), n, m)
    li = np.asarray(li, dtype=np.int64)
    ri = np.asarray(ri, dtype=np.int64)
    joined = Batch(
        plan.left.schema + plan.right.schema,
        [c.take(li) for c in left.columns] + [c.take(ri) for c in right.columns],
    )
    if plan.residual:
        joined, li = _apply_residual(plan.residual, joined, li, ctx)
    if plan.kind == "left":
        joined = _add_unmatched_left(plan, left, joined, li)
    return joined.relabel(plan.schema)


# ---------------------------------------------------------------------------
# recursive CTEs
# ---------------------------------------------------------------------------
def _row_recursive(plan: pp.PRecursive, ctx) -> Batch:
    """Semi-naive evaluation; UNION dedups every delta against one
    row-key set of everything produced so far."""
    accumulated = _coerce_batch(execute_plan(plan.base, ctx), plan.schema)
    seen = None if plan.union_all else set()
    if seen is not None:
        accumulated = _dedup(accumulated, seen)
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
            produced = _coerce_batch(execute_plan(plan.recursive, ctx), plan.schema)
            delta = produced if seen is None else _dedup(produced, seen)
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


#: The key-driven operators and their row-at-a-time handlers.
ROW_HANDLERS = {
    pp.PDistinct: _row_distinct,
    pp.PSort: _row_sort,
    pp.PAggregate: _row_aggregate,
    pp.PHashJoin: _row_hash_join,
    pp.PSetOp: _row_setop,
    pp.PRecursive: _row_recursive,
}


@contextmanager
def row_at_a_time():
    """Run every key-driven operator on its row-at-a-time handler."""
    saved = {node: operators._DISPATCH[node] for node in ROW_HANDLERS}
    try:
        for node, handler in ROW_HANDLERS.items():
            operators.register_operator(node, handler)
        yield
    finally:
        for node, handler in saved.items():
            operators.register_operator(node, handler)


@contextmanager
def plain_storage():
    """No resting encodings, no zone maps, no zone pruning."""
    with mock.patch.object(
        encoding, "choose_encoding", lambda column: None
    ), mock.patch.object(
        zonemap, "zone_map_for", lambda column, granularity=None: None
    ):
        yield


class PlainDatabase:
    """A :class:`~repro.Database` whose every method call runs under
    :func:`plain_storage`: the plain-storage side of a differential
    test, next to an ordinary database holding the same data."""

    def __init__(self, db):
        self._db = db

    def __getattr__(self, name):
        attr = getattr(self._db, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            with plain_storage():
                return attr(*args, **kwargs)

        return call


def reference_rows(db, sql: str, params=()) -> list[tuple]:
    """Rows of ``sql`` on ``db`` with every key-driven operator running
    its row-at-a-time handler."""
    with row_at_a_time():
        return db.execute(sql, params).rows()
