"""Vectorized expression evaluation over batches.

Implements SQL semantics over the column representation:

* arithmetic/comparisons propagate NULL (result mask = union of operand
  masks);
* AND/OR follow Kleene three-valued logic;
* ``||`` concatenation operates on strings (non-strings are cast);
* host parameters are materialized as constant columns from the values
  supplied at execution time, except that a non-NULL numeric literal or
  parameter operand of arithmetic stays a 0-d value numpy broadcasts;
* uncorrelated subqueries (scalar / IN / EXISTS) are evaluated once per
  batch through a callback into the plan executor.

Every evaluation returns a full :class:`~repro.storage.Column` of the
batch's length — column-at-a-time, like the MAL plans of the paper's
prototype.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError, TypeError_
from ..plan import exprs as bx
from ..storage import (
    Column,
    DataType,
    coerce_python_value,
    days_to_date,
    infer_literal_type,
    parse_date_literal,
)
from .batch import Batch

#: Callback used for subquery expressions: plan -> Batch.
PlanRunner = Callable[[object], Batch]


class EvalContext:
    """Execution-time environment for expression evaluation."""

    __slots__ = ("params", "run_plan")

    def __init__(self, params: tuple, run_plan: PlanRunner):
        self.params = params
        self.run_plan = run_plan


def evaluate(expr: bx.BoundExpr, batch: Batch, ctx: EvalContext) -> Column:
    """Evaluate ``expr`` for every row of ``batch``."""
    n = batch.num_rows
    if isinstance(expr, bx.BLiteral):
        type_ = expr.type or DataType.INTEGER
        return Column.constant(type_, expr.value, n) if expr.value is not None else Column.nulls(type_, n)
    if isinstance(expr, bx.BParam):
        value = _param_value(ctx, expr.index)
        if value is None:
            return Column.nulls(DataType.INTEGER, n)
        return Column.constant(infer_literal_type(value), value, n)
    if isinstance(expr, bx.BColumn):
        return batch.column_by_id(expr.col_id)
    if isinstance(expr, bx.BAggValue):
        return batch.column_by_id(expr.col_id)
    if isinstance(expr, bx.BCall):
        return _evaluate_call(expr, batch, ctx)
    if isinstance(expr, bx.BCast):
        operand = evaluate(expr.operand, batch, ctx)
        return operand.cast(expr.type)
    if isinstance(expr, bx.BIsNull):
        operand = evaluate(expr.operand, batch, ctx)
        mask = operand.null_mask()
        data = ~mask if expr.negated else mask.copy()
        return Column(DataType.BOOLEAN, data)
    if isinstance(expr, bx.BInList):
        return _evaluate_in_list(expr, batch, ctx)
    if isinstance(expr, bx.BCase):
        return _evaluate_case(expr, batch, ctx)
    if isinstance(expr, bx.BScalarSubquery):
        return _evaluate_scalar_subquery(expr, batch, ctx)
    if isinstance(expr, bx.BInSubquery):
        return _evaluate_in_subquery(expr, batch, ctx)
    if isinstance(expr, bx.BExists):
        inner = ctx.run_plan(expr.plan)
        value = inner.num_rows > 0
        if expr.negated:
            value = not value
        return Column.constant(DataType.BOOLEAN, value, n)
    raise ExecutionError(f"cannot evaluate expression {type(expr).__name__}")


def _param_value(ctx: EvalContext, index: int) -> Any:
    if index >= len(ctx.params):
        raise ExecutionError(
            f"statement requires at least {index + 1} parameters, "
            f"got {len(ctx.params)}"
        )
    value = ctx.params[index]
    if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
        return value
    return value


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------
_COMPARE_OPS = {
    "=": "equal",
    "<>": "not_equal",
    "<": "less",
    "<=": "less_equal",
    ">": "greater",
    ">=": "greater_equal",
}


def _evaluate_call(expr: bx.BCall, batch: Batch, ctx: EvalContext) -> Column:
    op = expr.op
    if op == "and" or op == "or":
        return _evaluate_logical(op, expr.args, batch, ctx)
    if op == "not":
        operand = evaluate(expr.args[0], batch, ctx)
        return Column(DataType.BOOLEAN, ~operand.data.astype(np.bool_), operand.mask)
    if op in _ARITH_OPS:
        left, right = (_scalar_operand(a, ctx) for a in expr.args)
        if left is None or right is None:  # a 0-d side broadcasts
            if left is None:
                left = evaluate(expr.args[0], batch, ctx)
            if right is None:
                right = evaluate(expr.args[1], batch, ctx)
            return _evaluate_arith(op, left, right)
    args = [evaluate(a, batch, ctx) for a in expr.args]
    if op in _COMPARE_OPS:
        return _evaluate_compare(op, args[0], args[1])
    if op == "||":
        return _evaluate_concat(args[0], args[1])
    if op == "neg":
        col = args[0]
        return Column(col.type, -col.data, col.mask)
    if op in _ARITH_OPS:
        return _evaluate_arith(op, args[0], args[1])
    if op == "like":
        return _evaluate_like(args[0], args[1])
    return _evaluate_scalar_func(op, args, batch.num_rows, expr.type)


_ARITH_OPS = ("+", "-", "*", "/", "%")


def _scalar_operand(expr: bx.BoundExpr, ctx: EvalContext) -> Column | None:
    """A non-NULL numeric literal or parameter as a 0-d column, which
    arithmetic broadcasts over the other operand instead of copying it
    to every row; None for any other operand."""
    if isinstance(expr, bx.BLiteral):
        value, type_ = expr.value, expr.type or DataType.INTEGER
    elif isinstance(expr, bx.BParam):
        value = _param_value(ctx, expr.index)
        type_ = None if value is None else infer_literal_type(value)
    else:
        return None
    if value is None or not type_.is_numeric:
        return None
    value = coerce_python_value(value, type_)
    return Column(type_, np.asarray(value, dtype=type_.numpy_dtype))


def _combine_masks(*columns: Column) -> np.ndarray | None:
    masks = [c.mask for c in columns if c.mask is not None]
    if not masks:
        return None
    out = masks[0].copy()
    for m in masks[1:]:
        out |= m
    return out


def _align_numeric(left: Column, right: Column) -> tuple[np.ndarray, np.ndarray, DataType]:
    """Promote two numeric (or date) columns to a common numpy dtype.

    An operand already of that dtype is returned as is, not copied:
    callers only read the arrays."""
    lt, rt = left.type, right.type
    if lt == DataType.VARCHAR or rt == DataType.VARCHAR:
        raise TypeError_("expected numeric operands")
    if DataType.DOUBLE in (lt, rt):
        return (
            left.data.astype(np.float64, copy=False),
            right.data.astype(np.float64, copy=False),
            DataType.DOUBLE,
        )
    out_type = DataType.BIGINT
    if lt == rt and lt in (DataType.INTEGER, DataType.BOOLEAN, DataType.DATE):
        out_type = lt if lt != DataType.BOOLEAN else DataType.INTEGER
    return (
        left.data.astype(np.int64, copy=False),
        right.data.astype(np.int64, copy=False),
        out_type,
    )


def strings_as_dates(left: Column, right: Column) -> tuple[Column, Column]:
    """A DATE operand compared with a VARCHAR one reads the strings as
    dates: each non-NULL value through :func:`parse_date_literal`, whose
    typed error an invalid one raises.  ``=``, equi-join keys and IN
    subqueries all compare the pair this way; other pairs pass as they
    are."""
    if {left.type, right.type} != {DataType.DATE, DataType.VARCHAR}:
        return left, right
    strings = left if left.type == DataType.VARCHAR else right
    values = strings.to_pylist()
    days = np.fromiter(
        (parse_date_literal(v) if v is not None else 0 for v in values),
        dtype=np.int64,
        count=len(values),
    )
    nulls = np.fromiter((v is None for v in values), dtype=np.bool_, count=len(values))
    dates = Column(DataType.DATE, days, nulls if nulls.any() else None)
    return (dates, right) if strings is left else (left, dates)


def _evaluate_compare(op: str, left: Column, right: Column) -> Column:
    mask = _combine_masks(left, right)
    left, right = strings_as_dates(left, right)
    if left.type == DataType.VARCHAR or right.type == DataType.VARCHAR:
        if left.type != right.type:
            raise TypeError_(f"cannot compare {left.type} with {right.type}")
        ldata = left.data
        rdata = right.data
        result = np.empty(len(left), dtype=np.bool_)
        for i in range(len(left)):
            lv, rv = ldata[i], rdata[i]
            if lv is None or rv is None:
                result[i] = False
            else:
                result[i] = _PY_COMPARE[op](lv, rv)
        return Column(DataType.BOOLEAN, result, mask)
    ldata, rdata, _ = _align_numeric(left, right)
    return Column(DataType.BOOLEAN, _compare_arrays(op, ldata, rdata), mask)


_PY_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare_arrays(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _evaluate_arith(op: str, left: Column, right: Column) -> Column:
    """``left op right``; at most one operand may be a 0-d column (see
    :func:`_scalar_operand`), so the result has the other's length."""
    mask = _combine_masks(left, right)
    # DATE ± days
    if left.type == DataType.DATE and right.type.is_integral and op in ("+", "-"):
        data = left.data + right.data.astype(np.int64) * (1 if op == "+" else -1)
        return Column(DataType.DATE, data, mask)
    if left.type == DataType.DATE and right.type == DataType.DATE and op == "-":
        return Column(DataType.BIGINT, left.data - right.data, mask)
    ldata, rdata, out_type = _align_numeric(left, right)
    if op == "+":
        data = ldata + rdata
    elif op == "-":
        data = ldata - rdata
    elif op == "*":
        data = ldata * rdata
    elif op == "/":
        out_type = DataType.DOUBLE
        with np.errstate(divide="ignore", invalid="ignore"):
            data = ldata.astype(np.float64) / rdata.astype(np.float64)
        divzero = rdata == 0
        if divzero.any():
            mask = (mask.copy() if mask is not None else np.zeros(len(data), np.bool_))
            mask |= divzero  # SQL: division by zero -> NULL (lenient mode)
            data = np.where(divzero, 0.0, data)
    else:  # %
        divzero = rdata == 0
        safe = np.where(divzero, 1, rdata)
        data = _fmod(ldata, safe)
        if divzero.any():
            mask = (mask.copy() if mask is not None else np.zeros(len(data), np.bool_))
            mask |= divzero
    return Column(out_type, data, mask)


def _fmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SQL MOD truncates toward zero (unlike numpy's floored mod)."""
    if a.dtype.kind == "f":
        return a - b * np.trunc(a / b).astype(a.dtype)
    trunc_div = np.sign(a) * np.sign(b) * (np.abs(a) // np.abs(b))
    return a - b * trunc_div


def _evaluate_concat(left: Column, right: Column) -> Column:
    mask = _combine_masks(left, right)
    lvals = left.cast(DataType.VARCHAR) if left.type != DataType.VARCHAR else left
    rvals = right.cast(DataType.VARCHAR) if right.type != DataType.VARCHAR else right
    data = np.empty(len(left), dtype=object)
    ld, rd = lvals.data, rvals.data
    for i in range(len(left)):
        lv = ld[i] if ld[i] is not None else ""
        rv = rd[i] if rd[i] is not None else ""
        data[i] = lv + rv
    return Column(DataType.VARCHAR, data, mask)


def _evaluate_logical(op: str, args, batch: Batch, ctx: EvalContext) -> Column:
    left = evaluate(args[0], batch, ctx)
    right = evaluate(args[1], batch, ctx)
    lval = left.data.astype(np.bool_)
    rval = right.data.astype(np.bool_)
    lnull = left.null_mask()
    rnull = right.null_mask()
    if op == "and":
        data = lval & rval
        # NULL unless one side is definitely FALSE
        null = (lnull | rnull) & ~((~lval & ~lnull) | (~rval & ~rnull))
    else:
        data = lval | rval
        null = (lnull | rnull) & ~((lval & ~lnull) | (rval & ~rnull))
    data = data & ~null
    return Column(DataType.BOOLEAN, data, null if null.any() else None)


def _evaluate_like(operand: Column, pattern: Column) -> Column:
    import re

    mask = _combine_masks(operand, pattern)
    out = np.zeros(len(operand), dtype=np.bool_)
    null = mask if mask is not None else np.zeros(len(operand), dtype=np.bool_)
    cache: dict[str, re.Pattern] = {}
    for i in range(len(operand)):
        if null[i]:
            continue
        value = operand.data[i]
        pat = pattern.data[i]
        if value is None or pat is None:
            continue
        regex = cache.get(pat)
        if regex is None:
            body = ""
            for ch in pat:
                if ch == "%":
                    body += ".*"
                elif ch == "_":
                    body += "."
                else:
                    body += re.escape(ch)
            regex = re.compile("^" + body + "$", re.DOTALL)
            cache[pat] = regex
        out[i] = regex.match(value) is not None
    return Column(DataType.BOOLEAN, out, mask)


def _evaluate_in_list(expr: bx.BInList, batch: Batch, ctx: EvalContext) -> Column:
    operand = evaluate(expr.operand, batch, ctx)
    result = np.zeros(batch.num_rows, dtype=np.bool_)
    any_null_item = np.zeros(batch.num_rows, dtype=np.bool_)
    for item in expr.items:
        item_col = evaluate(item, batch, ctx)
        eq = _evaluate_compare("=", operand, item_col)
        hits = eq.data.astype(np.bool_)
        if eq.mask is not None:
            any_null_item |= eq.mask
            hits = hits & ~eq.mask
        result |= hits
    # x IN (...) is NULL when no match and some comparison was NULL
    null = any_null_item & ~result
    if operand.mask is not None:
        null |= operand.mask
        result &= ~operand.mask
    if expr.negated:
        result = ~result & ~null
    return Column(DataType.BOOLEAN, result, null if null.any() else None)


def _evaluate_case(expr: bx.BCase, batch: Batch, ctx: EvalContext) -> Column:
    n = batch.num_rows
    result_type = expr.type or DataType.VARCHAR
    taken = np.zeros(n, dtype=np.bool_)
    pieces: list[tuple[np.ndarray, Column]] = []
    for cond, result in expr.whens:
        cond_col = evaluate(cond, batch, ctx)
        hit = cond_col.data.astype(np.bool_)
        if cond_col.mask is not None:
            hit = hit & ~cond_col.mask
        hit = hit & ~taken
        taken |= hit
        result_col = evaluate(result, batch, ctx)
        if result_col.type != result_type and result_col.type is not None:
            result_col = result_col.cast(result_type)
        pieces.append((hit, result_col))
    else_col = None
    if expr.else_ is not None:
        else_col = evaluate(expr.else_, batch, ctx)
        if else_col.type != result_type and else_col.type is not None:
            else_col = else_col.cast(result_type)
    out_data = np.empty(n, dtype=result_type.numpy_dtype)
    if result_type.numpy_dtype != np.dtype(object):
        out_data[:] = 0
    out_mask = np.ones(n, dtype=np.bool_)
    for hit, col in pieces:
        out_data[hit] = col.data[hit]
        out_mask[hit] = col.null_mask()[hit]
    rest = ~taken
    if else_col is not None:
        out_data[rest] = else_col.data[rest]
        out_mask[rest] = else_col.null_mask()[rest]
    return Column(result_type, out_data, out_mask if out_mask.any() else None)


def _evaluate_scalar_subquery(expr: bx.BScalarSubquery, batch: Batch, ctx) -> Column:
    inner = ctx.run_plan(expr.plan)
    if inner.num_rows > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if inner.num_rows == 0:
        return Column.nulls(expr.type or DataType.INTEGER, batch.num_rows)
    value = inner.columns[0].value(0)
    type_ = expr.type or inner.schema[0].type or DataType.INTEGER
    if value is None:
        return Column.nulls(type_, batch.num_rows)
    return Column.constant(type_, value, batch.num_rows)


def _evaluate_in_subquery(expr: bx.BInSubquery, batch: Batch, ctx) -> Column:
    operand = evaluate(expr.operand, batch, ctx)
    inner = ctx.run_plan(expr.plan)
    operand, inner_col = strings_as_dates(operand, inner.columns[0])
    values = set()
    has_null = False
    for v in inner_col:
        if v is None:
            has_null = True
        else:
            values.add(v)
    result = np.zeros(batch.num_rows, dtype=np.bool_)
    null = operand.null_mask().copy()
    for i in range(batch.num_rows):
        v = operand.value(i)
        if v is None:
            continue
        if v in values:
            result[i] = True
        elif has_null:
            null[i] = True  # unknown
    if expr.negated:
        result = ~result & ~null
    return Column(DataType.BOOLEAN, result, null if null.any() else None)


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------
def _evaluate_scalar_func(
    name: str, args: list[Column], n: int, static_type: DataType | None = None
) -> Column:
    if name == "abs":
        col = args[0]
        return Column(col.type, np.abs(col.data), col.mask)
    if name == "length":
        col = args[0]
        data = np.fromiter(
            (len(v) if v is not None else 0 for v in col.data),
            dtype=np.int32,
            count=len(col),
        )
        return Column(DataType.INTEGER, data, col.mask)
    if name in ("lower", "upper"):
        col = args[0]
        func = str.lower if name == "lower" else str.upper
        data = np.empty(len(col), dtype=object)
        for i, v in enumerate(col.data):
            data[i] = func(v) if v is not None else None
        return Column(DataType.VARCHAR, data, col.mask)
    if name == "round":
        col, digits = args
        d = digits.value(0) if len(digits) else 0
        return Column(
            DataType.DOUBLE,
            np.round(col.data.astype(np.float64), int(d or 0)),
            col.mask,
        )
    if name == "floor":
        return Column(
            DataType.BIGINT,
            np.floor(args[0].data.astype(np.float64)).astype(np.int64),
            args[0].mask,
        )
    if name == "ceil":
        return Column(
            DataType.BIGINT,
            np.ceil(args[0].data.astype(np.float64)).astype(np.int64),
            args[0].mask,
        )
    if name == "sqrt":
        data = args[0].data.astype(np.float64)
        mask = args[0].null_mask().copy()
        negative = data < 0
        mask |= negative
        with np.errstate(invalid="ignore"):
            out = np.sqrt(np.where(negative, 0, data))
        return Column(DataType.DOUBLE, out, mask if mask.any() else None)
    if name == "mod":
        return _evaluate_arith("%", args[0], args[1])
    if name == "coalesce":
        if not args:
            raise ExecutionError("COALESCE requires arguments")
        result_type = static_type
        if result_type is None:
            candidates = [a.type for a in args if not _all_null(a)]
            result_type = candidates[0] if candidates else DataType.VARCHAR
        out = Column.nulls(result_type, n)
        data, mask = out.data.copy(), np.ones(n, dtype=np.bool_)
        for col in args:
            if col.type != result_type:
                col = col.cast(result_type)
            fill = mask & ~col.null_mask()
            data[fill] = col.data[fill]
            mask[fill] = False
        return Column(result_type, data, mask if mask.any() else None)
    if name == "nullif":
        left, right = args
        eq = _evaluate_compare("=", left, right)
        mask = left.null_mask().copy()
        mask |= eq.data.astype(np.bool_) & ~eq.null_mask()
        return Column(left.type, left.data, mask if mask.any() else None)
    if name == "substr":
        if not 2 <= len(args) <= 3:
            raise ExecutionError("SUBSTR takes 2 or 3 arguments")
        return _string_map(
            args,
            lambda s, start, length=None: s[
                max(int(start) - 1, 0) : (
                    max(int(start) - 1, 0) + int(length)
                    if length is not None
                    else len(s)
                )
            ],
        )
    if name == "replace":
        return _string_map(args, lambda s, old, new: s.replace(old, new))
    if name in ("trim", "ltrim", "rtrim"):
        stripper = {"trim": str.strip, "ltrim": str.lstrip, "rtrim": str.rstrip}[name]
        return _string_map(args, stripper)
    if name in ("year", "month", "day"):
        col = args[0]
        if col.type != DataType.DATE:
            raise ExecutionError(f"{name.upper()} requires a DATE argument")
        attr = name
        data = np.fromiter(
            (
                getattr(days_to_date(int(v)), attr) if not null else 0
                for v, null in zip(col.data, col.null_mask())
            ),
            dtype=np.int32,
            count=len(col),
        )
        return Column(DataType.INTEGER, data, col.mask)
    if name in ("greatest", "least"):
        if len(args) < 2:
            raise ExecutionError(f"{name.upper()} requires at least 2 arguments")
        reducer = np.maximum if name == "greatest" else np.minimum
        result_type = args[0].type
        for col in args[1:]:
            from ..storage import promote

            result_type = promote(result_type, col.type)
        mask = _combine_masks(*args)
        acc = args[0].cast(result_type).data
        for col in args[1:]:
            acc = reducer(acc, col.cast(result_type).data)
        return Column(result_type, acc, mask)
    if name == "sign":
        data = np.sign(args[0].data.astype(np.float64)).astype(np.int32)
        return Column(DataType.INTEGER, data, args[0].mask)
    if name == "power":
        base, exponent = args
        mask = _combine_masks(base, exponent)
        with np.errstate(invalid="ignore", over="ignore"):
            data = np.power(
                base.data.astype(np.float64), exponent.data.astype(np.float64)
            )
        return Column(DataType.DOUBLE, data, mask)
    if name == "ln":
        col = args[0]
        data = col.data.astype(np.float64)
        mask = col.null_mask().copy()
        invalid = data <= 0
        mask |= invalid
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.where(invalid, 1.0, data))
        return Column(DataType.DOUBLE, out, mask if mask.any() else None)
    if name == "exp":
        with np.errstate(over="ignore"):
            data = np.exp(args[0].data.astype(np.float64))
        return Column(DataType.DOUBLE, data, args[0].mask)
    raise ExecutionError(f"unknown scalar function {name!r}")


def _all_null(column: Column) -> bool:
    return column.mask is not None and bool(column.mask.all())


def _string_map(args: list[Column], func) -> Column:
    """Apply a per-row Python string function; NULL in -> NULL out."""
    first = args[0]
    if first.type != DataType.VARCHAR and not _all_null(first):
        raise ExecutionError("expected a string argument")
    if _all_null(first):
        return Column.nulls(DataType.VARCHAR, len(first))
    mask = _combine_masks(*args)
    n = len(first)
    out = np.empty(n, dtype=object)
    null = mask if mask is not None else np.zeros(n, dtype=np.bool_)
    for i in range(n):
        if null[i]:
            out[i] = None
            continue
        row_args = [col.value(i) for col in args]
        out[i] = func(*row_args)
    return Column(DataType.VARCHAR, out, mask)
