"""The cost-based optimizer: logical rewriting, statistics-driven join
ordering and lowering to the physical plan.

:func:`optimize` is the only path from a bound plan to a physical
plan (``parse → bind → optimize → physical-plan → execute``):

1. **Pushdown passes** (fixpoint, on the logical plan) generalize the
   paper's Section-3.1 rewrite: filters move through inner joins and
   cross products, below set operations, sorts, DISTINCT, projections
   and aggregations, and — the paper-specific payoff — into the inputs
   of graph select / graph join, so the graph runtime solves shortest
   paths only for pre-filtered endpoint rows.  The graph-join
   unfolding rule ("graph joins are only unfolded … when it recognizes
   the sequence of a cross product plus a graph select") runs in the
   same fixpoint.
2. **Join reordering**: maximal inner/cross-join regions of three or
   more relations are flattened and rebuilt greedily, smallest
   estimated intermediate first, using table statistics
   (:mod:`repro.storage.stats`) for equi-join selectivities.
3. **Lowering** produces :mod:`repro.plan.physical` operators: hash
   joins carry their key pairs and a build side chosen by estimated
   input size; scans are narrowed to the referenced columns (projection
   pruning) and carry zone-map filters; every node gets an estimated
   cardinality and cumulative cost.  Subquery plans inside expressions
   are optimized recursively.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace
from typing import Callable, Optional

from ..storage import DataType
from ..storage.zonemap import ZonePredicate
from . import exprs as bx
from . import logical as lp
from . import physical as pp

#: Fallback selectivities when statistics cannot answer.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Join regions of at least this many relations are reordered.
MIN_REORDER_RELATIONS = 3

#: Shared cardinality heuristics — used by BOTH the logical estimator
#: (join reordering) and the physical lowering (est_rows in EXPLAIN /
#: the profiler), so the two cost models cannot drift apart.
GRAPH_SELECT_SELECTIVITY = 0.5
GRAPH_JOIN_SELECTIVITY = 0.25
RECURSIVE_FANOUT = 8.0
UNNEST_FANOUT = 4.0
CTE_REF_DEFAULT_ROWS = 100.0


# ---------------------------------------------------------------------------
# expression utilities
# ---------------------------------------------------------------------------
def split_conjuncts(expr: bx.BoundExpr) -> list[bx.BoundExpr]:
    """Flatten a conjunction into its parts."""
    if isinstance(expr, bx.BCall) and expr.op == "and":
        out: list[bx.BoundExpr] = []
        for arg in expr.args:
            out.extend(split_conjuncts(arg))
        return out
    return [expr]


def and_all(conjuncts: list[bx.BoundExpr]) -> bx.BoundExpr:
    result = conjuncts[0]
    for part in conjuncts[1:]:
        result = bx.BCall("and", (result, part), DataType.BOOLEAN)
    return result


def map_expr(
    expr: bx.BoundExpr,
    col_map: Optional[dict[int, bx.BoundExpr]] = None,
    plan_fn: Optional[Callable[[object], object]] = None,
) -> bx.BoundExpr:
    """Rebuild an expression, substituting column references through
    ``col_map`` and/or transforming subquery plans through ``plan_fn``."""

    def go(e: bx.BoundExpr) -> bx.BoundExpr:
        if isinstance(e, (bx.BColumn, bx.BAggValue)):
            if col_map is not None and e.col_id in col_map:
                return col_map[e.col_id]
            return e
        if isinstance(e, bx.BCall):
            args = tuple(go(a) for a in e.args)
            return e if args == e.args else replace(e, args=args)
        if isinstance(e, bx.BIsNull):
            operand = go(e.operand)
            return e if operand is e.operand else replace(e, operand=operand)
        if isinstance(e, bx.BInList):
            operand = go(e.operand)
            items = tuple(go(i) for i in e.items)
            if operand is e.operand and items == e.items:
                return e
            return replace(e, operand=operand, items=items)
        if isinstance(e, bx.BCase):
            whens = tuple((go(c), go(r)) for c, r in e.whens)
            else_ = go(e.else_) if e.else_ is not None else None
            return replace(e, whens=whens, else_=else_)
        if isinstance(e, bx.BCast):
            operand = go(e.operand)
            return e if operand is e.operand else replace(e, operand=operand)
        if isinstance(e, bx.BScalarSubquery):
            if plan_fn is not None:
                return replace(e, plan=plan_fn(e.plan))
            return e
        if isinstance(e, bx.BInSubquery):
            operand = go(e.operand)
            plan = plan_fn(e.plan) if plan_fn is not None else e.plan
            if operand is e.operand and plan is e.plan:
                return e
            return replace(e, operand=operand, plan=plan)
        if isinstance(e, bx.BExists):
            if plan_fn is not None:
                return replace(e, plan=plan_fn(e.plan))
            return e
        return e  # literals, params

    try:
        return go(expr)
    finally:
        del go  # it refers to itself: freed without the collector


def _has_subquery(expr: bx.BoundExpr) -> bool:
    return any(
        isinstance(e, (bx.BScalarSubquery, bx.BInSubquery, bx.BExists))
        for e in bx.walk(expr)
    )


def split_equi_condition(
    condition: bx.BoundExpr, left_ids: set[int], right_ids: set[int]
):
    """Extract hashable equi-join pairs from a conjunction.

    Returns (pairs, residual): pairs is a list of (left_expr,
    right_expr), residual the conjuncts that are not simple equalities
    across the two sides.
    """
    pairs: list[tuple[bx.BoundExpr, bx.BoundExpr]] = []
    residual: list[bx.BoundExpr] = []
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, bx.BCall) and conjunct.op == "=":
            a, b = conjunct.args
            a_refs = bx.referenced_columns(a)
            b_refs = bx.referenced_columns(b)
            if a_refs <= left_ids and b_refs <= right_ids:
                pairs.append((a, b))
                continue
            if a_refs <= right_ids and b_refs <= left_ids:
                pairs.append((b, a))
                continue
        residual.append(conjunct)
    return pairs, residual


# ---------------------------------------------------------------------------
# column origins (col_id -> base table column), for statistics lookups
# ---------------------------------------------------------------------------
def collect_origins(node, out: Optional[dict[int, tuple[str, str]]] = None):
    """Map every scan-produced col_id to its (table, column) origin."""
    if out is None:
        out = {}
    if isinstance(node, lp.LScan):
        for col in node.schema:
            out[col.col_id] = (node.table, col.name)
    if isinstance(node, lp.LogicalNode):
        for child in node.children:
            collect_origins(child, out)
        for field in dataclasses.fields(node):
            _origins_in_value(getattr(node, field.name), out)
    return out


def _origins_in_value(value, out):
    if isinstance(value, bx.BoundExpr):
        for sub in bx.walk(value):
            if isinstance(sub, (bx.BScalarSubquery, bx.BInSubquery, bx.BExists)):
                collect_origins(sub.plan, out)
    elif isinstance(value, tuple):
        for item in value:
            _origins_in_value(item, out)
    elif dataclasses.is_dataclass(value) and not isinstance(
        value, (lp.LogicalNode, pp.PhysicalNode)
    ):
        for field in dataclasses.fields(value):
            _origins_in_value(getattr(value, field.name), out)


# ---------------------------------------------------------------------------
# cardinality and selectivity estimation
# ---------------------------------------------------------------------------
class Estimator:
    """Selectivity / cardinality estimation over live row counts plus
    (optional) ANALYZE statistics."""

    def __init__(self, catalog, stats=None, origins=None):
        self.catalog = catalog
        self.stats = stats
        self.origins = origins or {}

    # -- base facts ----------------------------------------------------
    def table_rows(self, table: str) -> float:
        try:
            return float(self.catalog.get(table).num_rows)
        except Exception:
            return 1000.0

    def _column_stats(self, col_id: int):
        origin = self.origins.get(col_id)
        if origin is None or self.stats is None:
            return None, origin
        table_stats = self.stats.get(origin[0])
        if table_stats is None:
            return None, origin
        return table_stats.column(origin[1]), origin

    def ndv(self, col_id: int) -> float:
        """Distinct-value estimate for a column (>= 1)."""
        col_stats, origin = self._column_stats(col_id)
        if col_stats is not None and col_stats.distinct > 0:
            return float(col_stats.distinct)
        if origin is not None:
            rows = self.table_rows(origin[0])
            return max(1.0, min(rows, 10.0 + rows / 10.0))
        return 10.0

    def null_fraction(self, col_id: int) -> float:
        col_stats, origin = self._column_stats(col_id)
        if col_stats is None or origin is None:
            return 0.1
        rows = max(self.table_rows(origin[0]), 1.0)
        return min(1.0, col_stats.null_count / rows)

    # -- predicate selectivity ----------------------------------------
    def selectivity(self, expr: bx.BoundExpr) -> float:
        if isinstance(expr, bx.BLiteral):
            if expr.value is True:
                return 1.0
            if expr.value is False or expr.value is None:
                return 0.0
            return DEFAULT_SELECTIVITY
        if isinstance(expr, bx.BIsNull):
            frac = self._operand_null_fraction(expr.operand)
            return (1.0 - frac) if expr.negated else frac
        if isinstance(expr, bx.BInList):
            eq = self._eq_selectivity(expr.operand, None)
            sel = min(1.0, len(expr.items) * eq)
            return (1.0 - sel) if expr.negated else sel
        if isinstance(expr, bx.BInSubquery):
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(expr, bx.BExists):
            return 0.5
        if isinstance(expr, bx.BCall):
            op = expr.op
            if op == "and":
                product = 1.0
                for arg in expr.args:
                    product *= self.selectivity(arg)
                return product
            if op == "or":
                a = self.selectivity(expr.args[0])
                b = self.selectivity(expr.args[1])
                return min(1.0, a + b - a * b)
            if op == "not":
                return 1.0 - self.selectivity(expr.args[0])
            if op == "=":
                return self._eq_selectivity(expr.args[0], expr.args[1])
            if op == "<>":
                return 1.0 - self._eq_selectivity(expr.args[0], expr.args[1])
            if op in ("<", "<=", ">", ">="):
                return self._range_selectivity(op, expr.args[0], expr.args[1])
            if op == "like":
                return 0.25
        return DEFAULT_SELECTIVITY

    def _operand_null_fraction(self, operand: bx.BoundExpr) -> float:
        if isinstance(operand, bx.BColumn):
            return self.null_fraction(operand.col_id)
        return 0.1

    def _eq_selectivity(self, a: bx.BoundExpr, b: Optional[bx.BoundExpr]) -> float:
        ndvs = [
            self.ndv(e.col_id)
            for e in (a, b)
            if isinstance(e, (bx.BColumn, bx.BAggValue))
        ]
        if ndvs:
            return 1.0 / max(ndvs)
        return DEFAULT_EQ_SELECTIVITY

    def _range_selectivity(self, op, a: bx.BoundExpr, b: bx.BoundExpr) -> float:
        # normalize to column <op> literal
        if isinstance(b, bx.BColumn) and isinstance(a, bx.BLiteral):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            return self._range_selectivity(flipped, b, a)
        if not (isinstance(a, bx.BColumn) and isinstance(b, bx.BLiteral)):
            return DEFAULT_RANGE_SELECTIVITY
        col_stats, _ = self._column_stats(a.col_id)
        if col_stats is None or not col_stats.has_range:
            return DEFAULT_RANGE_SELECTIVITY
        try:
            lo = float(col_stats.min_value)
            hi = float(col_stats.max_value)
            value = float(b.value)
        except (TypeError, ValueError):
            return DEFAULT_RANGE_SELECTIVITY
        if hi <= lo:
            return DEFAULT_RANGE_SELECTIVITY
        fraction = (value - lo) / (hi - lo)
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return min(1.0, max(0.001, fraction))

    # -- join selectivity ---------------------------------------------
    def conjunct_selectivity(self, conjunct: bx.BoundExpr) -> float:
        """Selectivity of one join conjunct over the pair cross space."""
        if isinstance(conjunct, bx.BCall) and conjunct.op == "=":
            return self._eq_selectivity(conjunct.args[0], conjunct.args[1])
        return self.selectivity(conjunct)

    # -- logical-plan cardinality (used by the join-reorder pass) ------
    def rows(self, node: lp.LogicalNode) -> float:
        if isinstance(node, lp.LScan):
            return self.table_rows(node.table)
        if isinstance(node, lp.LSingleRow):
            return 1.0
        if isinstance(node, lp.LValues):
            return float(len(node.rows))
        if isinstance(node, lp.LCTERef):
            return CTE_REF_DEFAULT_ROWS
        if isinstance(node, lp.LFilter):
            return self.rows(node.input) * self.selectivity(node.predicate)
        if isinstance(node, (lp.LProject, lp.LSort)):
            return self.rows(node.input)
        if isinstance(node, lp.LDistinct):
            return self.rows(node.input)
        if isinstance(node, lp.LLimit):
            child = self.rows(node.input)
            if node.limit is None:
                return max(child - node.offset, 0.0)
            return min(float(node.limit), child)
        if isinstance(node, lp.LAggregate):
            return self.group_estimate(node.group_exprs, self.rows(node.input))
        if isinstance(node, lp.LJoin):
            left = self.rows(node.left)
            right = self.rows(node.right)
            if node.condition is None:
                return left * right
            sel = 1.0
            for conjunct in split_conjuncts(node.condition):
                sel *= self.conjunct_selectivity(conjunct)
            return max(left * right * sel, 1.0)
        if isinstance(node, lp.LSetOp):
            left = self.rows(node.left)
            right = self.rows(node.right)
            if node.op == "union":
                return left + right
            if node.op == "except":
                return left
            return min(left, right)
        if isinstance(node, lp.LRecursive):
            return (self.rows(node.base) + 1.0) * RECURSIVE_FANOUT
        if isinstance(node, lp.LMaterialize):
            return self.rows(node.body)
        if isinstance(node, lp.LGraphSelect):
            return max(self.rows(node.input) * GRAPH_SELECT_SELECTIVITY, 1.0)
        if isinstance(node, lp.LGraphJoin):
            return max(
                self.rows(node.left) * self.rows(node.right) * GRAPH_JOIN_SELECTIVITY,
                1.0,
            )
        if isinstance(node, lp.LUnnest):
            return self.rows(node.input) * UNNEST_FANOUT
        return 100.0

    def group_estimate(self, group_exprs, input_rows: float) -> float:
        if not group_exprs:
            return 1.0
        ndv_product = 1.0
        for expr in group_exprs:
            if isinstance(expr, (bx.BColumn, bx.BAggValue)):
                ndv_product *= self.ndv(expr.col_id)
            else:
                ndv_product *= 10.0
        return max(1.0, min(input_rows, ndv_product))


# ---------------------------------------------------------------------------
# pushdown passes (logical -> logical)
# ---------------------------------------------------------------------------
_CHILD_FIELDS = (
    "input",
    "edge",
    "left",
    "right",
    "base",
    "recursive",
    "definition",
    "body",
)


def _map_children(node: lp.LogicalNode, fn):
    updates = {}
    for name in _CHILD_FIELDS:
        child = getattr(node, name, None)
        if isinstance(child, lp.LogicalNode):
            new_child, changed = fn(child)
            if changed:
                updates[name] = new_child
    if updates:
        return replace(node, **updates), True
    return node, False


def pushdown(plan: lp.LogicalNode) -> lp.LogicalNode:
    """Run all pushdown + unfolding rules to a fixpoint."""
    changed = True
    while changed:
        plan, changed = _push_once(plan)
    return plan


def _push_once(node: lp.LogicalNode) -> tuple[lp.LogicalNode, bool]:
    node, changed = _map_children(node, _push_once)
    rewritten = _apply_rules(node)
    if rewritten is not None:
        return rewritten, True
    return node, changed


def _ids(schema) -> set[int]:
    return {c.col_id for c in schema}


def _filter(child: lp.LogicalNode, predicate: bx.BoundExpr) -> lp.LFilter:
    return lp.LFilter(child, predicate, child.schema)


def _apply_rules(node: lp.LogicalNode) -> Optional[lp.LogicalNode]:
    # rule: graph-join unfolding (the paper's Section-3.1 rewrite)
    if isinstance(node, lp.LGraphSelect) and isinstance(node.input, lp.LJoin):
        join = node.input
        if join.kind == "cross":
            source_refs = set().union(
                *(bx.referenced_columns(e) for e in node.spec.source)
            )
            dest_refs = set().union(
                *(bx.referenced_columns(e) for e in node.spec.dest)
            )
            if source_refs <= _ids(join.left.schema) and dest_refs <= _ids(
                join.right.schema
            ):
                return lp.LGraphJoin(
                    join.left, join.right, node.edge, node.spec, node.schema
                )

    if not isinstance(node, lp.LFilter):
        return None
    predicate = node.predicate
    child = node.input

    # rule: split conjunctions into a stack of single-conjunct filters
    conjuncts = split_conjuncts(predicate)
    if len(conjuncts) > 1:
        for part in conjuncts:
            child = _filter(child, part)
        return child

    refs = bx.referenced_columns(predicate)

    if isinstance(child, lp.LJoin):
        left_ids = _ids(child.left.schema)
        right_ids = _ids(child.right.schema)
        if refs <= left_ids and child.kind in ("cross", "inner", "left"):
            return replace(child, left=_filter(child.left, predicate))
        if refs <= right_ids and child.kind in ("cross", "inner"):
            return replace(child, right=_filter(child.right, predicate))
        if child.kind == "cross":
            # spans both sides: cross product becomes an inner join so the
            # executor can extract hash keys
            return lp.LJoin(
                child.left, child.right, "inner", predicate, child.schema
            )
        if child.kind == "inner":
            condition = bx.BCall(
                "and", (child.condition, predicate), DataType.BOOLEAN
            )
            return replace(child, condition=condition)
        return None

    if isinstance(child, lp.LProject):
        # substitute through trivial projections (pure column renames)
        mapping: dict[int, bx.BoundExpr] = {}
        for out_col, expr in zip(child.schema, child.exprs):
            if out_col.col_id in refs:
                if not isinstance(expr, (bx.BColumn, bx.BLiteral)):
                    return None
                mapping[out_col.col_id] = expr
        if refs <= set(mapping):
            pushed = map_expr(predicate, col_map=mapping)
            return replace(child, input=_filter(child.input, pushed))
        return None

    if isinstance(child, lp.LSetOp) and not _has_subquery(predicate):
        left_map = {
            out.col_id: bx.BColumn(c.col_id, c.type, c.name)
            for out, c in zip(child.schema, child.left.schema)
        }
        right_map = {
            out.col_id: bx.BColumn(c.col_id, c.type, c.name)
            for out, c in zip(child.schema, child.right.schema)
        }
        if refs <= set(left_map):
            return replace(
                child,
                left=_filter(child.left, map_expr(predicate, col_map=left_map)),
                right=_filter(child.right, map_expr(predicate, col_map=right_map)),
            )
        return None

    if isinstance(child, (lp.LSort, lp.LDistinct)):
        return replace(child, input=_filter(child.input, predicate))

    if isinstance(child, lp.LAggregate):
        if not child.group_exprs:
            # a scalar aggregate emits exactly one row even over empty
            # input — filtering below it changes the answer
            return None
        group_cols = child.schema[: len(child.group_exprs)]
        mapping = {
            col.col_id: expr for col, expr in zip(group_cols, child.group_exprs)
        }
        if refs <= set(mapping):
            pushed = map_expr(predicate, col_map=mapping)
            return replace(child, input=_filter(child.input, pushed))
        return None

    if isinstance(child, lp.LGraphSelect):
        if refs <= _ids(child.input.schema):
            return replace(child, input=_filter(child.input, predicate))
        return None

    if isinstance(child, lp.LGraphJoin):
        if refs <= _ids(child.left.schema):
            return replace(child, left=_filter(child.left, predicate))
        if refs <= _ids(child.right.schema):
            return replace(child, right=_filter(child.right, predicate))
        return None

    if isinstance(child, lp.LUnnest):
        if refs <= _ids(child.input.schema):
            return replace(child, input=_filter(child.input, predicate))
        return None

    return None


# ---------------------------------------------------------------------------
# join reordering (logical -> logical)
# ---------------------------------------------------------------------------
def reorder_joins(node: lp.LogicalNode, est: Estimator) -> lp.LogicalNode:
    """Greedily reorder maximal inner/cross join regions, smallest
    estimated intermediate result first."""
    if isinstance(node, lp.LJoin) and node.kind in ("inner", "cross"):
        leaves: list[lp.LogicalNode] = []
        conjuncts: list[bx.BoundExpr] = []

        def flatten(join: lp.LogicalNode) -> None:
            if isinstance(join, lp.LJoin) and join.kind in ("inner", "cross"):
                flatten(join.left)
                flatten(join.right)
                if join.condition is not None:
                    conjuncts.extend(split_conjuncts(join.condition))
            else:
                leaves.append(reorder_joins(join, est))

        try:
            flatten(node)
        finally:
            del flatten  # it refers to itself: freed without the collector
        if len(leaves) >= MIN_REORDER_RELATIONS:
            return _greedy_join(leaves, conjuncts, est)
        # small region: keep shape, children already reordered
        rebuilt = _rebuild_region(node, iter(leaves))
        return rebuilt

    updated, _ = _map_children(node, lambda ch: (reorder_joins(ch, est), True))
    return updated


def _rebuild_region(join: lp.LJoin, leaves):
    def go(node):
        if isinstance(node, lp.LJoin) and node.kind in ("inner", "cross"):
            left = go(node.left)
            right = go(node.right)
            return replace(node, left=left, right=right)
        return next(leaves)

    try:
        return go(join)
    finally:
        del go  # it refers to itself: freed without the collector


def _greedy_join(
    leaves: list[lp.LogicalNode],
    conjuncts: list[bx.BoundExpr],
    est: Estimator,
) -> lp.LogicalNode:
    leaf_ids = [_ids(leaf.schema) for leaf in leaves]

    # single-leaf conjuncts become filters on that leaf up front
    remaining: list[tuple[bx.BoundExpr, set[int]]] = []
    for conjunct in conjuncts:
        refs = bx.referenced_columns(conjunct)
        for i, ids in enumerate(leaf_ids):
            if refs <= ids:
                leaves[i] = _filter(leaves[i], conjunct)
                break
        else:
            remaining.append((conjunct, refs))

    entries = [
        {"node": leaf, "ids": ids, "rows": max(est.rows(leaf), 1.0)}
        for leaf, ids in zip(leaves, leaf_ids)
    ]
    # start from the smallest relation
    entries.sort(key=lambda e: e["rows"])
    current = entries.pop(0)
    plan, placed, rows = current["node"], set(current["ids"]), current["rows"]

    while entries:
        best_index, best_rows, best_conjs = None, None, []
        for i, entry in enumerate(entries):
            combined = placed | entry["ids"]
            applicable = [
                (c, refs) for c, refs in remaining if refs <= combined
            ]
            sel = 1.0
            for conjunct, _ in applicable:
                sel *= est.conjunct_selectivity(conjunct)
            candidate_rows = max(rows * entry["rows"] * sel, 1.0)
            if best_rows is None or candidate_rows < best_rows:
                best_index, best_rows, best_conjs = i, candidate_rows, applicable
        entry = entries.pop(best_index)
        schema = plan.schema + entry["node"].schema
        if best_conjs:
            condition = and_all([c for c, _ in best_conjs])
            plan = lp.LJoin(plan, entry["node"], "inner", condition, schema)
            remaining = [r for r in remaining if r not in best_conjs]
        else:
            plan = lp.LJoin(plan, entry["node"], "cross", None, schema)
        placed |= entry["ids"]
        rows = best_rows

    return plan


# ---------------------------------------------------------------------------
# lowering (logical -> physical)
# ---------------------------------------------------------------------------
class _Lowering:
    def __init__(self, catalog, stats, est: Estimator):
        self.catalog = catalog
        self.stats = stats
        self.est = est
        self.cte_rows: dict[str, float] = {}

    # -- helpers -------------------------------------------------------
    def _expr(self, expr: bx.BoundExpr) -> bx.BoundExpr:
        return map_expr(expr, plan_fn=self._subplan)

    def _subplan(self, plan):
        return optimize(plan, self.catalog, self.stats)

    def _exprs(self, exprs) -> tuple:
        return tuple(self._expr(e) for e in exprs)

    def _refs(self, *exprs) -> set[int]:
        out: set[int] = set()
        for expr in exprs:
            out |= bx.referenced_columns(expr)
        return out

    def positional(self, node: lp.LogicalNode) -> pp.PhysicalNode:
        """Lower preserving the node's exact output schema (order and
        width) — required wherever results are consumed by position:
        statement roots, set-operation branches, recursive-CTE branches,
        CTE definitions and path-producing edge plans."""
        lowered = self.lower(node, None)
        if lowered.schema != node.schema:
            exprs = tuple(
                bx.BColumn(c.col_id, c.type, c.name) for c in node.schema
            )
            lowered = pp.PProject(
                lowered,
                exprs,
                node.schema,
                est_rows=lowered.est_rows,
                est_cost=lowered.est_cost + lowered.est_rows,
            )
        return lowered

    # -- dispatch ------------------------------------------------------
    def lower(
        self, node: lp.LogicalNode, required: Optional[set[int]]
    ) -> pp.PhysicalNode:
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise NotImplementedError(
                f"no lowering for {type(node).__name__}"
            )
        return method(self, node, required)

    # -- leaves --------------------------------------------------------
    def _lower_scan(self, node: lp.LScan, required):
        schema = node.schema
        if required is not None and schema:
            kept = tuple(c for c in schema if c.col_id in required)
            schema = kept or (schema[0],)
        rows = self.est.table_rows(node.table)
        return pp.PScan(node.table, schema, est_rows=rows, est_cost=rows)

    def _lower_single_row(self, node: lp.LSingleRow, required):
        return pp.PSingleRow()

    def _lower_values(self, node: lp.LValues, required):
        rows = tuple(self._exprs(row) for row in node.rows)
        return pp.PValues(
            rows, node.schema, est_rows=float(len(rows)), est_cost=float(len(rows))
        )

    def _lower_cte_ref(self, node: lp.LCTERef, required):
        rows = self.cte_rows.get(node.cte_name, CTE_REF_DEFAULT_ROWS)
        return pp.PCTERef(node.cte_name, node.schema, est_rows=rows, est_cost=0.0)

    # -- unary ---------------------------------------------------------
    def _lower_filter(self, node: lp.LFilter, required):
        predicate = self._expr(node.predicate)
        child_req = None
        if required is not None:
            child_req = required | self._refs(predicate)
        child = self._attach_zone_filter(
            self.lower(node.input, child_req), predicate
        )
        sel = self.est.selectivity(predicate)
        return pp.PFilter(
            child,
            predicate,
            child.schema,
            est_rows=max(child.est_rows * sel, 0.0),
            est_cost=child.est_cost + child.est_rows,
            streamable=not _has_subquery(predicate)
            and self._streams_over_scan(child),
        )

    def _streams_over_scan(self, child) -> bool:
        """True when ``child`` is a chain of streamable filters over a
        base-table scan — the shape the budgeted executor can evaluate
        morsel-at-a-time (elementwise predicates commute with
        concatenation, so per-morsel filtering is bit-identical)."""
        node = child
        while isinstance(node, pp.PFilter):
            if not node.streamable:
                return False
            node = node.input
        return isinstance(node, pp.PScan)

    # -- zone-map pushdown ---------------------------------------------
    def _attach_zone_filter(self, child, predicate):
        """When a filter sits on a (chain of filters over a) base-table
        scan, record its zone-testable form on the PScan so the executor
        can skip whole morsels.  The filter itself stays in the plan —
        zone maps are morsel-granular, the residual filter guarantees
        row-level exactness."""
        base = child
        while isinstance(base, pp.PFilter):
            base = base.input
        if not isinstance(base, pp.PScan):
            return child
        zone = self._zone_predicate(predicate, base.table)
        if zone is None:
            return child

        def rebuild(node):
            if isinstance(node, pp.PScan):
                return replace(node, zone_filters=node.zone_filters + (zone,))
            return replace(node, input=rebuild(node.input))

        try:
            return rebuild(child)
        finally:
            del rebuild  # it refers to itself: freed without the collector

    def _zone_operand(self, expr):
        """``("lit", v)`` / ``("param", i)`` for a parameter-free scalar
        operand, else None.  The plan cache normalizes literals into
        params, so both shapes occur for the same SQL text."""
        if isinstance(expr, bx.BLiteral):
            return ("lit", expr.value)
        if isinstance(expr, bx.BParam):
            return ("param", expr.index)
        return None

    def _zone_column(self, expr, table):
        """The base-column name when ``expr`` is a bare column of
        ``table`` (by origin), else None."""
        if not isinstance(expr, bx.BColumn):
            return None
        origin = self.est.origins.get(expr.col_id)
        if origin is None or origin[0] != table:
            return None
        return origin[1]

    def _zone_predicate(self, predicate, table):
        if isinstance(predicate, bx.BCall) and predicate.op in (
            "=", "<", "<=", ">", ">=",
        ) and len(predicate.args) == 2:
            left, right = predicate.args
            column = self._zone_column(left, table)
            operand = self._zone_operand(right)
            op = predicate.op
            if column is None:
                # reversed comparison: literal <op> column
                column = self._zone_column(right, table)
                operand = self._zone_operand(left)
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if column is None or operand is None:
                return None
            return ZonePredicate(column, op, (operand,))
        if isinstance(predicate, bx.BInList) and not predicate.negated:
            column = self._zone_column(predicate.operand, table)
            if column is None:
                return None
            operands = []
            for item in predicate.items:
                operand = self._zone_operand(item)
                if operand is None:
                    return None
                operands.append(operand)
            if not operands:
                return None
            return ZonePredicate(column, "in", tuple(operands))
        if isinstance(predicate, bx.BIsNull):
            column = self._zone_column(predicate.operand, table)
            if column is None:
                return None
            return ZonePredicate(
                column, "notnull" if predicate.negated else "isnull"
            )
        if isinstance(predicate, bx.BInSubquery) and not predicate.negated:
            # the plan inside the predicate was already lowered by
            # self._expr; the executor's resolver runs it and prunes
            # zones outside the probe values' [min, max] range
            column = self._zone_column(predicate.operand, table)
            if column is None:
                return None
            return ZonePredicate(column, "insub", (("sub", predicate.plan),))
        return None

    def _lower_project(self, node: lp.LProject, required):
        exprs = self._exprs(node.exprs)
        child = self.lower(node.input, self._refs(*exprs))
        return pp.PProject(
            child,
            exprs,
            node.schema,
            est_rows=child.est_rows,
            est_cost=child.est_cost + child.est_rows,
        )

    def _lower_aggregate(self, node: lp.LAggregate, required):
        group_exprs = self._exprs(node.group_exprs)
        aggs = tuple(
            replace(a, arg=self._expr(a.arg)) if a.arg is not None else a
            for a in node.aggs
        )
        child_req = self._refs(*group_exprs)
        for agg in aggs:
            if agg.arg is not None:
                child_req |= self._refs(agg.arg)
        child = self.lower(node.input, child_req)
        rows = self.est.group_estimate(group_exprs, child.est_rows)
        return pp.PAggregate(
            child,
            group_exprs,
            aggs,
            node.schema,
            est_rows=rows,
            est_cost=child.est_cost + child.est_rows,
            streamable=not group_exprs
            and bool(aggs)
            and all(self._streamable_agg(a) for a in aggs)
            and self._streams_over_scan(child),
        )

    @staticmethod
    def _streamable_agg(agg) -> bool:
        """True when the aggregate folds over morsels: every kernel
        aggregate does, and folds float sums in row order."""
        if agg.distinct:
            return False
        if agg.func == "count_star":
            return True
        if agg.arg is None or _has_subquery(agg.arg):
            return False
        return agg.func in ("count", "sum", "avg", "min", "max")

    def _lower_sort(self, node: lp.LSort, required):
        keys = tuple(replace(k, expr=self._expr(k.expr)) for k in node.keys)
        child_req = None
        if required is not None:
            child_req = required | self._refs(*(k.expr for k in keys))
        child = self.lower(node.input, child_req)
        n = max(child.est_rows, 1.0)
        return pp.PSort(
            child,
            keys,
            child.schema,
            est_rows=child.est_rows,
            est_cost=child.est_cost + n * max(math.log2(n), 1.0),
        )

    def _lower_limit(self, node: lp.LLimit, required):
        child = self.lower(node.input, required)
        if (
            node.limit is not None
            and isinstance(child, pp.PSort)
            and child.limit is None
        ):
            # top-k fusion: the executor truncates the sort permutation
            # to limit+offset rows before gathering payloads; the PLimit
            # above it still slices, so results are unchanged
            child = replace(child, limit=int(node.limit) + int(node.offset))
        if node.limit is None:
            rows = max(child.est_rows - node.offset, 0.0)
        else:
            rows = min(float(node.limit), child.est_rows)
        return pp.PLimit(
            child,
            node.limit,
            node.offset,
            child.schema,
            est_rows=rows,
            est_cost=child.est_cost,
        )

    def _lower_distinct(self, node: lp.LDistinct, required):
        child = self.lower(node.input, None)  # every column is significant
        return pp.PDistinct(
            child,
            child.schema,
            est_rows=child.est_rows,
            est_cost=child.est_cost + child.est_rows,
        )

    # -- joins ---------------------------------------------------------
    def _lower_join(self, node: lp.LJoin, required):
        condition = (
            self._expr(node.condition) if node.condition is not None else None
        )
        left_ids = _ids(node.left.schema)
        right_ids = _ids(node.right.schema)
        left_req = right_req = None
        if required is not None:
            need = set(required)
            if condition is not None:
                need |= self._refs(condition)
            left_req = need & left_ids
            right_req = need & right_ids
        left = self.lower(node.left, left_req)
        right = self.lower(node.right, right_req)
        schema = left.schema + right.schema
        cross_rows = left.est_rows * right.est_rows

        if node.kind == "cross" or condition is None and node.kind != "left":
            return pp.PCrossJoin(
                left,
                right,
                schema,
                est_rows=cross_rows,
                est_cost=left.est_cost + right.est_cost + cross_rows,
            )
        if condition is None:  # LEFT JOIN ON TRUE (degenerate)
            condition = bx.BLiteral(True, DataType.BOOLEAN)
        pairs, residual = split_equi_condition(condition, left_ids, right_ids)
        sel = 1.0
        for conjunct in split_conjuncts(condition):
            sel *= self.est.conjunct_selectivity(conjunct)
        rows = max(cross_rows * sel, 1.0)
        if node.kind == "left":
            rows = max(rows, left.est_rows)
        if pairs:
            build_left = node.kind == "inner" and left.est_rows < right.est_rows
            probe_zone: tuple = ()
            if node.kind == "inner":
                probe_zone = self._probe_zone_marks(
                    tuple(pairs), left, right, build_left
                )
            return pp.PHashJoin(
                left,
                right,
                node.kind,
                tuple(pairs),
                tuple(residual),
                build_left,
                schema,
                est_rows=rows,
                est_cost=left.est_cost
                + right.est_cost
                + left.est_rows
                + right.est_rows
                + rows,
                probe_zone=probe_zone,
            )
        return pp.PNestedLoopJoin(
            left,
            right,
            node.kind,
            tuple(split_conjuncts(condition)),
            schema,
            est_rows=rows,
            est_cost=left.est_cost + right.est_cost + cross_rows,
        )

    def _probe_zone_marks(self, pairs, left, right, build_left) -> tuple:
        """``(pair_index, column_name)`` marks for hash-join keys whose
        probe side is a (filter chain over a) base-table scan: the
        executor consults the probe scan's zone maps against the build
        side's key range (zone maps for join build sides, not just
        pushed-down filters)."""
        probe = right if build_left else left
        base = probe
        while isinstance(base, pp.PFilter):
            base = base.input
        if not isinstance(base, pp.PScan):
            return ()
        marks = []
        for index, (a, b) in enumerate(pairs):
            probe_expr = b if build_left else a
            column = self._zone_column(probe_expr, base.table)
            if column is not None:
                marks.append((index, column))
        return tuple(marks)

    # -- set operations / CTEs -----------------------------------------
    def _lower_setop(self, node: lp.LSetOp, required):
        left = self.positional(node.left)
        right = self.positional(node.right)
        if node.op == "union":
            rows = left.est_rows + right.est_rows
        elif node.op == "except":
            rows = left.est_rows
        else:
            rows = min(left.est_rows, right.est_rows)
        return pp.PSetOp(
            node.op,
            node.all,
            left,
            right,
            node.schema,
            est_rows=rows,
            est_cost=left.est_cost + right.est_cost + rows,
        )

    def _lower_recursive(self, node: lp.LRecursive, required):
        base = self.positional(node.base)
        self.cte_rows[node.cte_name] = max(base.est_rows, 1.0)
        recursive = self.positional(node.recursive)
        rows = (base.est_rows + 1.0) * RECURSIVE_FANOUT
        return pp.PRecursive(
            node.cte_name,
            base,
            recursive,
            node.union_all,
            node.schema,
            est_rows=rows,
            est_cost=base.est_cost + recursive.est_cost * RECURSIVE_FANOUT,
        )

    def _lower_materialize(self, node: lp.LMaterialize, required):
        definition = self.positional(node.definition)
        self.cte_rows[node.cte_name] = max(definition.est_rows, 1.0)
        body = self.lower(node.body, required)
        return pp.PMaterialize(
            node.cte_name,
            definition,
            body,
            body.schema,
            est_rows=body.est_rows,
            est_cost=definition.est_cost + body.est_cost,
        )

    # -- graph operators ------------------------------------------------
    def _lower_spec(self, spec: lp.GraphSpec) -> lp.GraphSpec:
        return replace(
            spec,
            source=self._exprs(spec.source),
            dest=self._exprs(spec.dest),
            cheapest=tuple(
                replace(c, weight=self._expr(c.weight)) for c in spec.cheapest
            ),
        )

    def _lower_edge(self, edge: lp.LogicalNode, spec: lp.GraphSpec):
        """Lower the edge (transition-table) plan.  Path-producing specs
        consume the edge batch positionally through nested-table values,
        so they keep the full bind-time schema; otherwise the edge is
        narrowed to the key columns and weight references."""
        want_path = any(c.path is not None for c in spec.cheapest)
        if want_path:
            return self.positional(edge)
        edge_req = _ids(spec.src_cols) | _ids(spec.dst_cols)
        for cheapest in spec.cheapest:
            edge_req |= self._refs(cheapest.weight)
        return self.lower(edge, edge_req)

    def _lower_graph_select(self, node: lp.LGraphSelect, required):
        spec = self._lower_spec(node.spec)
        input_ids = _ids(node.input.schema)
        in_req = None
        if required is not None:
            in_req = (required & input_ids) | self._refs(
                *spec.source, *spec.dest
            )
        input_ = self.lower(node.input, in_req)
        edge = self._lower_edge(node.edge, spec)
        extras = node.schema[len(node.input.schema):]
        rows = max(input_.est_rows * GRAPH_SELECT_SELECTIVITY, 1.0)
        return pp.PGraphSelect(
            input_,
            edge,
            spec,
            input_.schema + extras,
            est_rows=rows,
            est_cost=input_.est_cost
            + edge.est_cost
            + edge.est_rows
            + input_.est_rows * 2.0,
        )

    def _lower_graph_join(self, node: lp.LGraphJoin, required):
        spec = self._lower_spec(node.spec)
        left_ids = _ids(node.left.schema)
        right_ids = _ids(node.right.schema)
        left_req = right_req = None
        if required is not None:
            left_req = (required & left_ids) | self._refs(*spec.source)
            right_req = (required & right_ids) | self._refs(*spec.dest)
        left = self.lower(node.left, left_req)
        right = self.lower(node.right, right_req)
        edge = self._lower_edge(node.edge, spec)
        n_leaf = len(node.left.schema) + len(node.right.schema)
        extras = node.schema[n_leaf:]
        rows = max(
            left.est_rows * right.est_rows * GRAPH_JOIN_SELECTIVITY, 1.0
        )
        return pp.PGraphJoin(
            left,
            right,
            edge,
            spec,
            left.schema + right.schema + extras,
            est_rows=rows,
            est_cost=left.est_cost
            + right.est_cost
            + edge.est_cost
            + edge.est_rows
            + left.est_rows * right.est_rows,
        )

    def _lower_unnest(self, node: lp.LUnnest, required):
        operand = self._expr(node.operand)
        input_ids = _ids(node.input.schema)
        in_req = None
        if required is not None:
            in_req = (required & input_ids) | self._refs(operand)
        input_ = self.lower(node.input, in_req)
        schema = input_.schema + node.unnested
        if node.ordinality is not None:
            schema = schema + (node.ordinality,)
        rows = input_.est_rows * UNNEST_FANOUT
        return pp.PUnnest(
            input_,
            operand,
            node.ordinality,
            node.outer,
            node.unnested,
            schema,
            est_rows=rows,
            est_cost=input_.est_cost + rows,
        )

    _DISPATCH = {
        lp.LScan: _lower_scan,
        lp.LSingleRow: _lower_single_row,
        lp.LValues: _lower_values,
        lp.LCTERef: _lower_cte_ref,
        lp.LFilter: _lower_filter,
        lp.LProject: _lower_project,
        lp.LAggregate: _lower_aggregate,
        lp.LSort: _lower_sort,
        lp.LLimit: _lower_limit,
        lp.LDistinct: _lower_distinct,
        lp.LJoin: _lower_join,
        lp.LSetOp: _lower_setop,
        lp.LRecursive: _lower_recursive,
        lp.LMaterialize: _lower_materialize,
        lp.LGraphSelect: _lower_graph_select,
        lp.LGraphJoin: _lower_graph_join,
        lp.LUnnest: _lower_unnest,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def optimize(plan: lp.LogicalNode, catalog, stats=None) -> pp.PhysicalNode:
    """Optimize a bound logical plan and lower it to a physical plan."""
    est = Estimator(catalog, stats, collect_origins(plan))
    plan = reorder_joins(pushdown(plan), est)
    return _Lowering(catalog, stats, est).positional(plan)
