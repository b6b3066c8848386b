"""Logical (relational-algebra) plan operators.

The inventory mirrors the MonetDB relational AST the paper extends
(Section 3.1): the classic operators plus the two additions —
**graph select** ``σ̂_P̄(T, E)`` and **graph join** ``⋈̂_P̄(T1, T2, E)``.
The binder always emits :class:`LGraphSelect`; :class:`LGraphJoin` "is
only unfolded in the query rewriter when it recognizes the sequence of a
cross product plus a graph select" — here, by the optimizer's pushdown
pass (:func:`repro.plan.optimizer.pushdown`).

Every operator exposes ``schema``: an ordered list of :class:`PlanColumn`
(col_id, name, type).  Column ids are unique across one bound statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..storage import DataType
from .exprs import BoundExpr


@dataclass(frozen=True)
class PlanColumn:
    """One output column of a logical operator."""

    col_id: int
    name: str
    type: Optional[DataType]
    #: For NESTED_TABLE columns: the flattened schema of the nested rows,
    #: i.e. the edge table's columns (Section 3.3).  ``None`` otherwise.
    nested: Optional[tuple["PlanColumn", ...]] = None


class LogicalNode:
    """Base class; subclasses are frozen dataclasses with a ``schema``."""

    schema: tuple[PlanColumn, ...]

    @property
    def children(self) -> tuple["LogicalNode", ...]:
        return ()


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LScan(LogicalNode):
    """Scan of a base table."""

    table: str
    schema: tuple[PlanColumn, ...]


@dataclass(frozen=True)
class LSingleRow(LogicalNode):
    """One row with no columns — the input of a FROM-less SELECT."""

    schema: tuple[PlanColumn, ...] = ()


@dataclass(frozen=True)
class LValues(LogicalNode):
    """Inline constant rows (used by INSERT ... VALUES execution)."""

    rows: tuple[tuple[BoundExpr, ...], ...]
    schema: tuple[PlanColumn, ...]


@dataclass(frozen=True)
class LCTERef(LogicalNode):
    """Reference to the working table of the enclosing recursive CTE."""

    cte_name: str
    schema: tuple[PlanColumn, ...]


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LFilter(LogicalNode):
    input: LogicalNode
    predicate: BoundExpr
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class LProject(LogicalNode):
    """Projection: each item is (expression, output PlanColumn)."""

    input: LogicalNode
    exprs: tuple[BoundExpr, ...]
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate computation: func(arg) [DISTINCT] -> output column."""

    func: str  # count | count_star | sum | min | max | avg
    arg: Optional[BoundExpr]
    distinct: bool
    output: PlanColumn


@dataclass(frozen=True)
class LAggregate(LogicalNode):
    """Group-by + aggregation.  ``group_exprs`` align with the first
    ``len(group_exprs)`` schema columns; aggregates follow."""

    input: LogicalNode
    group_exprs: tuple[BoundExpr, ...]
    aggs: tuple[AggSpec, ...]
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class SortKey:
    expr: BoundExpr
    ascending: bool


@dataclass(frozen=True)
class LSort(LogicalNode):
    input: LogicalNode
    keys: tuple[SortKey, ...]
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class LLimit(LogicalNode):
    input: LogicalNode
    limit: Optional[int]
    offset: int
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class LDistinct(LogicalNode):
    input: LogicalNode
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)


# ---------------------------------------------------------------------------
# binary operators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LJoin(LogicalNode):
    """inner / left / cross join.  ``condition`` is None for cross."""

    left: LogicalNode
    right: LogicalNode
    kind: str
    condition: Optional[BoundExpr]
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class LSetOp(LogicalNode):
    op: str  # union | except | intersect
    all: bool
    left: LogicalNode
    right: LogicalNode
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class LRecursive(LogicalNode):
    """WITH RECURSIVE evaluation: base ∪ iterate(recursive) to fixpoint.

    The recursive branch refers to the working table through
    :class:`LCTERef` nodes carrying ``cte_name``.
    """

    cte_name: str
    base: LogicalNode
    recursive: LogicalNode
    union_all: bool
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.base, self.recursive)


@dataclass(frozen=True)
class LMaterialize(LogicalNode):
    """Materialize a (recursive) CTE, then run ``body`` with it in scope.

    The executor evaluates ``definition`` once, registers the batch under
    ``cte_name`` so that :class:`LCTERef` nodes in ``body`` resolve to it,
    then evaluates ``body``.
    """

    cte_name: str
    definition: LogicalNode
    body: LogicalNode
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.definition, self.body)


# ---------------------------------------------------------------------------
# the paper's additions (Section 3.1)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CheapestSpec:
    """One CHEAPEST SUM attached to a reachability predicate.

    ``weight`` is bound against the *edge plan's* schema; ``constant_one``
    marks the unweighted case (BFS).  ``cost`` is always produced;
    ``path`` is present only for the ``AS (cost, path)`` form.
    """

    weight: BoundExpr
    constant_one: bool
    cost: PlanColumn
    path: Optional[PlanColumn]


@dataclass(frozen=True)
class GraphSpec:
    """The bound reachability predicate P̄(X, Y, S, D) plus its paths.

    All four key sides are tuples of equal arity: single-attribute vertex
    keys are 1-tuples; composite keys (the paper's multi-attribute
    extension) carry one entry per attribute.
    """

    source: tuple[BoundExpr, ...]  # X — over the input (left side of a join)
    dest: tuple[BoundExpr, ...]  # Y — over the input (right side of a join)
    src_cols: tuple[PlanColumn, ...]  # S — edge plan columns
    dst_cols: tuple[PlanColumn, ...]  # D — edge plan columns
    binding: Optional[str]
    cheapest: tuple[CheapestSpec, ...]


@dataclass(frozen=True)
class LGraphSelect(LogicalNode):
    """Graph select σ̂: filter input rows by reachability over the edge
    plan; appends one cost (and optionally one path) column per
    CHEAPEST SUM."""

    input: LogicalNode
    edge: LogicalNode
    spec: GraphSpec
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input, self.edge)


@dataclass(frozen=True)
class LGraphJoin(LogicalNode):
    """Graph join ⋈̂ = σ̂(T1 × T2, E); produced only by the optimizer's
    pushdown pass."""

    left: LogicalNode
    right: LogicalNode
    edge: LogicalNode
    spec: GraphSpec
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.left, self.right, self.edge)


# ---------------------------------------------------------------------------
# nested tables (Section 3.3)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LUnnest(LogicalNode):
    """Lateral UNNEST of a nested-table column.

    For each input row, emits one output row per edge in the nested table
    (or, with ``outer``, one all-NULL row when it is empty).  With
    ``ordinality`` an extra dense 1-based counter column is appended —
    the WITH ORDINALITY clause the prototype left unimplemented.
    """

    input: LogicalNode
    operand: BoundExpr
    ordinality: Optional[PlanColumn]
    outer: bool
    unnested: tuple[PlanColumn, ...]
    schema: tuple[PlanColumn, ...]

    @property
    def children(self):
        return (self.input,)

