"""Physical (executable) plan operators.

The optimizer (:mod:`repro.plan.optimizer`) lowers the logical plan of
:mod:`repro.plan.logical` into this tree; :mod:`repro.exec.operators`
interprets it directly.  The physical layer makes the execution
decisions explicit that the old interpreter took implicitly:

* join *strategy* is a node type — :class:`PHashJoin` (with the
  equi-key pairs extracted at plan time and an explicit build side),
  :class:`PNestedLoopJoin` and :class:`PCrossJoin` — instead of a
  runtime inspection of the join condition;
* every node carries ``est_rows`` (the optimizer's cardinality
  estimate) and ``est_cost`` (cumulative), which EXPLAIN renders and
  the profiler compares against actual row counts.

Node names mirror the logical inventory with a ``P`` prefix; the
``GraphSpec``/``CheapestSpec``/``PlanColumn`` value types are shared
with the logical layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exprs import BoundExpr
from .logical import AggSpec, GraphSpec, PlanColumn, SortKey


class PhysicalNode:
    """Base class; subclasses are frozen dataclasses with ``schema``,
    ``est_rows`` and ``est_cost``."""

    schema: tuple[PlanColumn, ...]
    est_rows: float
    est_cost: float

    @property
    def children(self) -> tuple["PhysicalNode", ...]:
        return ()


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PScan(PhysicalNode):
    """Scan of a base table.  ``schema`` may be a *subset* of the table's
    columns — the optimizer's projection-pruning pass narrows scans to
    the columns the statement actually references.

    ``zone_filters`` are the zone-testable conjuncts
    (:class:`~repro.storage.zonemap.ZonePredicate`) of filters sitting
    directly above this scan: the executor consults per-morsel zone maps
    to skip whole morsels before the residual filter runs.  They are an
    *optimization hint only* — the filters stay in the plan, so dropping
    ``zone_filters`` never changes results."""

    table: str
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0
    zone_filters: tuple = ()


@dataclass(frozen=True)
class PSingleRow(PhysicalNode):
    schema: tuple[PlanColumn, ...] = ()
    est_rows: float = 1.0
    est_cost: float = 0.0


@dataclass(frozen=True)
class PValues(PhysicalNode):
    rows: tuple[tuple[BoundExpr, ...], ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0


@dataclass(frozen=True)
class PCTERef(PhysicalNode):
    cte_name: str
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PFilter(PhysicalNode):
    """``streamable`` marks filters whose predicate is elementwise (no
    subqueries) sitting on a ``PFilter*`` → ``PScan`` chain: under a
    memory budget the executor fuses the chain and evaluates it
    morsel-at-a-time instead of materializing the scan.  Pure hint —
    the unbudgeted path ignores it."""

    input: PhysicalNode
    predicate: BoundExpr
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0
    streamable: bool = False

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class PProject(PhysicalNode):
    input: PhysicalNode
    exprs: tuple[BoundExpr, ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class PAggregate(PhysicalNode):
    """``streamable`` marks ungrouped, non-DISTINCT aggregates
    (COUNT, SUM, AVG, MIN, MAX) over a streamable filter chain: under a
    memory budget the executor folds each filtered morsel into the same
    accumulators the materialized path uses, in row order, without
    materializing the input.  Pure hint."""

    input: PhysicalNode
    group_exprs: tuple[BoundExpr, ...]
    aggs: tuple[AggSpec, ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0
    streamable: bool = False

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class PSort(PhysicalNode):
    """``limit`` is the fused row cap (LIMIT+OFFSET of an enclosing
    :class:`PLimit`): the executor truncates the sort permutation
    before gathering payloads, so a top-k over a huge table never
    materializes the full sorted output.  The PLimit stays in the plan,
    so the cap never changes results."""

    input: PhysicalNode
    keys: tuple[SortKey, ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0
    limit: Optional[int] = None

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class PLimit(PhysicalNode):
    input: PhysicalNode
    limit: Optional[int]
    offset: int
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.input,)


@dataclass(frozen=True)
class PDistinct(PhysicalNode):
    input: PhysicalNode
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.input,)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PHashJoin(PhysicalNode):
    """Equi-join: ``pairs`` holds (left expr, right expr) hash keys,
    ``residual`` the non-equi conjuncts evaluated after the probe.
    ``build_left`` selects the build side (chosen by estimated size);
    LEFT joins always build on the right.

    ``probe_zone`` lists ``(pair_index, column_name)`` marks for inner
    joins whose probe side is a filter chain over a base-table scan:
    the executor runs the build side first, computes each marked key's
    min/max, and installs them as dynamic zone predicates on the probe
    scan, so probe morsels outside the build key range are never paged
    in.  Pruned rows cannot match (inner join), so results are
    unchanged."""

    left: PhysicalNode
    right: PhysicalNode
    kind: str  # inner | left
    pairs: tuple[tuple[BoundExpr, BoundExpr], ...]
    residual: tuple[BoundExpr, ...]
    build_left: bool
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0
    probe_zone: tuple = ()

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class PNestedLoopJoin(PhysicalNode):
    """Non-equi inner/left join: guarded pair enumeration + filter.
    ``residual`` holds the condition pre-split into conjuncts at plan
    time (like :class:`PHashJoin`), so cached executions skip the
    split."""

    left: PhysicalNode
    right: PhysicalNode
    kind: str  # inner | left
    residual: tuple[BoundExpr, ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class PCrossJoin(PhysicalNode):
    left: PhysicalNode
    right: PhysicalNode
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class PSetOp(PhysicalNode):
    op: str  # union | except | intersect
    all: bool
    left: PhysicalNode
    right: PhysicalNode
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class PRecursive(PhysicalNode):
    cte_name: str
    base: PhysicalNode
    recursive: PhysicalNode
    union_all: bool
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.base, self.recursive)


@dataclass(frozen=True)
class PMaterialize(PhysicalNode):
    cte_name: str
    definition: PhysicalNode
    body: PhysicalNode
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.definition, self.body)


# ---------------------------------------------------------------------------
# the paper's graph operators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PGraphSelect(PhysicalNode):
    input: PhysicalNode
    edge: PhysicalNode
    spec: GraphSpec
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.input, self.edge)


@dataclass(frozen=True)
class PGraphJoin(PhysicalNode):
    left: PhysicalNode
    right: PhysicalNode
    edge: PhysicalNode
    spec: GraphSpec
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.left, self.right, self.edge)


@dataclass(frozen=True)
class PUnnest(PhysicalNode):
    input: PhysicalNode
    operand: BoundExpr
    ordinality: Optional[PlanColumn]
    outer: bool
    unnested: tuple[PlanColumn, ...]
    schema: tuple[PlanColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def children(self):
        return (self.input,)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def node_name(node: PhysicalNode) -> str:
    """Display name: the class name without the ``P`` prefix."""
    return type(node).__name__[1:]


def node_detail(node: PhysicalNode) -> str:
    """Operator-specific annotation used by EXPLAIN and the profiler."""
    if isinstance(node, PScan):
        if node.zone_filters:
            zones = ", ".join(zf.describe() for zf in node.zone_filters)
            return f" {node.table} [zone-skip: {zones}]"
        return f" {node.table}"
    if isinstance(node, PFilter):
        return " [streamable]" if node.streamable else ""
    if isinstance(node, PAggregate):
        return " [streamable]" if node.streamable else ""
    if isinstance(node, PSort):
        return f" [limit={node.limit}]" if node.limit is not None else ""
    if isinstance(node, PHashJoin):
        build = "left" if node.build_left else "right"
        probe = ""
        if node.probe_zone:
            cols = ", ".join(name for _, name in node.probe_zone)
            probe = f", zone-probe={cols}"
        return f" [{node.kind}, build={build}, keys={len(node.pairs)}{probe}]"
    if isinstance(node, PNestedLoopJoin):
        return f" [{node.kind}]"
    if isinstance(node, PSetOp):
        return f" [{node.op}{' all' if node.all else ''}]"
    if isinstance(node, (PGraphSelect, PGraphJoin)):
        n_paths = sum(1 for c in node.spec.cheapest if c.path)
        paths = f" paths={n_paths}" if n_paths else ""
        return f" [cheapest={len(node.spec.cheapest)}{paths}]"
    if isinstance(node, PRecursive):
        return f" {node.cte_name}"
    return ""


def _fmt_est(value: float) -> str:
    if value >= 100 or value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def explain(node: PhysicalNode, indent: int = 0) -> str:
    """Readable multi-line physical-plan rendering with per-operator
    estimated rows and cumulative cost (the EXPLAIN output)."""
    pad = "  " * indent
    cols = ", ".join(c.name for c in node.schema)
    line = (
        f"{pad}{node_name(node)}{node_detail(node)} "
        f"(est_rows={_fmt_est(node.est_rows)} cost={_fmt_est(node.est_cost)})"
        f" -> ({cols})"
    )
    lines = [line]
    for child in node.children:
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
