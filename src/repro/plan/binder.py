"""Semantic analysis: AST → typed logical plan.

This is the analogue of the changes the paper made to MonetDB's SQL
front-end (Section 3.1):

* a ``REACHES`` predicate found in the WHERE conjunction always becomes a
  **graph select** over the FROM result ("the semantic stage of the
  compiler always creates a graph select when detecting a reachability
  predicate"); the graph-join unfolding happens later, in the
  optimizer's pushdown pass;
* ``CHEAPEST SUM`` projection items are matched to their reachability
  predicate through the tuple variable (the explicit binding is mandatory
  only when several predicates exist), type-checked (weights numeric; the
  cost type follows the weight expression), and turned into columns
  *produced by* the graph select;
* the REACHES endpoint/edge-key types must match, "otherwise a semantic
  error arises";
* paths are typed as nested tables whose attributes "are the same as the
  attributes of the EDGE table expression" (Section 2), which is what
  UNNEST later expands.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from ..errors import BindError, NotSupportedError
from ..sql import ast
from ..storage import Catalog, DataType, parse_type_name, promote
from . import exprs as bx
from . import logical as lp
from . import physical as pp

_AGG_FUNCS = frozenset({"count", "sum", "min", "max", "avg"})

_SCALAR_FUNCS: dict[str, tuple[int, Optional[DataType]]] = {
    # name -> (arity, fixed result type or None=follows args);
    # arity -1 means variadic
    "abs": (1, None),
    "length": (1, DataType.INTEGER),
    "lower": (1, DataType.VARCHAR),
    "upper": (1, DataType.VARCHAR),
    "round": (2, DataType.DOUBLE),
    "floor": (1, DataType.BIGINT),
    "ceil": (1, DataType.BIGINT),
    "coalesce": (-1, None),
    "nullif": (2, None),
    "sqrt": (1, DataType.DOUBLE),
    "mod": (2, None),
    "substr": (-1, DataType.VARCHAR),  # substr(s, start [, length])
    "replace": (3, DataType.VARCHAR),
    "trim": (1, DataType.VARCHAR),
    "ltrim": (1, DataType.VARCHAR),
    "rtrim": (1, DataType.VARCHAR),
    "year": (1, DataType.INTEGER),
    "month": (1, DataType.INTEGER),
    "day": (1, DataType.INTEGER),
    "greatest": (-1, None),
    "least": (-1, None),
    "sign": (1, DataType.INTEGER),
    "power": (2, DataType.DOUBLE),
    "ln": (1, DataType.DOUBLE),
    "exp": (1, DataType.DOUBLE),
}


# ---------------------------------------------------------------------------
# bound statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundQuery:
    plan: lp.LogicalNode


@dataclass(frozen=True)
class BoundExplain:
    plan: lp.LogicalNode


@dataclass(frozen=True)
class BoundCreateTable:
    name: str
    columns: tuple[tuple[str, DataType], ...]


@dataclass(frozen=True)
class BoundDropTable:
    name: str


@dataclass(frozen=True)
class BoundInsert:
    table: str
    columns: tuple[str, ...]
    plan: lp.LogicalNode


@dataclass(frozen=True)
class BoundCreateTableAs:
    name: str
    plan: lp.LogicalNode


@dataclass(frozen=True)
class BoundCopy:
    """``COPY table [(cols)] FROM 'file'``: one-batch columnar ingest."""

    table: str
    columns: tuple[str, ...]
    path: str
    format: str  # 'csv' | 'npz'
    header: bool
    delimiter: str


@dataclass(frozen=True)
class BoundDelete:
    table: str
    scan: pp.PScan  # full-width and unfiltered: its rows are table rows
    predicate: Optional[bx.BoundExpr]


@dataclass(frozen=True)
class BoundUpdate:
    table: str
    scan: pp.PScan  # as in BoundDelete
    #: (column position in the table schema, bound value expression)
    assignments: tuple[tuple[int, bx.BoundExpr], ...]
    predicate: Optional[bx.BoundExpr]


@dataclass(frozen=True)
class BoundCreateGraphIndex:
    name: str
    table: str
    src_col: str
    dst_col: str


@dataclass(frozen=True)
class BoundDropGraphIndex:
    name: str


@dataclass(frozen=True)
class BoundAnalyze:
    """``ANALYZE [table]``: None analyzes every table."""

    table: Optional[str]


@dataclass(frozen=True)
class BoundBegin:
    """``BEGIN``: open a session-level transaction."""


@dataclass(frozen=True)
class BoundCommit:
    """``COMMIT``: publish the session transaction's buffered writes."""


@dataclass(frozen=True)
class BoundRollback:
    """``ROLLBACK``: discard the session transaction's buffered writes."""


# ---------------------------------------------------------------------------
# scopes
# ---------------------------------------------------------------------------
class Scope:
    """Name-resolution scope: an ordered list of (alias, columns)."""

    def __init__(self) -> None:
        self.tables: list[tuple[Optional[str], tuple[lp.PlanColumn, ...]]] = []

    def add(self, alias: Optional[str], columns: tuple[lp.PlanColumn, ...]) -> None:
        if alias is not None:
            alias = alias.lower()
            if any(a == alias for a, _ in self.tables):
                raise BindError(f"duplicate table alias {alias!r} in FROM")
        self.tables.append((alias, columns))

    def all_columns(self) -> tuple[lp.PlanColumn, ...]:
        out: list[lp.PlanColumn] = []
        for _, cols in self.tables:
            out.extend(cols)
        return tuple(out)

    def columns_of(self, alias: str) -> tuple[lp.PlanColumn, ...]:
        alias = alias.lower()
        for a, cols in self.tables:
            if a == alias:
                return cols
        raise BindError(f"unknown table alias {alias!r}")

    def resolve(self, table: Optional[str], name: str) -> lp.PlanColumn:
        name = name.lower()
        matches: list[lp.PlanColumn] = []
        if table is not None:
            for col in self.columns_of(table):
                if col.name == name:
                    matches.append(col)
        else:
            for _, cols in self.tables:
                for col in cols:
                    if col.name == name:
                        matches.append(col)
        if not matches:
            qualified = f"{table}.{name}" if table else name
            raise BindError(f"unknown column {qualified!r}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column reference {name!r}")
        return matches[0]


@dataclass
class _CTEDef:
    """A visible CTE: either inlined (AST) or a recursive working table."""

    name: str
    query: Optional[ast.QueryNode]  # non-recursive: rebound per reference
    column_names: tuple[str, ...]
    recursive_schema: Optional[tuple[lp.PlanColumn, ...]] = None  # templates
    materialized: bool = False  # True once LRecursive produced it


class Binder:
    """Binds one statement; col_ids are unique within the statement."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._next_id = 0

    # ------------------------------------------------------------------
    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _fresh_column(
        self,
        name: str,
        type_: Optional[DataType],
        nested: Optional[tuple[lp.PlanColumn, ...]] = None,
    ) -> lp.PlanColumn:
        return lp.PlanColumn(self._fresh_id(), name.lower(), type_, nested)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def bind_statement(self, stmt: ast.Statement):
        if isinstance(stmt, ast.QueryStatement):
            return BoundQuery(self.bind_query(stmt.query, {}))
        if isinstance(stmt, ast.Explain):
            return BoundExplain(self.bind_query(stmt.query, {}))
        if isinstance(stmt, ast.CreateTable):
            columns = tuple(
                (spec.name.lower(), parse_type_name(spec.type_name))
                for spec in stmt.columns
            )
            return BoundCreateTable(stmt.name.lower(), columns)
        if isinstance(stmt, ast.DropTable):
            return BoundDropTable(stmt.name.lower())
        if isinstance(stmt, ast.InsertValues):
            return self._bind_insert_values(stmt)
        if isinstance(stmt, ast.InsertSelect):
            plan = self.bind_query(stmt.query, {})
            return BoundInsert(
                stmt.table.lower(), self._column_list(stmt, "INSERT"), plan
            )
        if isinstance(stmt, ast.Copy):
            return self._bind_copy(stmt)
        if isinstance(stmt, ast.CreateTableAs):
            return BoundCreateTableAs(stmt.name.lower(), self.bind_query(stmt.query, {}))
        if isinstance(stmt, ast.Delete):
            return self._bind_delete(stmt)
        if isinstance(stmt, ast.Update):
            return self._bind_update(stmt)
        if isinstance(stmt, ast.CreateGraphIndex):
            return BoundCreateGraphIndex(
                stmt.name.lower(), stmt.table.lower(), stmt.src_col.lower(), stmt.dst_col.lower()
            )
        if isinstance(stmt, ast.DropGraphIndex):
            return BoundDropGraphIndex(stmt.name.lower())
        if isinstance(stmt, ast.Analyze):
            if stmt.table is not None:
                self.catalog.get(stmt.table)  # raises CatalogError if unknown
                return BoundAnalyze(stmt.table.lower())
            return BoundAnalyze(None)
        if isinstance(stmt, ast.Begin):
            return BoundBegin()
        if isinstance(stmt, ast.Commit):
            return BoundCommit()
        if isinstance(stmt, ast.Rollback):
            return BoundRollback()
        raise NotSupportedError(f"unsupported statement: {type(stmt).__name__}")

    def _bind_insert_values(self, stmt: ast.InsertValues) -> BoundInsert:
        table = self.catalog.get(stmt.table)
        width = len(stmt.columns) if stmt.columns else len(table.schema)
        scope = Scope()
        bound_rows = []
        for row in stmt.rows:
            if len(row) != width:
                raise BindError(
                    f"INSERT row has {len(row)} values, expected {width}"
                )
            bound_rows.append(
                tuple(self._bind_expr(e, scope, allow_agg=False) for e in row)
            )
        # promote across ALL rows (mirrors _bind_values_query): VALUES
        # (1), (2.5) is a DOUBLE column, not an INTEGER one
        column_types: list[Optional[DataType]] = [None] * width
        for row_exprs in bound_rows:
            for j, expr in enumerate(row_exprs):
                if expr.type is not None:
                    column_types[j] = (
                        expr.type
                        if column_types[j] is None
                        else promote(column_types[j], expr.type)
                    )
        schema = tuple(
            self._fresh_column(f"col{j}", column_types[j]) for j in range(width)
        )
        return BoundInsert(
            stmt.table.lower(),
            self._column_list(stmt, "INSERT"),
            lp.LValues(tuple(bound_rows), schema),
        )

    def _column_list(self, stmt, verb: str) -> tuple[str, ...]:
        """An INSERT's or COPY's explicit column list, lowercased, each
        name checked to exist in the target table and to be listed once."""
        table = self.catalog.get(stmt.table)
        columns = tuple(c.lower() for c in stmt.columns)
        seen: set[str] = set()
        for name in columns:
            table.schema.index_of(name)  # raises CatalogError if unknown
            if name in seen:
                raise BindError(f"column {name!r} listed twice in {verb}")
            seen.add(name)
        return columns

    def _bind_copy(self, stmt: ast.Copy) -> BoundCopy:
        table = self.catalog.get(stmt.table)
        columns = self._column_list(stmt, "COPY")
        fmt: Optional[str] = None
        header = True
        delimiter = ","
        for name, value in stmt.options:
            key = name.lower()
            if key == "format":
                fmt = str(value).lower()
                if fmt not in ("csv", "npz"):
                    raise BindError(f"unsupported COPY format {value!r}")
            elif key == "header":
                if isinstance(value, bool):
                    header = value
                else:
                    header = str(value).lower() not in (
                        "false",
                        "0",
                        "off",
                        "no",
                    )
            elif key == "no_header":
                header = False
            elif key == "delimiter":
                if not isinstance(value, str) or len(value) != 1:
                    raise BindError("COPY delimiter must be a single character")
                delimiter = value
            else:
                raise BindError(f"unknown COPY option {name!r}")
        if fmt is None:
            fmt = "npz" if str(stmt.path).lower().endswith(".npz") else "csv"
        return BoundCopy(table.name, columns, stmt.path, fmt, header, delimiter)

    def _table_scan_scope(self, table_name: str) -> tuple[pp.PScan, Scope]:
        table = self.catalog.get(table_name)
        columns = tuple(self._fresh_column(c.name, c.type) for c in table.schema)
        scope = Scope()
        scope.add(table.name, columns)
        return pp.PScan(table.name, columns), scope

    def _bind_delete(self, stmt: ast.Delete) -> BoundDelete:
        scan, scope = self._table_scan_scope(stmt.table)
        predicate = None
        if stmt.where is not None:
            predicate = self._bind_expr(stmt.where, scope, allow_agg=False)
            _require_boolean(predicate, "DELETE ... WHERE")
        return BoundDelete(scan.table, scan, predicate)

    def _bind_update(self, stmt: ast.Update) -> BoundUpdate:
        scan, scope = self._table_scan_scope(stmt.table)
        table = self.catalog.get(stmt.table)
        assignments = []
        seen: set[int] = set()
        for column_name, value_ast in stmt.assignments:
            position = table.schema.index_of(column_name)
            if position in seen:
                raise BindError(f"column {column_name!r} assigned twice in UPDATE")
            seen.add(position)
            value = self._bind_expr(value_ast, scope, allow_agg=False)
            declared = table.schema.columns[position].type
            if (
                value.type is not None
                and value.type != declared
                and not (value.type.is_numeric and declared.is_numeric)
                and not (declared == DataType.DATE and value.type == DataType.VARCHAR)
            ):
                raise BindError(
                    f"cannot assign {value.type} to column "
                    f"{column_name!r} of type {declared}"
                )
            assignments.append((position, value))
        predicate = None
        if stmt.where is not None:
            predicate = self._bind_expr(stmt.where, scope, allow_agg=False)
            _require_boolean(predicate, "UPDATE ... WHERE")
        return BoundUpdate(scan.table, scan, tuple(assignments), predicate)

    def _bind_values_query(self, node: ast.ValuesQuery) -> lp.LValues:
        scope = Scope()
        width = len(node.rows[0])
        bound_rows = []
        for row in node.rows:
            if len(row) != width:
                raise BindError("VALUES rows differ in arity")
            bound_rows.append(
                tuple(self._bind_expr(e, scope, allow_agg=False) for e in row)
            )
        column_types: list[Optional[DataType]] = [None] * width
        for row in bound_rows:
            for j, expr in enumerate(row):
                if expr.type is not None:
                    column_types[j] = (
                        expr.type
                        if column_types[j] is None
                        else promote(column_types[j], expr.type)
                    )
        schema = tuple(
            self._fresh_column(f"col{j + 1}", column_types[j]) for j in range(width)
        )
        return lp.LValues(tuple(bound_rows), schema)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bind_query(
        self, node: ast.QueryNode, ctes: dict[str, _CTEDef]
    ) -> lp.LogicalNode:
        if isinstance(node, ast.ValuesQuery):
            return self._bind_values_query(node)
        ctes = dict(ctes)  # local shadowing
        pending_recursive: list[tuple[_CTEDef, lp.LogicalNode]] = []
        for cte in node.ctes:
            if node.recursive and self._is_self_referencing(cte):
                definition, cte_def = self._bind_recursive_cte(cte, ctes)
                ctes[cte.name.lower()] = cte_def
                pending_recursive.append((cte_def, definition))
            else:
                ctes[cte.name.lower()] = _CTEDef(
                    cte.name.lower(), cte.query, cte.column_names
                )
        from dataclasses import replace as _replace

        if isinstance(node, ast.ValuesQuery):
            return self._bind_values_query(node)
        if isinstance(node, ast.Select):
            if node.ctes:
                node = _replace(node, ctes=(), recursive=False)
            plan = self._bind_select(node, ctes)
        else:
            if node.ctes:
                node = _replace(node, ctes=(), recursive=False)
            plan = self._bind_setop(node, ctes)
            plan = self._apply_order_limit(
                plan, node.order_by, node.limit, node.offset, ctes
            )
        # wrap recursive CTE definitions (innermost last) so the executor
        # materializes them before the body runs
        for cte_def, definition in reversed(pending_recursive):
            plan = lp.LMaterialize(cte_def.name, definition, plan, plan.schema)
        return plan

    @staticmethod
    def _is_self_referencing(cte: ast.CommonTableExpr) -> bool:
        """True when the CTE's query references its own name (recursion).

        A reference inside an expression subquery (IN, EXISTS, scalar)
        is a :class:`BindError`, as in PostgreSQL: the recursive branch
        reads the working table only through its FROM items."""
        target = cte.name.lower()

        def walk(node, in_subquery: bool) -> bool:
            if isinstance(node, ast.NamedTableRef):
                if node.name.lower() != target:
                    return False
                if in_subquery:
                    raise BindError(
                        f"recursive reference to query {cte.name!r} "
                        "must not appear within a subquery"
                    )
                return True
            if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
                in_subquery = True
            if isinstance(node, tuple):
                children = node
            elif is_dataclass(node):
                children = tuple(getattr(node, f.name) for f in fields(node))
            else:
                return False
            # no short cut: a later reference may sit in a subquery
            return any([walk(child, in_subquery) for child in children])

        try:
            return walk(cte.query, False)
        finally:
            del walk  # it refers to itself: freed without the collector

    def _bind_recursive_cte(self, cte: ast.CommonTableExpr, ctes):
        query = cte.query
        if not isinstance(query, ast.SetOp) or query.op != "union":
            raise BindError(
                f"recursive CTE {cte.name!r} must be 'base UNION [ALL] recursive'"
            )
        base_plan = self.bind_query(query.left, ctes)
        names = [c.lower() for c in cte.column_names] or [
            c.name for c in base_plan.schema
        ]
        if len(names) != len(base_plan.schema):
            raise BindError(f"CTE {cte.name!r} column list arity mismatch")
        template = tuple(
            lp.PlanColumn(0, name, col.type, col.nested)
            for name, col in zip(names, base_plan.schema)
        )
        cte_def = _CTEDef(cte.name.lower(), None, tuple(names), template)
        inner_ctes = dict(ctes)
        inner_ctes[cte_def.name] = cte_def
        recursive_plan = self.bind_query(query.right, inner_ctes)
        if len(recursive_plan.schema) != len(base_plan.schema):
            raise BindError(f"recursive CTE {cte.name!r} arity mismatch")
        if not query.all:
            _require_keys(c.type for c in base_plan.schema)
        schema = tuple(
            self._fresh_column(name, col.type, col.nested)
            for name, col in zip(names, base_plan.schema)
        )
        definition = lp.LRecursive(
            cte_def.name, base_plan, recursive_plan, query.all, schema
        )
        cte_def.materialized = True
        return definition, cte_def

    def _bind_setop(self, node: ast.SetOp, ctes) -> lp.LogicalNode:
        def branch(child: ast.QueryNode) -> lp.LogicalNode:
            if isinstance(child, ast.ValuesQuery):
                return self._bind_values_query(child)
            if isinstance(child, ast.Select):
                return self._bind_select(child, ctes)
            return self._bind_setop(child, ctes)

        left = branch(node.left)
        right = branch(node.right)
        if len(left.schema) != len(right.schema):
            raise BindError(f"{node.op.upper()} operands differ in column count")
        out_cols = []
        for lcol, rcol in zip(left.schema, right.schema):
            type_ = lcol.type
            if lcol.type is not None and rcol.type is not None and lcol.type != rcol.type:
                type_ = promote(lcol.type, rcol.type)
            elif lcol.type is None:
                type_ = rcol.type
            out_cols.append(self._fresh_column(lcol.name, type_, lcol.nested))
        if node.op != "union" and node.all:
            raise NotSupportedError(f"{node.op.upper()} ALL is not supported")
        if not node.all:
            _require_keys(c.type for c in out_cols)
        return lp.LSetOp(node.op, node.all, left, right, tuple(out_cols))

    # ------------------------------------------------------------------
    # SELECT core
    # ------------------------------------------------------------------
    def _bind_select(self, node: ast.Select, ctes) -> lp.LogicalNode:
        if node.ctes:
            # a nested WITH inside a set-operation branch
            return self.bind_query(node, ctes)
        scope = Scope()
        plan = self._bind_from(node.from_refs, scope, ctes)

        # --- WHERE: split REACHES predicates from ordinary conjuncts ----
        reaches_nodes: list[ast.Reaches] = []
        plain_conjuncts: list[ast.Expr] = []
        if node.where is not None:
            for conjunct in _split_conjuncts(node.where):
                if isinstance(conjunct, ast.Reaches):
                    reaches_nodes.append(conjunct)
                else:
                    _reject_nested_reaches(conjunct)
                    plain_conjuncts.append(conjunct)
        for conjunct in plain_conjuncts:
            predicate = self._bind_expr(conjunct, scope, allow_agg=False)
            _require_boolean(predicate, "WHERE")
            plan = lp.LFilter(plan, predicate, plan.schema)

        # --- match CHEAPEST SUM items to their REACHES predicate --------
        cheapest_items = self._collect_cheapest(node.items, reaches_nodes)

        # --- bind each REACHES into a graph select -----------------------
        #: binding name -> (cost/path columns per CheapestSum, in order)
        cheapest_columns: dict[int, list[tuple[lp.PlanColumn, Optional[lp.PlanColumn]]]] = {}
        for ridx, reaches in enumerate(reaches_nodes):
            plan = self._bind_graph_select(
                plan, scope, ctes, reaches,
                cheapest_items.get(ridx, ()),
                cheapest_columns.setdefault(ridx, []),
            )

        # --- projection / aggregation ------------------------------------
        has_aggregates = bool(node.group_by) or any(
            _contains_aggregate(item.expr)
            for item in node.items
            if not isinstance(item.expr, (ast.Star, ast.CheapestSum))
        )
        plan = self._bind_projection(
            node, plan, scope, ctes, cheapest_items, cheapest_columns
        )
        if node.distinct:
            _require_keys(c.type for c in plan.schema)
            plan = lp.LDistinct(plan, plan.schema)
        plan = self._apply_select_order_limit(
            node, plan, scope, allow_hidden=not (node.distinct or has_aggregates)
        )
        return plan

    def _apply_select_order_limit(
        self, node: ast.Select, plan: lp.LogicalNode, scope: Scope, *, allow_hidden: bool
    ) -> lp.LogicalNode:
        """ORDER BY over a SELECT may reference input columns that are not
        in the select list; those are carried as hidden sort columns and
        projected away afterwards (not available under DISTINCT or
        aggregation, per standard SQL)."""
        if node.order_by:
            keys: list[lp.SortKey] = []
            hidden_exprs: list[bx.BoundExpr] = []
            hidden_cols: list[lp.PlanColumn] = []
            for item in node.order_by:
                try:
                    bound = self._bind_order_expr(item.expr, plan)
                except BindError:
                    is_positional = isinstance(item.expr, ast.Literal) and isinstance(
                        item.expr.value, int
                    )
                    if is_positional or not (
                        allow_hidden and isinstance(plan, lp.LProject)
                    ):
                        raise
                    from_bound = self._bind_expr(item.expr, scope, allow_agg=False)
                    hidden = self._fresh_column("_order", from_bound.type)
                    hidden_exprs.append(from_bound)
                    hidden_cols.append(hidden)
                    bound = bx.BColumn(hidden.col_id, hidden.type, hidden.name)
                keys.append(lp.SortKey(bound, item.ascending))
            _require_keys(key.expr.type for key in keys)
            if hidden_exprs:
                visible = plan.schema
                widened = lp.LProject(
                    plan.input,
                    plan.exprs + tuple(hidden_exprs),
                    visible + tuple(hidden_cols),
                )
                sorted_plan = lp.LSort(widened, tuple(keys), widened.schema)
                plan = lp.LProject(
                    sorted_plan,
                    tuple(bx.BColumn(c.col_id, c.type, c.name) for c in visible),
                    visible,
                )
            else:
                plan = lp.LSort(plan, tuple(keys), plan.schema)
        if node.limit is not None or node.offset is not None:
            plan = lp.LLimit(plan, node.limit, node.offset or 0, plan.schema)
        return plan

    # ------------------------------------------------------------------
    def _bind_from(
        self, refs: tuple[ast.TableRef, ...], scope: Scope, ctes
    ) -> lp.LogicalNode:
        if not refs:
            return lp.LSingleRow()
        plan: Optional[lp.LogicalNode] = None
        for ref in refs:
            plan = self._combine_from_item(plan, ref, scope, ctes)
        return plan

    def _combine_from_item(
        self, left: Optional[lp.LogicalNode], ref: ast.TableRef, scope: Scope, ctes
    ) -> lp.LogicalNode:
        if isinstance(ref, ast.UnnestRef):
            if left is None:
                raise BindError("UNNEST cannot be the first FROM item")
            return self._bind_unnest(left, ref, scope, outer=False)
        if isinstance(ref, ast.JoinRef):
            return self._bind_join_tree(left, ref, scope, ctes)
        plan, alias, columns = self._bind_table_primary(ref, scope, ctes)
        scope.add(alias, columns)
        if left is None:
            return plan
        schema = left.schema + plan.schema
        return lp.LJoin(left, plan, "cross", None, schema)

    def _bind_join_tree(
        self, left: Optional[lp.LogicalNode], ref: ast.JoinRef, scope: Scope, ctes
    ) -> lp.LogicalNode:
        # left-deep: bind ref.left first (possibly another JoinRef)
        if isinstance(ref.left, ast.JoinRef):
            left_plan = self._bind_join_tree(left, ref.left, scope, ctes)
        else:
            left_plan = self._combine_from_item(left, ref.left, scope, ctes)
        if isinstance(ref.right, ast.UnnestRef):
            if ref.kind not in ("left", "inner", "cross"):
                raise BindError("UNNEST join must be INNER or LEFT")
            if ref.condition is not None and not (
                isinstance(ref.condition, ast.Literal) and ref.condition.value is True
            ):
                raise BindError("a join with UNNEST only supports ON TRUE")
            return self._bind_unnest(
                left_plan, ref.right, scope, outer=(ref.kind == "left")
            )
        right_plan, alias, columns = self._bind_table_primary(ref.right, scope, ctes)
        scope.add(alias, columns)
        schema = left_plan.schema + right_plan.schema
        if ref.kind == "cross":
            return lp.LJoin(left_plan, right_plan, "cross", None, schema)
        if ref.kind == "left":
            out = left_plan.schema + tuple(
                lp.PlanColumn(c.col_id, c.name, c.type, c.nested)
                for c in right_plan.schema
            )
            schema = out
        condition = None
        if ref.condition is not None:
            condition = self._bind_expr(ref.condition, scope, allow_agg=False)
            _require_boolean(condition, "JOIN ... ON")
        elif ref.kind != "cross":
            raise BindError("JOIN requires an ON condition")
        if ref.kind == "right":
            # A RIGHT JOIN B == B LEFT JOIN A, re-projected to the
            # original column order (left's columns first)
            swapped_schema = right_plan.schema + left_plan.schema
            swapped = lp.LJoin(
                right_plan, left_plan, "left", condition, swapped_schema
            )
            exprs = tuple(
                bx.BColumn(c.col_id, c.type, c.name) for c in schema
            )
            return lp.LProject(swapped, exprs, schema)
        return lp.LJoin(left_plan, right_plan, ref.kind, condition, schema)

    def _bind_table_primary(self, ref: ast.TableRef, scope: Scope, ctes):
        """Returns (plan, alias, scope columns)."""
        if isinstance(ref, ast.NamedTableRef):
            name = ref.name.lower()
            if name in ctes:
                return self._bind_cte_reference(ctes[name], ref.alias)
            table = self.catalog.get(name)
            columns = tuple(
                self._fresh_column(c.name, c.type) for c in table.schema
            )
            plan = lp.LScan(name, columns)
            return plan, (ref.alias or name), columns
        if isinstance(ref, ast.DerivedTableRef):
            plan = self.bind_query(ref.query, ctes)
            columns = plan.schema
            if ref.column_aliases:
                if len(ref.column_aliases) != len(columns):
                    raise BindError("derived table column alias arity mismatch")
                columns = tuple(
                    lp.PlanColumn(c.col_id, a.lower(), c.type, c.nested)
                    for c, a in zip(columns, ref.column_aliases)
                )
            return plan, ref.alias, columns
        raise BindError(f"unsupported FROM item: {type(ref).__name__}")

    def _bind_cte_reference(self, cte_def: _CTEDef, alias: Optional[str]):
        name = cte_def.name
        if cte_def.recursive_schema is not None and not cte_def.materialized:
            # reference to the working table inside the recursive branch
            columns = tuple(
                self._fresh_column(c.name, c.type, c.nested)
                for c in cte_def.recursive_schema
            )
            return lp.LCTERef(name, columns), (alias or name), columns
        if cte_def.materialized:
            # reference to the completed recursive CTE in the outer body
            columns = tuple(
                self._fresh_column(c.name, c.type, c.nested)
                for c in cte_def.recursive_schema
            )
            return lp.LCTERef(name, columns), (alias or name), columns
        # ordinary CTE: inline by re-binding its AST (fresh col ids per use)
        plan = self.bind_query(cte_def.query, {})
        columns = plan.schema
        if cte_def.column_names:
            if len(cte_def.column_names) != len(columns):
                raise BindError(f"CTE {name!r} column list arity mismatch")
            columns = tuple(
                lp.PlanColumn(c.col_id, a.lower(), c.type, c.nested)
                for c, a in zip(columns, cte_def.column_names)
            )
        return plan, (alias or name), columns

    # ------------------------------------------------------------------
    # UNNEST (Section 3.3)
    # ------------------------------------------------------------------
    def _bind_unnest(
        self, input_plan: lp.LogicalNode, ref: ast.UnnestRef, scope: Scope, outer: bool
    ) -> lp.LogicalNode:
        operand = self._bind_expr(ref.operand, scope, allow_agg=False)
        if operand.type != DataType.NESTED_TABLE:
            raise BindError("UNNEST requires a nested-table expression")
        if not isinstance(operand, bx.BColumn):
            raise BindError("UNNEST operand must be a nested-table column")
        nested = self._nested_schema_of(input_plan.schema, operand.col_id)
        unnested = tuple(
            self._fresh_column(c.name, c.type, c.nested) for c in nested
        )
        ordinality = None
        if ref.with_ordinality:
            ordinality = self._fresh_column("ordinality", DataType.BIGINT)
        out_cols = unnested + ((ordinality,) if ordinality else ())
        schema = input_plan.schema + out_cols
        scope.add(ref.alias, out_cols)
        return lp.LUnnest(
            input_plan, operand, ordinality, outer or ref.outer, unnested, schema
        )

    @staticmethod
    def _nested_schema_of(
        schema: tuple[lp.PlanColumn, ...], col_id: int
    ) -> tuple[lp.PlanColumn, ...]:
        for col in schema:
            if col.col_id == col_id:
                if not col.nested:
                    raise BindError(
                        "nested-table column lost its row schema (internal)"
                    )
                return col.nested
        raise BindError("UNNEST operand is not available in this scope")

    # ------------------------------------------------------------------
    # REACHES + CHEAPEST SUM (Section 2)
    # ------------------------------------------------------------------
    def _collect_cheapest(
        self,
        items: tuple[ast.SelectItem, ...],
        reaches_nodes: list[ast.Reaches],
    ) -> dict[int, tuple[tuple[ast.SelectItem, int], ...]]:
        """Map REACHES index -> ordered (select item, item position) pairs."""
        bindings: dict[Optional[str], int] = {}
        for i, r in enumerate(reaches_nodes):
            if r.binding is not None:
                key = r.binding.lower()
                if key in bindings:
                    raise BindError(f"duplicate edge-table binding {r.binding!r}")
                bindings[key] = i
        out: dict[int, list[tuple[ast.SelectItem, int]]] = {}
        for pos, item in enumerate(items):
            if isinstance(item.expr, ast.CheapestSum):
                cheapest = item.expr
                if not reaches_nodes:
                    raise BindError(
                        "CHEAPEST SUM requires a REACHES predicate in WHERE"
                    )
                if cheapest.binding is not None:
                    key = cheapest.binding.lower()
                    if key not in bindings:
                        raise BindError(
                            f"CHEAPEST SUM refers to unknown edge binding "
                            f"{cheapest.binding!r}"
                        )
                    ridx = bindings[key]
                elif len(reaches_nodes) == 1:
                    ridx = 0
                else:
                    raise BindError(
                        "CHEAPEST SUM must name its edge binding when the "
                        "query has multiple REACHES predicates"
                    )
                out.setdefault(ridx, []).append((item, pos))
            else:
                _reject_nested_cheapest(item.expr)
        return {k: tuple(v) for k, v in out.items()}

    def _bind_graph_select(
        self,
        plan: lp.LogicalNode,
        scope: Scope,
        ctes,
        reaches: ast.Reaches,
        cheapest_items: tuple[tuple[ast.SelectItem, int], ...],
        out_columns: list[tuple[lp.PlanColumn, Optional[lp.PlanColumn]]],
    ) -> lp.LogicalNode:
        source = tuple(
            self._bind_expr(e, scope, allow_agg=False) for e in reaches.source
        )
        dest = tuple(self._bind_expr(e, scope, allow_agg=False) for e in reaches.dest)
        # bind the edge table expression in its own scope
        edge_scope = Scope()
        edge_ref = reaches.edge
        if isinstance(edge_ref, ast.DerivedTableRef):
            edge_ref = ast.DerivedTableRef(
                edge_ref.query, alias=(reaches.binding or "edge")
            )
        edge_plan, edge_alias, edge_columns = self._bind_table_primary(
            edge_ref, edge_scope, ctes
        )
        if reaches.binding:
            edge_alias = reaches.binding
        edge_scope.add(edge_alias, edge_columns)
        src_cols = tuple(
            _find_edge_column(edge_columns, name) for name in reaches.src_cols
        )
        dst_cols = tuple(
            _find_edge_column(edge_columns, name) for name in reaches.dst_cols
        )
        # "The types for the attributes E.S, E.D, VP.X, VP.Y must match,
        # otherwise a semantic error arises."  (checked per key attribute)
        for x, y, s, d in zip(source, dest, src_cols, dst_cols):
            _check_endpoint_types(x, y, s, d)

        cheapest_specs: list[lp.CheapestSpec] = []
        for item, _pos in cheapest_items:
            cheapest_ast: ast.CheapestSum = item.expr
            weight = self._bind_expr(cheapest_ast.weight, edge_scope, allow_agg=False)
            if weight.type is not None and not weight.type.is_numeric:
                raise BindError("CHEAPEST SUM weight expression must be numeric")
            constant_one = isinstance(weight, bx.BLiteral) and weight.value == 1
            cost_type = weight.type or DataType.BIGINT
            if constant_one:
                cost_type = DataType.BIGINT  # hop count
            names = _cheapest_output_names(item)
            cost_col = self._fresh_column(names[0], cost_type)
            path_col = None
            if len(names) > 1:
                path_col = self._fresh_column(
                    names[1], DataType.NESTED_TABLE, nested=edge_columns
                )
            cheapest_specs.append(
                lp.CheapestSpec(weight, constant_one, cost_col, path_col)
            )
            out_columns.append((cost_col, path_col))

        spec = lp.GraphSpec(
            source=source,
            dest=dest,
            src_cols=src_cols,
            dst_cols=dst_cols,
            binding=reaches.binding,
            cheapest=tuple(cheapest_specs),
        )
        extra = tuple(
            col
            for cs in cheapest_specs
            for col in ((cs.cost,) if cs.path is None else (cs.cost, cs.path))
        )
        return lp.LGraphSelect(plan, edge_plan, spec, plan.schema + extra)

    # ------------------------------------------------------------------
    # projection and aggregation
    # ------------------------------------------------------------------
    def _bind_projection(
        self,
        node: ast.Select,
        plan: lp.LogicalNode,
        scope: Scope,
        ctes,
        cheapest_items,
        cheapest_columns,
    ) -> lp.LogicalNode:
        # positions of select items that are CHEAPEST SUM, mapped to their
        # already-created graph columns
        cheapest_by_pos: dict[int, tuple[lp.PlanColumn, Optional[lp.PlanColumn]]] = {}
        for ridx, items in cheapest_items.items():
            for (item, pos), cols in zip(items, cheapest_columns[ridx]):
                cheapest_by_pos[pos] = cols

        # expand stars and gather (expr_ast, name) for every output column
        output_items: list[tuple[Optional[ast.Expr], str, Optional[lp.PlanColumn]]] = []
        for pos, item in enumerate(node.items):
            if isinstance(item.expr, ast.Star):
                columns = (
                    scope.columns_of(item.expr.table)
                    if item.expr.table
                    else scope.all_columns()
                )
                if not columns:
                    raise BindError("SELECT * with no FROM clause")
                for col in columns:
                    output_items.append((None, col.name, col))
            elif pos in cheapest_by_pos:
                cost_col, path_col = cheapest_by_pos[pos]
                output_items.append((None, cost_col.name, cost_col))
                if path_col is not None:
                    output_items.append((None, path_col.name, path_col))
            else:
                name = item.alias or _default_name(item.expr)
                output_items.append((item.expr, name.lower(), None))

        has_aggregates = any(
            expr is not None and _contains_aggregate(expr)
            for expr, _, _ in output_items
        ) or (node.having is not None and _contains_aggregate(node.having))
        if node.group_by or has_aggregates:
            return self._bind_aggregate_projection(node, plan, scope, output_items)

        exprs: list[bx.BoundExpr] = []
        out_schema: list[lp.PlanColumn] = []
        for expr_ast, name, precomputed in output_items:
            if precomputed is not None:
                exprs.append(
                    bx.BColumn(precomputed.col_id, precomputed.type, precomputed.name)
                )
                out_schema.append(
                    lp.PlanColumn(
                        self._fresh_id(), name, precomputed.type, precomputed.nested
                    )
                )
            else:
                bound = self._bind_expr(expr_ast, scope, allow_agg=False)
                exprs.append(bound)
                out_schema.append(self._fresh_column(name, bound.type))
        if node.having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")
        return lp.LProject(plan, tuple(exprs), tuple(out_schema))

    def _bind_aggregate_projection(self, node, plan, scope, output_items):
        group_bound: list[bx.BoundExpr] = []
        group_cols: list[lp.PlanColumn] = []
        for expr_ast in node.group_by:
            bound = self._bind_expr(expr_ast, scope, allow_agg=False)
            _require_keys((bound.type,))
            group_bound.append(bound)
            group_cols.append(self._fresh_column(_default_name(expr_ast), bound.type))
        aggs: list[lp.AggSpec] = []

        def lower(expr: ast.Expr) -> bx.BoundExpr:
            """Replace aggregate calls with BAggValue; bind the rest."""
            if isinstance(expr, ast.FuncCall) and expr.name in _AGG_FUNCS:
                return self._bind_aggregate(expr, scope, aggs)
            # group expression matching: an outer expression identical to a
            # group-by expression becomes a reference to its column
            bound_maybe = self._try_bind(expr, scope)
            if bound_maybe is not None:
                for gb_expr, gb_col in zip(group_bound, group_cols):
                    if bound_maybe == gb_expr:
                        return bx.BColumn(gb_col.col_id, gb_col.type, gb_col.name)
            return self._lower_composite(expr, scope, lower)

        exprs: list[bx.BoundExpr] = []
        out_schema: list[lp.PlanColumn] = []
        try:
            for expr_ast, name, precomputed in output_items:
                if precomputed is not None:
                    raise BindError(
                        "CHEAPEST SUM cannot be combined with GROUP BY aggregation"
                    )
                bound = lower(expr_ast)
                _validate_grouped(bound, group_cols, aggs)
                exprs.append(bound)
                out_schema.append(self._fresh_column(name, bound.type))
            having = None
            if node.having is not None:
                # lower HAVING before building the aggregate so any
                # aggregates it introduces are part of the LAggregate's
                # spec list
                having = lower(node.having)
                _require_boolean(having, "HAVING")
                _validate_grouped(having, group_cols, aggs)
        finally:
            del lower  # it refers to itself: freed without the collector
        agg_schema = tuple(group_cols) + tuple(a.output for a in aggs)
        result: lp.LogicalNode = lp.LAggregate(
            plan, tuple(group_bound), tuple(aggs), agg_schema
        )
        if having is not None:
            result = lp.LFilter(result, having, result.schema)
        return lp.LProject(result, tuple(exprs), tuple(out_schema))

    def _bind_aggregate(self, call: ast.FuncCall, scope: Scope, aggs) -> bx.BAggValue:
        func = call.name
        if len(call.args) != 1:
            raise BindError(f"{func}() takes exactly one argument")
        arg_ast = call.args[0]
        if isinstance(arg_ast, ast.Star):
            if func != "count":
                raise BindError(f"{func}(*) is not valid")
            output = self._fresh_column("count", DataType.BIGINT)
            aggs.append(lp.AggSpec("count_star", None, False, output))
            return bx.BAggValue(output.col_id, output.type, output.name)
        if _contains_aggregate(arg_ast):
            raise BindError("aggregate calls cannot be nested")
        arg = self._bind_expr(arg_ast, scope, allow_agg=False)
        if call.distinct or func in ("min", "max"):
            _require_keys((arg.type,))
        if func == "count":
            result_type = DataType.BIGINT
        elif func == "avg":
            result_type = DataType.DOUBLE
        elif func == "sum":
            if arg.type is not None and not arg.type.is_numeric:
                raise BindError("SUM requires a numeric argument")
            result_type = (
                DataType.DOUBLE
                if arg.type == DataType.DOUBLE
                else DataType.BIGINT
            )
        else:  # min / max
            result_type = arg.type
        output = self._fresh_column(func, result_type)
        aggs.append(lp.AggSpec(func, arg, call.distinct, output))
        return bx.BAggValue(output.col_id, output.type, output.name)

    def _lower_composite(self, expr: ast.Expr, scope: Scope, lower):
        """Bind a non-aggregate AST node whose children may hold aggregates."""
        if isinstance(expr, ast.Binary):
            left = lower(expr.left)
            right = lower(expr.right)
            return self._make_call(expr.op, (left, right))
        if isinstance(expr, ast.Unary):
            operand = lower(expr.operand)
            op = "neg" if expr.op == "-" else expr.op
            return self._make_call(op, (operand,))
        if isinstance(expr, ast.Cast):
            operand = lower(expr.operand)
            return bx.BCast(operand, parse_type_name(expr.type_name))
        if isinstance(expr, ast.IsNull):
            return bx.BIsNull(lower(expr.operand), expr.negated)
        if isinstance(expr, ast.Case):
            return self._bind_case(expr, scope, lower)
        return self._bind_expr(expr, scope, allow_agg=False)

    # ------------------------------------------------------------------
    # ORDER BY / LIMIT
    # ------------------------------------------------------------------
    def _apply_order_limit(self, plan, order_by, limit, offset, ctes):
        if order_by:
            keys = []
            for item in order_by:
                keys.append(
                    lp.SortKey(self._bind_order_expr(item.expr, plan), item.ascending)
                )
            _require_keys(key.expr.type for key in keys)
            plan = lp.LSort(plan, tuple(keys), plan.schema)
        if limit is not None or offset is not None:
            plan = lp.LLimit(plan, limit, offset or 0, plan.schema)
        return plan

    def _bind_order_expr(self, expr: ast.Expr, plan: lp.LogicalNode) -> bx.BoundExpr:
        """ORDER BY resolves positions and names against the output schema."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(plan.schema):
                raise BindError(f"ORDER BY position {position} out of range")
            col = plan.schema[position - 1]
            return bx.BColumn(col.col_id, col.type, col.name)
        output_scope = Scope()
        output_scope.add(None, plan.schema)
        try:
            return self._bind_expr(expr, output_scope, allow_agg=False)
        except BindError:
            # a qualified reference (R.s) matches the output column `s`
            # when the bare name is unambiguous in the select list
            if isinstance(expr, ast.ColumnRef) and expr.table is not None:
                return self._bind_expr(
                    ast.ColumnRef(None, expr.name), output_scope, allow_agg=False
                )
            raise

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _try_bind(self, expr: ast.Expr, scope: Scope) -> Optional[bx.BoundExpr]:
        try:
            return self._bind_expr(expr, scope, allow_agg=False)
        except BindError:
            return None

    def _bind_expr(self, expr: ast.Expr, scope: Scope, *, allow_agg: bool) -> bx.BoundExpr:
        if isinstance(expr, ast.Literal):
            value = expr.value
            if value is None:
                return bx.BLiteral(None, None)
            from ..storage import infer_literal_type

            return bx.BLiteral(value, infer_literal_type(value))
        if isinstance(expr, ast.Param):
            return bx.BParam(expr.index)
        if isinstance(expr, ast.ColumnRef):
            col = scope.resolve(expr.table, expr.name)
            return bx.BColumn(col.col_id, col.type, col.name)
        if isinstance(expr, ast.Star):
            raise BindError("'*' is only valid in SELECT lists or COUNT(*)")
        if isinstance(expr, ast.Unary):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            op = "neg" if expr.op == "-" else expr.op
            return self._make_call(op, (operand,))
        if isinstance(expr, ast.Binary):
            left = self._bind_expr(expr.left, scope, allow_agg=allow_agg)
            right = self._bind_expr(expr.right, scope, allow_agg=allow_agg)
            return self._make_call(expr.op, (left, right))
        if isinstance(expr, ast.IsNull):
            return bx.BIsNull(
                self._bind_expr(expr.operand, scope, allow_agg=allow_agg), expr.negated
            )
        if isinstance(expr, ast.Between):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            low = self._bind_expr(expr.low, scope, allow_agg=allow_agg)
            high = self._bind_expr(expr.high, scope, allow_agg=allow_agg)
            test = self._make_call(
                "and",
                (self._make_call(">=", (operand, low)),
                 self._make_call("<=", (operand, high))),
            )
            return self._make_call("not", (test,)) if expr.negated else test
        if isinstance(expr, ast.InList):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            items = tuple(
                self._bind_expr(e, scope, allow_agg=allow_agg) for e in expr.items
            )
            return bx.BInList(operand, items, expr.negated)
        if isinstance(expr, ast.Like):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            pattern = self._bind_expr(expr.pattern, scope, allow_agg=allow_agg)
            call = self._make_call("like", (operand, pattern))
            return self._make_call("not", (call,)) if expr.negated else call
        if isinstance(expr, ast.Cast):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            return bx.BCast(operand, parse_type_name(expr.type_name))
        if isinstance(expr, ast.Case):
            return self._bind_case(
                expr, scope, lambda e: self._bind_expr(e, scope, allow_agg=allow_agg)
            )
        if isinstance(expr, ast.FuncCall):
            return self._bind_func(expr, scope, allow_agg=allow_agg)
        if isinstance(expr, ast.ScalarSubquery):
            plan = self.bind_query(expr.query, {})
            if len(plan.schema) != 1:
                raise BindError("scalar subquery must return exactly one column")
            return bx.BScalarSubquery(plan, plan.schema[0].type)
        if isinstance(expr, ast.InSubquery):
            operand = self._bind_expr(expr.operand, scope, allow_agg=allow_agg)
            plan = self.bind_query(expr.query, {})
            if len(plan.schema) != 1:
                raise BindError("IN subquery must return exactly one column")
            _require_keys((operand.type, plan.schema[0].type))
            return bx.BInSubquery(operand, plan, expr.negated)
        if isinstance(expr, ast.Exists):
            plan = self.bind_query(expr.query, {})
            return bx.BExists(plan)
        if isinstance(expr, ast.TupleExpr):
            raise BindError(
                "tuple expressions are only valid as REACHES endpoints"
            )
        if isinstance(expr, ast.CheapestSum):
            raise BindError(
                "CHEAPEST SUM is only allowed as a top-level projection item"
            )
        if isinstance(expr, ast.Reaches):
            raise BindError(
                "REACHES must be a top-level conjunct of the WHERE clause"
            )
        raise NotSupportedError(f"unsupported expression: {type(expr).__name__}")

    def _bind_case(self, expr: ast.Case, scope: Scope, bind) -> bx.BCase:
        whens: list[tuple[bx.BoundExpr, bx.BoundExpr]] = []
        operand = bind(expr.operand) if expr.operand is not None else None
        for cond_ast, result_ast in expr.whens:
            cond = bind(cond_ast)
            if operand is not None:
                cond = self._make_call("=", (operand, cond))
            else:
                _require_boolean(cond, "CASE WHEN")
            whens.append((cond, bind(result_ast)))
        else_ = bind(expr.else_) if expr.else_ is not None else None
        result_type = None
        for _, result in whens:
            if result.type is not None:
                result_type = (
                    result.type
                    if result_type is None
                    else promote(result_type, result.type)
                )
        if else_ is not None and else_.type is not None:
            result_type = (
                else_.type if result_type is None else promote(result_type, else_.type)
            )
        return bx.BCase(tuple(whens), else_, result_type)

    def _bind_func(self, call: ast.FuncCall, scope: Scope, *, allow_agg: bool):
        name = call.name
        if name in _AGG_FUNCS:
            raise BindError(
                f"aggregate {name}() is not allowed here"
            )
        if name not in _SCALAR_FUNCS:
            raise BindError(f"unknown function {name!r}")
        arity, fixed_type = _SCALAR_FUNCS[name]
        if arity >= 0 and len(call.args) != arity:
            raise BindError(f"{name}() takes {arity} argument(s)")
        args = tuple(
            self._bind_expr(a, scope, allow_agg=allow_agg) for a in call.args
        )
        if fixed_type is not None:
            return bx.BCall(name, args, fixed_type)
        # result type follows the (promoted) argument types
        result = None
        for arg in args:
            if arg.type is not None:
                result = arg.type if result is None else promote(result, arg.type)
        return bx.BCall(name, args, result)

    def _make_call(self, op: str, args: tuple[bx.BoundExpr, ...]) -> bx.BCall:
        type_ = _infer_call_type(op, args)
        return bx.BCall(op, args, type_)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _reject_nested_reaches(expr: ast.Expr) -> None:
    """REACHES under OR/NOT etc. has no graph-select form; reject early."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Reaches):
            raise NotSupportedError(
                "REACHES may only appear as a top-level AND conjunct"
            )
        if isinstance(node, ast.Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)


def _reject_nested_cheapest(expr: ast.Expr) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.CheapestSum):
            raise BindError(
                "CHEAPEST SUM must be a whole projection item, not a sub-expression"
            )
        if isinstance(node, ast.Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)
        elif isinstance(node, ast.FuncCall):
            stack.extend(node.args)
        elif isinstance(node, ast.Cast):
            stack.append(node.operand)


def _contains_aggregate(expr: ast.Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FuncCall):
            if node.name in _AGG_FUNCS:
                return True
            stack.extend(node.args)
        elif isinstance(node, ast.Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)
        elif isinstance(node, ast.Cast):
            stack.append(node.operand)
        elif isinstance(node, ast.IsNull):
            stack.append(node.operand)
        elif isinstance(node, ast.Case):
            for cond, result in node.whens:
                stack.extend((cond, result))
            if node.else_ is not None:
                stack.append(node.else_)
    return False


def _validate_grouped(expr: bx.BoundExpr, group_cols, aggs) -> None:
    """Outer expressions may reference only group keys and aggregates."""
    allowed = {c.col_id for c in group_cols} | {a.output.col_id for a in aggs}
    for node in bx.walk(expr):
        if isinstance(node, bx.BColumn) and node.col_id not in allowed:
            raise BindError(
                f"column {node.name!r} must appear in GROUP BY or inside an aggregate"
            )


def _require_keys(types) -> None:
    """DISTINCT, GROUP BY, ORDER BY, set operations, MIN/MAX and IN
    compare their keys like ``=`` does; a nested table (a path column)
    compares with nothing."""
    if DataType.NESTED_TABLE in tuple(types):
        raise BindError("cannot compare nested table with nested table")


def _require_boolean(expr: bx.BoundExpr, where: str) -> None:
    if expr.type is not None and expr.type != DataType.BOOLEAN:
        raise BindError(f"{where} predicate must be boolean, got {expr.type}")


def _find_edge_column(columns: tuple[lp.PlanColumn, ...], name: str) -> lp.PlanColumn:
    name = name.lower()
    for col in columns:
        if col.name == name:
            return col
    raise BindError(f"edge table has no column {name!r}")


def _check_endpoint_types(source, dest, src_col, dst_col) -> None:
    types = [src_col.type, dst_col.type, source.type, dest.type]
    known = [t for t in types if t is not None]
    for a in known:
        for b in known:
            # numeric endpoints may mix widths; everything else must match
            if not (a == b or (a.is_numeric and b.is_numeric)):
                raise BindError(
                    f"REACHES endpoint/edge types do not match: {a} vs {b}"
                )
    if src_col.type == DataType.NESTED_TABLE or dst_col.type == DataType.NESTED_TABLE:
        raise BindError("edge keys cannot be nested tables")


def _cheapest_output_names(item: ast.SelectItem) -> tuple[str, ...]:
    """Output name(s) of a CHEAPEST SUM item.

    ``AS (cost, path)`` yields two names (cost and path); a single alias
    names the cost; the default name is ``cheapest_sum``.
    """
    if item.alias_list:
        if len(item.alias_list) > 2:
            raise BindError(
                "CHEAPEST SUM AS (...) takes at most two identifiers (cost, path)"
            )
        return tuple(a.lower() for a in item.alias_list)
    if item.alias:
        return (item.alias.lower(),)
    return ("cheapest_sum",)


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    if isinstance(expr, ast.CheapestSum):
        return "cheapest_sum"
    if isinstance(expr, ast.Cast):
        return _default_name(expr.operand)
    return "expr"


def _infer_call_type(op: str, args: tuple[bx.BoundExpr, ...]) -> Optional[DataType]:
    from ..storage import comparable

    types = [a.type for a in args]
    if op in ("and", "or", "not", "like"):
        return DataType.BOOLEAN
    if op in ("=", "<>", "<", "<=", ">", ">="):
        left, right = types
        if left is not None and right is not None and not comparable(left, right):
            # a date literal written as a string compares against DATE
            if {left, right} != {DataType.DATE, DataType.VARCHAR}:
                raise BindError(f"cannot compare {left} with {right}")
        return DataType.BOOLEAN
    if op == "||":
        return DataType.VARCHAR
    if op == "neg":
        return types[0]
    if op in ("+", "-", "*", "/", "%"):
        left, right = types
        if left is None or right is None:
            return left or right
        if not (left.is_numeric and right.is_numeric):
            # DATE ± INTEGER arithmetic
            if op in ("+", "-") and left == DataType.DATE and right.is_integral:
                return DataType.DATE
            if op == "-" and left == DataType.DATE and right == DataType.DATE:
                return DataType.BIGINT
            raise BindError(f"operator {op!r} requires numeric operands")
        if op == "/":
            # like the evaluator, division always yields a double
            return DataType.DOUBLE
        return promote(left, right)
    return None
