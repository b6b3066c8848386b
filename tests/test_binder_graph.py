"""Binder tests for the graph extension: REACHES / CHEAPEST SUM semantics
(Section 2 rules) and the graph-join unfolding (Section 3.1) that the
optimizer's pushdown pass applies to the bound plan."""

import pytest

from repro import Database
from repro.errors import BindError, NotSupportedError
from repro.plan import Binder, BoundQuery, logical as lp
from repro.plan.optimizer import pushdown
from repro.sql import parse_statement
from repro.storage import DataType


@pytest.fixture
def db():
    database = Database()
    database.executescript(
        """
        CREATE TABLE vp (id INT, name VARCHAR);
        CREATE TABLE e (s INT, d INT, w DOUBLE);
        CREATE TABLE se (s VARCHAR, d VARCHAR);
        """
    )
    return database


def bind(db, sql):
    bound = Binder(db.catalog).bind_statement(parse_statement(sql))
    assert isinstance(bound, BoundQuery)
    return bound.plan


def find(plan, node_type):
    out = []

    def visit(node):
        if isinstance(node, node_type):
            out.append(node)
        for child in node.children:
            visit(child)

    visit(plan)
    return out


class TestGraphSelectBinding:
    def test_creates_graph_select(self, db):
        plan = bind(db, "SELECT * FROM vp WHERE id REACHES id OVER e EDGE (s, d)")
        assert len(find(plan, lp.LGraphSelect)) == 1

    def test_semantic_stage_never_creates_graph_join(self, db):
        # "the semantic stage of the compiler always creates a graph select"
        plan = bind(
            db,
            "SELECT * FROM vp a, vp b WHERE a.id REACHES b.id OVER e EDGE (s, d)",
        )
        assert len(find(plan, lp.LGraphJoin)) == 0
        assert len(find(plan, lp.LGraphSelect)) == 1

    def test_unknown_edge_column(self, db):
        with pytest.raises(BindError, match="no column"):
            bind(db, "SELECT * FROM vp WHERE id REACHES id OVER e EDGE (s, nope)")

    def test_endpoint_type_mismatch(self, db):
        # VP.X is VARCHAR, edge keys INT -> "a semantic error arises"
        with pytest.raises(BindError, match="match"):
            bind(db, "SELECT * FROM vp WHERE name REACHES id OVER e EDGE (s, d)")

    def test_string_keys_accepted(self, db):
        bind(db, "SELECT * FROM vp WHERE name REACHES name OVER se EDGE (s, d)")

    def test_edge_key_type_mismatch(self, db):
        db.execute("CREATE TABLE bad (s INT, d VARCHAR)")
        with pytest.raises(BindError):
            bind(db, "SELECT * FROM vp WHERE id REACHES id OVER bad EDGE (s, d)")

    def test_reaches_under_or_rejected(self, db):
        with pytest.raises(NotSupportedError):
            bind(
                db,
                "SELECT * FROM vp WHERE id = 1 OR id REACHES id OVER e EDGE (s, d)",
            )

    def test_reaches_under_not_rejected(self, db):
        with pytest.raises((NotSupportedError, BindError)):
            bind(db, "SELECT * FROM vp WHERE NOT id REACHES id OVER e EDGE (s, d)")

    def test_multiple_reaches_stack(self, db):
        plan = bind(
            db,
            "SELECT * FROM vp WHERE id REACHES id OVER e e1 EDGE (s, d) "
            "AND id REACHES id OVER e e2 EDGE (d, s)",
        )
        assert len(find(plan, lp.LGraphSelect)) == 2

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(BindError, match="duplicate"):
            bind(
                db,
                "SELECT * FROM vp WHERE id REACHES id OVER e f EDGE (s, d) "
                "AND id REACHES id OVER e f EDGE (d, s)",
            )

    def test_edge_can_be_subquery(self, db):
        plan = bind(
            db,
            "SELECT * FROM vp WHERE id REACHES id "
            "OVER (SELECT * FROM e WHERE w > 0) f EDGE (s, d)",
        )
        graph_selects = find(plan, lp.LGraphSelect)
        assert len(graph_selects) == 1
        assert len(find(graph_selects[0].edge, lp.LFilter)) == 1


class TestCheapestBinding:
    def test_requires_reaches(self, db):
        with pytest.raises(BindError, match="REACHES"):
            bind(db, "SELECT CHEAPEST SUM(1) FROM vp")

    def test_cost_column_added(self, db):
        plan = bind(
            db,
            "SELECT CHEAPEST SUM(1) AS hops FROM vp "
            "WHERE id REACHES id OVER e EDGE (s, d)",
        )
        assert plan.schema[0].name == "hops"
        assert plan.schema[0].type == DataType.BIGINT

    def test_weighted_cost_type_follows_weight(self, db):
        plan = bind(
            db,
            "SELECT CHEAPEST SUM(f: w) AS c FROM vp "
            "WHERE id REACHES id OVER e f EDGE (s, d)",
        )
        assert plan.schema[0].type == DataType.DOUBLE

    def test_path_column_is_nested_table(self, db):
        plan = bind(
            db,
            "SELECT CHEAPEST SUM(f: w) AS (c, p) FROM vp "
            "WHERE id REACHES id OVER e f EDGE (s, d)",
        )
        path_col = plan.schema[1]
        assert path_col.type == DataType.NESTED_TABLE
        # "the attributes enclosed in the nested table ... are the same as
        # the attributes of the EDGE table expression"
        assert [c.name for c in path_col.nested] == ["s", "d", "w"]

    def test_unknown_binding(self, db):
        with pytest.raises(BindError, match="unknown edge binding"):
            bind(
                db,
                "SELECT CHEAPEST SUM(zz: 1) FROM vp "
                "WHERE id REACHES id OVER e f EDGE (s, d)",
            )

    def test_binding_mandatory_with_two_predicates(self, db):
        with pytest.raises(BindError, match="multiple"):
            bind(
                db,
                "SELECT CHEAPEST SUM(1) FROM vp "
                "WHERE id REACHES id OVER e a EDGE (s, d) "
                "AND id REACHES id OVER e b EDGE (d, s)",
            )

    def test_binding_optional_with_one_predicate(self, db):
        bind(
            db,
            "SELECT CHEAPEST SUM(1) FROM vp WHERE id REACHES id OVER e EDGE (s, d)",
        )

    def test_weight_must_be_numeric(self, db):
        db.execute("CREATE TABLE ew (s INT, d INT, label VARCHAR)")
        with pytest.raises(BindError, match="numeric"):
            bind(
                db,
                "SELECT CHEAPEST SUM(f: label) FROM vp "
                "WHERE id REACHES id OVER ew f EDGE (s, d)",
            )

    def test_weight_sees_only_edge_columns(self, db):
        with pytest.raises(BindError):
            bind(
                db,
                "SELECT CHEAPEST SUM(f: id) FROM vp "
                "WHERE id REACHES id OVER e f EDGE (s, d)",
            )

    def test_cheapest_in_where_rejected(self, db):
        with pytest.raises(BindError):
            bind(
                db,
                "SELECT 1 FROM vp WHERE CHEAPEST SUM(1) > 2 "
                "AND id REACHES id OVER e EDGE (s, d)",
            )

    def test_cheapest_inside_expression_rejected(self, db):
        with pytest.raises(BindError, match="projection item"):
            bind(
                db,
                "SELECT CHEAPEST SUM(1) + 1 FROM vp "
                "WHERE id REACHES id OVER e EDGE (s, d)",
            )

    def test_three_aliases_rejected(self, db):
        with pytest.raises(BindError):
            bind(
                db,
                "SELECT CHEAPEST SUM(1) AS (a, b, c) FROM vp "
                "WHERE id REACHES id OVER e EDGE (s, d)",
            )

    def test_two_cheapest_on_one_predicate(self, db):
        plan = bind(
            db,
            "SELECT CHEAPEST SUM(f: 1) AS hops, CHEAPEST SUM(f: w) AS wcost "
            "FROM vp WHERE id REACHES id OVER e f EDGE (s, d)",
        )
        graph_select = find(plan, lp.LGraphSelect)[0]
        assert len(graph_select.spec.cheapest) == 2


class TestGraphJoinRewrite:
    def test_cross_product_plus_graph_select_unfolds(self, db):
        plan = pushdown(
            bind(
                db,
                "SELECT a.id, b.id FROM vp a, vp b "
                "WHERE a.id REACHES b.id OVER e EDGE (s, d)",
            )
        )
        assert len(find(plan, lp.LGraphJoin)) == 1
        assert len(find(plan, lp.LGraphSelect)) == 0

    def test_same_side_endpoints_stay_graph_select(self, db):
        plan = pushdown(
            bind(
                db,
                "SELECT a.id FROM vp a, vp b "
                "WHERE a.id REACHES a.id OVER e EDGE (s, d)",
            )
        )
        assert len(find(plan, lp.LGraphJoin)) == 0

    def test_filters_push_through_cross_before_unfolding(self, db):
        plan = pushdown(
            bind(
                db,
                "SELECT a.id, b.id FROM vp a, vp b "
                "WHERE a.id = 1 AND b.id = 2 "
                "AND a.id REACHES b.id OVER e EDGE (s, d)",
            )
        )
        assert len(find(plan, lp.LGraphJoin)) == 1

    def test_schema_preserved_by_rewrite(self, db):
        bound = bind(
            db,
            "SELECT a.id, b.id, CHEAPEST SUM(1) AS c FROM vp a, vp b "
            "WHERE a.id REACHES b.id OVER e EDGE (s, d)",
        )
        rewritten = pushdown(bound)
        assert [c.col_id for c in bound.schema] == [c.col_id for c in rewritten.schema]


PATHS = (
    "(SELECT p.a, CHEAPEST SUM(w) AS (c, path) FROM pr p "
    "WHERE p.a REACHES p.b OVER e EDGE (s, d))"
)
NESTED_KEY = "cannot compare nested table with nested table"


class TestPathColumnKeys:
    """A path (nested-table) column compares with nothing, so every
    clause that compares its keys rejects it in the binder — the error
    an equi-join on it already raised."""

    @pytest.fixture
    def paths_db(self, db):
        db.executescript(
            """
            CREATE TABLE pr (a INT, b INT);
            INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
            INSERT INTO pr VALUES (1, 3), (2, 1), (1, 5);
            """
        )
        return db

    def _rejects(self, db, sql):
        with pytest.raises(BindError, match=NESTED_KEY):
            db.execute(sql)

    def test_select_distinct(self, paths_db):
        self._rejects(paths_db, f"SELECT DISTINCT path FROM {PATHS} q")

    def test_select_distinct_over_one_row(self, paths_db):
        self._rejects(
            paths_db, f"SELECT DISTINCT path FROM {PATHS[:-1]} LIMIT 1) q"
        )

    def test_group_by(self, paths_db):
        self._rejects(
            paths_db, f"SELECT path, count(*) FROM {PATHS} q GROUP BY path"
        )

    def test_order_by(self, paths_db):
        self._rejects(paths_db, f"SELECT a FROM {PATHS} q ORDER BY path")
        self._rejects(paths_db, f"SELECT path FROM {PATHS} q ORDER BY 1")

    def test_count_distinct(self, paths_db):
        self._rejects(paths_db, f"SELECT count(DISTINCT path) FROM {PATHS} q")

    def test_min_max(self, paths_db):
        self._rejects(paths_db, f"SELECT min(path) FROM {PATHS} q")
        self._rejects(paths_db, f"SELECT max(path) FROM {PATHS} q")

    def test_union(self, paths_db):
        self._rejects(
            paths_db,
            f"SELECT path FROM {PATHS} q UNION SELECT path FROM {PATHS} r",
        )

    def test_except_and_intersect(self, paths_db):
        for op in ("EXCEPT", "INTERSECT"):
            self._rejects(
                paths_db,
                f"SELECT path FROM {PATHS} q {op} SELECT path FROM {PATHS} r",
            )

    def test_in_subquery(self, paths_db):
        self._rejects(
            paths_db,
            f"SELECT a FROM {PATHS} q WHERE path IN (SELECT path FROM {PATHS} r)",
        )

    def test_recursive_union(self, paths_db):
        self._rejects(
            paths_db,
            f"WITH RECURSIVE x (p) AS (SELECT path FROM {PATHS} q "
            "UNION SELECT p FROM x) SELECT count(*) FROM x",
        )

    def test_join_already_rejected(self, paths_db):
        self._rejects(
            paths_db,
            f"SELECT q.a FROM {PATHS} q JOIN {PATHS} r ON q.path = r.path",
        )

    def test_non_key_uses_still_work(self, paths_db):
        union_all = paths_db.execute(
            f"SELECT path FROM {PATHS} q UNION ALL SELECT path FROM {PATHS} r"
        ).rows()
        assert len(union_all) == 6
        assert paths_db.execute(f"SELECT count(path) FROM {PATHS} q").scalar() == 3
        ordered = paths_db.execute(f"SELECT a, c FROM {PATHS} q ORDER BY c, a")
        assert ordered.rows() == [(1, 2), (1, 3), (2, 5)]
