"""Unit tests of the paper's Section-3.1 rewrite rules — filter pushdown
through cross products and graph-join unfolding — as the optimizer's
logical pushdown pass applies them."""

import pytest

from repro import Database
from repro.plan import Binder, BoundQuery, logical as lp
from repro.plan.optimizer import pushdown
from repro.sql import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.executescript(
        """
        CREATE TABLE a (x INT, tag VARCHAR);
        CREATE TABLE b (y INT, tag VARCHAR);
        CREATE TABLE e (s INT, d INT, w INT);
        """
    )
    return database


def plan_of(db, sql):
    bound = Binder(db.catalog).bind_statement(parse_statement(sql))
    assert isinstance(bound, BoundQuery)
    return bound.plan


def nodes_of(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children:
            visit(child)

    visit(plan)
    return found


class TestFilterPushdown:
    def test_left_only_filter_pushed_left(self, db):
        plan = pushdown(plan_of(db, "SELECT a.x FROM a, b WHERE a.x = 1"))
        joins = nodes_of(plan, lp.LJoin)
        assert joins, "cross join survives"
        assert nodes_of(joins[0].left, lp.LFilter)

    def test_right_only_filter_pushed_right(self, db):
        plan = pushdown(plan_of(db, "SELECT a.x FROM a, b WHERE b.y = 1"))
        joins = nodes_of(plan, lp.LJoin)
        assert nodes_of(joins[0].right, lp.LFilter)

    def test_cross_side_filter_becomes_join_condition(self, db):
        plan = pushdown(plan_of(db, "SELECT a.x FROM a, b WHERE a.x = b.y"))
        joins = nodes_of(plan, lp.LJoin)
        # predicate references both sides: the cross product turns into an
        # inner join so the executor can hash on the equi-keys
        assert joins[0].kind == "inner"
        assert joins[0].condition is not None
        assert not nodes_of(plan, lp.LFilter)

    def test_comma_join_results_match_explicit_join(self, db):
        db.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q')")
        db.execute("INSERT INTO b VALUES (1, 'r'), (3, 's')")
        comma = db.execute("SELECT a.x, b.y FROM a, b WHERE a.x = b.y").rows()
        explicit = db.execute("SELECT a.x, b.y FROM a JOIN b ON a.x = b.y").rows()
        assert sorted(comma) == sorted(explicit)

    def test_pushdown_preserves_results(self, db):
        db.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q')")
        db.execute("INSERT INTO b VALUES (1, 'r'), (3, 's')")
        rows = db.execute(
            "SELECT a.x, b.y FROM a, b WHERE a.x = 1 AND b.y = 3"
        ).rows()
        assert rows == [(1, 3)]


class TestGraphJoinUnfolding:
    def test_basic_unfold(self, db):
        plan = pushdown(
            plan_of(
                db,
                "SELECT a.x, b.y FROM a, b WHERE a.x REACHES b.y OVER e EDGE (s, d)",
            )
        )
        assert len(nodes_of(plan, lp.LGraphJoin)) == 1
        assert len(nodes_of(plan, lp.LGraphSelect)) == 0

    def test_unfold_through_pushed_filters(self, db):
        plan = pushdown(
            plan_of(
                db,
                "SELECT a.x FROM a, b WHERE a.tag = 'p' AND b.tag = 'q' "
                "AND a.x REACHES b.y OVER e EDGE (s, d)",
            )
        )
        graph_joins = nodes_of(plan, lp.LGraphJoin)
        assert len(graph_joins) == 1
        # the side filters survive inside the graph join's inputs
        assert nodes_of(graph_joins[0].left, lp.LFilter)
        assert nodes_of(graph_joins[0].right, lp.LFilter)

    def test_no_unfold_when_endpoints_on_one_side(self, db):
        plan = pushdown(
            plan_of(
                db,
                "SELECT a.x FROM a, b WHERE a.x REACHES a.x OVER e EDGE (s, d)",
            )
        )
        assert len(nodes_of(plan, lp.LGraphJoin)) == 0
        assert len(nodes_of(plan, lp.LGraphSelect)) == 1

    def test_no_unfold_for_single_table(self, db):
        plan = pushdown(
            plan_of(db, "SELECT a.x FROM a WHERE a.x REACHES a.x OVER e EDGE (s, d)")
        )
        assert len(nodes_of(plan, lp.LGraphJoin)) == 0

    def test_unfold_inside_derived_table(self, db):
        plan = pushdown(
            plan_of(
                db,
                "SELECT * FROM (SELECT a.x AS p, b.y AS q FROM a, b "
                "WHERE a.x REACHES b.y OVER e EDGE (s, d)) t WHERE t.p > 0",
            )
        )
        assert len(nodes_of(plan, lp.LGraphJoin)) == 1

    def test_three_way_cross_unfolds_outermost(self, db):
        plan = pushdown(
            plan_of(
                db,
                "SELECT 1 FROM a, a a2, b "
                "WHERE a.x REACHES b.y OVER e EDGE (s, d)",
            )
        )
        # ((a x a2) x b): source refs ⊆ left subtree, dest refs ⊆ right
        assert len(nodes_of(plan, lp.LGraphJoin)) == 1

    def test_rewrite_is_idempotent(self, db):
        once = pushdown(
            plan_of(
                db,
                "SELECT a.x, b.y FROM a, b WHERE a.x REACHES b.y OVER e EDGE (s, d)",
            )
        )
        twice = pushdown(once)
        assert len(nodes_of(twice, lp.LGraphJoin)) == 1

    def test_results_identical_with_and_without_join_form(self, db):
        db.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q')")
        db.execute("INSERT INTO b VALUES (2, 'r'), (3, 's')")
        db.execute("INSERT INTO e VALUES (1, 2, 1), (2, 3, 1)")
        # join form (unfolded) vs select form over an pre-built cross
        join_form = db.execute(
            "SELECT a.x, b.y, CHEAPEST SUM(1) AS c FROM a, b "
            "WHERE a.x REACHES b.y OVER e EDGE (s, d) ORDER BY 1, 2"
        ).rows()
        select_form = db.execute(
            "SELECT t.x, t.y, CHEAPEST SUM(1) AS c "
            "FROM (SELECT a.x, b.y FROM a CROSS JOIN b) t "
            "WHERE t.x REACHES t.y OVER e EDGE (s, d) ORDER BY 1, 2"
        ).rows()
        assert join_form == select_form
