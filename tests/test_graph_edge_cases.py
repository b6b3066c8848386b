"""Graph operator edge cases: degenerate graphs, duplicate pairs,
empty inputs, guards — the unhappy paths of the §3.1 code generation."""

import pytest

from repro import Database
from repro.errors import GraphRuntimeError


@pytest.fixture
def db():
    return Database()


class TestDegenerateGraphs:
    def test_empty_edge_table(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        assert db.execute(
            "SELECT 1 WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        ).rows() == []

    def test_empty_edge_table_with_cheapest(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        ).rows() == []

    def test_single_self_loop(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (7, 7)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 7 REACHES 7 OVER e EDGE (s, d)"
        ).scalar() == 0  # empty path beats the loop

    def test_parallel_edges_pick_cheapest(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, w INT)")
        db.execute("INSERT INTO e VALUES (1, 2, 9), (1, 2, 3), (1, 2, 5)")
        rows = db.execute(
            "SELECT CHEAPEST SUM(k: w) AS (c, p) "
            "WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
        ).rows()
        cost, path = rows[0]
        assert cost == 3
        assert path.to_rows() == [(1, 2, 3)]

    def test_cycle_terminates(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 1)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (s, d)"
        ).scalar() == 2

    def test_disconnected_components(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2), (10, 20)")
        assert db.execute(
            "SELECT 1 WHERE 1 REACHES 20 OVER e EDGE (s, d)"
        ).rows() == []

    def test_varchar_vertex_keys(self, db):
        db.execute("CREATE TABLE e (s VARCHAR, d VARCHAR)")
        db.execute("INSERT INTO e VALUES ('a', 'b'), ('b', 'c')")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 'a' REACHES 'c' OVER e EDGE (s, d)"
        ).scalar() == 2

    def test_date_vertex_keys(self, db):
        # any comparable type works as a key: V is derived from S ∪ D
        db.execute("CREATE TABLE e (s DATE, d DATE)")
        db.execute("INSERT INTO e VALUES ('2020-01-01', '2020-06-01')")
        rows = db.execute(
            "SELECT count(*) FROM e WHERE e.s REACHES e.d OVER e EDGE (s, d)"
        ).rows()
        assert rows == [(1,)]


class TestInputShapes:
    def test_empty_input_relation(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2)")
        db.execute("CREATE TABLE vp (x INT)")
        assert db.execute(
            "SELECT x FROM vp WHERE x REACHES 2 OVER e EDGE (s, d)"
        ).rows() == []

    def test_duplicate_pairs_each_returned(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2)")
        rows = db.execute(
            "SELECT p.src, CHEAPEST SUM(1) "
            "FROM (VALUES (1, 2), (1, 2), (1, 2)) p (src, dst) "
            "WHERE p.src REACHES p.dst OVER e EDGE (s, d)"
        ).rows()
        assert rows == [(1, 1)] * 3

    def test_many_sources_share_traversals(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 4)")
        rows = db.execute(
            "SELECT p.dst, CHEAPEST SUM(1) "
            "FROM (VALUES (1, 2), (1, 3), (1, 4)) p (src, dst) "
            "WHERE p.src REACHES p.dst OVER e EDGE (s, d) ORDER BY 1"
        ).rows()
        assert rows == [(2, 1), (3, 2), (4, 3)]

    def test_graph_join_empty_sides(self, db):
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2)")
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (x INT)")
        db.execute("INSERT INTO a VALUES (1)")
        assert db.execute(
            "SELECT * FROM a, b WHERE a.x REACHES b.x OVER e EDGE (s, d)"
        ).rows() == []

    def test_graph_join_dedups_endpoint_values(self, db):
        # 100 identical left values: one traversal, 100 output rows
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2)")
        db.execute("CREATE TABLE a (x INT)")
        db.table("a").insert_rows([(1,)] * 100)
        db.execute("CREATE TABLE b (x INT)")
        db.execute("INSERT INTO b VALUES (2)")
        rows = db.execute(
            "SELECT count(*) FROM a, b WHERE a.x REACHES b.x OVER e EDGE (s, d)"
        ).rows()
        assert rows == [(100,)]


class TestWeightValidation:
    def test_null_weight_rejected(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, w INT)")
        db.execute("INSERT INTO e VALUES (1, 2, NULL)")
        with pytest.raises(GraphRuntimeError, match="NULL"):
            db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
            )

    def test_negative_weight_rejected(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, w INT)")
        db.execute("INSERT INTO e VALUES (1, 2, -1)")
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
            )

    @pytest.mark.parametrize("indexed", [False, True])
    def test_nan_weight_rejected(self, db, indexed):
        # NaN is a storable DOUBLE but not "strictly greater than 0"
        db.execute("CREATE TABLE e (s INT, d INT, w DOUBLE)")
        db.execute(
            "INSERT INTO e VALUES (1, 2, 1.5), (2, 3, CAST('nan' AS DOUBLE))"
        )
        if indexed:
            db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 3 OVER e k EDGE (s, d)"
            )

    def test_weight_on_null_endpoint_edge_is_ignored(self, db):
        # edges with NULL endpoints are dropped before weight validation
        db.execute("CREATE TABLE e (s INT, d INT, w INT)")
        db.execute("INSERT INTO e VALUES (1, 2, 5), (NULL, 3, -7)")
        assert db.execute(
            "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
        ).scalar() == 5

    def test_float_weights_cost_is_double(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, w DOUBLE)")
        db.execute("INSERT INTO e VALUES (1, 2, 0.25), (2, 3, 0.5)")
        cost = db.execute(
            "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 3 OVER e k EDGE (s, d)"
        ).scalar()
        assert cost == pytest.approx(0.75)


class TestEdgeExpressionForms:
    def test_edge_from_cte(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, kind VARCHAR)")
        db.execute("INSERT INTO e VALUES (1, 2, 'a'), (2, 3, 'b')")
        assert db.execute(
            "WITH ea AS (SELECT * FROM e WHERE kind = 'a') "
            "SELECT 1 WHERE 1 REACHES 3 OVER ea EDGE (s, d)"
        ).rows() == []

    def test_edge_from_values(self, db):
        assert db.execute(
            "SELECT CHEAPEST SUM(k: 1) WHERE 1 REACHES 3 "
            "OVER (SELECT * FROM (VALUES (1, 2), (2, 3)) v (s, d)) k EDGE (s, d)"
        ).scalar() == 2

    def test_edge_from_union(self, db):
        db.execute("CREATE TABLE e1 (s INT, d INT)")
        db.execute("CREATE TABLE e2 (s INT, d INT)")
        db.execute("INSERT INTO e1 VALUES (1, 2)")
        db.execute("INSERT INTO e2 VALUES (2, 3)")
        assert db.execute(
            "SELECT CHEAPEST SUM(k: 1) WHERE 1 REACHES 3 "
            "OVER (SELECT * FROM e1 UNION ALL SELECT * FROM e2) k EDGE (s, d)"
        ).scalar() == 2

    def test_undirected_graph_via_doubling(self, db):
        # the paper's trick: undirected = both directions inserted
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2), (2, 1)")
        assert db.execute(
            "SELECT 1 WHERE 2 REACHES 1 OVER e EDGE (s, d)"
        ).rows() == [(1,)]

    def test_computed_weight_from_edge_columns(self, db):
        db.execute("CREATE TABLE e (s INT, d INT, base INT, toll INT)")
        db.execute("INSERT INTO e VALUES (1, 2, 3, 4), (1, 2, 10, 0)")
        assert db.execute(
            "SELECT CHEAPEST SUM(k: base + toll) "
            "WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
        ).scalar() == 7


@pytest.fixture(params=["uncached", "indexed"])
def indexed_db(request):
    """An (s, d, w) edge table with and without a covering graph index,
    so every degenerate case exercises both the ad-hoc CSR build and the
    graph-index cache path."""
    db = Database()
    db.execute("CREATE TABLE e (s INT, d INT, w INT)")
    if request.param == "indexed":
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
    db.indexed = request.param == "indexed"
    return db


class TestCachedAndUncachedEdgeCases:
    """The satellite's degenerate-graph matrix: each case runs with the
    graph-index cache engaged and bypassed (the two code paths of
    ``_prepare_libraries``)."""

    def _assert_index_used(self, db):
        if db.indexed:
            # the query went through the manager: either a hit, or (after
            # DML invalidated the entry) a miss that rebuilt the library
            stats = db.graph_indices.stats()
            assert stats["builds"] >= 1
            assert stats["hits"] + stats["misses"] >= 2  # eager build + query

    def test_empty_edge_table(self, indexed_db):
        db = indexed_db
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        ).rows() == []
        self._assert_index_used(db)

    def test_self_loop_cost_zero_beats_loop_edge(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (7, 7, 5)")
        assert db.execute(
            "SELECT CHEAPEST SUM(k: w) WHERE 7 REACHES 7 OVER e k EDGE (s, d)"
        ).scalar() == 0
        self._assert_index_used(db)

    def test_self_loop_never_appears_in_other_paths(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 1, 1), (1, 2, 3)")
        rows = db.execute(
            "SELECT CHEAPEST SUM(k: w) AS (c, p) "
            "WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
        ).rows()
        cost, path = rows[0]
        assert cost == 3
        assert path.to_rows() == [(1, 2, 3)]

    def test_duplicate_edges_keep_cheapest(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 2, 9), (1, 2, 2), (1, 2, 9)")
        assert db.execute(
            "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
        ).scalar() == 2
        self._assert_index_used(db)

    def test_duplicate_edges_hop_count_one(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 2, 9), (1, 2, 2)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        ).scalar() == 1

    def test_all_pairs_unreachable(self, indexed_db):
        db = indexed_db
        # two disjoint components; every cross-component pair fails
        db.execute("INSERT INTO e VALUES (1, 2, 1), (10, 20, 1)")
        rows = db.execute(
            "SELECT p.src, p.dst FROM "
            "(VALUES (1, 10), (1, 20), (2, 10), (2, 20)) p (src, dst) "
            "WHERE p.src REACHES p.dst OVER e EDGE (s, d)"
        ).rows()
        assert rows == []
        self._assert_index_used(db)

    def test_zero_weight_rejected(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 2, 0)")
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
            )

    def test_negative_weight_rejected(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 2, -3)")
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
            )

    def test_reachability_unaffected_by_bad_weights(self, indexed_db):
        db = indexed_db
        # weight validation only runs for CHEAPEST SUM over that weight;
        # pure reachability must still work
        db.execute("INSERT INTO e VALUES (1, 2, -3)")
        assert db.execute(
            "SELECT 1 WHERE 1 REACHES 2 OVER e EDGE (s, d)"
        ).rows() == [(1,)]

    def test_insert_after_index_build_is_visible(self, indexed_db):
        db = indexed_db
        db.execute("INSERT INTO e VALUES (1, 2, 1)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (s, d)"
        ).rows() == []
        db.execute("INSERT INTO e VALUES (2, 3, 1)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (s, d)"
        ).scalar() == 2
