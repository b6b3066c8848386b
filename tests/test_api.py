"""Public API surface: Database, Result, connect, executescript, explain."""

import pytest

from repro import Database, connect
from repro.errors import CatalogError, ExecutionError, ParseError
from repro.storage import DataType


class TestDatabase:
    def test_connect_returns_fresh_database(self):
        db1, db2 = connect(), connect()
        db1.execute("CREATE TABLE t (x INT)")
        assert db1.catalog.has("t") and not db2.catalog.has("t")

    def test_executescript_returns_results(self):
        db = Database()
        results = db.executescript(
            "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t"
        )
        assert len(results) == 3
        assert results[1].rowcount == 1
        assert results[2].rows() == [(1,)]

    def test_executescript_without_trailing_semicolon(self):
        results = Database().executescript("SELECT 1; SELECT 2")
        assert len(results) == 2

    def test_create_table_helper(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.VARCHAR)])
        assert db.table("t").schema.names() == ["a", "b"]

    def test_insert_rows_helper(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)])
        assert db.insert_rows("t", [(1,), (2,)]) == 2

    def test_params_accept_list(self):
        db = Database()
        assert db.execute("SELECT ?", [7]).rows() == [(7,)]

    def test_syntax_error_propagates(self):
        with pytest.raises(ParseError):
            Database().execute("SELEC 1")

    def test_unknown_table_propagates(self):
        with pytest.raises(CatalogError):
            Database().execute("SELECT * FROM nope")

    @pytest.mark.parametrize(
        "option",
        [
            {"graph_overlay": False},
            {"graph_compact_mode": "eager"},
            {"path_workers": 2},
        ],
    )
    def test_removed_graph_settings_are_rejected(self, option):
        # the overlay is the only index-maintenance path and path
        # batches share exec_workers: these settings no longer exist
        with pytest.raises(TypeError):
            Database(**option)


class TestExplain:
    def test_explain_plain_query(self, chain_db):
        text = chain_db.explain("SELECT s FROM edges WHERE w > 1 ORDER BY s")
        assert "Scan edges" in text
        assert "Sort" in text

    def test_explain_graph_select(self, chain_db):
        text = chain_db.explain(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        )
        assert "GraphSelect" in text and "cheapest=1" in text

    def test_explain_graph_join_after_rewrite(self, chain_db):
        chain_db.execute("CREATE TABLE v (x INT)")
        text = chain_db.explain(
            "SELECT a.x, b.x FROM v a, v b "
            "WHERE a.x REACHES b.x OVER edges EDGE (s, d)"
        )
        assert "GraphJoin" in text and "GraphSelect" not in text

    def test_explain_rejects_ddl(self, chain_db):
        with pytest.raises(ExecutionError):
            chain_db.explain("CREATE TABLE t (x INT)")

    def test_explain_recursive(self):
        db = Database()
        text = db.explain(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r "
            "WHERE n < 3) SELECT * FROM r"
        )
        assert "Recursive" in text and "Materialize" in text


class TestResult:
    def test_len_and_iter(self):
        db = Database()
        result = db.execute("VALUES (1), (2), (3)")
        assert len(result) == 3
        assert list(result) == [(1,), (2,), (3,)]

    def test_fetchall_alias(self):
        result = Database().execute("SELECT 1")
        assert result.fetchall() == result.rows()

    def test_ddl_result_is_not_query(self):
        result = Database().execute("CREATE TABLE t (x INT)")
        assert not result.is_query
        assert result.rows() == []
        assert result.column_names == []

    def test_scalar_empty_is_none(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        assert db.execute("SELECT x FROM t").scalar() is None

    def test_repr_smoke(self):
        db = Database()
        assert "rows" in repr(db.execute("SELECT 1 AS one"))
        assert "rowcount" in repr(db.execute("CREATE TABLE t (x INT)"))

    def test_duplicate_output_names_allowed(self, social_db):
        # SELECT VP1.*, VP2.* — duplicate names must survive
        result = social_db.execute(
            "SELECT p1.id, p2.id FROM persons p1, persons p2 LIMIT 1"
        )
        assert result.column_names == ["id", "id"]


class TestDatabaseLifecycle:
    def test_close_is_idempotent(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.close()
        db.close()  # second close is a no-op, not an error
        assert db.closed

    def test_context_manager_closes(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INT)")
            assert not db.closed
        assert db.closed

    def test_execute_after_close_is_typed(self):
        from repro.errors import DatabaseClosedError

        db = Database()
        db.close()
        for call in (
            lambda: db.execute("SELECT 1"),
            lambda: db.connect(),
            lambda: db.executescript("SELECT 1;"),
        ):
            with pytest.raises(DatabaseClosedError) as excinfo:
                call()
            assert excinfo.value.code == "DATABASE_CLOSED"

    def test_close_joins_worker_threads(self):
        import threading

        db = Database(exec_workers=2, parallel_min_rows=0, morsel_rows=16)
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.table("t").insert_rows([(i, i) for i in range(256)])
        db.execute("SELECT k, count(*) FROM t GROUP BY k")  # spin up the pool
        db.close()
        alive = [
            t.name
            for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("repro-exec")
        ]
        assert alive == []

    def test_close_with_live_session_is_safe(self):
        from repro.errors import DatabaseClosedError

        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        session = db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        db.close()
        with pytest.raises(DatabaseClosedError):
            session.execute("COMMIT")
        session.close()  # rolls back quietly against the closed engine

    def test_save_still_works_after_close(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (7)")
        db.close()
        target = tmp_path / "snap"
        db.save(str(target))  # catalog stays readable for a final dump
        reloaded = Database.load(str(target))
        assert reloaded.execute("SELECT x FROM t").scalar() == 7
        reloaded.close()
