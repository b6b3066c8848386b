"""Error reporting: messages, positions, and the exception hierarchy."""

import pytest

from repro import (
    BindError,
    CatalogError,
    Database,
    ExecutionError,
    GraphRuntimeError,
    LexError,
    NotSupportedError,
    ParseError,
    ReproError,
    SqlError,
    TypeError_,
)
from repro.sql import tokenize


class TestHierarchy:
    def test_front_end_errors_are_sql_errors(self):
        assert issubclass(LexError, SqlError)
        assert issubclass(ParseError, SqlError)
        assert issubclass(BindError, SqlError)

    def test_everything_is_repro_error(self):
        for exc in (SqlError, CatalogError, ExecutionError, GraphRuntimeError,
                    NotSupportedError):
            assert issubclass(exc, ReproError)

    def test_graph_runtime_is_execution_error(self):
        assert issubclass(GraphRuntimeError, ExecutionError)

    def test_single_except_catches_all(self):
        db = Database()
        for bad in ("SELEC 1", "SELECT zz FROM nope", "SELECT 'x' @ 2"):
            with pytest.raises(ReproError):
                db.execute(bad)


class TestPositions:
    def test_lex_error_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("SELECT\n  $")
        assert excinfo.value.line == 2 and excinfo.value.column == 3

    def test_parse_error_mentions_found_token(self):
        with pytest.raises(ParseError, match="found"):
            Database().execute("SELECT FROM")

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match=r"line \d+:\d+"):
            Database().execute("SELECT 1 +")


class TestMessages:
    def test_unknown_function_named(self):
        with pytest.raises(BindError, match="frobnicate"):
            Database().execute("SELECT frobnicate(1)")

    def test_wrong_arity_reported(self):
        with pytest.raises(BindError, match="argument"):
            Database().execute("SELECT abs(1, 2)")

    def test_unknown_column_named(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(BindError, match="'zz'"):
            db.execute("SELECT zz FROM t")

    def test_unknown_table_named(self):
        with pytest.raises(CatalogError, match="'nope'"):
            Database().execute("SELECT 1 FROM nope")

    def test_reaches_type_mismatch_message(self):
        db = Database()
        db.execute("CREATE TABLE e (s INT, d INT)")
        with pytest.raises(BindError, match="do not match"):
            db.execute("SELECT 1 WHERE 'a' REACHES 'b' OVER e EDGE (s, d)")

    def test_weight_error_quotes_the_rule(self):
        db = Database()
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2)")
        with pytest.raises(GraphRuntimeError, match="strictly greater than 0"):
            db.execute(
                "SELECT CHEAPEST SUM(k: 0) WHERE 1 REACHES 2 OVER e k EDGE (s, d)"
            )

    def test_missing_params_counted(self):
        db = Database()
        with pytest.raises(ExecutionError, match="at least 2"):
            db.execute("SELECT ? + ?", (1,))


class TestMixedTypeParameters:
    """Host parameters are typed only at run time; values whose types
    share no common type raise the typed error ``UNION`` and ``=``
    raise, whichever operator compares them."""

    def test_union_and_equality_raise(self):
        db = Database()
        with pytest.raises(TypeError_, match="incompatible types: integer and varchar"):
            db.execute("SELECT ? UNION SELECT ?", (1, "a"))
        with pytest.raises(TypeError_, match="cannot compare integer with varchar"):
            db.execute("SELECT ? = ?", (1, "a"))

    def test_intersect_and_except_raise(self):
        db = Database()
        for op in ("INTERSECT", "EXCEPT"):
            with pytest.raises(
                TypeError_, match="incompatible types: integer and varchar"
            ):
                db.execute(f"SELECT ? {op} SELECT ?", (1, "a"))

    def test_equi_join_raises(self):
        db = Database()
        with pytest.raises(TypeError_, match="cannot compare integer with varchar"):
            db.execute(
                "SELECT * FROM (VALUES (?)) a(x) JOIN (VALUES (?)) b(y) "
                "ON a.x = b.y",
                (1, "a"),
            )

    def test_compatible_and_null_parameters_still_answer(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t2 (a INT, d INT); INSERT INTO t2 VALUES (1, 10);"
        )
        assert db.execute("SELECT ? INTERSECT SELECT ?", (1, 1.0)).rows() == [(1,)]
        assert db.execute("SELECT ? EXCEPT SELECT ?", (None, 1)).rows() == [(None,)]
        # an all-NULL key column has no value to compare: no match, no error
        rows = db.execute(
            "SELECT * FROM (VALUES (?)) a(x) JOIN t2 ON a.x = t2.a", (None,)
        ).rows()
        assert rows == []


class TestNotSupported:
    def test_except_all(self):
        with pytest.raises(NotSupportedError):
            Database().execute("SELECT 1 EXCEPT ALL SELECT 1")

    def test_reaches_in_or(self):
        db = Database()
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("CREATE TABLE v (x INT)")
        with pytest.raises(NotSupportedError, match="conjunct"):
            db.execute(
                "SELECT 1 FROM v WHERE x = 1 OR x REACHES 2 OVER e EDGE (s, d)"
            )


class TestStatementLevelValidation:
    def test_insert_arity_mismatch(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(BindError, match="expected 2"):
            db.execute("INSERT INTO t VALUES (1)")

    def test_insert_unknown_column(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO t (zz) VALUES (1)")

    def test_update_unknown_column(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("UPDATE t SET zz = 1")

    def test_create_duplicate_column(self):
        with pytest.raises(CatalogError, match="duplicate"):
            Database().execute("CREATE TABLE t (a INT, a INT)")

    def test_group_by_validation_names_column(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(BindError, match="'b'"):
            db.execute("SELECT b, count(*) FROM t GROUP BY a")


class TestErrorCodes:
    """Every user-facing exception carries a stable machine-readable
    code — the contract the wire protocol's error frames rest on."""

    def test_codes_are_stable(self):
        from repro import errors

        expected = {
            errors.ReproError: "ERROR",
            errors.SqlError: "SQL_ERROR",
            errors.LexError: "LEX_ERROR",
            errors.ParseError: "PARSE_ERROR",
            errors.BindError: "BIND_ERROR",
            errors.CatalogError: "CATALOG_ERROR",
            errors.TypeError_: "TYPE_ERROR",
            errors.TransactionError: "TRANSACTION_ERROR",
            errors.TransactionConflictError: "TRANSACTION_CONFLICT",
            errors.ExecutionError: "EXECUTION_ERROR",
            errors.ResourceLimitError: "RESOURCE_LIMIT",
            errors.GraphRuntimeError: "GRAPH_RUNTIME_ERROR",
            errors.NotSupportedError: "NOT_SUPPORTED",
            errors.DatabaseClosedError: "DATABASE_CLOSED",
            errors.ServerError: "SERVER_ERROR",
            errors.ProtocolError: "PROTOCOL_ERROR",
            errors.BackpressureError: "BACKPRESSURE",
            errors.StatementTimeoutError: "STATEMENT_TIMEOUT",
            errors.ServerShutdownError: "SERVER_SHUTDOWN",
        }
        for cls, code in expected.items():
            assert cls.code == code, cls

    def test_every_subclass_has_a_distinct_code(self):
        from repro.errors import ERROR_CODES, ReproError

        def walk(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from walk(sub)

        classes = list(walk(ReproError))
        codes = [cls.code for cls in classes]
        assert len(set(codes)) == len(codes), "duplicate error codes"
        # the registry covers the full hierarchy
        assert set(ERROR_CODES.values()) == set(classes)

    def test_instances_expose_their_code(self):
        from repro.errors import CatalogError

        db = Database()
        with pytest.raises(CatalogError) as excinfo:
            db.execute("SELECT 1 FROM nope")
        assert excinfo.value.code == "CATALOG_ERROR"

    def test_error_from_code_round_trip(self):
        from repro.errors import ERROR_CODES, error_from_code

        for code, cls in ERROR_CODES.items():
            rebuilt = error_from_code(code, "boom")
            assert type(rebuilt) is cls
            assert str(rebuilt) == "boom"

    def test_error_from_code_handles_positional_constructors(self):
        # LexError takes (message, line, column); reconstruction from a
        # bare message must still yield the right type
        from repro.errors import LexError, error_from_code

        rebuilt = error_from_code("LEX_ERROR", "bad token")
        assert isinstance(rebuilt, LexError)
        assert str(rebuilt) == "bad token"

    def test_unknown_code_degrades_to_base(self):
        from repro.errors import ReproError, error_from_code

        rebuilt = error_from_code("NO_SUCH_CODE", "mystery")
        assert type(rebuilt) is ReproError

    def test_typed_exec_workers_validation(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="exec_workers"):
            Database(exec_workers="bogus")
