"""Unit tests for the logical type system."""

import datetime as dt

import pytest

from repro import Database
from repro.errors import TypeError_
from repro.storage import (
    DataType,
    coerce_python_value,
    comparable,
    date_to_days,
    days_to_date,
    infer_literal_type,
    parse_date_literal,
    parse_type_name,
    promote,
)


class TestParseTypeName:
    def test_integer_aliases(self):
        for name in ("int", "INTEGER", "SmallInt"):
            assert parse_type_name(name) == DataType.INTEGER

    def test_bigint(self):
        assert parse_type_name("bigint") == DataType.BIGINT

    def test_double_aliases(self):
        for name in ("double", "float", "real", "decimal", "numeric"):
            assert parse_type_name(name) == DataType.DOUBLE

    def test_varchar_aliases(self):
        for name in ("varchar", "text", "char", "string"):
            assert parse_type_name(name) == DataType.VARCHAR

    def test_date(self):
        assert parse_type_name("date") == DataType.DATE

    def test_boolean(self):
        assert parse_type_name("boolean") == DataType.BOOLEAN

    def test_unknown_raises(self):
        with pytest.raises(TypeError_):
            parse_type_name("blob")


class TestPromote:
    def test_same_type(self):
        assert promote(DataType.INTEGER, DataType.INTEGER) == DataType.INTEGER

    def test_int_bigint(self):
        assert promote(DataType.INTEGER, DataType.BIGINT) == DataType.BIGINT

    def test_int_double(self):
        assert promote(DataType.INTEGER, DataType.DOUBLE) == DataType.DOUBLE

    def test_bool_int(self):
        assert promote(DataType.BOOLEAN, DataType.INTEGER) == DataType.INTEGER

    def test_varchar_int_raises(self):
        with pytest.raises(TypeError_):
            promote(DataType.VARCHAR, DataType.INTEGER)

    def test_symmetric(self):
        assert promote(DataType.DOUBLE, DataType.BIGINT) == promote(
            DataType.BIGINT, DataType.DOUBLE
        )


class TestComparable:
    def test_numeric_mix(self):
        assert comparable(DataType.INTEGER, DataType.DOUBLE)

    def test_same_varchar(self):
        assert comparable(DataType.VARCHAR, DataType.VARCHAR)

    def test_varchar_int(self):
        assert not comparable(DataType.VARCHAR, DataType.INTEGER)

    def test_nested_table_never(self):
        assert not comparable(DataType.NESTED_TABLE, DataType.NESTED_TABLE)


class TestDates:
    def test_roundtrip(self):
        day = dt.date(2010, 3, 24)
        assert days_to_date(date_to_days(day)) == day

    def test_epoch(self):
        assert date_to_days(dt.date(1970, 1, 1)) == 0

    def test_parse_literal(self):
        assert parse_date_literal("1970-01-02") == 1

    def test_parse_invalid(self):
        with pytest.raises(TypeError_):
            parse_date_literal("not-a-date")

    def test_one_grammar_on_every_python(self):
        # blanks around the date are stripped; only YYYY-MM-DD parses,
        # though date.fromisoformat takes '20200102' from Python 3.11 on
        db = Database()
        try:
            db.execute("CREATE TABLE d (x DATE)")
            db.execute("INSERT INTO d VALUES ('2020-01-02')")
            with pytest.raises(TypeError_, match="invalid date literal"):
                db.execute("SELECT x FROM d WHERE x = '20200102'")
            with pytest.raises(TypeError_, match="invalid date literal"):
                db.execute("SELECT CAST('20200102' AS DATE) AS c")
            assert db.execute(
                "SELECT CAST(' 2020-01-02' AS DATE) AS c"
            ).rows() == [(dt.date(2020, 1, 2),)]
            assert db.execute(
                "SELECT x FROM d WHERE x = ' 2020-01-02'"
            ).rows() == [(dt.date(2020, 1, 2),)]
            db.execute("INSERT INTO d VALUES (' 2020-01-05')")
            assert db.execute("SELECT x FROM d ORDER BY x").rows() == [
                (dt.date(2020, 1, 2),),
                (dt.date(2020, 1, 5),),
            ]
        finally:
            db.close()


class TestInferLiteral:
    def test_bool_is_boolean_not_int(self):
        assert infer_literal_type(True) == DataType.BOOLEAN

    def test_small_int(self):
        assert infer_literal_type(7) == DataType.INTEGER

    def test_large_int_is_bigint(self):
        assert infer_literal_type(2**40) == DataType.BIGINT

    def test_float(self):
        assert infer_literal_type(1.5) == DataType.DOUBLE

    def test_str(self):
        assert infer_literal_type("x") == DataType.VARCHAR

    def test_date(self):
        assert infer_literal_type(dt.date.today()) == DataType.DATE

    def test_unsupported(self):
        with pytest.raises(TypeError_):
            infer_literal_type(object())


class TestCoerce:
    def test_none_passes(self):
        assert coerce_python_value(None, DataType.INTEGER) is None

    def test_int_to_double(self):
        assert coerce_python_value(3, DataType.DOUBLE) == 3.0

    def test_integral_float_to_int(self):
        assert coerce_python_value(3.0, DataType.INTEGER) == 3

    def test_fractional_float_to_int_raises(self):
        with pytest.raises(TypeError_):
            coerce_python_value(3.5, DataType.INTEGER)

    def test_str_to_date(self):
        assert coerce_python_value("1970-01-03", DataType.DATE) == 2

    def test_date_to_date(self):
        assert coerce_python_value(dt.date(1970, 1, 2), DataType.DATE) == 1

    def test_str_to_int_raises(self):
        with pytest.raises(TypeError_):
            coerce_python_value("7", DataType.INTEGER)

    def test_bool_to_int(self):
        assert coerce_python_value(True, DataType.BIGINT) == 1

    def test_int_to_varchar_raises(self):
        with pytest.raises(TypeError_):
            coerce_python_value(7, DataType.VARCHAR)
