"""Expression-evaluator edge cases: scalar functions over NULLs, LIKE
metacharacters, modulo semantics, numeric boundaries."""

import pytest

from repro import Database


@pytest.fixture
def db():
    return Database()


class TestScalarFunctionNulls:
    def test_substr_null(self, db):
        assert db.execute("SELECT substr(NULL, 1, 2)").scalar() is None

    def test_replace_null_pattern(self, db):
        assert db.execute("SELECT replace('abc', NULL, 'x')").scalar() is None

    def test_trim_null(self, db):
        assert db.execute("SELECT trim(NULL)").scalar() is None

    def test_year_of_null(self, db):
        db.execute("CREATE TABLE d (day DATE)")
        db.execute("INSERT INTO d VALUES (NULL)")
        assert db.execute("SELECT year(day) FROM d").scalar() is None

    def test_greatest_with_null(self, db):
        # NULL poisons GREATEST (standard behaviour)
        assert db.execute("SELECT greatest(1, NULL, 3)").scalar() is None

    def test_abs_null(self, db):
        assert db.execute("SELECT abs(NULL)").scalar() is None

    def test_ln_of_nonpositive_is_null(self, db):
        assert db.execute("SELECT ln(0.0)").scalar() is None
        assert db.execute("SELECT ln(-1.0)").scalar() is None

    def test_sqrt_of_negative_is_null(self, db):
        assert db.execute("SELECT sqrt(-4.0)").scalar() is None


class TestStringFunctions:
    def test_substr_from_position(self, db):
        assert db.execute("SELECT substr('hello', 2)").scalar() == "ello"

    def test_substr_with_length(self, db):
        assert db.execute("SELECT substr('hello', 2, 3)").scalar() == "ell"

    def test_substr_beyond_end(self, db):
        assert db.execute("SELECT substr('hi', 5, 3)").scalar() == ""

    def test_replace_all_occurrences(self, db):
        assert db.execute("SELECT replace('aaa', 'a', 'b')").scalar() == "bbb"

    def test_trim_variants(self, db):
        rows = db.execute("SELECT trim(' x '), ltrim(' x '), rtrim(' x ')").rows()
        assert rows == [("x", "x ", " x")]

    def test_length_of_empty(self, db):
        assert db.execute("SELECT length('')").scalar() == 0

    def test_nested_string_functions(self, db):
        assert db.execute(
            "SELECT upper(substr(replace('a-b-c', '-', '_'), 1, 3))"
        ).scalar() == "A_B"


class TestLikePatterns:
    def _match(self, db, value, pattern):
        return db.execute(f"SELECT '{value}' LIKE '{pattern}'").scalar()

    def test_percent_matches_empty(self, db):
        assert self._match(db, "abc", "abc%")

    def test_underscore_is_one_char(self, db):
        assert self._match(db, "abc", "a_c")
        assert not self._match(db, "abbc", "a_c")

    def test_regex_metachars_are_literal(self, db):
        assert self._match(db, "a.c", "a.c")
        assert not self._match(db, "axc", "a.c")
        assert self._match(db, "a+b", "a+b")
        assert self._match(db, "(x)", "(x)")

    def test_pattern_must_cover_whole_string(self, db):
        assert not self._match(db, "abc", "b")
        assert self._match(db, "abc", "%b%")

    def test_like_null_is_null(self, db):
        assert db.execute("SELECT NULL LIKE 'a%'").scalar() is None


class TestArithmeticBoundaries:
    def test_mod_truncates_toward_zero(self, db):
        rows = db.execute("SELECT 7 % 3, -7 % 3, 7 % -3").rows()
        assert rows == [(1, -1, 1)]

    def test_mod_by_zero_is_null(self, db):
        assert db.execute("SELECT 5 % 0").scalar() is None

    def test_float_mod(self, db):
        assert db.execute("SELECT 7.5 % 2.0").scalar() == pytest.approx(1.5)

    def test_bigint_values_survive(self, db):
        big = 2**62
        assert db.execute("SELECT ?", (big,)).scalar() == big

    def test_negative_literal_precedence(self, db):
        assert db.execute("SELECT -2 * 3").scalar() == -6
        assert db.execute("SELECT -(2 + 3)").scalar() == -5

    def test_integer_overflow_promotes_via_bigint(self, db):
        assert db.execute("SELECT 2000000000 + 2000000000").scalar() == 4000000000

    def test_comparison_across_widths(self, db):
        assert db.execute("SELECT 1 = 1.0").scalar() is True
        assert db.execute("SELECT 2147483648 > 1").scalar() is True

    def test_constant_operand_on_either_side_of_a_column(self, db):
        # a literal or parameter operand is broadcast, not copied per row
        db.execute("CREATE TABLE t (a INT, b DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 2.5), (0, NULL), (-7, 0.0)")
        rows = db.execute(
            "SELECT a * 10, 10 - a, 10 / a, a / 0, 7 % a, a % 0, b * ?, ? - b, "
            "a + ? FROM t",
            (2, 1.5, None),
        ).rows()
        assert rows == [
            (10, 9, 10.0, None, 0, None, 5.0, -1.0, None),
            (0, 10, None, None, None, None, None, None, None),
            (-70, 17, pytest.approx(-10 / 7), None, 0, None, 0.0, 1.5, None),
        ]
        assert db.execute("SELECT a * 10 FROM t WHERE a > 100").rows() == []


class TestCastEdgeCases:
    def test_round_trip_int_varchar(self, db):
        assert db.execute("SELECT CAST(CAST(42 AS varchar) AS int)").scalar() == 42

    def test_cast_bool_to_int(self, db):
        assert db.execute("SELECT CAST(TRUE AS int)").scalar() == 1

    def test_cast_string_date_roundtrip(self, db):
        import datetime as dt

        value = db.execute("SELECT CAST('2010-03-24' AS date)").scalar()
        assert value == dt.date(2010, 3, 24)

    def test_cast_double_to_varchar(self, db):
        assert db.execute("SELECT CAST(1.5 AS varchar)").scalar() == "1.5"

    def test_invalid_cast_raises(self, db):
        from repro.errors import TypeError_

        with pytest.raises(TypeError_):
            db.execute("SELECT CAST('abc' AS int)")


class TestCoalesceAndCase:
    def test_coalesce_mixed_numeric(self, db):
        assert db.execute("SELECT coalesce(NULL, 2.5)").scalar() == 2.5

    def test_coalesce_all_null(self, db):
        assert db.execute("SELECT coalesce(NULL, NULL)").scalar() is None

    def test_case_without_else_is_null(self, db):
        assert db.execute("SELECT CASE WHEN 1 = 2 THEN 'x' END").scalar() is None

    def test_case_first_match_wins(self, db):
        assert db.execute(
            "SELECT CASE WHEN TRUE THEN 'a' WHEN TRUE THEN 'b' END"
        ).scalar() == "a"

    def test_case_numeric_promotion(self, db):
        assert db.execute(
            "SELECT CASE WHEN FALSE THEN 1 ELSE 2.5 END"
        ).scalar() == 2.5
