"""Property-based optimizer correctness oracle.

Every fuzzed query (reusing the generators of ``test_fuzz``) runs twice
over the same data — once through the engine (plan cache, literal
normalization, every optimizer pass) and once through the reference
planner of ``reference_plan`` (the exact text, bound and lowered with no
logical pass).  Sorted result multisets must match exactly: pushdown,
graph-join unfolding, join reordering and parameterized plan sharing
may change plans, never answers.
"""

import random

import pytest

from repro import Database, ReproError
from reference_plan import reference_rows
from test_fuzz import random_graph_query, random_query

SCHEMA = """
    CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
    CREATE TABLE t2 (a INT, d INT);
    CREATE TABLE e (s INT, d INT, w INT);
    INSERT INTO t1 VALUES
        (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL);
    INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50);
    INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
"""


def _sorted_rows(rows):
    return sorted(rows, key=repr)


@pytest.fixture(scope="module")
def engine():
    db = Database()
    db.executescript(SCHEMA)
    db.execute("ANALYZE")  # the optimizer should also be fed stats
    return db


def assert_equivalent(db, sql, params=(), *, expect_error=False):
    """The optimized and reference pipelines agree on ``sql``.  Two
    errors of one type count as agreement only with
    ``expect_error=True``: otherwise a statement failing on both sides
    would pass while exercising nothing."""
    try:
        expected = reference_rows(db, sql, params)
        expected_error = None
    except ReproError as exc:
        expected, expected_error = None, exc
    try:
        actual = db.execute(sql, params).rows()
        actual_error = None
    except ReproError as exc:
        actual, actual_error = None, exc
    if expected_error is not None or actual_error is not None:
        # both pipelines must agree that the statement fails
        assert (expected_error is None) == (actual_error is None), (
            f"only one pipeline failed for {sql!r}: "
            f"reference={expected_error!r} optimized={actual_error!r}"
        )
        assert expect_error, f"both pipelines failed for {sql!r}: {actual_error!r}"
        assert type(actual_error) is type(expected_error), sql
        return
    assert not expect_error, f"no error from {sql!r}"
    assert _sorted_rows(actual) == _sorted_rows(expected), sql


class TestOptimizerEquivalence:
    def test_relational_fuzz_corpus(self, engine):
        rng = random.Random(20260729)
        for _ in range(250):
            assert_equivalent(engine, random_query(rng))

    def test_graph_fuzz_corpus(self, engine):
        rng = random.Random(172)
        for _ in range(150):
            assert_equivalent(engine, random_graph_query(rng))

    def test_join_reorder_shapes(self, engine):
        rng = random.Random(9)
        predicates = [
            "t1.a = t2.a",
            "t1.a = e.s",
            "t2.a = e.s",
            "t1.a = t2.a AND t2.a = e.s",
            "t1.a = e.s AND e.w > 1",
            "t1.a = t2.a AND e.w < 3 AND t1.c > 0.0",
        ]
        for _ in range(40):
            pred = rng.choice(predicates)
            sql = (
                "SELECT t1.a, t2.d, e.w FROM t1, t2, e "
                f"WHERE {pred} ORDER BY 1, 2, 3"
            )
            assert_equivalent(engine, sql)

    def test_setop_and_subquery_shapes(self, engine):
        statements = [
            "SELECT a FROM (SELECT a FROM t1 UNION SELECT a FROM t2) u "
            "WHERE a > 1",
            "SELECT * FROM (SELECT a, d FROM t2 EXCEPT SELECT a, 10 FROM t1) x "
            "WHERE a < 10",
            "SELECT a FROM t1 WHERE a IN (SELECT a FROM t2) AND a > 0",
            "SELECT x.a FROM (SELECT a, c FROM t1 WHERE c IS NOT NULL) x "
            "WHERE x.a = 2",
            "SELECT g, n FROM (SELECT a % 2 AS g, count(*) AS n FROM t1 "
            "GROUP BY a % 2) s WHERE g = 1",
            # constant predicates above scalar aggregates must not push
            "SELECT * FROM (SELECT count(*) AS c FROM t1) x WHERE 1 = 0",
            "SELECT * FROM (SELECT max(a) AS m FROM t1) x WHERE 1 = 1",
            "SELECT * FROM (SELECT sum(a) AS s FROM t2) x WHERE x.s > 0",
        ]
        for sql in statements:
            assert_equivalent(engine, sql)

    def test_graph_pushdown_shapes(self, engine):
        statements = [
            # predicate above a derived graph select: pushed into the input
            "SELECT * FROM (SELECT p.src, p.dst, CHEAPEST SUM(1) AS hops "
            "FROM (VALUES (1,2),(1,3),(2,5),(3,1),(5,1)) p (src, dst) "
            "WHERE p.src REACHES p.dst OVER e EDGE (s, d)) q WHERE q.src < 3",
            # graph join with single-side predicates
            "SELECT a.a, b.a FROM t1 a, t2 b "
            "WHERE a.a REACHES b.a OVER e EDGE (s, d) AND a.a > 1 AND b.a < 9",
        ]
        for sql in statements:
            assert_equivalent(engine, sql)

    def test_parameterized_statements(self, engine):
        rng = random.Random(33)
        for _ in range(30):
            source, dest = rng.randint(0, 6), rng.randint(0, 6)
            assert_equivalent(
                engine,
                "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? "
                "OVER e k EDGE (s, d)",
                (source, dest),
            )
