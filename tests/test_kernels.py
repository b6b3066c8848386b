"""Kernel layer: unit tests + the kernel-vs-reference oracle.

The unit half exercises :meth:`repro.storage.Column.factorize` and the
:mod:`repro.exec.kernels` primitives directly on the edge cases the SQL
surface makes hard to pin down (all-NULL keys, empty inputs, NaN key
semantics, >2-column keys, untyped columns).  The oracle half runs
every query on two databases holding identical data — one with the
kernels, one run under ``reference_exec.row_at_a_time()`` so every
key-driven operator runs its row-at-a-time reference handler — and
requires identical results, mirroring ``test_optimizer_equivalence``.
"""

import datetime
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ReproError
from repro.errors import BindError, TypeError_
from repro.exec import kernels
from repro.storage import Column, DataType
from reference_exec import reference_rows, row_at_a_time
from test_fuzz import random_graph_query, random_query


# ---------------------------------------------------------------------------
# Column.factorize
# ---------------------------------------------------------------------------
class TestFactorize:
    def test_integer_codes_are_value_ordered_nulls_last(self):
        # narrow domain: the subtract-min fast path (no dictionary sort)
        column = Column.from_values(DataType.INTEGER, [30, None, 10, 30, 20])
        codes, cardinality, uniques = column.factorize()
        assert uniques is None
        assert codes[2] < codes[4] < codes[0] == codes[3]  # value order
        assert codes[1] == cardinality - 1  # NULL coded last

    def test_wide_integer_domain_uses_sorted_dictionary(self):
        column = Column.from_values(DataType.BIGINT, [10**12, None, -5, 10**12])
        codes, cardinality, uniques = column.factorize()
        assert codes.tolist() == [1, 2, 0, 1]
        assert cardinality == 3
        assert uniques.tolist() == [-5, 10**12]

    def test_string_codes_are_lexicographic(self):
        column = Column.from_values(DataType.VARCHAR, ["b", "a", None, "b"])
        codes, cardinality, uniques = column.factorize()
        assert codes.tolist() == [1, 0, 2, 1]
        assert cardinality == 3
        assert list(uniques) == ["a", "b"]

    def test_all_null_column(self):
        column = Column.nulls(DataType.INTEGER, 4)
        codes, cardinality, _ = column.factorize()
        assert codes.tolist() == [0, 0, 0, 0]
        assert cardinality == 1

    def test_empty_column(self):
        column = Column.empty(DataType.DOUBLE)
        codes, cardinality, _ = column.factorize()
        assert len(codes) == 0
        assert cardinality == 1  # floor keeps the mixed-radix combine safe

    def test_nan_distinct_gives_each_nan_its_own_code(self):
        nan = float("nan")
        column = Column.from_values(DataType.DOUBLE, [nan, 1.0, nan, None])
        codes, cardinality, _ = column.factorize(nan_distinct=True)
        # value < nan codes < null code; the two NaNs differ
        assert codes[1] == 0
        assert codes[0] != codes[2]
        assert codes[3] == cardinality - 1

    def test_nan_grouped_for_ordering(self):
        nan = float("nan")
        column = Column.from_values(DataType.DOUBLE, [nan, 1.0, nan, None])
        codes, cardinality, _ = column.factorize(nan_distinct=False)
        assert codes[0] == codes[2]
        assert codes[1] < codes[0] < codes[3]
        assert cardinality == 3

    def test_unorderable_but_hashable_payloads_use_dict_codes(self):
        data = np.empty(4, dtype=object)
        data[0], data[1], data[2], data[3] = (1, 2), "x", (1, 2), "x"
        column = Column(DataType.VARCHAR, data)
        codes, cardinality, uniques = column.factorize()
        assert uniques is None  # not orderable -> no sort kernel
        assert codes.tolist() == [0, 1, 0, 1]
        assert cardinality == 2

    def test_unhashable_payloads_raise(self):
        data = np.empty(2, dtype=object)
        data[0], data[1] = {"a": 1}, {"a": 1}
        column = Column(DataType.VARCHAR, data)
        with pytest.raises(TypeError):
            column.factorize()


# ---------------------------------------------------------------------------
# kernel primitives
# ---------------------------------------------------------------------------
class TestCodify:
    def test_multi_column_mixed_types(self):
        a = Column.from_values(DataType.INTEGER, [1, 1, 2, 1])
        b = Column.from_values(DataType.VARCHAR, ["x", "y", "x", "x"])
        c = Column.from_values(DataType.DOUBLE, [0.5, 0.5, 0.5, 0.5])
        ids = kernels.codify([a, b, c], 4)
        assert ids[0] == ids[3]
        assert len({ids[0], ids[1], ids[2]}) == 3

    def test_zero_columns_is_one_group(self):
        ids = kernels.codify([], 3)
        assert ids.tolist() == [0, 0, 0]

    def test_null_keys_group_together(self):
        a = Column.from_values(DataType.INTEGER, [None, None, 1])
        ids = kernels.codify([a], 3)
        assert ids[0] == ids[1] != ids[2]

    def test_group_ids_first_occurrence_order(self):
        a = Column.from_values(DataType.VARCHAR, ["z", "a", "z", "m", "a"])
        ids, n_groups, first_rows = kernels.group_ids([a], 5)
        assert n_groups == 3
        assert ids.tolist() == [0, 1, 0, 2, 1]  # numbered by first appearance
        assert first_rows.tolist() == [0, 1, 3]

    def test_group_ids_four_key_columns(self):
        columns = [
            Column.from_values(DataType.INTEGER, [1, 1, 1, 2]),
            Column.from_values(DataType.VARCHAR, ["a", "a", "b", "a"]),
            Column.from_values(DataType.BOOLEAN, [True, True, True, False]),
            Column.from_values(DataType.DATE, ["2020-01-01"] * 4),
        ]
        ids, n_groups, _ = kernels.group_ids(columns, 4)
        assert n_groups == 3
        assert ids[0] == ids[1]

    def test_distinct_mask_empty_input(self):
        assert kernels.distinct_mask([Column.empty(DataType.INTEGER)], 0).tolist() == []

    def test_distinct_mask_all_null(self):
        keep = kernels.distinct_mask([Column.nulls(DataType.VARCHAR, 3)], 3)
        assert keep.tolist() == [True, False, False]


class TestSortOrder:
    def test_nulls_last_ascending_first_descending(self):
        column = Column.from_values(DataType.INTEGER, [None, 2, 1, None, 3])
        asc = kernels.sort_order([(column, True)], 5)
        assert column.take(asc).to_pylist() == [1, 2, 3, None, None]
        desc = kernels.sort_order([(column, False)], 5)
        assert column.take(desc).to_pylist() == [None, None, 3, 2, 1]

    def test_stability_on_ties(self):
        column = Column.from_values(DataType.INTEGER, [1, 1, 0, 1])
        order = kernels.sort_order([(column, True)], 4)
        assert order.tolist() == [2, 0, 1, 3]

    def test_nan_sorts_after_numbers_before_null(self):
        # NaN is greater than every number (PostgreSQL's rule), and NULL
        # stays last ascending / first descending
        nan = float("nan")
        column = Column.from_values(
            DataType.DOUBLE, [3.0, nan, 1.0, None, -0.0, nan, 2.0]
        )
        asc = kernels.sort_order([(column, True)], 7)
        assert asc.tolist() == [4, 2, 6, 0, 1, 5, 3]
        desc = kernels.sort_order([(column, False)], 7)
        assert desc.tolist() == [3, 1, 5, 0, 6, 2, 4]

    def test_rank_densifies_past_2_62(self):
        # four keys of ~49k distinct values each: the mixed-radix product
        # passes 2^62, so the rank densifies its prefix mid-way
        rng = np.random.default_rng(28)
        n = 200_000
        data = {name: rng.integers(0, 50_000, n) for name in "abcd"}
        keys = [
            (Column(DataType.BIGINT, data["a"]), True),
            (Column(DataType.BIGINT, data["b"]), False),
            (Column(DataType.BIGINT, data["c"]), True),
            (Column(DataType.BIGINT, data["d"]), True),
        ]
        product = 1
        for column, ascending in keys:
            product *= kernels.ordered_sort_codes(column, ascending)[1]
        assert product > 1 << 62
        rank = kernels.composite_sort_rank(keys, n)
        assert isinstance(rank, np.ndarray) and rank.dtype == np.int64
        expected = np.lexsort((data["d"], data["c"], -data["b"], data["a"]))
        assert np.array_equal(kernels.sort_order(keys, n), expected)
        db = Database()
        try:
            db.execute("CREATE TABLE s (a BIGINT, b BIGINT, c BIGINT, d BIGINT)")
            db.appender("s").append(data)
            sql = "SELECT a, b, c, d FROM s ORDER BY a, b DESC, c, d"
            with row_at_a_time():
                oracle = db.execute(sql).rows()
            assert db.execute(sql).rows() == oracle
        finally:
            db.close()


class TestJoinIndices:
    def test_multi_key_varchar_int(self):
        left = [
            Column.from_values(DataType.INTEGER, [1, 1, 2]),
            Column.from_values(DataType.VARCHAR, ["a", "b", "a"]),
        ]
        right = [
            Column.from_values(DataType.INTEGER, [1, 2, 1]),
            Column.from_values(DataType.VARCHAR, ["b", "a", "z"]),
        ]
        li, ri = kernels.join_indices(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0), (2, 1)]

    def test_null_keys_never_match(self):
        left = [Column.from_values(DataType.VARCHAR, ["a", None])]
        right = [Column.from_values(DataType.VARCHAR, [None, "a"])]
        li, ri = kernels.join_indices(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [(0, 1)]

    def test_double_keys_nan_never_matches(self):
        nan = float("nan")
        left = [Column.from_values(DataType.DOUBLE, [1.5, nan, None, 2.5])]
        right = [Column.from_values(DataType.DOUBLE, [nan, 1.5, 2.5, None])]
        li, ri = kernels.join_indices(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [(0, 1), (3, 2)]

    def test_untyped_column_pairs_with_typed_same_dtype(self):
        # parameter-derived columns carry type None; a dtype-identical
        # pairing must still codify (the untyped side is relabelled)
        untyped = Column(None, np.array([1, 2, 3], dtype=np.int64))
        typed = Column.from_values(DataType.BIGINT, [2, 3, 4])
        keep = kernels.setop_mask([untyped], 3, [typed], 3, keep_members=True)
        assert keep.tolist() == [False, True, True]
        with pytest.raises(TypeError_):
            # object vs primitive dtypes: the error ``=`` raises
            kernels.setop_mask(
                [Column(None, np.array([1], dtype=np.int64))],
                1,
                [Column.from_values(DataType.VARCHAR, ["x"])],
                1,
                keep_members=True,
            )

    def test_mixed_int_double_single_key(self):
        left = [Column.from_values(DataType.INTEGER, [1, 2, 3])]
        right = [Column.from_values(DataType.DOUBLE, [2.0, 2.5, 3.0])]
        li, ri = kernels.join_indices(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0), (2, 2)]

    def test_all_null_key_of_another_type(self):
        # an all-NULL column (a NULL parameter, typed VARCHAR by guess)
        # reads as NULLs of the other side's type: it joins nothing and
        # stays NULL = NULL in set operations
        nulls = Column.nulls(DataType.VARCHAR, 2)
        ints = Column.from_values(DataType.BIGINT, [1, None, 2])
        li, ri = kernels.join_indices([nulls], [ints])
        assert len(li) == len(ri) == 0
        keep = kernels.setop_mask([nulls], 2, [ints], 3, keep_members=True)
        assert keep.tolist() == [True, False]
        keep = kernels.setop_mask([ints], 3, [nulls], 2, keep_members=False)
        assert keep.tolist() == [True, False, True]


def _dictionary_pairs(build, probe, chunk=3):
    """(probe row, build row) pairs matched through a JoinKeyDictionary,
    probing ``chunk`` rows at a time."""
    keys = kernels.JoinKeyDictionary(build, probe)
    n = len(probe[0])
    pairs = []
    for start in range(0, n, chunk):
        rows, ids = keys.probe(start, min(start + chunk, n))
        for row, key in zip(rows.tolist(), ids.tolist()):
            matches = keys.build_rows[keys.build_ids == key]
            pairs.extend((start + row, int(b)) for b in matches)
    return sorted(pairs)


class TestJoinKeyDictionary:
    """The spilled join's build-side dictionary matches exactly the
    pairs :func:`kernels.join_indices` does, for every key shape."""

    @staticmethod
    def _check(probe, build):
        li, ri = kernels.join_indices(probe, build)
        expected = sorted(zip(li.tolist(), ri.tolist()))
        assert _dictionary_pairs(build, probe) == expected
        return expected

    def test_int_key_drops_absent_and_null(self):
        probe = [Column.from_values(DataType.BIGINT, [5, 1, None, 7, 2, 1, 9])]
        build = [Column.from_values(DataType.BIGINT, [1, 2, 2, None, 3])]
        assert self._check(probe, build) == [(1, 0), (4, 1), (4, 2), (5, 0)]

    def test_double_key_nan_never_matches(self):
        nan = float("nan")
        probe = [Column.from_values(DataType.DOUBLE, [nan, 1.5, None, -0.0, 2.5])]
        build = [Column.from_values(DataType.DOUBLE, [0.0, nan, 1.5, None])]
        assert self._check(probe, build) == [(1, 2), (3, 0)]

    def test_mixed_int_double_pair_is_aligned(self):
        probe = [Column.from_values(DataType.DOUBLE, [2.0, 2.5, 3.0, float("nan")])]
        build = [Column.from_values(DataType.INTEGER, [3, 2, 4])]
        assert self._check(probe, build) == [(0, 1), (2, 0)]

    def test_varchar_key(self):
        probe = [Column.from_values(DataType.VARCHAR, ["b", None, "zz", "a", "b"])]
        build = [Column.from_values(DataType.VARCHAR, ["a", "b", None, "c"])]
        assert self._check(probe, build) == [(0, 1), (3, 0), (4, 1)]

    def test_multi_column_key_drops_absent_combinations(self):
        probe = [
            Column.from_values(DataType.INTEGER, [1, 1, 2, 2, None, 1]),
            Column.from_values(DataType.VARCHAR, ["a", "b", "a", "b", "a", "a"]),
            Column.from_values(DataType.DOUBLE, [0.5, 0.5, 0.5, 0.5, 0.5, 9.0]),
        ]
        build = [
            Column.from_values(DataType.INTEGER, [1, 2, 1, 2]),
            Column.from_values(DataType.VARCHAR, ["a", "b", "a", None]),
            Column.from_values(DataType.DOUBLE, [0.5, 0.5, 0.5, 0.5]),
        ]
        assert self._check(probe, build) == [(0, 0), (0, 2), (3, 1)]

    def test_untyped_probe_pairs_with_typed_build(self):
        probe = [Column(None, np.array([3, 1, 4], dtype=np.int64))]
        build = [Column.from_values(DataType.BIGINT, [4, 3])]
        assert _dictionary_pairs(build, probe) == [(0, 1), (2, 0)]
        with pytest.raises(TypeError_):
            # object vs primitive dtypes: the error ``=`` raises, at
            # the first probe slice that holds a value
            _dictionary_pairs(
                [Column.from_values(DataType.VARCHAR, ["x"])],
                [Column(None, np.array([1], dtype=np.int64))],
            )

    def test_empty_build_side_matches_nothing(self):
        probe = [Column.from_values(DataType.BIGINT, [1, 2, 3])]
        build = [Column.from_values(DataType.BIGINT, [None, None])]
        assert self._check(probe, build) == []
        probe2 = probe + [Column.from_values(DataType.BIGINT, [1, 2, 3])]
        assert _dictionary_pairs(build + build, probe2) == []


# ---------------------------------------------------------------------------
# engine-level oracle: kernels vs the row-at-a-time reference
# ---------------------------------------------------------------------------
SCHEMA = """
    CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
    CREATE TABLE t2 (a INT, d INT);
    CREATE TABLE e (s INT, d INT, w INT);
    INSERT INTO t1 VALUES
        (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL),
        (2, 'y', 1.5), (1, 'a', NULL), (NULL, NULL, 0.5);
    INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50), (2, 21), (NULL, 0);
    INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
"""


@pytest.fixture(scope="module")
def engines():
    vectorized = Database()
    rowwise = Database()
    vectorized.executescript(SCHEMA)
    rowwise.executescript(SCHEMA)
    return vectorized, rowwise


def assert_equivalent(
    engines, sql, params=(), *, ordered=False, expect_error=False
):
    """Kernels and row paths agree on ``sql``.  Two errors count as
    agreement only with ``expect_error=True``: otherwise a statement
    that fails on both sides would pass while exercising nothing."""
    vectorized, rowwise = engines
    try:
        expected = reference_rows(rowwise, sql, params)
        expected_error = None
    except ReproError as exc:
        expected, expected_error = None, exc
    try:
        actual = vectorized.execute(sql, params).rows()
        actual_error = None
    except ReproError as exc:
        actual, actual_error = None, exc
    if expected_error is not None or actual_error is not None:
        assert (expected_error is None) == (actual_error is None), (
            f"only one pipeline failed for {sql!r}: "
            f"rowwise={expected_error!r} kernels={actual_error!r}"
        )
        assert expect_error, f"both pipelines failed for {sql!r}: {actual_error!r}"
        assert type(actual_error) is type(expected_error), sql
        return
    assert not expect_error, f"no error from {sql!r}"
    # repr-compare so rows containing NaN (nan != nan) still match
    if ordered:
        # ORDER BY must be *bit-identical*, including tie order
        assert list(map(repr, actual)) == list(map(repr, expected)), sql
    else:
        assert sorted(map(repr, actual)) == sorted(map(repr, expected)), sql


class TestEngineEquivalence:
    def test_group_by_shapes(self, engines):
        for sql in [
            "SELECT b, count(*), sum(a), min(c), max(c), avg(a) FROM t1 GROUP BY b",
            "SELECT a, b, count(*) FROM t1 GROUP BY a, b",
            "SELECT a % 2, count(c), sum(c) FROM t1 GROUP BY a % 2",
            "SELECT count(*), sum(a), min(b), max(b), avg(c) FROM t1",
            "SELECT count(DISTINCT a), count(DISTINCT b) FROM t1",
            "SELECT a, count(DISTINCT b) FROM t1 GROUP BY a",
            "SELECT b, min(a) FROM t1 GROUP BY b HAVING count(*) > 1",
            "SELECT count(*) FROM t1 WHERE 1 = 0",
            "SELECT sum(a), min(a), avg(a) FROM t1 WHERE 1 = 0",
        ]:
            assert_equivalent(engines, sql)

    def test_distinct_shapes(self, engines):
        for sql in [
            "SELECT DISTINCT a FROM t1",
            "SELECT DISTINCT a, b FROM t1",
            "SELECT DISTINCT c FROM t1",
            "SELECT DISTINCT a, b, c FROM t1 WHERE 1 = 0",
        ]:
            assert_equivalent(engines, sql)

    def test_order_by_bit_identical(self, engines):
        for sql in [
            "SELECT a, b, c FROM t1 ORDER BY a",
            "SELECT a, b, c FROM t1 ORDER BY a DESC",
            "SELECT a, b, c FROM t1 ORDER BY b, a DESC",
            "SELECT a, b, c FROM t1 ORDER BY c DESC, b, a",
            "SELECT a, b, c FROM t1 ORDER BY a % 2, c",
            "SELECT d FROM t2 ORDER BY 1 DESC",
        ]:
            assert_equivalent(engines, sql, ordered=True)
        # top-k over tied keys (a = 1, 2 and NULL repeat): the sort
        # truncates its permutation to LIMIT+OFFSET rows, and the page
        # must still be exactly that slice of the full order
        vectorized, _ = engines
        full = vectorized.execute("SELECT a, b, c FROM t1 ORDER BY a").rows()
        for limit, offset in [(3, 1), (2, 4), (1, 0), (4, 5), (0, 2)]:
            sql = f"SELECT a, b, c FROM t1 ORDER BY a LIMIT {limit} OFFSET {offset}"
            assert_equivalent(engines, sql, ordered=True)
            page = vectorized.execute(sql).rows()
            assert repr(page) == repr(full[offset : offset + limit]), sql

    def test_join_shapes(self, engines):
        for sql in [
            "SELECT * FROM t1 JOIN t2 ON t1.a = t2.a",
            "SELECT * FROM t1 JOIN t2 ON t1.a = t2.a AND t1.a = t2.d - 19",
            "SELECT t1.b, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.a",
            "SELECT x.b, y.b FROM t1 x JOIN t1 y ON x.b = y.b",
            "SELECT x.b, y.b FROM t1 x JOIN t1 y "
            "ON x.b = y.b AND x.a = y.a",
            "SELECT x.c, y.c FROM t1 x JOIN t1 y ON x.c = y.c",
        ]:
            assert_equivalent(engines, sql)

    def test_setop_shapes(self, engines):
        for sql in [
            "SELECT a FROM t1 UNION SELECT a FROM t2",
            "SELECT a FROM t1 UNION ALL SELECT a FROM t2",
            "SELECT a FROM t1 INTERSECT SELECT a FROM t2",
            "SELECT a FROM t1 EXCEPT SELECT a FROM t2",
            "SELECT a, b FROM t1 EXCEPT SELECT a, b FROM t1 WHERE a = 1",
            "SELECT a, d FROM t2 INTERSECT SELECT a, d FROM t2",
        ]:
            assert_equivalent(engines, sql)

    def test_recursive_cte_dedup(self, engines):
        # the base repeats node 2 and the walk runs round the 1-2-3
        # cycle: only UNION's dedup makes it terminate
        sql = (
            "WITH RECURSIVE r (n) AS ("
            "SELECT s FROM e UNION SELECT e.d FROM r JOIN e ON r.n = e.s"
            ") SELECT n FROM r ORDER BY n"
        )
        assert_equivalent(engines, sql, ordered=True)
        assert engines[0].execute(sql).rows() == [(1,), (2,), (3,), (5,)]
        sql = (
            "WITH RECURSIVE walk (node, hops) AS ("
            "SELECT 1, 0 UNION "
            "SELECT e.d, walk.hops + 1 FROM walk JOIN e ON walk.node = e.s "
            "WHERE walk.hops < 5"
            ") SELECT node, hops FROM walk ORDER BY hops, node"
        )
        assert_equivalent(engines, sql, ordered=True)

    def test_recursive_reference_inside_subquery_is_rejected(self, engines):
        # as in PostgreSQL: the recursive branch reads the working table
        # through its FROM items only
        sql = (
            "WITH RECURSIVE r (n) AS ("
            "SELECT s FROM e UNION SELECT d FROM e WHERE d IN (SELECT n FROM r)"
            ") SELECT n FROM r ORDER BY n"
        )
        assert_equivalent(engines, sql, expect_error=True)
        with pytest.raises(BindError, match="must not appear within a subquery"):
            engines[0].execute(sql)

    def test_date_joins_varchar_as_equals_does(self, engines):
        for db in engines:
            db.execute("CREATE TABLE dd (x DATE)")
            db.execute("CREATE TABLE ss (y VARCHAR)")
            db.execute(
                "INSERT INTO dd VALUES ('2020-01-02'), ('2020-01-03'), (NULL)"
            )
            db.execute(
                "INSERT INTO ss VALUES ('2020-01-02'), ('2021-05-05'), (NULL)"
            )
        queries = [
            "SELECT dd.x, ss.y FROM dd JOIN ss ON dd.x = ss.y",
            "SELECT ss.y, dd.x FROM ss JOIN dd ON ss.y = dd.x",
            "SELECT dd.x, ss.y FROM dd, ss WHERE dd.x = ss.y",
            "SELECT dd.x, ss.y FROM dd LEFT JOIN ss ON dd.x = ss.y",
            "SELECT x FROM dd WHERE x IN (SELECT y FROM ss)",
            "SELECT y FROM ss WHERE y IN (SELECT x FROM dd)",
            "SELECT x FROM dd WHERE x NOT IN "
            "(SELECT y FROM ss WHERE y IS NOT NULL)",
        ]
        try:
            for sql in queries:
                assert_equivalent(engines, sql)
            day = datetime.date(2020, 1, 2)
            vectorized = engines[0]
            assert vectorized.execute(queries[0]).rows() == [(day, "2020-01-02")]
            assert vectorized.execute(queries[2]).rows() == [(day, "2020-01-02")]
            assert vectorized.execute(queries[4]).rows() == [(day,)]
            assert vectorized.execute(queries[5]).rows() == [("2020-01-02",)]
            assert vectorized.execute(queries[6]).rows() == [
                (datetime.date(2020, 1, 3),)
            ]
            # an invalid date string raises the typed error ``=`` raises
            for db in engines:
                db.execute("INSERT INTO ss VALUES ('nope')")
            for sql in ["SELECT dd.x = ss.y FROM dd, ss"] + queries:
                assert_equivalent(engines, sql, expect_error=True)
                with pytest.raises(TypeError_, match="invalid date literal"):
                    vectorized.execute(sql)
        finally:
            for db in engines:
                db.execute("DROP TABLE dd")
                db.execute("DROP TABLE ss")

    def test_double_key_join_with_nan_and_null(self, engines):
        for db in engines:
            db.execute("CREATE TABLE fk (k DOUBLE, v INT)")
            db.execute(
                "INSERT INTO fk VALUES (1.5, 1), (2.5, 2), (NULL, 3), (?, 4)",
                (float("nan"),),
            )
        try:
            assert_equivalent(
                engines, "SELECT x.v, y.v FROM fk x JOIN fk y ON x.k = y.k"
            )
            # NaN sort keys order after every number, before NULL
            assert_equivalent(
                engines, "SELECT v FROM fk ORDER BY k", ordered=True
            )
            assert engines[0].execute(
                "SELECT v FROM fk ORDER BY k"
            ).rows() == [(1,), (2,), (4,), (3,)]
        finally:
            for db in engines:
                db.execute("DROP TABLE fk")

    def test_nan_aggregate_values_fall_back(self, engines):
        # NaN is the greatest value: MAX is NaN once a group holds one,
        # MIN skips it unless the group holds nothing else (no longer a
        # fallback: the fold and the reference apply the rule apart)
        for db in engines:
            db.execute("CREATE TABLE na (k INT, v DOUBLE)")
            db.execute(
                "INSERT INTO na VALUES (1, 1.0), (1, ?), (1, 2.0), (2, ?)",
                (float("nan"), float("nan")),
            )
        try:
            sql = "SELECT k, min(v), max(v), count(v) FROM na GROUP BY k"
            assert_equivalent(engines, sql)
            assert repr(engines[0].execute(sql).rows()) == repr(
                [(1, 1.0, float("nan"), 3), (2, float("nan"), float("nan"), 1)]
            )
        finally:
            for db in engines:
                db.execute("DROP TABLE na")

    def test_thin_delta_recursion_switches_to_seen_set(self, engines):
        # a 2000-step single-row-delta chain: the hybrid dedup must
        # switch off the per-iteration re-codification and still agree
        for db in engines:
            db.execute("CREATE TABLE chain (s INT, d INT)")
            db.table("chain").insert_rows([(i, i + 1) for i in range(2000)])
        sql = (
            "WITH RECURSIVE walk (node) AS ("
            "SELECT 0 UNION "
            "SELECT c.d FROM walk JOIN chain c ON walk.node = c.s"
            ") SELECT count(*), min(node), max(node) FROM walk"
        )
        try:
            assert_equivalent(engines, sql)
        finally:
            for db in engines:
                db.execute("DROP TABLE chain")


class TestFuzzOracle:
    def test_relational_fuzz_corpus(self, engines):
        rng = random.Random(20260730)
        for _ in range(250):
            assert_equivalent(engines, random_query(rng))

    def test_graph_fuzz_corpus(self, engines):
        rng = random.Random(4014)
        for _ in range(150):
            assert_equivalent(engines, random_graph_query(rng))


# ---------------------------------------------------------------------------
# counters / knobs
# ---------------------------------------------------------------------------
class TestCountersAndKnobs:
    def test_kernel_hits_recorded(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t (a INT, b VARCHAR);"
            "INSERT INTO t VALUES (1, 'x'), (1, 'y'), (2, 'x');"
        )
        db.execute("SELECT b, count(*) FROM t GROUP BY b")
        db.execute("SELECT DISTINCT a FROM t")
        db.execute("SELECT * FROM t ORDER BY b, a")
        db.execute("SELECT x.a FROM t x JOIN t y ON x.b = y.b")
        stats = db.kernel_stats()
        for op in ("group_by", "distinct", "sort", "join"):
            assert stats["hits"].get(op, 0) >= 1, (op, stats)

    def test_profile_report_includes_kernel_counters(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (1), (2);"
        )
        _, report = db.profile("SELECT a, count(*) FROM t GROUP BY a")
        assert "vectorized kernels:" in report
        assert "group_by=" in report

    def test_distinct_aggregate_counts_fallback(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (1), (2);"
        )
        assert db.execute("SELECT count(DISTINCT a) FROM t").rows() == [(2,)]
        # the DISTINCT aggregate folds on the kernel: one group_by hit
        # and no fallback to count
        assert db.kernel_stats() == {"hits": {"group_by": 1}, "hit_total": 1}

    def test_shell_kernels_command(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.feed_line("CREATE TABLE t (a INT);")
        shell.feed_line("INSERT INTO t VALUES (1), (1);")
        shell.feed_line("SELECT DISTINCT a FROM t;")
        shell.feed_line("\\kernels")
        text = out.getvalue()
        assert "kernels: hits=1\n" in text
        assert "distinct" in text


# ---------------------------------------------------------------------------
# kernel counts: every key-driven operator runs its kernel
# ---------------------------------------------------------------------------
#: The key-driven operators, as the kernel counters name them.
KEY_OPS = ("distinct", "group_by", "join", "setop", "dedup", "sort")

#: One statement per operator, so the corpus reaches each of them.
OPERATOR_SHAPES = (
    "SELECT DISTINCT a, b FROM t1",
    "SELECT b, count(*), sum(a) FROM t1 GROUP BY b",
    "SELECT t1.b, t2.d FROM t1 JOIN t2 ON t1.a = t2.a",
    "SELECT a FROM t1 EXCEPT SELECT a FROM t2",
    "WITH RECURSIVE walk (node) AS (SELECT 1 UNION "
    "SELECT e.d FROM walk JOIN e ON walk.node = e.s) SELECT node FROM walk",
)


def _run_corpus(db) -> None:
    rng = random.Random(2024)
    corpus = [random_query(rng) for _ in range(120)] + list(OPERATOR_SHAPES)
    for sql in corpus:
        try:
            db.execute(sql).rows()
        except ReproError:
            pass  # declared failure modes are fine


class TestFallbackCounts:
    def test_kernels_do_not_fall_back_on_the_fuzz_corpus(self):
        db = Database()
        db.executescript(SCHEMA)
        _run_corpus(db)
        stats = db.kernel_stats()
        # hits are all there is to count: no operator has a second body
        assert set(stats) == {"hits", "hit_total"}, stats
        for op in KEY_OPS:
            assert stats["hits"].get(op, 0) >= 1, (op, stats)

    def test_row_at_a_time_reference_runs_only_fallbacks(self):
        # the reference's handlers replace every key-driven operator:
        # not one kernel runs under it
        db = Database()
        db.executescript(SCHEMA)
        with row_at_a_time():
            _run_corpus(db)
        assert db.kernel_stats()["hit_total"] == 0, db.kernel_stats()
        _run_corpus(db)
        for op in KEY_OPS:
            assert db.kernel_stats()["hits"].get(op, 0) >= 1, op


# ---------------------------------------------------------------------------
# randomized key-shape sweep (value-level, no SQL in the way)
# ---------------------------------------------------------------------------
def _random_column(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        values = [rng.choice([None, *range(5)]) for _ in range(n)]
        return Column.from_values(DataType.INTEGER, values)
    if kind == 1:
        values = [rng.choice([None, "a", "b", "cc"]) for _ in range(n)]
        return Column.from_values(DataType.VARCHAR, values)
    if kind == 2:
        values = [rng.choice([None, 0.5, 1.5, -2.0]) for _ in range(n)]
        return Column.from_values(DataType.DOUBLE, values)
    values = [rng.choice([None, True, False]) for _ in range(n)]
    return Column.from_values(DataType.BOOLEAN, values)


class TestRandomizedParity:
    def test_distinct_mask_matches_row_tuples(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(0, 30)
            columns = [_random_column(rng, n) for _ in range(rng.randrange(1, 4))]
            keep = kernels.distinct_mask(columns, n)
            seen, expected = set(), []
            rows = list(zip(*(c.to_pylist() for c in columns))) if n else []
            for row in rows:
                expected.append(row not in seen)
                seen.add(row)
            assert keep.tolist() == expected

    def test_sort_order_matches_python_comparator(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(0, 25)
            keys = [
                (_random_column(rng, n), rng.random() < 0.5)
                for _ in range(rng.randrange(1, 4))
            ]
            order = kernels.sort_order(keys, n)
            expected = list(range(n))
            for column, ascending in reversed(keys):
                values = column.to_pylist()

                def sort_key(pos):
                    value = values[pos]
                    return (1, 0) if value is None else (0, value)

                expected = sorted(expected, key=sort_key, reverse=not ascending)
            # boolean False < True matches the comparator; verify per key
            assert order.tolist() == expected, keys


# ---------------------------------------------------------------------------
# NaN order and DISTINCT aggregates: one kernel body, the reference apart
# ---------------------------------------------------------------------------
NAN = float("nan")


def _order_key(value) -> tuple:
    """A value compared as SQL compares it: NaN equals NaN, 0.0 equals
    -0.0.  Tie order and a zero's sign legitimately follow row order."""
    if value is None:
        return ("null",)
    if value != value:
        return ("nan",)
    return ("value", value)


class TestNanOrder:
    def test_order_by_puts_nan_after_numbers_before_null(self):
        db = Database()
        try:
            db.execute("CREATE TABLE t (x DOUBLE)")
            db.insert_rows("t", [(3.0,), (NAN,), (1.0,), (2.0,), (None,)])
            cases = {
                "SELECT x FROM t ORDER BY x": [1.0, 2.0, 3.0, NAN, None],
                "SELECT x FROM t ORDER BY x DESC": [None, NAN, 3.0, 2.0, 1.0],
                "SELECT x FROM t ORDER BY x LIMIT 2": [1.0, 2.0],
                "SELECT x FROM t ORDER BY x DESC LIMIT 2": [None, NAN],
                "SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 2": [3.0, NAN],
            }
            for sql, expected in cases.items():
                rows = db.execute(sql).rows()
                assert repr(rows) == repr([(v,) for v in expected]), sql
                assert repr(reference_rows(db, sql)) == repr(rows), sql
        finally:
            db.close()

    @pytest.mark.parametrize("descending", [False, True])
    def test_external_sort_orders_nan(self, descending):
        from repro.storage.spill import SPILL_CHUNK_ROWS

        cycle = [3.0, NAN, 1.0, 2.0, None]
        n = 2 * SPILL_CHUNK_ROWS + len(cycle)
        rows = [(i, cycle[i % len(cycle)]) for i in range(n)]
        by_value = {_order_key(v): [] for v in cycle}
        for i, v in rows:
            by_value[_order_key(v)].append((i, v))
        ranked = [(1.0,), (2.0,), (3.0,), (NAN,), (None,)]
        if descending:
            ranked.reverse()
        expected = [row for (v,) in ranked for row in by_value[_order_key(v)]]
        direction = "DESC" if descending else ""
        sql = f"SELECT i, x FROM t ORDER BY x {direction}, i"
        for budget in (None, 1 << 20):
            db = Database(memory_budget=budget)
            try:
                db.execute("CREATE TABLE t (i BIGINT, x DOUBLE)")
                db.insert_rows("t", rows)
                assert repr(db.execute(sql).rows()) == repr(expected), budget
                top = db.execute(sql + " LIMIT 2").rows()
                assert repr(top) == repr(expected[:2]), budget
                if budget is not None:
                    assert db.memory_stats()["sort_runs"] > 0
            finally:
                db.close()

    def test_distinct_aggregates_under_a_budget(self):
        from repro.storage.spill import SPILL_CHUNK_ROWS

        values = [0.5, NAN, -0.0, 0.0, None, 1e16, 1.0, 0.5, float("inf")]
        n = 2 * SPILL_CHUNK_ROWS + 11
        rows = [(i % 3, values[i % len(values)] if i % 7 else i * 0.25)
                for i in range(n)]
        sql = (
            "SELECT k, count(DISTINCT x), sum(DISTINCT x), avg(DISTINCT x), "
            "min(DISTINCT x), max(DISTINCT x) FROM t GROUP BY k ORDER BY k"
        )
        answers = []
        for budget in (None, 1 << 20):
            db = Database(memory_budget=budget)
            try:
                db.execute("CREATE TABLE t (k BIGINT, x DOUBLE)")
                db.insert_rows("t", rows)
                for query in (sql, sql.replace(" GROUP BY k ORDER BY k", "")
                              .replace("k, count", "count")):
                    got = db.execute(query).rows()
                    assert repr(got) == repr(reference_rows(db, query)), query
                    answers.append(repr(got))
                # both statements folded on the kernel, nothing else ran
                assert db.kernel_stats() == {
                    "hits": {"group_by": 2, "sort": 1}, "hit_total": 3
                }
            finally:
                db.close()
        assert answers[:2] == answers[2:]


#: NaN, NULL, both zeros, both infinities and three exact binary
#: fractions: every sum of distinct values is exact, so a permutation can
#: change neither a total nor a comparison
_DOUBLES = st.sampled_from(
    [NAN, None, 0.0, -0.0, float("inf"), float("-inf"), 1.5, -2.25, 3.0]
)
_PERMUTATION_QUERIES = (
    "SELECT x FROM p ORDER BY x",
    "SELECT x FROM p ORDER BY x DESC",
    "SELECT k, min(x), max(x), count(DISTINCT x), sum(DISTINCT x) "
    "FROM p GROUP BY k ORDER BY k",
    "SELECT min(x), max(x), count(DISTINCT x), sum(DISTINCT x), "
    "avg(DISTINCT x) FROM p",
)


@pytest.fixture(scope="module")
def permutation_db():
    db = Database()
    db.execute("CREATE TABLE p (k BIGINT, x DOUBLE)")
    yield db
    db.close()


def _answers(db, rows) -> list:
    db.execute("DELETE FROM p")
    if rows:
        db.insert_rows("p", rows)
    answers = []
    for sql in _PERMUTATION_QUERIES:
        got = db.execute(sql).rows()
        assert repr(got) == repr(reference_rows(db, sql)), (sql, rows)
        answers.append([tuple(map(_order_key, row)) for row in got])
    return answers


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2), _DOUBLES), max_size=14),
    data=st.data(),
)
def test_nan_order_is_independent_of_row_order(permutation_db, rows, data):
    permuted = data.draw(st.permutations(rows))
    assert _answers(permutation_db, rows) == _answers(permutation_db, permuted)
