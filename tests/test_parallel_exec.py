"""Morsel-driven parallel execution: dictionary merge + workers oracle.

Unit half: the deterministic parallel primitives of
:mod:`repro.exec.parallel` and the morsel paths of
:meth:`repro.storage.Column.factorize` / :mod:`repro.exec.kernels`,
forced onto tiny morsels so a handful of rows exercises real multi-morsel
merges — including the edge cases the SQL surface makes hard to pin
down: an all-NULL morsel (empty local dictionary), a single-morsel
input, and the mixed-radix dictionary-overflow densification.

Engine half: ``Database(exec_workers=1)`` is the serial kernels — the
bit-identity oracle.  Every query (the ``test_fuzz`` relational and
graph grammars, ORDER BY tie order, recursive CTEs) must produce *the
identical row list* on a many-worker database with deliberately tiny
morsels, and a shared pool must stay correct under concurrent sessions.
"""

import random
import threading

import numpy as np
import pytest

from repro import Database, ReproError
from repro.exec import kernels
from repro.exec import parallel as mp
from repro.exec.parallel import ExecPool, morsel_spans
from repro.storage import Column, DataType
from test_fuzz import random_graph_query, random_query


def tiny_context(workers: int = 2, morsel_rows: int = 4):
    """A ParallelContext that morselizes even toy inputs."""
    return ExecPool(workers, morsel_rows=morsel_rows, min_rows=0).context()


# ---------------------------------------------------------------------------
# morsels and primitives
# ---------------------------------------------------------------------------
class TestMorselPrimitives:
    def test_morsel_spans_cover_and_partition(self):
        assert morsel_spans(0, 4) == []
        assert morsel_spans(3, 4) == [(0, 3)]  # single-morsel input
        assert morsel_spans(8, 4) == [(0, 4), (4, 8)]
        assert morsel_spans(9, 4) == [(0, 4), (4, 8), (8, 9)]

    def test_parallel_stable_argsort_is_the_stable_permutation(self):
        rng = np.random.default_rng(1)
        par = tiny_context(workers=3, morsel_rows=5)
        for n in (2, 7, 16, 33, 100):
            keys = rng.integers(0, 6, size=n)
            expected = np.argsort(keys, kind="stable")
            assert mp.parallel_stable_argsort(keys, par).tolist() == expected.tolist()

    def test_counting_argsort_matches_merge_path_and_numpy(self):
        rng = np.random.default_rng(2)
        par = tiny_context(workers=3, morsel_rows=5)
        for n in (6, 13, 40, 121):
            keys = rng.integers(0, 9, size=n).astype(np.int64)
            expected = np.argsort(keys, kind="stable").tolist()
            assert (
                mp.parallel_stable_argsort(keys, par, radix=9).tolist()
                == expected
            )
            assert mp.parallel_stable_argsort(keys, par).tolist() == expected

    def test_parallel_bincount_matches_serial(self):
        par = tiny_context()
        ids = np.array([0, 2, 2, 1, 0, 2, 4, 4, 0], dtype=np.int64)
        valid = np.array([1, 1, 0, 1, 1, 1, 0, 1, 1], dtype=np.bool_)
        assert mp.parallel_bincount(ids, 5, par).tolist() == np.bincount(
            ids, minlength=5
        ).tolist()
        assert mp.parallel_bincount(ids, 5, par, valid=valid).tolist() == (
            np.bincount(ids[valid], minlength=5).tolist()
        )

    def test_parallel_first_rows_merges_morsel_minima(self):
        par = tiny_context(morsel_rows=3)
        ids = np.array([7, 2, 7, 2, 9, 2, 7, 9], dtype=np.int64)
        uniques, first = mp.parallel_first_rows(ids, par)
        assert uniques.tolist() == [2, 7, 9]
        assert first.tolist() == [1, 0, 4]  # global first occurrences

    def test_parallel_unique_inverse_matches_numpy(self):
        rng = np.random.default_rng(3)
        par = tiny_context(morsel_rows=5)
        values = rng.integers(-50, 50, size=40) * 10**12  # wide domain
        uniques, inverse = mp.parallel_unique_inverse(values, par)
        expected_u, expected_i = np.unique(values, return_inverse=True)
        assert uniques.tolist() == expected_u.tolist()
        assert inverse.tolist() == expected_i.reshape(-1).tolist()

    def test_parallel_membership_both_strategies(self):
        par = tiny_context(morsel_rows=4)
        probe = np.array([0, 5, 9, 5, 3, 0, 7, 1, 2, 9], dtype=np.int64)
        keys = np.array([5, 2, 9], dtype=np.int64)
        expected = np.isin(probe, keys).tolist()
        small = mp.parallel_membership(probe, keys, 10, True, par)
        large = mp.parallel_membership(probe, keys, 10, False, par)
        assert small.tolist() == expected
        assert large.tolist() == expected

    def test_parallel_membership_empty_key_side(self):
        par = tiny_context(morsel_rows=4)
        probe = np.arange(10, dtype=np.int64)
        out = mp.parallel_membership(
            probe, np.empty(0, dtype=np.int64), 16, False, par
        )
        assert not out.any()


# ---------------------------------------------------------------------------
# per-partition dictionary merge (Column.factorize + codify)
# ---------------------------------------------------------------------------
def assert_same_factorize(column: Column, par) -> None:
    codes_s, card_s, uniques_s = column._factorize_impl(True, None)
    codes_p, card_p, uniques_p = column._factorize_impl(True, par)
    assert codes_p.tolist() == codes_s.tolist()
    assert card_p == card_s
    if uniques_s is None or uniques_p is None:
        # the dense-span fast path skips the dictionary on both sides
        # only when both took it; a dictionary is allowed to appear on
        # one side only if the codes still agree (checked above)
        return
    assert uniques_p.tolist() == uniques_s.tolist()


class TestDictionaryMerge:
    def test_wide_integer_dictionary(self):
        rng = np.random.default_rng(11)
        par = tiny_context(workers=3, morsel_rows=4)
        data = rng.integers(-100, 100, size=37) * 10**11
        assert_same_factorize(Column(DataType.BIGINT, data), par)

    def test_dense_span_fast_path(self):
        rng = np.random.default_rng(12)
        par = tiny_context(morsel_rows=4)
        data = rng.integers(0, 9, size=41, dtype=np.int64)
        assert_same_factorize(Column(DataType.BIGINT, data), par)

    def test_floats_with_nulls_and_nans(self):
        par = tiny_context(morsel_rows=3)
        values = [1.5, None, float("nan"), -2.0, 1.5, None, float("nan"), 0.0,
                  -0.0, 3.25, None, 1.5, 7.0]
        column = Column.from_values(DataType.DOUBLE, values)
        assert_same_factorize(column, par)

    def test_all_null_morsel(self):
        # rows 4..7 form one entirely-NULL morsel: its local dictionary
        # is empty and must vanish in the merge
        par = tiny_context(morsel_rows=4)
        values = [10**12, 5, None, 10**12, None, None, None, None, 5, -3]
        column = Column.from_values(DataType.BIGINT, values)
        assert_same_factorize(column, par)

    def test_all_null_column_stays_serial_and_correct(self):
        par = tiny_context(morsel_rows=2)
        column = Column.nulls(DataType.INTEGER, 9)
        codes, cardinality, _ = column._factorize_impl(True, par)
        assert codes.tolist() == [0] * 9
        assert cardinality == 1

    def test_single_morsel_input_runs_inline(self):
        # one span: ParallelContext.map must run inline (counted serial)
        par = tiny_context(morsel_rows=100)
        data = (np.arange(20) * 10**12)[::-1].copy()
        column = Column(DataType.BIGINT, data)
        codes_p, card_p, _ = column._factorize_impl(True, par)
        codes_s, card_s, _ = column._factorize_impl(True, None)
        assert codes_p.tolist() == codes_s.tolist() and card_p == card_s

    def test_memo_returns_identical_result_and_is_per_nan_mode(self):
        column = Column.from_values(
            DataType.DOUBLE, [1.0, float("nan"), 2.0, float("nan")]
        )
        first = column.factorize(nan_distinct=True)
        again = column.factorize(nan_distinct=True)
        assert first[0] is again[0]  # memoized
        grouped = column.factorize(nan_distinct=False)
        assert grouped[1] != first[1]  # distinct cache per nan mode

    def test_codify_multi_column_matches_serial(self):
        rng = np.random.default_rng(13)
        par = tiny_context(morsel_rows=4)
        n = 33
        columns = [
            Column(DataType.BIGINT, rng.integers(0, 5, size=n, dtype=np.int64)),
            Column.from_values(
                DataType.DOUBLE,
                [rng.choice([None, 0.5, -1.5, 2.25]) for _ in range(n)],
            ),
            Column(DataType.BIGINT, rng.integers(-3, 3, size=n) * 10**12),
        ]
        serial = kernels.codify(columns, n)
        parallel = kernels.codify(columns, n, par=par)
        assert parallel.tolist() == serial.tolist()

    def test_dictionary_overflow_densification(self):
        # enough wide-dictionary key columns to overflow the int64
        # mixed-radix space: the intermediate ids must densify (via the
        # parallel per-partition unique merge) and still agree with the
        # serial kernels
        rng = np.random.default_rng(14)
        par = tiny_context(morsel_rows=16)
        n = 120
        columns = [
            Column(
                DataType.BIGINT,
                rng.integers(0, 90, size=n) * 10**10 + j,
            )
            for j in range(11)
        ]
        serial = kernels.codify(columns, n)
        parallel = kernels.codify(columns, n, par=par)
        assert parallel.tolist() == serial.tolist()
        # sanity: the scenario really exercised the densify branch
        cards = [c.factorize()[1] for c in columns]
        product = 1
        for cardinality in cards:
            product *= cardinality
        assert product > kernels._MAX_RADIX

    def test_group_ids_and_distinct_mask_match_serial(self):
        rng = random.Random(15)
        par = tiny_context(morsel_rows=4)
        for _ in range(25):
            n = rng.randrange(0, 40)
            columns = [
                Column.from_values(
                    DataType.INTEGER,
                    [rng.choice([None, *range(4)]) for _ in range(n)],
                )
                for _ in range(rng.randrange(1, 3))
            ]
            ids_s, n_s, first_s = kernels.group_ids(columns, n)
            ids_p, n_p, first_p = kernels.group_ids(columns, n, par)
            assert ids_p.tolist() == ids_s.tolist()
            assert (n_p, first_p.tolist()) == (n_s, first_s.tolist())
            mask_s = kernels.distinct_mask(columns, n)
            mask_p = kernels.distinct_mask(columns, n, par)
            assert mask_p.tolist() == mask_s.tolist()

    def test_grouped_aggregates_bitwise_equal(self):
        rng = np.random.default_rng(16)
        par = tiny_context(workers=3, morsel_rows=5)
        n = 64
        ids = rng.integers(0, 7, size=n).astype(np.int64)
        mask = rng.random(n) < 0.2
        arg = Column(DataType.DOUBLE, rng.random(n), mask.copy())
        for func in ("count_star", "count", "sum", "min", "max", "avg"):
            serial = kernels.grouped_aggregate(func, False, arg, ids, 7)
            parallel = kernels.grouped_aggregate(
                func, False, arg, ids, 7, None, par
            )
            # bit-identical, incl. float SUM/AVG (same reduceat input)
            assert serial.data.tolist() == parallel.data.tolist(), func
            assert (serial.mask is None) == (parallel.mask is None)
            if serial.mask is not None:
                assert serial.mask.tolist() == parallel.mask.tolist()

    def test_join_indices_match_serial(self):
        rng = np.random.default_rng(17)
        par = tiny_context(morsel_rows=4)
        n_left, n_right = 50, 23
        left = [
            Column(DataType.BIGINT, rng.integers(0, 9, size=n_left, dtype=np.int64)),
            Column.from_values(
                DataType.VARCHAR,
                [rng.choice([None, "a", "b", "c"]) for _ in range(n_left)],
            ),
        ]
        right = [
            Column(DataType.BIGINT, rng.integers(0, 9, size=n_right, dtype=np.int64)),
            Column.from_values(
                DataType.VARCHAR,
                [rng.choice([None, "a", "b"]) for _ in range(n_right)],
            ),
        ]
        li_s, ri_s = kernels.join_indices(left, right)
        li_p, ri_p = kernels.join_indices(left, right, par=par)
        assert li_p.tolist() == li_s.tolist()
        assert ri_p.tolist() == ri_s.tolist()
        # single-key int and double fast paths
        for caster in (
            lambda c: c,
            lambda c: c.cast(DataType.DOUBLE),
        ):
            li_s, ri_s = kernels.join_indices([caster(left[0])], [caster(right[0])])
            li_p, ri_p = kernels.join_indices(
                [caster(left[0])], [caster(right[0])], par=par
            )
            assert li_p.tolist() == li_s.tolist()
            assert ri_p.tolist() == ri_s.tolist()

    def test_setop_and_new_rows_masks_match_serial(self):
        rng = np.random.default_rng(18)
        par = tiny_context(morsel_rows=4)
        n_left, n_right = 41, 17
        left = [Column(DataType.BIGINT, rng.integers(0, 12, size=n_left, dtype=np.int64))]
        right = [Column(DataType.BIGINT, rng.integers(0, 12, size=n_right, dtype=np.int64))]
        for keep_members in (True, False):
            serial = kernels.setop_mask(
                left, n_left, right, n_right, keep_members=keep_members
            )
            parallel = kernels.setop_mask(
                left, n_left, right, n_right, keep_members=keep_members, par=par
            )
            assert parallel.tolist() == serial.tolist()
        serial = kernels.new_rows_mask(right, n_right, left, n_left)
        parallel = kernels.new_rows_mask(right, n_right, left, n_left, par)
        assert parallel.tolist() == serial.tolist()


# ---------------------------------------------------------------------------
# the argsort cache is thread-local
# ---------------------------------------------------------------------------
class TestArgsortCache:
    def test_entries_are_per_thread(self):
        cache = kernels.ArgsortCache()
        keys = np.array([2, 1, 2], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        cache.store(keys, order)
        assert cache.lookup(keys) is order
        seen_elsewhere = []
        thread = threading.Thread(
            target=lambda: seen_elsewhere.append(cache.lookup(keys))
        )
        thread.start()
        thread.join()
        assert seen_elsewhere == [None]  # other threads see their own map

    def test_identity_keyed_not_value_keyed(self):
        cache = kernels.ArgsortCache()
        keys = np.array([1, 0], dtype=np.int64)
        cache.store(keys, np.argsort(keys, kind="stable"))
        clone = keys.copy()
        assert cache.lookup(clone) is None


# ---------------------------------------------------------------------------
# engine-level oracle: exec_workers=1 vs exec_workers=N (bit-identical)
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
    serial = Database(exec_workers=1)
    parallel = Database(exec_workers=3, morsel_rows=2, parallel_min_rows=0)
    serial.executescript(SCHEMA)
    parallel.executescript(SCHEMA)
    return serial, parallel


def assert_workers_identical(engines, sql, params=()):
    serial, parallel = engines
    try:
        expected = serial.execute(sql, params).rows()
        expected_error = None
    except ReproError as exc:
        expected, expected_error = None, exc
    try:
        actual = parallel.execute(sql, params).rows()
        actual_error = None
    except ReproError as exc:
        actual, actual_error = None, exc
    if expected_error is not None or actual_error is not None:
        assert (expected_error is None) == (actual_error is None), (
            f"only one worker count failed for {sql!r}: "
            f"serial={expected_error!r} parallel={actual_error!r}"
        )
        return
    # repr-compare so NaN-bearing rows still match; NO sorting — the
    # worker count must not change even the row order
    assert list(map(repr, actual)) == list(map(repr, expected)), sql


class TestWorkersEquivalence:
    def test_operator_shapes(self, engines):
        for sql in [
            "SELECT b, count(*), sum(a), min(c), max(c), avg(a) FROM t1 GROUP BY b",
            "SELECT a, b, count(*) FROM t1 GROUP BY a, b",
            "SELECT count(*), sum(c), avg(c) FROM t1",
            "SELECT DISTINCT a, b FROM t1",
            "SELECT * FROM t1 JOIN t2 ON t1.a = t2.a",
            "SELECT x.b, y.b FROM t1 x JOIN t1 y ON x.b = y.b AND x.a = y.a",
            "SELECT t1.b, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.a",
            "SELECT a FROM t1 UNION SELECT a FROM t2",
            "SELECT a FROM t1 INTERSECT SELECT a FROM t2",
            "SELECT a FROM t1 EXCEPT SELECT a FROM t2",
            "SELECT a, b, c FROM t1 ORDER BY b, a DESC",
            "SELECT a, b, c FROM t1 ORDER BY c DESC, b, a",
        ]:
            assert_workers_identical(engines, sql)

    def test_order_by_tie_order_bit_identical(self, engines):
        # duplicated (2, 'y', 1.5) rows: the tie order must match too
        assert_workers_identical(
            engines, "SELECT a, b, c FROM t1 ORDER BY a, c"
        )
        assert_workers_identical(
            engines, "SELECT a % 2, b FROM t1 ORDER BY a % 2"
        )

    def test_recursive_ctes(self, engines):
        for sql in [
            "WITH RECURSIVE r (n) AS ("
            "SELECT s FROM e UNION SELECT d FROM e WHERE d IN (SELECT n FROM r)"
            ") SELECT n FROM r ORDER BY n",
            "WITH RECURSIVE walk (node, hops) AS ("
            "SELECT 1, 0 UNION "
            "SELECT e.d, walk.hops + 1 FROM walk JOIN e ON walk.node = e.s "
            "WHERE walk.hops < 5"
            ") SELECT node, hops FROM walk ORDER BY hops, node",
        ]:
            assert_workers_identical(engines, sql)

    def test_relational_fuzz_corpus(self, engines):
        rng = random.Random(20260731)
        for _ in range(200):
            assert_workers_identical(engines, random_query(rng))

    def test_graph_fuzz_corpus(self, engines):
        rng = random.Random(515)
        for _ in range(120):
            assert_workers_identical(engines, random_graph_query(rng))

    def test_large_synthetic_groupby_and_join(self):
        # big enough to split into many real morsels even at the default
        # morsel maths (scaled down via the knobs for test speed)
        rng = np.random.default_rng(99)
        n = 30_000
        k = rng.integers(0, 211, size=n, dtype=np.int64)
        w = rng.integers(0, 17, size=n, dtype=np.int64)
        v = rng.random(n)
        results = []
        for workers in (1, 4):
            db = Database(
                exec_workers=workers, morsel_rows=1024, parallel_min_rows=0
            )
            db.execute("CREATE TABLE f (k BIGINT, w BIGINT, v DOUBLE)")
            db.table("f").insert_columns(
                [
                    Column(DataType.BIGINT, k.copy()),
                    Column(DataType.BIGINT, w.copy()),
                    Column(DataType.DOUBLE, v.copy()),
                ]
            )
            results.append(
                (
                    db.execute(
                        "SELECT k, count(*), sum(v), min(v), max(v) "
                        "FROM f GROUP BY k ORDER BY k"
                    ).rows(),
                    db.execute(
                        "SELECT count(*) FROM f x JOIN f y "
                        "ON x.k = y.k AND x.w = y.w WHERE x.v < 0.001"
                    ).rows(),
                    db.execute("SELECT DISTINCT k, w FROM f").rows(),
                )
            )
        assert results[0] == results[1]  # bit-identical, float sums included


# ---------------------------------------------------------------------------
# shared pool under concurrent sessions
# ---------------------------------------------------------------------------
class TestSharedPoolConcurrency:
    def test_concurrent_sessions_share_the_pool(self):
        db = Database(exec_workers=2, morsel_rows=64, parallel_min_rows=0)
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        rng = np.random.default_rng(5)
        k = rng.integers(0, 23, size=4000, dtype=np.int64)
        v = rng.integers(0, 1000, size=4000, dtype=np.int64)
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, k), Column(DataType.BIGINT, v)]
        )
        expected = db.execute(
            "SELECT k, count(*), sum(v) FROM t GROUP BY k ORDER BY k"
        ).rows()
        errors: list = []

        def worker():
            try:
                with db.connect() as session:
                    for _ in range(10):
                        rows = session.execute(
                            "SELECT k, count(*), sum(v) FROM t "
                            "GROUP BY k ORDER BY k"
                        ).rows()
                        assert rows == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


# ---------------------------------------------------------------------------
# path batches on the same pool
# ---------------------------------------------------------------------------
class TestPathBatchesOnExecPool:
    """Batched shortest-path queries run their source-group shards on
    the database's one exec pool, never on a thread pool of their own."""

    BATCH_Q13 = (
        "SELECT p.s, p.d, CHEAPEST SUM(1) AS hops FROM pairs p "
        "WHERE p.s REACHES p.d OVER edges EDGE (s, d)"
    )
    BATCH_Q14 = (
        "SELECT p.s, p.d, CHEAPEST SUM(e: w) AS (cost, path) FROM pairs p "
        "WHERE p.s REACHES p.d OVER edges e EDGE (s, d)"
    )

    @staticmethod
    def _load(db):
        rng = np.random.default_rng(11)
        db.execute("CREATE TABLE edges (s BIGINT, d BIGINT, w BIGINT)")
        db.appender("edges").append(
            {
                "s": rng.integers(0, 60, 300),
                "d": rng.integers(0, 60, 300),
                "w": rng.integers(1, 20, 300),
            }
        )
        db.execute("CREATE TABLE pairs (s BIGINT, d BIGINT)")
        db.appender("pairs").append(
            {"s": rng.integers(0, 60, 128), "d": rng.integers(0, 60, 128)}
        )

    def _answers(self, db):
        q13 = db.execute(self.BATCH_Q13).rows()
        q14 = [
            (s, d, cost, path.to_rows())
            for s, d, cost, path in db.execute(self.BATCH_Q14).rows()
        ]
        return q13, q14

    def test_batches_run_on_the_exec_pool(self):
        before = set(threading.enumerate())
        serial = Database(exec_workers=1)
        pooled = Database(exec_workers=2)
        for db in (serial, pooled):
            self._load(db)
        q13, q14 = self._answers(serial)
        assert len(q13) > 32 and len(q14) > 32  # past PARALLEL_MIN_PAIRS
        assert self._answers(pooled) == (q13, q14)
        assert pooled.parallel_stats()["parallel_ops"]["paths"] == 2
        started = set(threading.enumerate()) - before
        assert started
        assert all(t.name.startswith("repro-exec") for t in started), started
        serial.close()
        pooled.close()
        left = [
            t.name
            for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-")
        ]
        assert left == []


# ---------------------------------------------------------------------------
# counters, knobs, shell surface
# ---------------------------------------------------------------------------
class TestParallelStats:
    def test_parallel_stats_counts_ops_and_morsels(self):
        db = Database(exec_workers=2, morsel_rows=8, parallel_min_rows=0)
        db.execute("CREATE TABLE t (k BIGINT)")
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, np.arange(100, dtype=np.int64) % 7)]
        )
        db.execute("SELECT k, count(*) FROM t GROUP BY k")
        stats = db.parallel_stats()
        assert stats["workers"] == 2
        assert stats["parallel_op_total"] >= 1
        assert stats["morsel_total"] >= 2
        assert stats["morsel_seconds_total"] >= 0.0

    def test_serial_database_never_parallelizes(self):
        db = Database(exec_workers=1)
        db.execute("CREATE TABLE t (k BIGINT)")
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, np.arange(1000, dtype=np.int64) % 5)]
        )
        db.execute("SELECT k, count(*) FROM t GROUP BY k")
        stats = db.parallel_stats()
        assert stats["workers"] == 1
        assert stats["parallel_op_total"] == 0
        assert stats["morsel_total"] == 0

    def test_small_inputs_stay_serial_by_threshold(self):
        db = Database(exec_workers=4)  # default PARALLEL_MIN_ROWS
        db.executescript(
            "CREATE TABLE t (k BIGINT); INSERT INTO t VALUES (1), (1), (2);"
        )
        db.execute("SELECT k, count(*) FROM t GROUP BY k")
        assert db.parallel_stats()["parallel_op_total"] == 0

    def test_set_exec_workers_resizes_and_keeps_counters(self):
        db = Database(exec_workers=2, morsel_rows=8, parallel_min_rows=0)
        db.execute("CREATE TABLE t (k BIGINT)")
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, np.arange(64, dtype=np.int64) % 3)]
        )
        db.execute("SELECT DISTINCT k FROM t")
        before = db.parallel_stats()["parallel_op_total"]
        assert before >= 1
        assert db.set_exec_workers(1) == 1
        db.execute("SELECT DISTINCT k FROM t WHERE k >= 0")
        after = db.parallel_stats()
        assert after["workers"] == 1
        assert after["parallel_op_total"] == before  # counters carried over

    def test_retired_pool_runs_morsels_inline(self):
        # a statement holding a pool retired by set_exec_workers must
        # finish inline, not resurrect stray threads on the orphan
        pool = ExecPool(2, morsel_rows=4, min_rows=0)
        ctx = pool.context()
        pool.shutdown()
        assert pool.executor() is None
        keys = np.array([3, 1, 2, 1, 0, 3, 2, 2, 1], dtype=np.int64)
        assert (
            mp.parallel_stable_argsort(keys, ctx).tolist()
            == np.argsort(keys, kind="stable").tolist()
        )

    def test_resize_during_flight_does_not_crash_statements(self):
        # set_exec_workers racing in-flight queries: readers must finish
        # (inline fallback on the retired pool), never raise
        db = Database(exec_workers=3, morsel_rows=64, parallel_min_rows=0)
        db.execute("CREATE TABLE t (k BIGINT)")
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, np.arange(5000, dtype=np.int64) % 13)]
        )
        expected = db.execute(
            "SELECT k, count(*) FROM t GROUP BY k ORDER BY k"
        ).rows()
        errors: list = []
        done = threading.Event()

        def reader():
            try:
                with db.connect() as session:
                    while not done.is_set():
                        rows = session.execute(
                            "SELECT k, count(*) FROM t GROUP BY k ORDER BY k"
                        ).rows()
                        assert rows == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def resizer():
            try:
                for workers in (2, 4, 1, 3) * 5:
                    db.set_exec_workers(workers)
            finally:
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=resizer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_profile_report_has_parallel_footer(self):
        db = Database(exec_workers=2, morsel_rows=8, parallel_min_rows=0)
        db.execute("CREATE TABLE t (k BIGINT)")
        db.table("t").insert_columns(
            [Column(DataType.BIGINT, np.arange(64, dtype=np.int64) % 3)]
        )
        _, report = db.profile("SELECT k, count(*) FROM t GROUP BY k")
        assert "parallel kernels: workers=2" in report
        assert "morsels=" in report
        assert "avg_morsel=" in report

    def test_shell_workers_command_shows_and_sets_exec_pool(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(
            db=Database(exec_workers=2, morsel_rows=8, parallel_min_rows=0),
            out=out,
        )
        shell.feed_line("\\workers")
        assert "exec workers: 2" in out.getvalue()
        shell.feed_line("\\workers 1")
        assert "exec workers: 1" in out.getvalue()
        assert shell.db.exec_pool.workers == 1
        shell.feed_line("\\workers path 3")  # no separate path pool
        assert "usage: \\workers [N|auto]" in out.getvalue()
        assert shell.db.exec_pool.workers == 1
