"""Grouped aggregates against the row-at-a-time oracle, bit for bit.

The GROUP BY kernels fold each aggregate over the dense group ids with
``ufunc.at``, one row range at a time.  Float SUM/AVG add each group's
values in row order, as the row path's ``sum()`` does, so over groups
large enough that pairwise and sequential summation disagree the
answers must still be *equal* to ``row_at_a_time()``'s — at any worker
count, and when a memory budget splits the fold into ranges.  MIN/MAX
keep the first of equal values, as Python's ``min``/``max`` do, which
shows on ``0.0`` against ``-0.0``.  The kernel-level cases pin MIN/MAX
per type, NULL-only groups, empty inputs and the documented int64
wrap-around of integer SUM.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.exec import kernels
from repro.exec.parallel import ExecPool
from repro.storage import Column, DataType
from repro.storage.spill import SPILL_CHUNK_ROWS
from reference_exec import row_at_a_time

#: two groups of ~110k rows each: long enough that pairwise and
#: sequential float sums of these values differ in every group
N_ROWS = 220_000

GROUPED = (
    "SELECT g, count(*), count(x), sum(x), avg(x), min(x), max(x), "
    "sum(i), avg(i), min(i), max(i), min(s), max(s) "
    "FROM t GROUP BY g ORDER BY g"
)


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(20261019)
    x = rng.standard_normal(N_ROWS) * 10.0 ** rng.integers(-6, 7, N_ROWS)
    return {
        "g": rng.integers(0, 2, N_ROWS),
        "x": x,
        "i": rng.integers(-10**9, 10**9, N_ROWS),
        "s": np.array([f"s{v:06d}" for v in rng.integers(0, 10**6, N_ROWS)]),
    }


def _load(db, columns):
    db.execute("CREATE TABLE t (g BIGINT, x DOUBLE, i BIGINT, s VARCHAR)")
    db.appender("t").append(columns)
    # NULL values inside the large groups, a small group, a group whose
    # values are all NULL, and a NULL group key
    db.insert_rows(
        "t",
        [
            (0, None, None, None),
            (1, None, None, None),
            (2, 0.1, 3, "b"),
            (2, 0.2, -4, "a"),
            (3, None, None, None),
            (None, 0.3, 5, "c"),
        ],
    )
    return db


def _exact(rows):
    # repr round-trips every float exactly and keeps ints apart from floats
    return [repr(row) for row in rows]


@pytest.fixture(scope="module")
def oracle(columns):
    db = _load(Database(exec_workers=1), columns)
    try:
        with row_at_a_time():
            return _exact(db.execute(GROUPED).rows())
    finally:
        db.close()


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("budget", [None, 1 << 20])
def test_grouped_aggregates_equal_row_oracle(columns, oracle, workers, budget):
    db = _load(Database(exec_workers=workers, memory_budget=budget), columns)
    try:
        assert _exact(db.execute(GROUPED).rows()) == oracle
        if budget is not None:
            # the budgeted fold ran range by range and wrote nothing
            stats = db.memory_stats()
            ranges = -(-db.execute("SELECT count(*) FROM t").rows()[0][0]
                       // SPILL_CHUNK_ROWS)
            assert ranges > 1 and stats["stream_morsels"] == ranges
            assert stats["files"] == 0
    finally:
        db.close()


def test_sequential_and_pairwise_sums_differ(columns):
    # guards the data above: if these agreed, the test would not tell a
    # row-order sum from numpy's pairwise one
    g, x = columns["g"], columns["x"]
    for group in (0, 1):
        values = x[g == group]
        assert len(values) >= 100_000
        # cumsum adds left to right; add.reduce adds pairwise
        assert np.cumsum(values)[-1] != np.add.reduce(values)


def _aggregate(func, column, ids, n_groups, workers=1):
    if workers == 1:
        return kernels.grouped_aggregate(func, column, ids, n_groups)
    # a pool that morselizes even toy inputs
    pool = ExecPool(workers, morsel_rows=3, min_rows=0)
    try:
        return kernels.grouped_aggregate(
            func, column, ids, n_groups, pool.context()
        )
    finally:
        pool.shutdown()


def _python(func, values, ids, n_groups):
    out = []
    for group in range(n_groups):
        members = [v for v, k in zip(values, ids) if k == group and v is not None]
        out.append((min if func == "min" else max)(members) if members else None)
    return out


@pytest.mark.parametrize(
    "type_, values",
    [
        (DataType.BIGINT, [5, None, -3, 9, None, 2, 7, None]),
        (DataType.DOUBLE, [0.5, None, -3.25, 9.0, None, 2.0, 1e300, None]),
        (DataType.VARCHAR, ["m", None, "b", "z", None, "a", "q", None]),
    ],
)
@pytest.mark.parametrize("workers", [1, 3])
def test_min_max_per_type_with_null_only_group(type_, values, workers):
    # group 2 holds only NULLs, group 3 holds no rows at all
    ids = np.array([0, 2, 1, 0, 2, 1, 0, 2], dtype=np.int64)
    column = Column.from_values(type_, values)
    for func in ("min", "max"):
        result = _aggregate(func, column, ids, 4, workers)
        assert result.type == type_
        assert result.to_pylist() == _python(func, values, ids, 4)


def test_empty_input():
    ids = np.empty(0, dtype=np.int64)
    for type_ in (DataType.BIGINT, DataType.DOUBLE, DataType.VARCHAR):
        column = Column.from_values(type_, [])
        for func in ("count", "min", "max") + (
            ("sum", "avg") if type_ != DataType.VARCHAR else ()
        ):
            for n_groups in (0, 1):  # GROUP BY over nothing; global aggregate
                result = _aggregate(func, column, ids, n_groups)
                expected = [0] * n_groups if func == "count" else [None] * n_groups
                assert result.to_pylist() == expected, (type_, func)
    # a float SUM keeps its float dtype even when no row reaches it
    empty = Column.from_values(DataType.DOUBLE, [])
    assert _aggregate("sum", empty, ids, 1).data.dtype == np.float64
    db = Database()
    try:
        db.execute("CREATE TABLE e (g BIGINT, x DOUBLE, s VARCHAR)")
        assert db.execute(
            "SELECT g, sum(x), min(s) FROM e GROUP BY g"
        ).rows() == []
        assert db.execute(
            "SELECT count(*), sum(x), avg(x), min(x), max(s) FROM e"
        ).rows() == [(0, None, None, None, None)]
    finally:
        db.close()


def test_integer_sum_wraps_in_int64():
    # the documented kernel deviation: Python ints are unbounded, the
    # kernel accumulates in int64 (the row path raises out of range)
    db = Database()
    try:
        db.execute("CREATE TABLE w (g BIGINT, v BIGINT)")
        db.insert_rows("w", [(0, 2**62)] * 3 + [(1, -(2**62))] * 3)
        assert db.execute(
            "SELECT g, sum(v) FROM w GROUP BY g ORDER BY g"
        ).rows() == [(0, -(2**62)), (1, 2**62)]
    finally:
        db.close()
    ids = np.array([0, 0, 0, 1], dtype=np.int64)
    column = Column(DataType.BIGINT, np.array([2**62] * 3 + [1], dtype=np.int64))
    assert _aggregate("sum", column, ids, 2).to_pylist() == [-(2**62), 1]


@pytest.mark.parametrize("budget", [None, 1 << 20])
def test_budgeted_float_sum_streams(columns, oracle, budget):
    # ungrouped float SUM/AVG fold morsel by morsel in row order, so a
    # budget streams them and they still equal the sequential row sum
    queries = [
        "SELECT count(*), sum(x), avg(x), min(x), max(s) FROM t",
        "SELECT sum(x), avg(x) FROM t WHERE g = 0",
    ]
    db = _load(Database(memory_budget=budget), columns)
    try:
        with row_at_a_time():
            expected = [_exact(db.execute(sql).rows()) for sql in queries]
        for sql, rows in zip(queries, expected):
            streams = db.memory_stats()["streams"]
            assert _exact(db.execute(sql).rows()) == rows, sql
            if budget is not None:
                assert db.memory_stats()["streams"] == streams + 1, sql
                plan = "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows())
                assert "[streamable]" in plan, plan
    finally:
        db.close()


#: a zero and a negative zero in each group, in both orders, in row
#: ranges a budget folds apart (150k rows: three SPILL_CHUNK_ROWS ranges)
SIGNED_ZERO_ROWS = 150_000
SIGNED_ZEROS = {
    "SELECT g, min(f), max(h) FROM z GROUP BY g ORDER BY g": [
        (1, 0.0, -0.0),
        (2, -0.0, 0.0),
    ],
    "SELECT min(f), max(h) FROM z WHERE g = 1": [(0.0, -0.0)],
    "SELECT min(f), max(h) FROM z WHERE g = 2": [(-0.0, 0.0)],
    "SELECT g, min(f), max(f) FROM small GROUP BY g ORDER BY g": [
        (1, 0.0, 0.0),
        (2, -0.0, -0.0),
    ],
    "SELECT min(f), max(f) FROM small": [(0.0, 0.0)],
}


@pytest.mark.parametrize("budget", [None, 1 << 20])
def test_min_max_keep_the_first_signed_zero(budget):
    # Python's min()/max() keep the first of equal values: 0.0 == -0.0
    f = np.arange(SIGNED_ZERO_ROWS, dtype=np.float64) + 1.0
    f[[5, 70_000]] = [0.0, -0.0]  # group 1: +0.0 first
    f[[75_005, 140_000]] = [-0.0, 0.0]  # group 2: -0.0 first
    g = np.where(np.arange(SIGNED_ZERO_ROWS) < 75_000, 1, 2)
    db = Database(memory_budget=budget)
    try:
        db.execute("CREATE TABLE z (g BIGINT, f DOUBLE, h DOUBLE)")
        db.appender("z").append({"g": g, "f": f, "h": -f})
        db.execute("CREATE TABLE small (g BIGINT, f DOUBLE)")
        db.insert_rows("small", [(1, 0.0), (1, -0.0), (2, -0.0), (2, 0.0)])
        for sql, expected in SIGNED_ZEROS.items():
            with row_at_a_time():
                assert _exact(db.execute(sql).rows()) == _exact(expected), sql
            assert _exact(db.execute(sql).rows()) == _exact(expected), sql
        if budget is not None:
            assert db.memory_stats()["streams"] >= 3  # grouped fold + 2 WHERE
    finally:
        db.close()
