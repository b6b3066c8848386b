"""Experiment: vectorized kernels vs the row-at-a-time executor.

Five key-driven operator shapes over the same generated data, each run
on two databases: one with the kernels, one queried under the test
tree's ``reference_exec.row_at_a_time()`` so every operator runs its
row-at-a-time reference handler: 1M-row GROUP BY,
DISTINCT, a 2-key equi-join, EXCEPT, and a 2-key ORDER BY.  Results
are asserted identical between the engines on every run; rows/sec and speedups land in
``BENCH_exec.json`` — the start of the accumulated perf trajectory
(the CI smoke job re-runs this at a small scale and uploads the file as
an artifact).

Environment knobs:

* ``REPRO_BENCH_KERNEL_ROWS`` — fact-table size (default 1_000_000);
* ``REPRO_BENCH_EXEC_OUT`` — output path for ``BENCH_exec.json``
  (default: the system temp directory).

The >=5x speedup assertions only apply at full scale (>= 1M rows):
below that the Python fixed costs flatter the baseline and the numbers
are smoke signal only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Database
from repro.storage import Column, DataType

from conftest import bench_out_path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from reference_exec import row_at_a_time  # noqa: E402

ROWS = int(os.environ.get("REPRO_BENCH_KERNEL_ROWS", str(1_000_000)))
#: Build-side size of the join experiment (~1 match per probe row, so
#: the measurement is dominated by the probe, not by materializing a
#: multiple of the input as output).
JOIN_BUILD_ROWS = max(ROWS // 20, 1)
#: Rows of the EXCEPT right input.
EXCEPT_RIGHT_ROWS = max(ROWS // 4, 1)
#: Cardinality of the primary grouping key.
GROUPS = 1_000
OUT_PATH = bench_out_path("REPRO_BENCH_EXEC_OUT", "BENCH_exec.json")
#: Speedup floor asserted at full scale for the tentpole operators.
MIN_SPEEDUP = 5.0
ASSERT_SPEEDUPS = ROWS >= 1_000_000

_results: dict[str, dict] = {}


@pytest.fixture(scope="module")
def engines():
    yield from _build_engines()


def _build_engines():
    rng = np.random.default_rng(20260730)
    k1 = rng.integers(0, GROUPS, size=ROWS, dtype=np.int64)
    k2 = rng.integers(0, 50, size=ROWS, dtype=np.int64)
    v = rng.random(ROWS)
    build_k1 = rng.integers(0, GROUPS, size=JOIN_BUILD_ROWS, dtype=np.int64)
    build_k2 = rng.integers(0, 50, size=JOIN_BUILD_ROWS, dtype=np.int64)
    right_k1 = rng.integers(0, GROUPS, size=EXCEPT_RIGHT_ROWS, dtype=np.int64)
    right_k2 = rng.integers(0, 50, size=EXCEPT_RIGHT_ROWS, dtype=np.int64)
    built = []
    for _ in range(2):
        db = Database()
        db.execute("CREATE TABLE t (k1 BIGINT, k2 BIGINT, v DOUBLE)")
        db.table("t").insert_columns(
            [
                Column(DataType.BIGINT, k1.copy()),
                Column(DataType.BIGINT, k2.copy()),
                Column(DataType.DOUBLE, v.copy()),
            ]
        )
        db.execute("CREATE TABLE s (k1 BIGINT, k2 BIGINT)")
        db.table("s").insert_columns(
            [
                Column(DataType.BIGINT, build_k1.copy()),
                Column(DataType.BIGINT, build_k2.copy()),
            ]
        )
        db.execute("CREATE TABLE r (k1 BIGINT, k2 BIGINT)")
        db.table("r").insert_columns(
            [
                Column(DataType.BIGINT, right_k1.copy()),
                Column(DataType.BIGINT, right_k2.copy()),
            ]
        )
        db.execute("ANALYZE")
        built.append(db)
    yield built[0], built[1]
    # pytest's fixture cache still references the yielded tuple during
    # finalization, so dropping the tables (not just our locals) is what
    # actually releases the ~100MB of column data.  This module is also
    # named to sort *after* the timing-shape benchmarks (fig1a/fig1b),
    # so its allocations never run ahead of their assertions.
    for db in built:
        for table in ("t", "s", "r"):
            db.execute(f"DROP TABLE {table}")
    import gc

    gc.collect()


def _time(db: Database, sql: str, repeats: int):
    """Best wall time over ``repeats`` runs, after one uncounted
    warm-up run (both engines pay it, so plan-cache warming and
    parse/optimize time cannot skew the recorded speedups)."""
    db.execute(sql)
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = db.execute(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _record(op: str, sql: str, vec_s: float, base_s: float, capsys) -> None:
    speedup = base_s / vec_s if vec_s else float("inf")
    _results[op] = {
        "sql": sql,
        "rows": ROWS,
        "vectorized_s": round(vec_s, 6),
        "rowwise_s": round(base_s, 6),
        "speedup": round(speedup, 2),
        "rows_per_s_vectorized": int(ROWS / vec_s) if vec_s else None,
        "rows_per_s_rowwise": int(ROWS / base_s) if base_s else None,
    }
    OUT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "exec_kernels",
                "rows": ROWS,
                "min_speedup_asserted": MIN_SPEEDUP if ASSERT_SPEEDUPS else None,
                "ops": _results,
            },
            indent=2,
        )
        + "\n"
    )
    with capsys.disabled():
        print(
            f"\n{op}: rowwise {base_s * 1000:9.2f} ms | "
            f"vectorized {vec_s * 1000:9.2f} ms | {speedup:7.2f}x"
        )


def _compare(op, sql, engines, capsys, *, repeats=3, assert_speedup=False):
    vectorized, rowwise = engines
    vec_s, vec_result = _time(vectorized, sql, repeats)
    with row_at_a_time():
        base_s, base_result = _time(rowwise, sql, 1)
    assert len(vec_result) == len(base_result), sql
    _record(op, sql, vec_s, base_s, capsys)
    if assert_speedup and ASSERT_SPEEDUPS:
        speedup = base_s / vec_s
        assert speedup >= MIN_SPEEDUP, (
            f"{op}: vectorized path is only {speedup:.2f}x faster "
            f"(< {MIN_SPEEDUP}x) at {ROWS} rows"
        )
    return vec_result, base_result


class TestKernelSpeedups:
    def test_group_by(self, engines, capsys):
        sql = "SELECT k1, count(*), sum(v), min(v), max(v) FROM t GROUP BY k1"
        vec, base = _compare("group_by", sql, engines, capsys, assert_speedup=True)
        # SUM(double) adds in row order on both paths: exact
        assert sorted(vec.rows()) == sorted(base.rows())

    def test_distinct(self, engines, capsys):
        sql = "SELECT DISTINCT k1, k2 FROM t"
        vec, base = _compare("distinct", sql, engines, capsys, assert_speedup=True)
        assert sorted(vec.rows()) == sorted(base.rows())

    def test_two_key_join(self, engines, capsys):
        sql = "SELECT count(*) FROM t JOIN s ON t.k1 = s.k1 AND t.k2 = s.k2"
        vec, base = _compare("join_2key", sql, engines, capsys, assert_speedup=True)
        assert vec.scalar() == base.scalar()

    def test_except(self, engines, capsys):
        sql = "SELECT k1, k2 FROM t EXCEPT SELECT k1, k2 FROM r"
        vec, base = _compare("except", sql, engines, capsys)
        assert sorted(vec.rows()) == sorted(base.rows())

    def test_sort(self, engines, capsys):
        sql = "SELECT k1, k2, v FROM t ORDER BY k1, v DESC"
        vec, base = _compare("sort", sql, engines, capsys, repeats=2)
        # ordering (tie order included) is bit-identical by contract
        assert vec.rows()[:500] == base.rows()[:500]

    def test_kernels_actually_ran(self, engines):
        vectorized, rowwise = engines
        stats = vectorized.kernel_stats()
        for op in ("group_by", "distinct", "join", "setop", "sort"):
            assert stats["hits"].get(op, 0) >= 1, stats
        assert rowwise.kernel_stats()["hit_total"] == 0
