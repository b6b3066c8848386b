"""Experiment: morsel-driven parallel kernels vs the serial kernels.

The tentpole operators of the workers follow-up — 1M-row GROUP BY,
DISTINCT and a 2-key equi-join — run on identical data at
``exec_workers`` 1, 2 and 4 (thresholds forced down so the morsel layer
engages at every scale).  Results must be *bit-identical* across worker
counts on every run; wall times and speedups land in
``BENCH_parallel.json``, next to ``BENCH_exec.json`` (the CI smoke job
re-runs this small and uploads both artifacts).

Environment knobs:

* ``REPRO_BENCH_KERNEL_ROWS`` — fact-table size (default 1_000_000,
  shared with the vectorized-kernel benchmark);
* ``REPRO_BENCH_PARALLEL_OUT`` — output path for ``BENCH_parallel.json``
  (default: the system temp directory).

The >=2x speedup floor for 4 workers is asserted only at full scale
(>= 1M rows) *and* with >= 4 CPUs available — a shared 1-core CI runner
cannot scale however good the kernels are; there the run is a
correctness + trend smoke.

Speedup *recording* is gated separately: with fewer CPUs than the
largest worker count, multi-worker "speedups" are pure scheduling noise
(≤ 1.0 by construction), so the JSON carries an explicit
``"insufficient_cpus"`` marker instead of numbers — a 1-CPU CI runner
can never again commit a meaningless trajectory (wall times are still
recorded; they remain valid absolute measurements).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro import Database
from repro.exec.parallel import resolve_exec_workers
from repro.storage import Column, DataType

from conftest import bench_out_path

ROWS = int(os.environ.get("REPRO_BENCH_KERNEL_ROWS", str(1_000_000)))
#: Build-side size of the join experiment (~1 match per probe row).
JOIN_BUILD_ROWS = max(ROWS // 20, 1)
#: Cardinality of the primary grouping key.
GROUPS = 1_000
WORKER_COUNTS = (1, 2, 4)
OUT_PATH = bench_out_path("REPRO_BENCH_PARALLEL_OUT", "BENCH_parallel.json")
#: Speedup floor asserted for 4 workers over 1, full scale + >=4 CPUs.
MIN_SPEEDUP = 2.0
#: Usable CPUs: affinity-aware (a containerized runner may expose fewer
#: schedulable CPUs than ``os.cpu_count()`` reports).
CPUS = min(resolve_exec_workers("auto"), os.cpu_count() or 1)
#: Multi-worker speedups are only *recorded* when the machine can
#: actually run the largest worker count concurrently; otherwise the
#: JSON carries the "insufficient_cpus" marker instead of noise.
SUFFICIENT_CPUS = CPUS >= max(WORKER_COUNTS)
ASSERT_SPEEDUPS = ROWS >= 1_000_000 and CPUS >= 4

_results: dict[str, dict] = {}


@pytest.fixture(scope="module")
def engines():
    yield from _build_engines()


def _build_engines():
    rng = np.random.default_rng(20260731)
    k1 = rng.integers(0, GROUPS, size=ROWS, dtype=np.int64)
    k2 = rng.integers(0, 50, size=ROWS, dtype=np.int64)
    v = rng.random(ROWS)
    build_k1 = rng.integers(0, GROUPS, size=JOIN_BUILD_ROWS, dtype=np.int64)
    build_k2 = rng.integers(0, 50, size=JOIN_BUILD_ROWS, dtype=np.int64)
    built = {}
    for workers in WORKER_COUNTS:
        # thresholds forced low so smoke scales still exercise morsels
        db = Database(
            exec_workers=workers,
            morsel_rows=max(ROWS // 16, 4096),
            parallel_min_rows=0,
        )
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
        db.execute("ANALYZE")
        built[workers] = db
    yield built
    for db in built.values():
        for table in ("t", "s"):
            db.execute(f"DROP TABLE {table}")
    import gc

    gc.collect()


def _time(db: Database, sql: str, repeats: int):
    """Best wall time over ``repeats`` runs after one uncounted warm-up
    (plan-cache warming, factorize memo fill: both worker counts pay
    the same costs, so the recorded ratios are kernel time only)."""
    db.execute(sql)
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = db.execute(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _record(op: str, sql: str, timings: dict[int, float], capsys) -> None:
    serial = timings[1]
    _results[op] = {
        "sql": sql,
        "rows": ROWS,
        "seconds": {str(w): round(s, 6) for w, s in timings.items()},
        # a box that cannot run max(WORKER_COUNTS) threads concurrently
        # produces speedups <= 1.0 by construction: record the explicit
        # marker, never the meaningless numbers
        "speedups": {
            str(w): round(serial / s, 2) if s else None
            for w, s in timings.items()
        }
        if SUFFICIENT_CPUS
        else "insufficient_cpus",
        "rows_per_s": {
            str(w): int(ROWS / s) if s else None for w, s in timings.items()
        },
    }
    OUT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "parallel_kernels",
                "rows": ROWS,
                "cpus": CPUS,
                "worker_counts": list(WORKER_COUNTS),
                "insufficient_cpus": not SUFFICIENT_CPUS,
                "min_speedup_asserted": MIN_SPEEDUP if ASSERT_SPEEDUPS else None,
                "ops": _results,
            },
            indent=2,
        )
        + "\n"
    )
    with capsys.disabled():
        line = " | ".join(
            f"{w}w {timings[w] * 1000:8.2f} ms" for w in WORKER_COUNTS
        )
        tail = (
            f"x{serial / timings[4]:.2f} @4w"
            if SUFFICIENT_CPUS
            else f"insufficient cpus ({CPUS})"
        )
        print(f"\n{op}: {line} | {tail}")


def _compare(op, sql, engines, capsys, *, repeats=3, assert_speedup=False):
    timings, rows = {}, {}
    for workers in WORKER_COUNTS:
        seconds, result = _time(engines[workers], sql, repeats)
        timings[workers] = seconds
        rows[workers] = result.rows()
    # bit-identical across worker counts — float sums and tie order too
    for workers in WORKER_COUNTS[1:]:
        assert list(map(repr, rows[workers])) == list(map(repr, rows[1])), (
            f"{op}: workers={workers} diverged from the serial oracle"
        )
    _record(op, sql, timings, capsys)
    if assert_speedup and ASSERT_SPEEDUPS:
        speedup = timings[1] / timings[4]
        assert speedup >= MIN_SPEEDUP, (
            f"{op}: 4 workers only {speedup:.2f}x over 1 "
            f"(< {MIN_SPEEDUP}x) at {ROWS} rows on {CPUS} CPUs"
        )


class TestParallelKernelSpeedups:
    def test_group_by(self, engines, capsys):
        _compare(
            "group_by",
            "SELECT k1, count(*), sum(v), min(v), max(v) FROM t GROUP BY k1",
            engines,
            capsys,
            assert_speedup=True,
        )

    def test_distinct(self, engines, capsys):
        _compare("distinct", "SELECT DISTINCT k1, k2 FROM t", engines, capsys)

    def test_two_key_join(self, engines, capsys):
        _compare(
            "join_2key",
            "SELECT count(*) FROM t JOIN s ON t.k1 = s.k1 AND t.k2 = s.k2",
            engines,
            capsys,
            assert_speedup=True,
        )

    def test_morsels_actually_ran(self, engines):
        for workers, db in engines.items():
            stats = db.parallel_stats()
            if workers == 1:
                assert stats["parallel_op_total"] == 0, stats
            else:
                assert stats["parallel_op_total"] >= 3, stats
                assert stats["morsel_total"] >= 2, stats
