"""Experiment: compressed columnar storage vs the plain-array paths.

Three measurements over the same generated data, each run on
``Database()`` (resting encodings + zone maps) and on a second one that
is loaded, analyzed, queried and saved under the test tree's
``reference_exec.plain_storage()`` (no resting encodings, no zone maps,
no zone pruning — the plain oracle):

* **zone_skip_scan** — a selective equality/range filter over a sorted
  BIGINT column: the compressed engine consults per-morsel zone maps
  and scans only the surviving morsels;
* **resting_codes_group_by** — GROUP BY on a low-cardinality VARCHAR
  with the factorize memo disabled, so the plain engine pays a fresh
  sort-based encode per statement while the compressed engine reads
  the resting dictionary codes (an ``astype``);
* **image_bytes** — ``save()`` image size, encoded format v4 vs the
  plain layout (every column a plain ``.npy`` array, no zone maps);
* **analyze** — ``ANALYZE`` of a fresh copy of the table on
  ``Database()``: the encoding choice plus the statistics read off its
  dictionaries (best of 3 copies).

Results are asserted identical between the engines on every run;
timings and byte counts land in ``BENCH_storage.json`` (the CI smoke
job re-runs this at a small scale and uploads the file alongside the
other bench artifacts).

Environment knobs:

* ``REPRO_BENCH_STORAGE_ROWS`` — table size (default 1_000_000);
* ``REPRO_BENCH_STORAGE_OUT`` — output path for ``BENCH_storage.json``
  (default: the system temp directory).

The >=2x zone-skip assertion and the image-shrink assertion only apply
at full scale (>= 1M rows): below that fixed costs dominate and the
numbers are smoke signal only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import Database
from repro.storage import Column, DataType

from conftest import bench_out_path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from reference_exec import plain_storage  # noqa: E402

ROWS = int(os.environ.get("REPRO_BENCH_STORAGE_ROWS", str(1_000_000)))
GROUPS = 24
OUT_PATH = bench_out_path("REPRO_BENCH_STORAGE_OUT", "BENCH_storage.json")
#: Floors asserted at full scale.
MIN_SCAN_SPEEDUP = 2.0
ASSERT_SPEEDUPS = ROWS >= 1_000_000

_results: dict[str, dict] = {}


def _flush() -> None:
    OUT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "storage_compression",
                "rows": ROWS,
                "min_scan_speedup_asserted": (
                    MIN_SCAN_SPEEDUP if ASSERT_SPEEDUPS else None
                ),
                "ops": _results,
            },
            indent=2,
        )
        + "\n"
    )


@pytest.fixture(scope="module")
def table_arrays():
    rng = np.random.default_rng(20260807)
    ids = np.arange(ROWS, dtype=np.int64)
    grp_dict = np.array([f"segment_{i:02d}" for i in range(GROUPS)], dtype=object)
    grp = grp_dict[rng.integers(0, GROUPS, size=ROWS)]
    values = rng.random(ROWS)
    return ids, grp, values


def _fresh_table(arrays) -> Database:
    """A new ``Database()`` holding an unanalyzed copy of the table."""
    ids, grp, values = arrays
    db = Database()
    db.execute("CREATE TABLE t (id BIGINT, grp VARCHAR, v DOUBLE)")
    db.table("t").insert_columns(
        [
            Column(DataType.BIGINT, ids.copy()),
            Column(DataType.VARCHAR, grp.copy()),
            Column(DataType.DOUBLE, values.copy()),
        ]
    )
    return db


@pytest.fixture(scope="module")
def engines(table_arrays):
    built = []
    for storage in (nullcontext, plain_storage):
        db = _fresh_table(table_arrays)
        with storage():
            db.execute("ANALYZE")
        built.append(db)
    yield built[0], built[1]
    for db in built:
        db.execute("DROP TABLE t")
    import gc

    gc.collect()


def _time(db: Database, sql: str, repeats: int):
    """Best wall time over ``repeats`` runs after one uncounted warm-up
    (both engines pay it, so plan caching cannot skew the speedups)."""
    db.execute(sql)
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = db.execute(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _record(op: str, entry: dict, capsys, line: str) -> None:
    _results[op] = entry
    _flush()
    with capsys.disabled():
        print(f"\n{op}: {line}")


class TestStorageBenchmarks:
    def test_zone_skip_scan(self, engines, capsys):
        compressed, plain = engines
        queries = [
            f"SELECT id, v FROM t WHERE id = {ROWS - 1}",
            f"SELECT count(*), sum(v) FROM t WHERE id >= {ROWS - ROWS // 64}",
        ]
        comp_s = plain_s = 0.0
        for sql in queries:
            c_s, c_result = _time(compressed, sql, 5)
            with plain_storage():
                p_s, p_result = _time(plain, sql, 5)
            assert repr(c_result.rows()) == repr(p_result.rows()), sql
            comp_s += c_s
            plain_s += p_s
        stats = compressed.storage_stats()
        assert stats["morsels_skipped"] > 0  # the maps actually skipped
        speedup = plain_s / comp_s if comp_s else float("inf")
        _record(
            "zone_skip_scan",
            {
                "sql": queries,
                "compressed_s": round(comp_s, 6),
                "plain_s": round(plain_s, 6),
                "speedup": round(speedup, 2),
                "morsels_skipped": stats["morsels_skipped"],
                "morsels_total": stats["morsels_total"],
            },
            capsys,
            f"plain {plain_s * 1000:9.2f} ms | compressed "
            f"{comp_s * 1000:9.2f} ms | {speedup:6.2f}x "
            f"(skipped {stats['morsels_skipped']}/{stats['morsels_total']})",
        )
        if ASSERT_SPEEDUPS:
            assert speedup >= MIN_SCAN_SPEEDUP

    def test_resting_codes_group_by(self, engines, capsys, monkeypatch):
        import repro.storage.column as column_module

        compressed, plain = engines
        # disable the factorize memo on both engines: every statement
        # must produce its codes from scratch — the compressed engine
        # reads the resting dictionary, the plain engine re-encodes
        monkeypatch.setattr(column_module, "FACTORIZE_MEMO_MAX_ROWS", 0)
        for db in (compressed, plain):
            for col in db.table("t").current().columns:
                col._fact_memo = None  # drop memos built before the patch
        sql = "SELECT grp, count(*), sum(v) FROM t GROUP BY grp"
        comp_s, c_result = _time(compressed, sql, 5)
        with plain_storage():
            plain_s, p_result = _time(plain, sql, 5)
        assert sorted(map(repr, c_result.rows())) == sorted(
            map(repr, p_result.rows())
        )
        speedup = plain_s / comp_s if comp_s else float("inf")
        _record(
            "resting_codes_group_by",
            {
                "sql": sql,
                "compressed_s": round(comp_s, 6),
                "plain_s": round(plain_s, 6),
                "speedup": round(speedup, 2),
            },
            capsys,
            f"plain {plain_s * 1000:9.2f} ms | compressed "
            f"{comp_s * 1000:9.2f} ms | {speedup:6.2f}x",
        )

    def test_image_bytes(self, engines, capsys, tmp_path):
        compressed, plain = engines
        sizes = {}
        for label, db, storage in (
            ("encoded", compressed, nullcontext),
            ("plain", plain, plain_storage),
        ):
            target = tmp_path / label
            with storage():
                db.save(str(target))
            total = sum(
                p.stat().st_size for p in target.rglob("*") if p.is_file()
            )
            sizes[label] = total
        reduction = 1.0 - sizes["encoded"] / sizes["plain"]
        _record(
            "image_bytes",
            {
                "plain_bytes": sizes["plain"],
                "encoded_bytes": sizes["encoded"],
                "reduction_pct": round(reduction * 100, 1),
            },
            capsys,
            f"plain {sizes['plain']:,} B | encoded {sizes['encoded']:,} B "
            f"| {reduction * 100:5.1f}% smaller",
        )
        if ASSERT_SPEEDUPS:
            assert sizes["encoded"] < sizes["plain"]

    def test_analyze(self, engines, table_arrays, capsys):
        compressed, _ = engines
        times = []
        for _ in range(3):
            db = _fresh_table(table_arrays)
            start = time.perf_counter()
            db.execute("ANALYZE")
            times.append(time.perf_counter() - start)
            assert db.table_stats()["t"].columns == (
                compressed.table_stats()["t"].columns
            )
            db.execute("DROP TABLE t")
        best = min(times)
        _record(
            "analyze",
            {"sql": "ANALYZE", "rows": ROWS, "analyze_s": round(best, 6)},
            capsys,
            f"{best * 1000:9.2f} ms",
        )
