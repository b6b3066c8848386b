"""Forced-budget equivalence oracle for memory-bounded execution.

``Database(memory_budget=N)`` may change *how* queries execute —
streamed scans and aggregates, GROUP BY folded one row range at a
time, spill-partitioned joins, external sorts — but never *what* they
answer.  Every test here runs the same
statement against a budgeted engine and the unbudgeted materialized
oracle (``memory_budget=None``) over identical data and requires
bit-identical results, including NULL and NaN grouping/join keys,
ANALYZE-encoded columns, and ``exec_workers > 1``.  Errors are
compared by type only, and only for statements marked
``expect_error``: the spilled join evaluates its degenerate-join guard
cumulatively, so the guard trips on the same inputs but may word its
message differently.
"""

import io
import json
import os
import random
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro import Database, ReproError
from repro.cli import Shell
from repro.storage.encoding import factorize_counters
from repro.storage.spill import SpillManager
from reference_exec import PlainDatabase
from test_fuzz import random_query

SCHEMA = """
    CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
    CREATE TABLE t2 (a INT, d INT);
    CREATE TABLE e (s INT, d INT, w INT);
    INSERT INTO t1 VALUES
        (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL);
    INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50);
    INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
"""


def assert_equivalent(budgeted, oracle, sql, params=(), *, expect_error=False):
    """Budgeted and unbudgeted engines agree on ``sql``.  Two errors of
    one type count as agreement only with ``expect_error=True``:
    otherwise a statement failing on both sides would pass while
    exercising nothing."""
    try:
        expected = oracle.execute(sql, params).rows()
        expected_error = None
    except ReproError as exc:
        expected, expected_error = None, exc
    try:
        actual = budgeted.execute(sql, params).rows()
        actual_error = None
    except ReproError as exc:
        actual, actual_error = None, exc
    if expected_error is not None or actual_error is not None:
        assert type(expected_error) is type(actual_error), (
            f"error mismatch for {sql!r}: "
            f"oracle={expected_error!r} budgeted={actual_error!r}"
        )
        assert expect_error, f"both engines failed for {sql!r}: {actual_error!r}"
        return
    assert not expect_error, f"no error from {sql!r}"
    # repr-compare: row order must match exactly, and NaN keys (which
    # never compare equal as floats) must land in the same groups
    assert list(map(repr, actual)) == list(map(repr, expected)), sql


class TestBudgetFuzzEquivalence:
    """test_fuzz's query grammar under a budget too small to hold anything."""

    @pytest.fixture(scope="class", params=[1, 1 << 20])
    def engines(self, request):
        budgeted = Database(memory_budget=request.param)
        oracle = Database(memory_budget=None)
        budgeted.executescript(SCHEMA)
        oracle.executescript(SCHEMA)
        budgeted.execute("ANALYZE")
        oracle.execute("ANALYZE")
        yield budgeted, oracle
        budgeted.close()
        oracle.close()

    def test_relational_fuzz_corpus(self, engines):
        budgeted, oracle = engines
        rng = random.Random(20260808)
        for _ in range(200):
            assert_equivalent(budgeted, oracle, random_query(rng))

    def test_default_is_unbudgeted(self):
        db = Database()
        assert db.memory_budget is None
        assert db.memory_stats()["spills"] == 0
        db.close()

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "65536")
        db = Database()
        assert db.memory_budget == 65536
        db.close()
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "0")
        db = Database()
        assert db.memory_budget is None
        db.close()


def _seed_bulk(db, tmp):
    """400k-row fact + 1k-row dim with NULL and NaN keys, then ANALYZE.

    ``k`` spans a narrow clustered domain so ANALYZE adopts resting
    encodings — the budgeted paths must decode morsels transparently.
    """
    db.execute("CREATE TABLE fact (k BIGINT, f DOUBLE, v BIGINT)")
    db.execute("CREATE TABLE dim (id BIGINT, w BIGINT)")
    db.execute(f"COPY fact FROM '{os.path.join(tmp, 'fact.npz')}'")
    db.execute(f"COPY dim FROM '{os.path.join(tmp, 'dim.npz')}'")
    # NULL and NaN keys ride on top of the bulk load
    db.insert_rows(
        "fact",
        [(None, float("nan"), 1), (None, None, 2), (7, float("nan"), 3)] * 5,
    )
    db.execute("ANALYZE")


QUERIES = [
    "SELECT k, COUNT(*) AS c, SUM(v) AS s, AVG(v) AS m FROM fact "
    "GROUP BY k ORDER BY k",
    "SELECT f, COUNT(*) AS c FROM fact GROUP BY f ORDER BY c, f",
    "SELECT COUNT(*) AS c, SUM(v) AS s, MIN(k) AS lo, MAX(k) AS hi FROM fact",
    "SELECT dim.w, COUNT(*) AS c, SUM(fact.v) AS s FROM fact "
    "JOIN dim ON fact.k = dim.id GROUP BY dim.w ORDER BY dim.w",
    "SELECT fact.k, fact.v FROM fact JOIN dim ON fact.k = dim.id "
    "WHERE fact.v < 3 ORDER BY fact.k, fact.v",
    "SELECT k, v FROM fact WHERE v >= 995 ORDER BY v DESC, k LIMIT 100",
    "SELECT k FROM fact WHERE k IN (SELECT id FROM dim) "
    "AND v = 0 ORDER BY k LIMIT 20",
]

#: spilled-join key shapes: each codifies its build side (dim) whole and
#: its probe side (fact) one chunk at a time
SPILLED_JOINS = [
    # two-column key
    "SELECT dim.w, COUNT(*) AS c, SUM(fact.v) AS s FROM fact JOIN dim "
    "ON fact.v = dim.id - 9500 AND fact.k % 50 = dim.w "
    "GROUP BY dim.w ORDER BY dim.w",
    # DOUBLE key with NaN probe rows, against a BIGINT build key (the
    # pair is aligned to DOUBLE) and against a DOUBLE expression
    "SELECT fact.f, COUNT(*) AS c FROM fact JOIN dim ON fact.f = dim.w "
    "GROUP BY fact.f ORDER BY fact.f",
    "SELECT fact.f, COUNT(*) AS c FROM fact JOIN dim "
    "ON fact.f = dim.w * 0.5 GROUP BY fact.f ORDER BY fact.f",
    # VARCHAR key
    "SELECT dim.w, COUNT(*) AS c FROM fact JOIN dim "
    "ON CAST(fact.k AS VARCHAR) = CAST(dim.id AS VARCHAR) "
    "GROUP BY dim.w ORDER BY dim.w",
    # LEFT JOIN: unmatched probe rows (NULL keys included) survive
    "SELECT dim.w, COUNT(*) AS c, SUM(fact.v) AS s FROM fact LEFT JOIN dim "
    "ON fact.k = dim.id GROUP BY dim.w ORDER BY dim.w",
    # build side is the left input; no ORDER BY, so the output order
    # itself is compared
    "SELECT dim.id, fact.v FROM dim JOIN fact ON dim.id = fact.k",
    # probe keys mostly absent from the build side (50 of 20k present)
    "SELECT dim.w, COUNT(*) AS c FROM fact JOIN dim ON fact.k = dim.w * 400 "
    "GROUP BY dim.w ORDER BY dim.w",
]
QUERIES += SPILLED_JOINS


class TestSpillEquivalence:
    """Large inputs actually spill, and answers never move."""

    @pytest.fixture(scope="class")
    def datadir(self):
        rng = np.random.default_rng(20260808)
        n, d = 400_000, 1_000
        with tempfile.TemporaryDirectory() as tmp:
            np.savez(
                os.path.join(tmp, "fact.npz"),
                k=rng.integers(0, 20_000, n),
                f=np.round(rng.normal(0.0, 2.0, n), 3),
                v=rng.integers(0, 1_000, n),
            )
            np.savez(
                os.path.join(tmp, "dim.npz"),
                id=np.arange(9_500, 9_500 + d),
                w=rng.integers(0, 50, d),
            )
            yield tmp

    @pytest.fixture(scope="class")
    def oracle(self, datadir):
        db = Database(memory_budget=None)
        _seed_bulk(db, datadir)
        yield db
        db.close()

    @pytest.fixture(scope="class", params=[1 << 20, 8 << 20])
    def budgeted(self, request, datadir):
        db = Database(memory_budget=request.param)
        _seed_bulk(db, datadir)
        yield db
        db.close()

    def test_bit_identical_under_budget(self, budgeted, oracle):
        for sql in QUERIES:
            files = budgeted.memory_stats()["files"]
            assert_equivalent(budgeted, oracle, sql)
            if sql in SPILLED_JOINS and budgeted.memory_budget <= 1 << 20:
                # partitions were written: the spilled join ran to the
                # end instead of falling back to the in-memory join
                assert budgeted.memory_stats()["files"] > files, sql
        stats = budgeted.memory_stats()
        if budgeted.memory_budget <= 1 << 20:
            # the estimator prices *encoded* bytes — the 8 MiB budget
            # legitimately holds these inputs without spilling
            assert stats["spills"] > 0 and stats["partitions"] > 0
        assert stats["streams"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]
        # every partition file is consumed and removed after its query
        directory = budgeted.spill_manager._dir
        assert directory is None or os.listdir(directory) == []

    def test_external_sort_runs(self, budgeted, oracle):
        sql = "SELECT k, v FROM fact ORDER BY v, k LIMIT 500"
        before = budgeted.memory_stats()["sort_runs"]
        assert_equivalent(budgeted, oracle, sql)
        if budgeted.memory_budget <= 1 << 20:
            assert budgeted.memory_stats()["sort_runs"] > before
        # top-k pages over tied keys: every run and merge keeps only
        # LIMIT+OFFSET pairs, and ties must still break by row order
        for page in ("LIMIT 300 OFFSET 200", "LIMIT 1 OFFSET 0", "LIMIT 0"):
            assert_equivalent(
                budgeted, oracle, f"SELECT k, v FROM fact ORDER BY v {page}"
            )

    def test_nan_order_falls_back_identically(self, budgeted, oracle):
        # NaN keys sort after every number in the external sort too
        assert_equivalent(
            budgeted, oracle,
            "SELECT k, f, v FROM fact ORDER BY f, k, v LIMIT 200",
        )

    def test_workers_compose_with_budget(self, datadir, oracle):
        db = Database(memory_budget=1 << 20, exec_workers=2)
        _seed_bulk(db, datadir)
        try:
            for sql in QUERIES:
                assert_equivalent(db, oracle, sql)
            assert db.memory_stats()["spills"] > 0
        finally:
            db.close()

    def test_uncompressed_compose_with_budget(self, datadir, oracle):
        db = PlainDatabase(Database(memory_budget=1 << 20))
        _seed_bulk(db, datadir)
        try:
            for sql in QUERIES[:5]:
                assert_equivalent(db, oracle, sql)
        finally:
            db.close()

    def test_join_probe_zone_pruning(self, budgeted, oracle):
        before = (
            budgeted.storage_stats()["dynamic_zone_filters"].get("join_probe", 0)
        )
        sql = (
            "SELECT COUNT(*) AS c, SUM(fact.v) AS s FROM fact "
            "JOIN dim ON fact.k = dim.id"
        )
        assert_equivalent(budgeted, oracle, sql)
        after = budgeted.storage_stats()["dynamic_zone_filters"]["join_probe"]
        assert after > before
        plan = "\n".join(r[0] for r in budgeted.execute("EXPLAIN " + sql).rows())
        assert "zone-probe=k" in plan
        assert "dynamic zone filters" in plan

    def test_in_subquery_zone_pruning(self, budgeted, oracle):
        before = (
            budgeted.storage_stats()["dynamic_zone_filters"].get("in_subquery", 0)
        )
        sql = (
            "SELECT COUNT(*) AS c FROM fact "
            "WHERE k IN (SELECT id FROM dim) AND v < 10"
        )
        assert_equivalent(budgeted, oracle, sql)
        after = budgeted.storage_stats()["dynamic_zone_filters"]["in_subquery"]
        assert after > before

    def test_spilled_join_over_shared_dictionary(self, tmp_path):
        """Key columns resting in one shared dictionary join on their
        stored codes, looked up one probe chunk at a time."""
        rng = np.random.default_rng(5)
        names = np.array([f"name-{i:04d}" for i in range(300)], dtype=object)
        oracle = Database()
        oracle.execute("CREATE TABLE a (s VARCHAR, v BIGINT)")
        oracle.execute("CREATE TABLE b (s VARCHAR, w BIGINT)")
        appender = oracle.appender("a")
        appender.append(
            {
                "s": names[rng.integers(0, 300, 100_000)],
                "v": rng.integers(0, 100, 100_000),
            }
        )
        appender.close()
        appender = oracle.appender("b")
        appender.append(
            {"s": rng.permutation(np.repeat(names, 4)), "w": np.arange(1200)}
        )
        appender.close()
        oracle.insert_rows("a", [(None, 1)] * 3)  # NULL keys match nothing
        oracle.execute("ANALYZE")
        target = str(tmp_path / "db")
        oracle.save(target)
        budgeted = Database.open(target, memory_budget=1)
        try:
            for table in ("a", "b"):
                info = budgeted.table(table).current().resting_info()
                assert info["s"][0] == "dict"
            sql = "SELECT a.s, b.w, a.v FROM a JOIN b ON a.s = b.s"
            expected = oracle.execute(sql).rows()
            shared = factorize_counters.snapshot()["shared_dict_joins"]
            files = budgeted.memory_stats()["files"]
            assert budgeted.execute(sql).rows() == expected
            assert factorize_counters.snapshot()["shared_dict_joins"] > shared
            assert budgeted.memory_stats()["files"] > files
        finally:
            budgeted.close()
            oracle.close()


class TestSpillHousekeeping:
    def test_spill_files_swept_on_close(self):
        db = Database(memory_budget=1)
        directory = db.spill_manager._ensure_dir()
        with open(os.path.join(directory, "run-000000-x.spill"), "wb") as fh:
            fh.write(b"junk")
        db.close()
        assert not os.path.isdir(directory)

    def test_stale_spill_swept_on_open(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.insert_rows("t", [(1,), (2,)])
        db.save(target)
        db.close()
        stale = os.path.join(target, SpillManager.DIR_NAME)
        os.makedirs(stale)
        with open(os.path.join(stale, "leftover.spill"), "wb") as fh:
            fh.write(b"junk")
        reopened = Database.open(target)
        try:
            assert reopened.recovery_info["swept_spill_files"] == 1
            assert not os.path.exists(os.path.join(stale, "leftover.spill"))
            assert reopened.execute("SELECT COUNT(*) AS c FROM t").rows() == [(2,)]
        finally:
            reopened.close()

    def test_shell_memory_command(self):
        out = io.StringIO()
        shell = Shell(db=Database(memory_budget=4096), out=out)
        shell.feed_line("\\memory")
        text = out.getvalue()
        assert "4096" in text
        assert "spills" in text and "streaming" in text

    def test_profile_reports_memory(self):
        db = Database(memory_budget=1)
        db.execute("CREATE TABLE t (x BIGINT)")
        db.insert_rows("t", [(i % 5,) for i in range(200)])
        _, report = db.profile("SELECT x, COUNT(*) AS c FROM t GROUP BY x")
        assert "memory: budget=1" in report
        db.close()


_RLIMIT_CHILD = r"""
import json, os, resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
cap = int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
from repro import Database
db = Database.open(sys.argv[2], memory_budget=4 << 20)
rows = db.execute(
    "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM fact GROUP BY k ORDER BY k"
).rows()
stats = db.memory_stats()
print(json.dumps({
    "rows": len(rows),
    "checksum": int(sum(r[2] for r in rows)),
    "spills": stats["spills"],
}))
"""


class TestRlimitCapped:
    def test_budgeted_group_by_under_rlimit(self, tmp_path):
        """A budgeted aggregation finishes inside an address-space cap.

        RLIMIT_DATA bounds heap/anonymous memory only — the persisted
        image itself arrives via mmap — so the cap constrains exactly
        what the budget is supposed to bound: decoded morsels, hash
        tables, and spill buffers.
        """
        rng = np.random.default_rng(7)
        n = 300_000
        db = Database()
        db.execute("CREATE TABLE fact (k BIGINT, v BIGINT)")
        npz = str(tmp_path / "fact.npz")
        np.savez(npz, k=rng.integers(0, 4_000, n), v=rng.integers(0, 100, n))
        db.execute(f"COPY fact FROM '{npz}'")
        db.execute("ANALYZE")
        expected = db.execute(
            "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM fact GROUP BY k ORDER BY k"
        ).rows()
        target = str(tmp_path / "db")
        db.save(target)
        db.close()

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _RLIMIT_CHILD, src, target, str(512 << 20)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["rows"] == len(expected)
        assert payload["checksum"] == sum(r[2] for r in expected)
