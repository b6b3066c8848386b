"""Concurrent sessions, MVCC snapshot isolation, and cache invalidation.

The default-run tests prove the ISSUE's acceptance criteria directly:
plan-cache hits on re-execution, DML invalidating both the plan cache
and the graph-index cache, and — since the MVCC refactor — snapshot
isolation semantics: readers pinned to a snapshot see no in-flight
writes, ROLLBACK leaves tables byte-identical to the pre-transaction
state, and write-write conflicts surface as a typed error at COMMIT.
The ``stress``-marked suites hammer a shared database from many threads
(mixed DML / DDL, and churning writers against long snapshot readers)
and then audit the final state against a fresh, single-threaded engine.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database, ReproError
from repro.errors import (
    ExecutionError,
    TransactionConflictError,
    TransactionError,
)


@pytest.fixture
def graph_db() -> Database:
    db = Database()
    db.executescript(
        """
        CREATE TABLE e (s INT, d INT, w INT);
        INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 10);
        """
    )
    return db


class TestSessions:
    def test_connect_returns_session(self, graph_db):
        with graph_db.connect() as session:
            assert session.execute("SELECT count(*) FROM e").scalar() == 4

    def test_sessions_share_one_database(self, graph_db):
        s1, s2 = graph_db.connect(), graph_db.connect()
        s1.execute("INSERT INTO e VALUES (4, 5, 1)")
        assert s2.execute("SELECT count(*) FROM e").scalar() == 5

    def test_closed_session_rejects_statements(self, graph_db):
        session = graph_db.connect()
        session.close()
        with pytest.raises(ExecutionError, match="closed"):
            session.execute("SELECT 1")

    def test_executemany_prepares_once(self, graph_db):
        session = graph_db.connect()
        inserted = session.executemany(
            "INSERT INTO e VALUES (?, ?, ?)",
            [(10, 11, 1), (11, 12, 1), (12, 13, 1)],
        )
        assert inserted == 3
        assert session.execute("SELECT count(*) FROM e").scalar() == 7


class TestPlanCache:
    def test_reexecution_hits_the_cache(self, graph_db):
        sql = "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? OVER e k EDGE (s, d)"
        before = graph_db.plan_cache.stats()["hits"]
        assert graph_db.execute(sql, (1, 4)).scalar() == 4
        assert graph_db.execute(sql, (1, 3)).scalar() == 3
        assert graph_db.execute(sql, (2, 4)).scalar() == 3
        assert graph_db.plan_cache.stats()["hits"] >= before + 2

    def test_prepared_statement_hits_from_first_execute(self, graph_db):
        session = graph_db.connect()
        stmt = session.prepare("SELECT count(*) FROM e WHERE w = ?")
        hits_before = graph_db.plan_cache.stats()["hits"]
        assert stmt.execute((1,)).scalar() == 2
        assert stmt.execute((10,)).scalar() == 1
        assert graph_db.plan_cache.stats()["hits"] == hits_before + 2

    def test_hit_counters_surface_via_explain(self, graph_db):
        sql = "SELECT count(*) FROM e"
        graph_db.execute(sql)
        graph_db.execute(sql)
        text = graph_db.explain(sql)
        assert "plan cache: hits=" in text
        # explain() itself is a hit: the entry was cached by execute()
        hits = int(text.split("plan cache: hits=")[1].split()[0])
        assert hits >= 2

    def test_hit_status_surfaces_via_profiler(self, graph_db):
        sql = "SELECT count(*) FROM e"
        _, first = graph_db.profile(sql)
        assert "plan cache: MISS" in first
        _, second = graph_db.profile(sql)
        assert "plan cache: HIT" in second

    def test_dml_invalidates_plan_cache_entry(self, graph_db):
        sql = "SELECT count(*) FROM e"
        assert graph_db.execute(sql).scalar() == 4
        assert graph_db.plan_cache.contains(sql)
        graph_db.execute("INSERT INTO e VALUES (7, 8, 1)")
        assert not graph_db.plan_cache.contains(sql)
        assert graph_db.plan_cache.stats()["invalidations"] >= 1
        # and the re-prepared plan sees the new row
        assert graph_db.execute(sql).scalar() == 5

    def test_ddl_invalidates_plan_cache_entry(self, graph_db):
        sql = "SELECT count(*) FROM e"
        graph_db.execute(sql)
        assert graph_db.plan_cache.contains(sql)
        graph_db.execute("DROP TABLE e")
        assert not graph_db.plan_cache.contains(sql)
        with pytest.raises(ReproError):
            graph_db.execute(sql)

    def test_drop_and_recreate_does_not_serve_stale_plan(self, graph_db):
        sql = "SELECT * FROM e"
        assert len(graph_db.execute(sql)) == 4
        graph_db.execute("DROP TABLE e")
        graph_db.execute("CREATE TABLE e (s INT, d INT)")  # narrower schema
        graph_db.execute("INSERT INTO e VALUES (1, 2)")
        rows = graph_db.execute(sql).rows()
        assert rows == [(1, 2)]

    def test_lru_capacity_bounds_entries(self):
        # parameterize=False: with literal normalization on, these
        # statements would all share one normalized plan instead of
        # filling the exact-text LRU
        db = Database(plan_cache_capacity=4, parameterize=False)
        db.execute("CREATE TABLE t (a INT)")
        for i in range(10):
            db.execute(f"SELECT a + {i} FROM t")
        stats = db.plan_cache.stats()
        assert stats["entries"] <= 4
        assert stats["evictions"] >= 6

    def test_normalized_statements_share_one_plan(self):
        db = Database(plan_cache_capacity=4)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        for i in range(10):
            assert len(db.execute(f"SELECT a FROM t WHERE a <= {i}")) == min(i, 3)
        stats = db.plan_cache.stats()
        assert stats["normalized_hits"] >= 8
        assert stats["normalized_entries"] >= 1

    def test_unrelated_table_write_keeps_entry(self, graph_db):
        graph_db.execute("CREATE TABLE other (x INT)")
        sql = "SELECT count(*) FROM e"
        graph_db.execute(sql)
        graph_db.execute("INSERT INTO other VALUES (1)")
        assert graph_db.plan_cache.contains(sql)

    def test_cached_insert_survives_its_own_writes(self, graph_db):
        # an INSERT's target is a schema-only dependency: repeat
        # executions must be hits, not self-invalidations
        sql = "INSERT INTO e VALUES (?, ?, ?)"
        session = graph_db.connect()
        inserted = session.executemany(
            sql, [(50 + i, 51 + i, 1) for i in range(20)]
        )
        assert inserted == 20
        stats = graph_db.plan_cache.stats()
        assert stats["hits"] >= 19  # first execution fills, the rest hit
        assert graph_db.plan_cache.contains(sql)
        # but a SELECT over the same table was invalidated by each write
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 24

    def test_drop_table_drops_dependent_graph_indices(self, graph_db, tmp_path):
        graph_db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        graph_db.execute("DROP TABLE e")
        assert graph_db.graph_indices.names() == []
        # a save/load round-trip must not trip over orphaned specs
        graph_db.execute("CREATE TABLE keepme (x INT)")
        target = str(tmp_path / "db")
        graph_db.save(target)
        loaded = Database.load(target)
        assert loaded.catalog.table_names() == ["keepme"]


class TestGraphIndexCacheInvalidation:
    def test_dml_invalidates_graph_index_cache(self):
        # an endpoint-column UPDATE is a write the overlay cannot
        # interpret: it drops the cached CSR and the next query rebuilds
        # from scratch
        db = Database()
        db.executescript(
            """
            CREATE TABLE e (s INT, d INT, w INT);
            INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 10);
            """
        )
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (s, d)"
        ).scalar() == 1
        stats = db.graph_indices.stats()
        assert stats["entries"] == 1 and stats["hits"] >= 1
        db.execute("UPDATE e SET d = 9 WHERE s = 3")
        stats = db.graph_indices.stats()
        assert stats["entries"] == 0 and stats["invalidations"] >= 1
        # the rebuilt index must see the moved edge (no stale-cache read)
        assert db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 9 OVER e EDGE (s, d)"
        ).scalar() == 3
        assert db.graph_indices.stats()["builds"] >= 2
        db.close()

    def test_dml_folds_into_graph_overlay(self, graph_db):
        # overlay on (default): committed DML keeps the cache entry and
        # applies the delta instead of invalidating
        graph_db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        assert graph_db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (s, d)"
        ).scalar() == 1
        graph_db.execute("INSERT INTO e VALUES (4, 9, 1)")
        stats = graph_db.graph_indices.stats()
        assert stats["overlay_applied"] >= 1
        assert stats["entries"] == 1  # not dropped
        # the merged base+overlay library must see the new edge
        assert graph_db.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 9 OVER e EDGE (s, d)"
        ).scalar() == 2
        assert graph_db.graph_indices.stats()["overlay_hits"] >= 1

    def test_direct_table_mutation_also_invalidates(self, graph_db):
        graph_db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        graph_db.execute("SELECT 1 WHERE 1 REACHES 4 OVER e EDGE (s, d)")
        graph_db.table("e").insert_rows([(4, 77, 1)])  # bypass SQL
        assert graph_db.execute(
            "SELECT 1 WHERE 1 REACHES 77 OVER e EDGE (s, d)"
        ).rows() == [(1,)]

    def test_capacity_bound(self):
        db = Database(graph_cache_capacity=2)
        for i in range(4):
            db.execute(f"CREATE TABLE e{i} (s INT, d INT)")
            db.execute(f"INSERT INTO e{i} VALUES (1, 2)")
            db.execute(f"CREATE GRAPH INDEX gi{i} ON e{i} EDGE (s, d)")
        stats = db.graph_indices.stats()
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 2
        # evicted indices still answer correctly (rebuilt on demand)
        assert db.execute(
            "SELECT 1 WHERE 1 REACHES 2 OVER e0 EDGE (s, d)"
        ).rows() == [(1,)]


class TestConcurrentExecution:
    def test_parallel_readers(self, graph_db):
        errors: list[BaseException] = []

        def reader():
            try:
                session = graph_db.connect()
                for _ in range(40):
                    assert session.execute(
                        "SELECT CHEAPEST SUM(k: w) "
                        "WHERE 1 REACHES 4 OVER e k EDGE (s, d)"
                    ).scalar() == 4
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_readers_and_writer_interleave(self, graph_db):
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                session = graph_db.connect()
                while not stop.is_set():
                    count = session.execute("SELECT count(*) FROM e").scalar()
                    assert count >= 4  # writer only appends
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        writer = graph_db.connect()
        for i in range(30):
            writer.execute("INSERT INTO e VALUES (?, ?, 1)", (100 + i, 101 + i))
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 34


class TestTransactions:
    def test_reads_pin_the_begin_snapshot(self, graph_db):
        reader, writer = graph_db.connect(), graph_db.connect()
        reader.execute("BEGIN")
        assert reader.execute("SELECT count(*) FROM e").scalar() == 4
        writer.execute("INSERT INTO e VALUES (9, 10, 1)")
        # the in-flight transaction keeps reading its snapshot ...
        assert reader.execute("SELECT count(*) FROM e").scalar() == 4
        reader.execute("COMMIT")
        # ... and sees the concurrent write only after leaving it
        assert reader.execute("SELECT count(*) FROM e").scalar() == 5

    def test_read_your_own_writes(self, graph_db):
        with graph_db.connect() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO e VALUES (9, 10, 1)")
            session.execute("UPDATE e SET w = 7 WHERE s = 9")
            assert session.execute(
                "SELECT w FROM e WHERE s = 9"
            ).scalar() == 7
            # other sessions keep seeing committed state only
            assert graph_db.execute("SELECT count(*) FROM e").scalar() == 4
            session.execute("ROLLBACK")

    def test_rollback_leaves_tables_byte_identical(self, graph_db):
        before_version = graph_db.table("e").current()
        before_rows = graph_db.table("e").to_rows()
        session = graph_db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO e VALUES (9, 10, 1)")
        session.execute("DELETE FROM e WHERE w > 5")
        session.execute("UPDATE e SET w = w + 1")
        session.execute("ROLLBACK")
        # the live table was never touched: same version object, same rows
        assert graph_db.table("e").current() is before_version
        assert graph_db.table("e").to_rows() == before_rows

    def test_commit_publishes_buffered_writes(self, graph_db):
        graph_db.execute("CREATE TABLE totals (n INT)")
        session = graph_db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO e VALUES (9, 10, 1)")
        session.execute("INSERT INTO totals VALUES (5)")
        session.execute("COMMIT")
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 5
        assert graph_db.execute("SELECT n FROM totals").scalar() == 5
        assert not session.in_transaction

    def test_write_write_conflict_raises_typed_error(self, graph_db):
        first, second = graph_db.connect(), graph_db.connect()
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("UPDATE e SET w = 100 WHERE s = 1")
        second.execute("UPDATE e SET w = 200 WHERE s = 1")
        first.execute("COMMIT")  # first committer wins
        with pytest.raises(TransactionConflictError, match="write-write"):
            second.execute("COMMIT")
        # the loser is rolled back; only the winner's write is visible
        assert not second.in_transaction
        assert graph_db.execute(
            "SELECT max(w) FROM e WHERE s = 1"
        ).scalar() == 100
        # and the conflict error is itself a TransactionError
        assert issubclass(TransactionConflictError, TransactionError)

    def test_disjoint_writes_do_not_conflict(self, graph_db):
        graph_db.execute("CREATE TABLE other (x INT)")
        first, second = graph_db.connect(), graph_db.connect()
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute("INSERT INTO e VALUES (9, 10, 1)")
        second.execute("INSERT INTO other VALUES (1)")
        first.execute("COMMIT")
        second.execute("COMMIT")  # different table: no conflict
        assert graph_db.execute("SELECT count(*) FROM other").scalar() == 1

    def test_transaction_statement_misuse(self, graph_db):
        session = graph_db.connect()
        with pytest.raises(TransactionError, match="no transaction"):
            session.execute("COMMIT")
        with pytest.raises(TransactionError, match="no transaction"):
            session.execute("ROLLBACK")
        session.execute("BEGIN")
        with pytest.raises(TransactionError, match="already in progress"):
            session.execute("BEGIN")
        session.execute("ROLLBACK")

    def test_transaction_requires_session(self, graph_db):
        with pytest.raises(TransactionError, match="session"):
            graph_db.execute("BEGIN")

    def test_ddl_rejected_inside_transaction(self, graph_db):
        session = graph_db.connect()
        session.execute("BEGIN")
        with pytest.raises(TransactionError, match="not allowed inside"):
            session.execute("CREATE TABLE nope (x INT)")
        session.execute("ROLLBACK")

    def test_closing_a_session_rolls_back(self, graph_db):
        session = graph_db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO e VALUES (9, 10, 1)")
        session.close()
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 4

    def test_executescript_switches_scope_midstream(self, graph_db):
        session = graph_db.connect()
        session.executescript(
            "BEGIN; INSERT INTO e VALUES (9, 10, 1); ROLLBACK;"
            "BEGIN; INSERT INTO e VALUES (11, 12, 1); COMMIT"
        )
        rows = graph_db.execute("SELECT s FROM e WHERE s >= 9").rows()
        assert rows == [(11,)]

    def test_analyze_inside_transaction_ignores_uncommitted_writes(
        self, graph_db
    ):
        # statistics are shared global state: ANALYZE in a transaction
        # must describe committed data only, or a ROLLBACK would leave
        # phantom statistics behind for every other session
        session = graph_db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO e VALUES (9, 10, 1)")
        session.execute("ANALYZE e")
        session.execute("ROLLBACK")
        assert graph_db.table_stats()["e"].row_count == 4

    def test_transaction_writes_do_not_evict_shared_plans(self, graph_db):
        sql = "SELECT count(*) FROM e"
        graph_db.execute(sql)
        assert graph_db.plan_cache.contains(sql)
        with graph_db.connect() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO e VALUES (9, 10, 1)")
            # reads its own buffered write, but must not overwrite the
            # shared cache slot with a transaction-private plan
            assert session.execute(sql).scalar() == 5
            session.execute("ROLLBACK")
        assert graph_db.plan_cache.contains(sql)
        hits_before = graph_db.plan_cache.stats()["hits"]
        assert graph_db.execute(sql).scalar() == 4
        assert graph_db.plan_cache.stats()["hits"] == hits_before + 1

    def test_cached_plans_inside_transaction_stay_snapshot_consistent(
        self, graph_db
    ):
        sql = "SELECT count(*) FROM e"
        writer = graph_db.connect()
        with graph_db.connect() as reader:
            reader.execute("BEGIN")
            for _ in range(3):  # repeat: exercises the plan-cache path
                assert reader.execute(sql).scalar() == 4
                writer.execute("INSERT INTO e VALUES (9, 10, 1)")
            reader.execute("ROLLBACK")
        assert graph_db.execute(sql).scalar() == 7


class TestSnapshotIsolation:
    """Lock-free readers: long reads never block writers."""

    def test_long_reader_does_not_block_writer(self, graph_db):
        # a transaction's pinned snapshot is the moral equivalent of an
        # arbitrarily long SELECT: it stays open across the writer's
        # whole run, and the writer must finish without waiting on it
        reader = graph_db.connect()
        reader.execute("BEGIN")
        assert reader.execute("SELECT count(*) FROM e").scalar() == 4

        finished = threading.Event()

        def writer():
            session = graph_db.connect()
            for i in range(25):
                session.execute("INSERT INTO e VALUES (?, ?, 1)", (50 + i, 51 + i))
            finished.set()

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=30)
        assert finished.is_set(), "writer blocked behind an open snapshot"
        # the reader's view is still its start-of-transaction snapshot
        assert reader.execute("SELECT count(*) FROM e").scalar() == 4
        reader.execute("ROLLBACK")
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 29

    def test_analyze_does_not_block_writer(self, graph_db):
        # ANALYZE reads its own snapshot: a concurrent writer finishes
        # even while statistics collection is in flight
        stop = threading.Event()
        errors: list[BaseException] = []

        def analyzer():
            session = graph_db.connect()
            try:
                while not stop.is_set():
                    session.execute("ANALYZE e")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=analyzer)
        thread.start()
        writer = graph_db.connect()
        for i in range(50):
            writer.execute("INSERT INTO e VALUES (?, ?, 1)", (70 + i, 71 + i))
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive() and not errors
        assert graph_db.execute("SELECT count(*) FROM e").scalar() == 54

    def test_statement_sees_multi_table_commit_fully_or_not_at_all(
        self, graph_db
    ):
        # one statement's snapshot pins all referenced tables under the
        # same mutex COMMIT uses to install its write set
        graph_db.execute("CREATE TABLE a (x INT)")
        graph_db.execute("CREATE TABLE b (x INT)")
        graph_db.execute("INSERT INTO a VALUES (1)")
        graph_db.execute("INSERT INTO b VALUES (1)")
        errors: list[BaseException] = []
        stop = threading.Event()

        def transfer():  # keeps a.count == b.count at every commit
            session = graph_db.connect()
            try:
                for i in range(40):
                    session.execute("BEGIN")
                    session.execute("INSERT INTO a VALUES (?)", (i,))
                    session.execute("INSERT INTO b VALUES (?)", (i,))
                    session.execute("COMMIT")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        def auditor():
            session = graph_db.connect()
            try:
                while not stop.is_set():
                    counts = session.execute(
                        "SELECT (SELECT count(*) FROM a) - (SELECT count(*) FROM b)"
                    ).scalar()
                    assert counts == 0, "observed a half-installed commit"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=transfer),
            threading.Thread(target=auditor),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors[:1]


@pytest.mark.stress
class TestSnapshotStress:
    """Churning writers against long snapshot readers.

    Run with ``python -m pytest -m stress tests/test_concurrency.py``.
    """

    WRITERS = 4
    READERS = 4
    WRITES_PER_THREAD = 80

    def test_long_readers_see_repeatable_state_under_churn(self):
        db = Database()
        db.executescript(
            """
            CREATE TABLE ledger (slot INT, amount INT);
            INSERT INTO ledger VALUES (0, 100), (1, 100), (2, 100), (3, 100);
            """
        )
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer(writer_id: int):
            rng = random.Random(writer_id)
            session = db.connect()
            try:
                for i in range(self.WRITES_PER_THREAD):
                    # one UPDATE statement preserves sum(amount): moves
                    # value between slots in a single atomic publish
                    delta = rng.randint(1, 9)
                    session.execute(
                        "UPDATE ledger SET amount = amount + "
                        "CASE WHEN slot = 0 THEN ? "
                        "WHEN slot = 1 THEN -(?) ELSE 0 END",
                        (delta, delta),
                    )
                    if rng.random() < 0.3:
                        session.execute(
                            "INSERT INTO ledger VALUES (?, 0)",
                            (4 + writer_id * 1000 + i,),
                        )
            except TransactionConflictError:
                pass  # autocommit writers never conflict; belt and braces
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            session = db.connect()
            try:
                while not stop.is_set():
                    session.execute("BEGIN")
                    first = session.execute(
                        "SELECT sum(amount), count(*) FROM ledger"
                    ).rows()
                    # every statement of the transaction re-reads the
                    # same pinned snapshot: repeatable reads
                    for _ in range(3):
                        again = session.execute(
                            "SELECT sum(amount), count(*) FROM ledger"
                        ).rows()
                        assert again == first, "non-repeatable read"
                    assert first[0][0] == 400, "saw a torn write"
                    session.execute("ROLLBACK")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        reader_threads = [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ]
        writer_threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(self.WRITERS)
        ]
        for t in reader_threads + writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        stop.set()
        for t in reader_threads:
            t.join()
        assert not errors, errors[:3]
        assert db.execute("SELECT sum(amount) FROM ledger").scalar() == 400

    def test_conflicting_transactions_serialize_cleanly(self):
        db = Database()
        db.execute("CREATE TABLE counter (n INT)")
        db.execute("INSERT INTO counter VALUES (0)")
        committed = []
        lock = threading.Lock()

        def incrementer(thread_id: int):
            session = db.connect()
            for _ in range(40):
                session.execute("BEGIN")
                value = session.execute("SELECT max(n) FROM counter").scalar()
                session.execute("UPDATE counter SET n = ?", (value + 1,))
                try:
                    session.execute("COMMIT")
                except TransactionConflictError:
                    continue  # lost the race; state unchanged
                with lock:
                    committed.append(thread_id)

        threads = [
            threading.Thread(target=incrementer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every successful commit incremented from the value it read:
        # first-committer-wins means the final count equals the number
        # of commits that went through (no lost updates)
        assert db.execute("SELECT max(n) FROM counter").scalar() == len(committed)
        assert committed  # at least some transactions won


@pytest.mark.stress
class TestStress:
    """N threads mixing SELECT / INSERT / DELETE / CREATE GRAPH INDEX.

    Run with ``python -m pytest -m stress tests/test_concurrency.py``.
    """

    THREADS = 8
    OPS_PER_THREAD = 120

    def test_mixed_workload_no_crashes_or_stale_reads(self):
        db = Database()
        db.executescript(
            """
            CREATE TABLE e (s INT, d INT, w INT);
            INSERT INTO e VALUES (0, 1, 1), (1, 2, 1), (2, 3, 1);
            """
        )
        errors: list[BaseException] = []

        def worker(worker_id: int):
            rng = random.Random(worker_id)
            session = db.connect()
            try:
                for op in range(self.OPS_PER_THREAD):
                    roll = rng.random()
                    if roll < 0.5:
                        rows = session.execute(
                            "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? "
                            "OVER e k EDGE (s, d)",
                            (rng.randint(0, 6), rng.randint(0, 6)),
                        ).rows()
                        if rows:
                            assert rows[0][0] >= 0
                    elif roll < 0.75:
                        a = rng.randint(0, 5)
                        session.execute(
                            "INSERT INTO e VALUES (?, ?, ?)",
                            (a, a + 1, rng.randint(1, 5)),
                        )
                    elif roll < 0.9:
                        session.execute(
                            "DELETE FROM e WHERE s = ? AND w > 3",
                            (rng.randint(0, 5),),
                        )
                    else:
                        name = f"gi_{worker_id}_{op}"
                        session.execute(
                            f"CREATE GRAPH INDEX {name} ON e EDGE (s, d)"
                        )
                        session.execute(f"DROP GRAPH INDEX {name}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:3]

        # audit: results after the storm equal a fresh engine's results on
        # the same physical data — caches hold nothing stale
        fresh = Database()
        fresh.execute("CREATE TABLE e (s INT, d INT, w INT)")
        fresh.table("e").insert_rows(db.table("e").to_rows())
        for source in range(7):
            for dest in range(7):
                lhs = db.execute(
                    "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? "
                    "OVER e k EDGE (s, d)",
                    (source, dest),
                ).rows()
                rhs = fresh.execute(
                    "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? "
                    "OVER e k EDGE (s, d)",
                    (source, dest),
                ).rows()
                assert lhs == rhs

    def test_concurrent_appends_never_lose_rows(self):
        db = Database()
        db.execute("CREATE TABLE log (thread INT, seq INT)")
        per_thread = 150

        def appender(thread_id: int):
            session = db.connect()
            for seq in range(per_thread):
                session.execute("INSERT INTO log VALUES (?, ?)", (thread_id, seq))

        threads = [
            threading.Thread(target=appender, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert db.execute("SELECT count(*) FROM log").scalar() == 6 * per_thread
        # every (thread, seq) pair present exactly once: no torn appends
        assert (
            db.execute("SELECT count(*) FROM (SELECT DISTINCT thread, seq FROM log) t")
            .scalar()
            == 6 * per_thread
        )


@pytest.mark.stress
class TestSharedExecPoolStress:
    """Morsel-driven kernels under concurrent sessions: many threads
    drive group-by/join/distinct queries through one shared worker pool
    (tiny morsels so every statement really fans out) while writers
    churn, and every result must equal the serial-oracle answer.

    Run with ``python -m pytest -m stress tests/test_concurrency.py``.
    """

    def test_readers_on_shared_pool_match_serial_oracle(self):
        import numpy as np

        from repro.storage import Column, DataType

        db = Database(exec_workers=4, morsel_rows=256, parallel_min_rows=0)
        oracle = Database(exec_workers=1)
        rng = np.random.default_rng(42)
        k = rng.integers(0, 31, size=20_000, dtype=np.int64)
        v = rng.random(20_000)
        for engine in (db, oracle):
            engine.execute("CREATE TABLE f (k BIGINT, v DOUBLE)")
            engine.table("f").insert_columns(
                [Column(DataType.BIGINT, k.copy()), Column(DataType.DOUBLE, v.copy())]
            )
        queries = [
            "SELECT k, count(*), sum(v), min(v), max(v) FROM f GROUP BY k ORDER BY k",
            "SELECT DISTINCT k FROM f ORDER BY k",
            "SELECT count(*) FROM f x JOIN f y ON x.k = y.k WHERE x.v < 0.0005",
            "SELECT k FROM f EXCEPT SELECT k FROM f WHERE k < 5 ORDER BY 1",
        ]
        expected = {sql: oracle.execute(sql).rows() for sql in queries}
        errors: list = []

        def reader(seed: int):
            rng_local = random.Random(seed)
            try:
                with db.connect() as session:
                    for _ in range(12):
                        sql = rng_local.choice(queries)
                        assert session.execute(sql).rows() == expected[sql]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_churning_writers_against_parallel_readers(self):
        db = Database(exec_workers=4, morsel_rows=128, parallel_min_rows=0)
        db.execute("CREATE TABLE log (worker INT, seq INT)")
        stop = threading.Event()
        errors: list = []

        def writer(worker_id: int):
            try:
                with db.connect() as session:
                    for seq in range(200):
                        session.execute(
                            "INSERT INTO log VALUES (?, ?)", (worker_id, seq)
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                with db.connect() as session:
                    while not stop.is_set():
                        rows = session.execute(
                            "SELECT worker, count(*) FROM log GROUP BY worker"
                        ).rows()
                        # snapshot reads: per-worker counts are plausible
                        # prefixes, never torn
                        assert all(0 < count <= 200 for _, count in rows)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in writers + readers:
            t.start()
        for t in writers + readers:
            t.join()
        assert errors == []
        assert db.execute("SELECT count(*) FROM log").scalar() == 3 * 200
