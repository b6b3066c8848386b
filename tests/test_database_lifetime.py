"""A closed and dropped Database is freed by reference counting alone.

With the cycle collector off, ``del db`` after ``close()`` must free the
catalog, and with it the tables, columns and cached graph libraries.  A
reference cycle through the database (a bound-method listener, a
self-referring closure that reaches the catalog) would keep all of it
resident until the collector happens to run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import Database

Q13 = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (a, b)"
Q14 = (
    "SELECT CHEAPEST SUM(k: CAST(w * 10 AS bigint)) AS (cost, path) "
    "WHERE ? REACHES ? OVER knows k EDGE (a, b)"
)
Q13_BATCH = (
    "SELECT p.s, p.d, CHEAPEST SUM(1) AS hops FROM pairs p "
    "WHERE p.s REACHES p.d OVER knows EDGE (a, b)"
)


@pytest.fixture
def no_collector():
    gc.collect()  # start from a clean heap
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_freed_on_drop(open_database) -> None:
    """``open_database()`` returns a database with work done on it; no
    other reference to it may survive the call."""
    db = open_database()
    catalog = weakref.ref(db.catalog)
    database = weakref.ref(db)
    db.close()
    del db
    assert database() is None, "a reference cycle holds the Database"
    assert catalog() is None, "a reference cycle holds the catalog"


def loaded_image(path, workers: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE knows (a BIGINT, b BIGINT, w DOUBLE)")
    db.execute("CREATE TABLE pairs (s BIGINT, d BIGINT)")
    db.execute(
        "INSERT INTO knows VALUES (1, 2, 1.5), (2, 3, 2.0), (1, 3, 5.0), "
        "(3, 4, 1.0), (4, 1, 0.5), (2, 4, 4.0)"
    )
    db.execute("INSERT INTO pairs VALUES (1, 3), (1, 4), (2, 4), (3, 1), (4, 2)")
    db.execute("CREATE GRAPH INDEX knows_index ON knows EDGE (a, b)")
    db.analyze()
    db.save(str(path))
    db.close()
    return Database.load(str(path), exec_workers=workers)


class TestDroppedDatabaseIsFreed:
    def test_fresh_database(self, no_collector):
        assert_freed_on_drop(Database)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_loaded_image_after_path_queries_and_delete(
        self, no_collector, tmp_path, workers
    ):
        def open_database():
            db = loaded_image(tmp_path / "image", workers)
            assert db.execute(Q13, (1, 4)).scalar() == 2
            cost, path = db.execute(Q14, (1, 4)).rows()[0]
            assert cost == 45 and len(path.to_rows()) == 3
            assert len(db.execute(Q13_BATCH).rows()) == 5
            db.execute("DELETE FROM knows WHERE a = ? AND b = ?", (2, 4))
            assert db.execute(Q14, (1, 4)).rows()[0][0] == 45
            stats = db.cache_stats()["graph_index_cache"]
            assert stats["bidirectional_pairs"] > 0 and stats["lane_pairs"] > 0
            return db

        assert_freed_on_drop(open_database)

    def test_sessions_closed_and_dropped(self, no_collector):
        def open_database():
            db = Database()
            db.execute("CREATE TABLE t (x INT, y INT)")
            for copies in (1, 2):
                session = db.connect()
                session.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
                assert session.execute(
                    "SELECT x, count(*) FROM t GROUP BY x "
                    "HAVING count(*) > 0 ORDER BY x"
                ).rows() == [(1, copies), (3, copies)]
                session.close()
            return db

        assert_freed_on_drop(open_database)
