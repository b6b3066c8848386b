"""Graph index tests — the paper's Section 6 future work, implemented:
prepared CSRs cached per edge-table version and maintained across DML."""

import pytest

from repro import Database
from repro.errors import CatalogError


@pytest.fixture
def db(chain_db):
    return chain_db


class TestLifecycle:
    def test_create_and_list(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert db.graph_indices.names() == ["gi"]

    def test_duplicate_name_rejected(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        with pytest.raises(CatalogError, match="already exists"):
            db.execute("CREATE GRAPH INDEX gi ON edges EDGE (d, s)")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE GRAPH INDEX gi ON nope EDGE (s, d)")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError, match="no column"):
            db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, nope)")

    def test_drop(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("DROP GRAPH INDEX gi")
        assert db.graph_indices.names() == []

    def test_drop_unknown_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP GRAPH INDEX nope")


class TestLookupSemantics:
    def test_lookup_hits_for_matching_spec(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert db.lookup_graph_index("edges", "s", "d") is not None

    def test_lookup_misses_for_other_orientation(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert db.lookup_graph_index("edges", "d", "s") is None

    def test_lookup_misses_without_index(self, db):
        assert db.lookup_graph_index("edges", "s", "d") is None

    def test_cache_object_reused_until_update(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        first = db.lookup_graph_index("edges", "s", "d")
        second = db.lookup_graph_index("edges", "s", "d")
        assert first is second

    def test_cache_invalidated_by_insert(self, db):
        # "they also need to be amenable to the updates on the underlying
        # tables" (Section 6)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        before = db.lookup_graph_index("edges", "s", "d")
        db.execute("INSERT INTO edges VALUES (5, 6, 1)")
        after = db.lookup_graph_index("edges", "s", "d")
        assert before is not after
        assert after.csr.num_edges == before.csr.num_edges + 1


class TestQueriesThroughIndex:
    def _q13(self, db, a, b):
        return db.execute(
            "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER edges EDGE (s, d)",
            (a, b),
        ).scalar()

    def test_same_answers_with_and_without_index(self, db):
        plain = self._q13(db, 1, 5)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert self._q13(db, 1, 5) == plain

    def test_weighted_query_reuses_indexed_structure(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        cost = db.execute(
            "SELECT CHEAPEST SUM(e: w) WHERE 1 REACHES 5 OVER edges e EDGE (s, d)"
        ).scalar()
        assert cost == 4

    def test_query_sees_updates_after_invalidation(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert self._q13(db, 5, 1) is None
        db.execute("INSERT INTO edges VALUES (5, 1, 1)")
        assert self._q13(db, 5, 1) == 1

    def test_filtered_edge_expression_bypasses_index(self, db):
        # the index covers the bare table; a filtered edge expression must
        # not use it (different graph)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        cost = db.execute(
            "SELECT CHEAPEST SUM(f: 1) WHERE 1 REACHES 5 "
            "OVER (SELECT * FROM edges WHERE w < 10) f EDGE (s, d)"
        ).scalar()
        assert cost == 4  # the shortcut (w=10) is excluded

    def test_paths_correct_through_index(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        rows = db.execute(
            "SELECT CHEAPEST SUM(e: w) AS (c, p) "
            "WHERE 1 REACHES 5 OVER edges e EDGE (s, d)"
        ).rows()
        cost, path = rows[0]
        assert cost == 4 and [r[:2] for r in path.to_rows()] == [
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
        ]


Q13 = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER edges EDGE (s, d)"


def traversals(db):
    stats = db.cache_stats()["graph_index_cache"]
    return {
        key: stats[key]
        for key in ("bidirectional_pairs", "forward_traversals", "transpose_builds")
    }


class TestTraversalChoice:
    """Which search serves a statement follows from where its library
    came from and how many targets each source group has."""

    def test_indexed_point_q13_is_bidirectional(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert db.execute(Q13, (1, 4)).scalar() == 3
        assert db.execute(Q13, (5, 1)).scalar() is None
        assert traversals(db) == {
            "bidirectional_pairs": 2,
            "forward_traversals": 0,
            "transpose_builds": 1,  # kept by the cached library
        }

    def test_unindexed_q13_runs_forward(self, db):
        assert db.execute(Q13, (1, 4)).scalar() == 3
        assert traversals(db) == {
            "bidirectional_pairs": 0,
            "forward_traversals": 1,
            "transpose_builds": 0,
        }

    def test_graph_join_runs_forward(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.executescript(
            """
            CREATE TABLE a (v INT);
            CREATE TABLE b (v INT);
            INSERT INTO a VALUES (1), (2);
            INSERT INTO b VALUES (4), (5);
            """
        )
        rows = db.execute(
            "SELECT a.v, b.v FROM a, b WHERE a.v REACHES b.v "
            "OVER edges EDGE (s, d) ORDER BY a.v, b.v"
        ).rows()
        assert rows == [(1, 4), (1, 5), (2, 4), (2, 5)]
        assert traversals(db) == {
            "bidirectional_pairs": 0,
            "forward_traversals": 2,  # one per left vertex, two targets each
            "transpose_builds": 0,
        }

    def test_weighted_q14_runs_forward(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        cost = db.execute(
            "SELECT CHEAPEST SUM(e: w) WHERE 1 REACHES 5 OVER edges e EDGE (s, d)"
        ).scalar()
        assert cost == 4
        assert traversals(db) == {
            "bidirectional_pairs": 0,
            "forward_traversals": 1,
            "transpose_builds": 0,
        }

    def test_batch_splits_by_target_count(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.executescript(
            """
            CREATE TABLE pairs (a INT, b INT);
            INSERT INTO pairs VALUES (1, 5), (2, 4), (2, 5), (3, 5), (3, 5);
            """
        )
        rows = db.execute(
            "SELECT p.a, p.b, CHEAPEST SUM(1) FROM pairs p "
            "WHERE p.a REACHES p.b OVER edges EDGE (s, d) ORDER BY p.a, p.b"
        ).rows()
        assert rows == [(1, 5, 1), (2, 4, 2), (2, 5, 3), (3, 5, 2), (3, 5, 2)]
        # sources 1 and 3 have one distinct target each (3 twice), 2 has two
        assert traversals(db) == {
            "bidirectional_pairs": 2,
            "forward_traversals": 1,
            "transpose_builds": 1,
        }

    def test_overlay_merged_library_builds_its_own_transpose(self, db):
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert db.execute(Q13, (5, 1)).scalar() is None
        db.execute("INSERT INTO edges VALUES (5, 1, 1)")
        assert db.graph_overlay_info()["indices"]["gi"]["overlay_edges"] == 1
        assert db.execute(Q13, (5, 2)).scalar() == 2
        assert db.execute(Q13, (4, 2)).scalar() == 3
        assert traversals(db) == {
            "bidirectional_pairs": 3,
            "forward_traversals": 0,
            "transpose_builds": 2,  # the base's, then the merged library's
        }


class TestConcurrentTranspose:
    def test_loaded_image_builds_one_transpose(self, tmp_path):
        import sys
        import threading

        import numpy as np

        # large enough that an unguarded transpose build overlaps
        # between sessions: without the lock, most of them build one
        rng = np.random.default_rng(3)
        source = Database()
        source.execute("CREATE TABLE edges (s BIGINT, d BIGINT)")
        source.appender("edges").append(
            [rng.integers(0, 2000, 100_000), rng.integers(0, 2000, 100_000)]
        )
        source.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        source.execute(Q13, (0, 1))
        source.save(str(tmp_path / "image"))
        pairs = [tuple(int(v) for v in rng.integers(0, 2000, 2)) for _ in range(12)]
        expected = [source.execute(Q13, pair).scalar() for pair in pairs]
        source.close()

        threads = 8
        db = Database.load(str(tmp_path / "image"))
        barrier = threading.Barrier(threads)
        answers: dict[int, list] = {}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                session = db.connect()
                barrier.wait(timeout=30)
                answers[index] = [session.execute(Q13, p).scalar() for p in pairs]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=client, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert [answers[i] for i in range(threads)] == [expected] * threads
        stats = traversals(db)
        assert stats["transpose_builds"] == 1
        assert stats["bidirectional_pairs"] == threads * len(pairs)
        # the image holds no CSR: the sessions' concurrent first
        # queries share one rebuild
        assert db.graph_indices.stats()["builds"] == 1
        db.close()


Q14 = (
    "SELECT CHEAPEST SUM(k: CAST(weight * 10 AS bigint)) AS (cost, path) "
    "WHERE ? REACHES ? OVER knows k EDGE (person1, person2)"
)


def weight_counts(db):
    stats = db.graph_indices.stats()
    return stats["weight_builds"], stats["weight_hits"]


class WeightedTrio:
    """One weighted graph three ways: indexed with the default overlay,
    indexed with a rebuild after every write (``graph_compact_threshold=1``)
    and unindexed.  Every statement runs on all three, and every answer —
    costs and path rows — must agree."""

    def __init__(self, edges: int = 600, vertices: int = 80, seed: int = 11):
        import numpy as np

        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(0, vertices, edges),
            rng.integers(0, vertices, edges),
            rng.integers(1, 60, edges) / 10,
        ]
        self.vertices = vertices
        self.dbs = []
        for threshold, indexed in [(8192, True), (1, True), (8192, False)]:
            db = Database(graph_compact_threshold=threshold)
            db.executescript(
                """
                CREATE TABLE knows (person1 BIGINT, person2 BIGINT, weight DOUBLE);
                CREATE TABLE scale (f DOUBLE);
                INSERT INTO scale VALUES (2.0);
                """
            )
            db.appender("knows").append(columns)
            if indexed:
                db.execute("CREATE GRAPH INDEX gi ON knows EDGE (person1, person2)")
            self.dbs.append(db)

    @property
    def indexed(self):
        return self.dbs[0]

    def execute(self, sql, params=()):
        for db in self.dbs:
            db.execute(sql, params)

    def answers(self, sql, pairs, weight_params=()):
        """The indexed database's rows per pair, checked against both
        oracles.  ``weight_params`` bind the ``?`` of the weight, which
        come before the pair's."""
        results = [
            [
                [
                    tuple(v.to_rows() if hasattr(v, "to_rows") else v for v in row)
                    for row in db.execute(sql, (*weight_params, *pair)).rows()
                ]
                for pair in pairs
            ]
            for db in self.dbs
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]
        return results[0]

    def pairs(self, count: int = 12):
        return [(i % self.vertices, (7 * i + 3) % self.vertices) for i in range(count)]

    def close(self):
        for db in self.dbs:
            db.close()


@pytest.fixture
def trio():
    trio = WeightedTrio()
    yield trio
    trio.close()


def costs(answers):
    return [rows[0][0] if rows else None for rows in answers]


class TestWeightedViews:
    """An indexed library keeps its weighted views per (weight
    expression, table version); every answer equals a rebuild after each
    write and an unindexed run."""

    def test_weight_built_once_per_table_version(self, trio):
        answers = trio.answers(Q14, trio.pairs())
        assert any(rows and rows[0][1] for rows in answers)  # paths compared
        assert weight_counts(trio.indexed) == (1, len(trio.pairs()) - 1)
        assert weight_counts(trio.dbs[2]) == (0, 0)  # nothing indexed

    def test_weight_only_update_is_seen(self, trio):
        # the overlay keeps the same library across this UPDATE: only the
        # table version in the key tells the old weights from the new
        pairs = trio.pairs()
        before = costs(trio.answers(Q14, pairs))
        library = trio.indexed.lookup_graph_index("knows", "person1", "person2")
        trio.execute("UPDATE knows SET weight = weight * 2")
        after = costs(trio.answers(Q14, pairs))
        assert trio.indexed.lookup_graph_index("knows", "person1", "person2") is library
        assert after == [None if c is None else 2 * c for c in before]
        assert weight_counts(trio.indexed)[0] == 2

    def test_parameter_values_key_separate_views(self, trio):
        sql = Q14.replace("weight * 10", "weight * ?")
        pairs = trio.pairs(6)
        tens = costs(trio.answers(sql, pairs, weight_params=(10,)))
        twenties = costs(trio.answers(sql, pairs, weight_params=(20,)))
        assert twenties != tens
        assert twenties == [None if c is None else 2 * c for c in tens]
        assert costs(trio.answers(sql, pairs, weight_params=(10,))) == tens
        builds, hits = weight_counts(trio.indexed)
        assert builds == 2
        assert hits == 3 * len(pairs) - 2

    def test_literal_and_parameter_spellings_agree(self, trio):
        pairs = trio.pairs(6)
        literal = trio.answers(Q14, pairs)
        parameter = trio.answers(
            Q14.replace("weight * 10", "weight * ?"), pairs, weight_params=(10,)
        )
        assert parameter == literal

    def test_pinned_snapshot_keeps_old_costs(self, trio):
        pairs = trio.pairs(6)
        before = costs(trio.answers(Q14, pairs))
        readers = [db.connect() for db in trio.dbs]
        for reader in readers:
            reader.execute("BEGIN")
            reader.execute("SELECT count(*) FROM knows")
        trio.execute("UPDATE knows SET weight = weight * 2")
        after = costs(trio.answers(Q14, pairs))
        for reader in readers:
            pinned = [reader.execute(Q14, pair).rows() for pair in pairs]
            assert costs(pinned) == before
            reader.execute("COMMIT")
        assert after == [None if c is None else 2 * c for c in before]
        assert costs(trio.answers(Q14, pairs)) == after
        # one view per committed version; the pinned snapshot's views
        # were built per statement and not kept
        assert weight_counts(trio.indexed)[0] == 2 + len(pairs)

    def test_subquery_weight_is_evaluated_per_statement(self, trio):
        sql = Q14.replace("weight * 10", "weight * 10 * (SELECT max(f) FROM scale)")
        pairs = trio.pairs(6)
        doubled = costs(trio.answers(sql, pairs))
        trio.execute("UPDATE scale SET f = 4.0")
        quadrupled = costs(trio.answers(sql, pairs))
        assert quadrupled != doubled
        assert weight_counts(trio.indexed) == (0, 0)  # no key for a subquery

    @pytest.mark.parametrize("bad", ["0", "NULL"])
    def test_bad_weight_raises_on_every_statement(self, trio, bad):
        from repro.errors import GraphRuntimeError

        trio.execute(f"UPDATE knows SET weight = {bad} WHERE person1 = 0")
        for db in trio.dbs:
            for _ in range(2):
                with pytest.raises(GraphRuntimeError):
                    db.execute(Q14, (1, 2))
        assert weight_counts(trio.indexed) == (0, 0)
        trio.execute("UPDATE knows SET weight = 1.5 WHERE person1 = 0")
        trio.answers(Q14, trio.pairs(4))
        assert weight_counts(trio.indexed) == (1, 3)

    def test_insert_and_delete_on_the_edge_table(self, trio):
        pairs = trio.pairs()
        trio.answers(Q14, pairs)
        trio.execute("INSERT INTO knows VALUES (1, 2, 0.1), (2, 3, 0.1), (3, 1, 0.1)")
        assert trio.indexed.graph_overlay_info()["indices"]["gi"]["overlay_edges"] == 3
        trio.answers(Q14, pairs + [(1, 3), (3, 2)])
        trio.execute("DELETE FROM knows WHERE person1 = 2 OR person2 = 5")
        trio.answers(Q14, pairs + [(1, 3), (3, 2)])
        # one build per table version the queries saw, on either path
        assert weight_counts(trio.indexed)[0] == 3
        assert weight_counts(trio.dbs[1])[0] == 3


class TestConcurrentWeightBuild:
    def test_first_q14_from_eight_sessions_builds_once(self):
        import sys
        import threading

        import numpy as np

        # large enough that unguarded weight builds overlap between
        # sessions: without the lock, most of them build one
        rng = np.random.default_rng(5)
        columns = [
            rng.integers(0, 2000, 400_000),
            rng.integers(0, 2000, 400_000),
            rng.integers(1, 60, 400_000) / 10,
        ]
        plain = Database()
        db = Database()
        for database in (plain, db):
            database.execute(
                "CREATE TABLE knows (person1 BIGINT, person2 BIGINT, weight DOUBLE)"
            )
            database.appender("knows").append(columns)
        db.execute("CREATE GRAPH INDEX gi ON knows EDGE (person1, person2)")
        pairs = [tuple(int(v) for v in rng.integers(0, 2000, 2)) for _ in range(4)]
        expected = [
            [(c, p.to_rows()) for c, p in plain.execute(Q14, pair).rows()]
            for pair in pairs
        ]
        plain.close()

        threads = 8
        barrier = threading.Barrier(threads)
        answers: dict[int, list] = {}
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                session = db.connect()
                barrier.wait(timeout=30)
                answers[index] = [
                    [(c, p.to_rows()) for c, p in session.execute(Q14, pair).rows()]
                    for pair in pairs
                ]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=client, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert [answers[i] for i in range(threads)] == [expected] * threads
        assert weight_counts(db) == (1, threads * len(pairs) - 1)
        db.close()


class TestSharedBuild:
    def test_failed_build_reaches_the_caller_and_is_retried(
        self, db, monkeypatch
    ):
        from repro.api import GraphIndexManager

        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.graph_indices.clear_cache()

        def failing(*args):
            raise MemoryError("no room for the CSR")

        monkeypatch.setattr(GraphIndexManager, "_build_library", failing)
        with pytest.raises(MemoryError):
            db.lookup_graph_index("edges", "s", "d")
        monkeypatch.undo()
        assert db.lookup_graph_index("edges", "s", "d") is not None
        assert db.graph_indices._building == {}
