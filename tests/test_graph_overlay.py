"""Incremental graph-index maintenance: the CSR delta overlay vs the
full-rebuild oracle.

``Database(graph_compact_threshold=1)`` compacts the index into a fresh
canonical build on every lookup after a write, and is the correctness
oracle here: after any randomized churn of inserts / deletes / updates, both engines must
report identical costs (and Bellman-Ford must agree).  Paths are
compared by *validity and cost*, not byte equality: vertex ids are
assigned in different orders by the two builds, so equal-cost ties may
resolve to different (equally correct) paths.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import Database
from test_path_reference import bellman_ford

EDGE_DDL = "CREATE TABLE edges (s BIGINT, d BIGINT, w INTEGER)"
Q13 = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER edges EDGE (s, d)"
Q14 = (
    "SELECT CHEAPEST SUM(e: w) WHERE ? REACHES ? OVER edges e EDGE (s, d)"
)
Q14_PATH = (
    "SELECT CHEAPEST SUM(e: w) AS (cost, path) "
    "WHERE ? REACHES ? OVER edges e EDGE (s, d)"
)


def scalar(db: Database, sql: str, params) -> object:
    rows = db.execute(sql, params).rows()
    return rows[0][0] if rows else None


def engine_pair(**overlay_kwargs):
    over = Database(**overlay_kwargs)
    base = Database(graph_compact_threshold=1)
    for db in (over, base):
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
    return over, base


def live_edges(db: Database):
    return [
        (int(s), int(d), int(w))
        for s, d, w in db.execute("SELECT s, d, w FROM edges").rows()
        if s is not None and d is not None
    ]


# ---------------------------------------------------------------------------
# randomized churn vs full rebuild + Bellman-Ford
# ---------------------------------------------------------------------------
class TestChurnOracle:
    N_VERTICES = 24

    def _insert(self, rng, dbs):
        rows = []
        for _ in range(rng.randint(1, 8)):
            s = rng.randrange(self.N_VERTICES) if rng.random() > 0.06 else None
            d = rng.randrange(self.N_VERTICES) if rng.random() > 0.06 else None
            rows.append((s, d, rng.randint(1, 9)))
        values = ", ".join(
            "(%s, %s, %s)"
            % tuple("NULL" if v is None else str(v) for v in row)
            for row in rows
        )
        for db in dbs:
            db.execute(f"INSERT INTO edges VALUES {values}")

    def _delete(self, rng, dbs):
        predicate = rng.choice(
            [
                f"w = {rng.randint(1, 9)}",
                f"s = {rng.randrange(self.N_VERTICES)}",
                f"d >= {rng.randrange(self.N_VERTICES)} "
                f"AND w <= {rng.randint(1, 9)}",
                "s IS NULL",
            ]
        )
        counts = {
            db.execute(f"DELETE FROM edges WHERE {predicate}").rowcount
            for db in dbs
        }
        assert len(counts) == 1  # both engines dropped the same rows

    def _update(self, rng, dbs):
        if rng.random() < 0.5:  # weight only: edge set unchanged
            sql = (
                f"UPDATE edges SET w = {rng.randint(1, 9)} "
                f"WHERE s = {rng.randrange(self.N_VERTICES)}"
            )
        else:  # rewires endpoints: overlay must not serve stale CSR
            sql = (
                f"UPDATE edges SET d = {rng.randrange(self.N_VERTICES)} "
                f"WHERE w = {rng.randint(1, 9)}"
            )
        for db in dbs:
            db.execute(sql)

    def _compare_random_pairs(self, rng, over, base, *, samples=6):
        edges = live_edges(base)
        assert live_edges(over) == edges  # table contents identical
        endpoints = sorted({v for s, d, _ in edges for v in (s, d)})
        reference = {}
        for _ in range(samples):
            src = rng.randrange(self.N_VERTICES)
            dst = rng.randrange(self.N_VERTICES)
            assert scalar(over, Q13, (src, dst)) == scalar(
                base, Q13, (src, dst)
            )
            got = scalar(over, Q14, (src, dst))
            assert got == scalar(base, Q14, (src, dst))
            if src in endpoints and src != dst:
                if src not in reference:
                    ids = {v: i for i, v in enumerate(endpoints)}
                    reference[src] = bellman_ford(
                        len(endpoints),
                        [(ids[s], ids[d], w) for s, d, w in edges],
                        ids[src],
                    )
                want = (
                    reference[src][endpoints.index(dst)]
                    if dst in endpoints
                    else None
                )
                assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_churn_matches_full_rebuild(self, seed):
        rng = random.Random(1000 + seed)
        threshold = rng.choice([3, 50, 100_000])
        over, base = engine_pair(graph_compact_threshold=threshold)
        dbs = (over, base)
        for _ in range(30):
            roll = rng.random()
            if roll < 0.5:
                self._insert(rng, dbs)
            elif roll < 0.7:
                self._delete(rng, dbs)
            elif roll < 0.8:
                self._update(rng, dbs)
            else:
                self._compare_random_pairs(rng, over, base, samples=3)
        self._compare_random_pairs(rng, over, base, samples=12)
        over.close()
        base.close()

    def test_paths_valid_through_overlay(self):
        over, base = engine_pair(graph_compact_threshold=100_000)
        rng = random.Random(7)
        self._insert(rng, (over, base))
        over.execute("SELECT 1 WHERE 0 REACHES 1 OVER edges EDGE (s, d)")
        for _ in range(6):
            self._insert(rng, (over, base))
        self._delete(rng, (over, base))
        assert over.graph_indices.stats()["overlay_applied"] > 0
        edges = set(live_edges(over))
        endpoints = sorted({v for s, d, _ in edges for v in (s, d)})
        checked = 0
        for src in endpoints[:6]:
            for dst in endpoints[:6]:
                if src == dst:
                    continue
                cost = scalar(over, Q14, (src, dst))
                assert cost == scalar(base, Q14, (src, dst))
                if cost is None:
                    continue
                rows = over.execute(
                    "SELECT T.cost, R.s, R.d, R.w FROM ("
                    + Q14_PATH.replace("?", "%d" % src, 1).replace(
                        "?", "%d" % dst, 1
                    )
                    + ") T, UNNEST(T.path) AS R"
                ).rows()
                if not rows:
                    continue  # zero-hop path (src == dst) unnests empty
                hops = [(int(s), int(d), int(w)) for _, s, d, w in rows]
                assert rows[0][0] == cost
                assert sum(w for _, _, w in hops) == cost
                assert hops[0][0] == src and hops[-1][1] == dst
                for (_, mid, _), (nxt, _, _) in zip(hops, hops[1:]):
                    assert mid == nxt
                for hop in hops:
                    assert hop in edges  # every hop is a live table row
                checked += 1
        assert checked > 0
        over.close()
        base.close()


# ---------------------------------------------------------------------------
# overlay bookkeeping: hits, applies, compaction
# ---------------------------------------------------------------------------
class TestOverlayLifecycle:
    def test_append_applies_without_rebuild(self):
        db = Database()
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("INSERT INTO edges VALUES (1, 2, 1)")
        assert scalar(db, Q13, (1, 2)) == 1
        builds = db.graph_indices.stats()["builds"]
        db.execute("INSERT INTO edges VALUES (2, 3, 1)")
        assert scalar(db, Q13, (1, 3)) == 2
        stats = db.graph_indices.stats()
        assert stats["builds"] == builds  # merged overlay, no fresh CSR
        assert stats["overlay_applied"] >= 1
        assert stats["overlay_hits"] >= 1
        db.close()

    def test_eager_compaction_past_threshold(self):
        db = Database(graph_compact_threshold=3)
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("INSERT INTO edges VALUES (0, 1, 1)")
        assert scalar(db, Q13, (0, 1)) == 1
        for i in range(1, 5):
            db.execute(f"INSERT INTO edges VALUES ({i}, {i + 1}, 1)")
        assert scalar(db, Q13, (0, 5)) == 5  # compacts on this lookup
        stats = db.graph_indices.stats()
        assert stats["overlay_merges"] >= 1
        assert stats["entries"] == 1
        info = db.graph_overlay_info()["indices"]["gi"]
        assert info["overlay_edges"] == 0 and info["tombstones"] == 0
        db.close()

    def test_threshold_one_rebuilds_after_every_write(self):
        # the full-rebuild oracle: every lookup after a write compacts
        db = Database(graph_compact_threshold=1)
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        for i in range(4):
            db.execute(f"INSERT INTO edges VALUES ({i}, {i + 1}, 1)")
            assert scalar(db, Q13, (0, i + 1)) == i + 1
            info = db.graph_overlay_info()
            assert info["overlay_merges"] == i + 1
            assert info["indices"]["gi"]["overlay_edges"] == 0
        assert db.graph_indices.stats()["overlay_hits"] == 0
        db.close()

    def test_compaction_mid_query_stream(self):
        # alternate writes and queries so compaction interleaves lookups
        db = Database(graph_compact_threshold=2)
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        for i in range(12):
            db.execute(f"INSERT INTO edges VALUES ({i}, {i + 1}, 1)")
            assert scalar(db, Q13, (0, i + 1)) == i + 1
            if i % 3 == 2:
                db.execute(f"DELETE FROM edges WHERE s = {i - 1}")
                assert scalar(db, Q13, (0, i + 1)) is None
                db.execute(f"INSERT INTO edges VALUES ({i - 1}, {i}, 1)")
        assert db.graph_indices.stats()["overlay_merges"] >= 1
        db.close()

    def test_overlay_survives_weight_only_update(self):
        db = Database(graph_compact_threshold=100_000)
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("INSERT INTO edges VALUES (1, 2, 5), (2, 3, 5)")
        assert scalar(db, Q14, (1, 3)) == 10
        invalidations = db.graph_indices.stats()["invalidations"]
        db.execute("UPDATE edges SET w = 1 WHERE s = 1")
        # weights are attached per statement: no CSR change, no rebuild
        assert scalar(db, Q14, (1, 3)) == 6
        assert db.graph_indices.stats()["invalidations"] == invalidations
        db.close()

    def test_explain_footer_reports_overlay(self):
        db = Database()
        db.execute(EDGE_DDL)
        db.execute("INSERT INTO edges VALUES (1, 2, 1)")
        text = db.explain(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2 OVER edges EDGE (s, d)"
        )
        assert "graph overlay:" in text
        db.close()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
class TestOverlayPersistence:
    def _seed(self, db):
        db.execute(EDGE_DDL)
        db.execute("INSERT INTO edges VALUES (1, 2, 1), (2, 3, 2)")
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        assert scalar(db, Q13, (1, 3)) == 2

    def test_save_compacts_live_overlay(self, tmp_path):
        db = Database(graph_compact_threshold=100_000)
        self._seed(db)
        db.execute("INSERT INTO edges VALUES (3, 4, 1)")
        assert scalar(db, Q13, (1, 4)) == 3  # served from the overlay
        assert db.graph_overlay_info()["indices"]["gi"]["overlay_edges"] == 1
        db.save(str(tmp_path / "image"))
        loaded = Database.load(str(tmp_path / "image"))
        # the image holds a canonical CSR: the seeded index answers
        # without a build, including the edge that lived in the overlay
        builds = loaded.graph_indices.stats()["builds"]
        assert scalar(loaded, Q13, (1, 4)) == 3
        assert loaded.graph_indices.stats()["builds"] == builds
        db.close()
        loaded.close()

    def test_loaded_database_accumulates_fresh_overlay(self, tmp_path):
        db = Database()
        self._seed(db)
        db.save(str(tmp_path / "image"))
        db.close()
        loaded = Database.load(str(tmp_path / "image"))
        assert scalar(loaded, Q13, (1, 3)) == 2  # seeded, no build
        loaded.execute("INSERT INTO edges VALUES (3, 9, 1)")
        assert scalar(loaded, Q13, (1, 9)) == 3
        stats = loaded.graph_indices.stats()
        assert stats["overlay_applied"] >= 1
        loaded.close()


# ---------------------------------------------------------------------------
# appender / COPY feed the overlay
# ---------------------------------------------------------------------------
class TestBulkIngestIntoOverlay:
    def test_appender_batch_folds_in(self):
        db = Database(graph_compact_threshold=100_000)
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("INSERT INTO edges VALUES (0, 1, 1)")
        assert scalar(db, Q13, (0, 1)) == 1
        builds = db.graph_indices.stats()["builds"]
        chain = np.arange(1, 2000, dtype=np.int64)
        db.appender("edges").append(
            {"s": chain, "d": chain + 1, "w": np.ones(len(chain), np.int64)}
        )
        assert scalar(db, Q13, (0, 2000)) == 2000
        stats = db.graph_indices.stats()
        assert stats["builds"] == builds
        # base CSR was built at CREATE GRAPH INDEX (empty table), so the
        # single row INSERT and the whole bulk batch live in the overlay
        assert (
            db.graph_overlay_info()["indices"]["gi"]["overlay_edges"]
            == len(chain) + 1
        )
        db.close()

    def test_transactional_append_applies_on_commit(self):
        db = Database()
        db.execute(EDGE_DDL)
        db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        db.execute("INSERT INTO edges VALUES (0, 1, 1)")
        assert scalar(db, Q13, (0, 1)) == 1
        with db.connect() as session:
            session.begin()
            session.appender("edges").append({"s": [1], "d": [2], "w": [1]})
            session.commit()
        # COMMIT installs a full replacement version (not an append), so
        # the overlay cannot interpret it: correctness over cleverness
        assert scalar(db, Q13, (0, 2)) == 2
        db.close()
