"""Save/load round trips for the database persistence layer."""

import datetime as dt
import json
import shutil

import numpy as np
import pytest

from repro import Database
from repro.errors import ReproError


def _downgrade_to_npz(target, format_version):
    """Rewrite a saved format-v4 image in the pre-v4 npz layout.

    Produces a *genuine* old-format image (one ``<table>.npz`` archive
    per table, no storage descriptors, and for <3 / <2 no CSR files /
    stats block) for back-compat coverage — the repo's committed v3
    fixture was generated the same way.
    """
    loaded = Database.load(str(target))
    meta = json.loads((target / "catalog.json").read_text())
    meta["format_version"] = format_version
    for name, table_meta in meta["tables"].items():
        table_meta.pop("storage", None)
        version = loaded.table(name).current()
        arrays = {}
        for i, column in enumerate(version.columns):
            if column.data.dtype == np.dtype(object):
                data = np.array(
                    ["" if v is None else v for v in column.data], dtype=np.str_
                )
            else:
                data = column.data
            arrays[f"col{i}_data"] = data
            arrays[f"col{i}_mask"] = column.null_mask()
        np.savez_compressed(str(target / f"{name}.npz"), **arrays)
        shutil.rmtree(target / f"{name}.tbl")
    if format_version < 3:
        for entry in meta.pop("graph_index_files", {}).values():
            (target / entry["file"]).unlink(missing_ok=True)
    if format_version < 2:
        meta.pop("stats", None)
    (target / "catalog.json").write_text(json.dumps(meta))


class TestRoundTrip:
    def test_all_types_survive(self, tmp_path):
        db = Database()
        db.executescript(
            """
            CREATE TABLE t (
                i INT, b BIGINT, f DOUBLE, s VARCHAR, day DATE, flag BOOLEAN
            );
            INSERT INTO t VALUES
                (1, 10000000000, 1.5, 'hello', '2020-05-17', TRUE),
                (2, -3, -0.25, '', '1970-01-01', FALSE);
            """
        )
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute("SELECT * FROM t ORDER BY i").rows() == [
            (1, 10000000000, 1.5, "hello", dt.date(2020, 5, 17), True),
            (2, -3, -0.25, "", dt.date(1970, 1, 1), False),
        ]

    def test_nulls_survive(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT, s VARCHAR)")
        db.execute("INSERT INTO t VALUES (NULL, 'a'), (2, NULL)")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute("SELECT * FROM t").rows() == [(None, "a"), (2, None)]

    def test_empty_table_survives(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE empty (x INT)")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute("SELECT count(*) FROM empty").scalar() == 0

    def test_multiple_tables(self, tmp_path):
        db = Database()
        db.executescript(
            "CREATE TABLE a (x INT); CREATE TABLE b (y VARCHAR);"
            "INSERT INTO a VALUES (1); INSERT INTO b VALUES ('z')"
        )
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.catalog.table_names() == ["a", "b"]

    def test_graph_index_definitions_survive(self, tmp_path, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        chain_db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.graph_indices.names() == ["gi"]
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        ).scalar() == 1

    def test_graph_queries_after_reload(self, tmp_path, social_db):
        social_db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) "
            "WHERE ? REACHES ? OVER friends EDGE (person1, person2)",
            (933, 8333),
        ).scalar() == 2

    def test_save_overwrites_existing_directory(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        target = str(tmp_path / "db")
        db.save(target)
        db.execute("INSERT INTO t VALUES (1)")
        db.save(target)
        assert Database.load(target).execute("SELECT count(*) FROM t").scalar() == 1

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not a saved database"):
            Database.load(str(tmp_path / "nope"))

    def test_loaded_database_is_writable(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        loaded.execute("INSERT INTO t VALUES (5)")
        assert loaded.execute("SELECT x FROM t").rows() == [(5,)]


class TestAtomicSave:
    """``save_database`` stages into a temp dir and swaps atomically."""

    def test_no_stray_staging_directories_left(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        target = tmp_path / "db"
        db.save(str(target))
        db.save(str(target))  # overwrite path exercises the swap too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db"]

    def test_failed_save_preserves_the_old_image(self, tmp_path, monkeypatch):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        target = str(tmp_path / "db")
        db.save(target)

        # make the *second* save blow up mid-write: the first image must
        # survive untouched (no half-written mix)
        from repro import persist

        def exploding_write(db_, snapshot, directory, **kwargs):
            (tmp_path / "db.partial-marker").write_text("")
            raise RuntimeError("disk full")

        monkeypatch.setattr(persist, "_write_image", exploding_write)
        db.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(RuntimeError, match="disk full"):
            db.save(target)
        monkeypatch.undo()
        loaded = Database.load(target)
        assert loaded.execute("SELECT count(*) FROM t").scalar() == 1
        # and the staging directory was cleaned up
        stray = [p.name for p in tmp_path.iterdir() if p.name.startswith("db.saving")]
        assert stray == []

    def test_save_is_snapshot_consistent_under_concurrent_writes(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        snapshot = db.pin_snapshot()  # the state save() will serialize
        db.execute("INSERT INTO t VALUES (3)")  # "concurrent" writer
        from repro.persist import save_database

        save_database(db, str(tmp_path / "db"), snapshot)
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute("SELECT count(*) FROM t").scalar() == 2


class TestStatsPersistence:
    """ANALYZE statistics survive a save/load round trip."""

    def test_stats_round_trip(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT, s VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (2, NULL)")
        db.execute("ANALYZE t")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        stats = loaded.table_stats()["t"]
        assert stats.row_count == 3
        assert not stats.stale
        assert stats.column("x").distinct == 2
        assert stats.column("x").min_value == 1
        assert stats.column("x").max_value == 2
        assert stats.column("s").null_count == 1

    def test_restored_stats_feed_the_optimizer(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(100)))
        db.execute("ANALYZE t")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        # min/max survived: an out-of-range predicate estimates 0 rows
        # instead of the magic-number fallback
        text = loaded.explain("SELECT * FROM t WHERE x > 1000")
        assert "est_rows=0" in text

    def test_stale_flag_survives(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ANALYZE t")
        db.execute("INSERT INTO t VALUES (2)")  # marks stats stale
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.table_stats()["t"].stale

    def test_unanalyzed_database_round_trips_without_stats(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.table_stats() == {}


def _path_rows(rows):
    """Result rows with each nested path replaced by its edge rows."""
    return [
        tuple(v.to_rows() if hasattr(v, "to_rows") else v for v in row)
        for row in rows
    ]


class TestGraphIndexPersistence:
    """Images hold graph-index definitions, not CSRs: the first path
    query after load rebuilds each index from the columns."""

    def test_image_holds_no_csr_and_first_query_builds_once(
        self, tmp_path, chain_db
    ):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        target = tmp_path / "db"
        chain_db.save(str(target))
        assert not list(target.glob("graphindex-*"))
        assert "graph_index_files" not in json.loads(
            (target / "catalog.json").read_text()
        )
        loaded = Database.load(str(target))
        assert loaded.graph_indices.stats()["builds"] == 0  # lazy
        sql = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER edges EDGE (s, d)"
        assert loaded.execute(sql, (1, 5)).scalar() == 1
        assert loaded.graph_indices.stats()["builds"] == 1
        for pair in [(1, 4), (2, 5), (5, 1)]:
            loaded.execute(sql, pair)
        stats = loaded.graph_indices.stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 3

    def test_rebuilt_index_answers_like_the_saved_database(
        self, tmp_path, social_db
    ):
        social_db.execute(
            "CREATE GRAPH INDEX fr ON friends EDGE (person1, person2)"
        )
        queries = [
            "SELECT CHEAPEST SUM(k: weight) WHERE ? REACHES ? "
            "OVER friends k EDGE (person1, person2)",
            "SELECT CHEAPEST SUM(1) AS (cost, path) WHERE ? REACHES ? "
            "OVER friends EDGE (person1, person2)",
            "SELECT CHEAPEST SUM(k: weight) AS (cost, path) WHERE ? REACHES ? "
            "OVER friends k EDGE (person1, person2)",
        ]
        pairs = [(933, 8333), (8333, 4139), (933, 933), (1, 933)]
        before = [
            _path_rows(social_db.execute(sql, pair).rows())
            for sql in queries
            for pair in pairs
        ]
        social_db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        after = [
            _path_rows(loaded.execute(sql, pair).rows())
            for sql in queries
            for pair in pairs
        ]
        assert after == before
        assert any(rows and rows[0][-1] for rows in after)  # paths compared
        assert loaded.graph_indices.stats()["builds"] == 1

    def test_weighted_q14_after_load_caches_its_weights(
        self, tmp_path, social_db
    ):
        social_db.execute(
            "CREATE GRAPH INDEX fr ON friends EDGE (person1, person2)"
        )
        sql = (
            "SELECT CHEAPEST SUM(k: CAST(weight * 10 AS bigint)) AS (cost, path) "
            "WHERE ? REACHES ? OVER friends k EDGE (person1, person2)"
        )
        pairs = [(933, 8333), (8333, 4139)]
        before = [_path_rows(social_db.execute(sql, p).rows()) for p in pairs]
        social_db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        after = [_path_rows(loaded.execute(sql, p).rows()) for p in pairs]
        assert after == before
        assert all(rows and rows[0][-1] for rows in after)  # paths compared
        stats = loaded.graph_indices.stats()
        # the rebuilt base library built the weights once and served the
        # second statement from its cached view
        assert stats["builds"] == 1
        assert (stats["weight_builds"], stats["weight_hits"]) == (1, 1)

    def test_string_keyed_domain_round_trips(self, tmp_path):
        db = Database()
        db.executescript(
            """
            CREATE TABLE se (s VARCHAR, d VARCHAR);
            INSERT INTO se VALUES ('ada', 'bob'), ('bob', 'cyd'), ('cyd', 'ada');
            CREATE GRAPH INDEX sgi ON se EDGE (s, d);
            """
        )
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 'ada' REACHES 'cyd' OVER se EDGE (s, d)"
        ).scalar() == 2
        assert loaded.graph_indices.stats()["builds"] == 1

    @pytest.mark.parametrize("archive", ["csr", "corrupt"])
    def test_image_carrying_an_old_csr_archive_loads(
        self, tmp_path, chain_db, archive
    ):
        # images from before indices were rebuilt on load carry a
        # graph_index_files block and a CSR archive; readers skip both
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        target = tmp_path / "db"
        chain_db.save(str(target))
        path = target / "graphindex-gi.npz"
        if archive == "csr":
            # a stale CSR of the chain without its 4 -> 5 edge
            np.savez_compressed(
                str(path),
                domain_values=np.array([1, 2, 3, 4, 5]),
                indptr=np.array([0, 2, 3, 4, 4, 4]),
                dst=np.array([1, 4, 2, 3]),
                src=np.array([0, 0, 1, 2]),
                edge_rows=np.array([0, 3, 1, 2]),
            )
        else:
            path.write_bytes(b"PK\x03\x04 not a zip archive")
        meta = json.loads((target / "catalog.json").read_text())
        meta["graph_index_files"] = {
            "gi": {"file": path.name, "domain_kind": "numeric"}
        }
        (target / "catalog.json").write_text(json.dumps(meta))
        loaded = Database.load(str(target))
        rows = loaded.execute(
            "SELECT CHEAPEST SUM(e: w) AS (cost, path) WHERE 1 REACHES 5 "
            "OVER edges e EDGE (s, d)"
        ).rows()
        cost, path_table = rows[0]
        assert cost == 4
        assert [r[:2] for r in path_table.to_rows()] == [
            (1, 2), (2, 3), (3, 4), (4, 5)
        ]
        assert loaded.graph_indices.stats()["builds"] == 1

    def test_dml_after_load_invalidates_seeded_csr(self, tmp_path, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        chain_db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        loaded.execute("INSERT INTO edges VALUES (5, 6, 1)")
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 6 OVER edges EDGE (s, d)"
        ).scalar() == 2  # the index is built from the current columns
        assert loaded.graph_indices.stats()["builds"] >= 1

    def test_unbuilt_index_is_not_force_built_by_save(self, tmp_path, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        # drop the eagerly-built library: save must NOT rebuild it
        chain_db.graph_indices.clear_cache()
        builds_before = chain_db.graph_indices.stats()["builds"]
        target = tmp_path / "db"
        chain_db.save(str(target))
        assert chain_db.graph_indices.stats()["builds"] == builds_before
        assert not (target / "graphindex-gi.npz").exists()
        loaded = Database.load(str(target))  # lazy rebuild, pre-v3 style
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        ).scalar() == 1
        assert loaded.graph_indices.stats()["builds"] >= 1

    def test_old_format_v2_image_still_loads(self, tmp_path, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        target = tmp_path / "db"
        chain_db.save(str(target))
        # rewrite the image in the v2 layout: npz tables, no CSR files
        _downgrade_to_npz(target, 2)
        loaded = Database.load(str(target))
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        ).scalar() == 1  # lazily rebuilt, as before v3
        assert loaded.graph_indices.stats()["builds"] >= 1


class TestFormatV4:
    """Format v4: per-column mmap-able .npy files in resting encodings."""

    @staticmethod
    def _wide_db(n=300):
        db = Database()
        db.execute(
            "CREATE TABLE t (id BIGINT, grp VARCHAR, val DOUBLE, day DATE)"
        )
        db.insert_rows(
            "t",
            [
                (
                    i,
                    None if i % 7 == 0 else f"g{i % 3}",
                    None if i % 11 == 0 else float(i) / 4,
                    dt.date(2020, 1, 1) + dt.timedelta(days=i % 40),
                )
                for i in range(n)
            ],
        )
        db.execute("ANALYZE")
        return db

    def test_v4_layout_written(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        meta = json.loads((target / "catalog.json").read_text())
        assert meta["format_version"] == 4
        assert (target / "t.tbl").is_dir()
        kinds = [d["kind"] for d in meta["tables"]["t"]["storage"]]
        assert len(kinds) == 4
        assert "dict" in kinds  # grp is low-cardinality VARCHAR

    def test_v4_round_trip_preserves_values_and_encodings(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        loaded = Database.load(str(target))
        # resting encodings survive the trip (no re-encode on load)
        info = loaded.table("t").current().resting_info()
        assert info["grp"][0] == "dict"
        sql = "SELECT * FROM t ORDER BY id"
        assert repr(loaded.execute(sql).rows()) == repr(db.execute(sql).rows())

    def test_v4_columns_load_lazily(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        loaded = Database.load(str(target))
        column = loaded.table("t").current().column("val")
        # nothing materialized yet: len() comes from the descriptor
        assert column._data is None
        assert len(column) == 300
        assert column._data is None
        # first touch decodes (and caches)
        assert float(column.data[4]) == 1.0
        assert column._data is not None

    def test_v4_compression_false_loads_plain(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        loaded = Database.load(str(target), compression=False)
        info = loaded.table("t").current().resting_info()
        assert all(kind == "plain" for kind, _ in info.values())
        sql = "SELECT * FROM t ORDER BY id"
        assert repr(loaded.execute(sql).rows()) == repr(db.execute(sql).rows())

    def test_compression_false_database_saves_plain_layout(self, tmp_path):
        db = Database(compression=False)
        db.execute("CREATE TABLE t (x INT, s VARCHAR)")
        db.insert_rows("t", [(i, f"s{i % 2}") for i in range(50)])
        target = tmp_path / "db"
        db.save(str(target))
        meta = json.loads((target / "catalog.json").read_text())
        kinds = {d["kind"] for d in meta["tables"]["t"]["storage"]}
        assert kinds == {"plain"}
        loaded = Database.load(str(target))
        assert loaded.execute("SELECT count(*) FROM t").scalar() == 50

    def test_persisted_zone_maps_survive_and_skip(self, tmp_path, monkeypatch):
        import repro.storage.zonemap as zm_module

        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        zones = list((target / "t.tbl").glob("*.zones.npz"))
        assert zones  # at least the numeric columns persisted maps
        loaded = Database.load(str(target))
        column = loaded.table("t").current().column("id")
        assert column._zones  # seeded from the image, not rebuilt

    def test_stale_zone_map_is_discarded_on_load(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        # doctor the id column's zone map so it describes a different
        # version's row count (the stale case)
        meta = json.loads((target / "catalog.json").read_text())
        idx = [c[0] for c in meta["tables"]["t"]["columns"]].index("id")
        zone_path = target / "t.tbl" / f"col{idx}.zones.npz"
        archive = dict(np.load(str(zone_path)))
        archive["meta"] = np.array(
            [int(archive["meta"][0]), int(archive["meta"][1]) + 17],
            dtype=np.int64,
        )
        np.savez(str(zone_path), **archive)
        loaded = Database.load(str(target))
        column = loaded.table("t").current().column("id")
        assert not column._zones  # dropped, rebuilds lazily at scan time
        sql = "SELECT count(*) FROM t WHERE id > 100"
        assert loaded.execute(sql).scalar() == db.execute(sql).scalar()

    def test_old_format_v1_image_still_loads(self, tmp_path):
        db = self._wide_db()
        target = tmp_path / "db"
        db.save(str(target))
        _downgrade_to_npz(target, 1)
        loaded = Database.load(str(target))
        sql = "SELECT * FROM t ORDER BY id"
        assert repr(loaded.execute(sql).rows()) == repr(db.execute(sql).rows())
        assert loaded.table_stats() == {}  # v1 carried no stats block

    def test_old_format_v3_image_still_loads(self, tmp_path, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        chain_db.execute("ANALYZE")
        target = tmp_path / "db"
        chain_db.save(str(target))
        _downgrade_to_npz(target, 3)
        loaded = Database.load(str(target))
        assert loaded.execute("SELECT count(*) FROM edges").scalar() == 5
        assert loaded.table_stats()["edges"].row_count == 5
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        ).scalar() == 1

    def test_committed_v3_fixture_loads(self):
        import os

        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "v3_image"
        )
        loaded = Database.load(fixture)
        assert loaded.execute(
            "SELECT s FROM people WHERE x IS NULL"
        ).rows() == [("carol",)]
        assert loaded.execute(
            "SELECT sum(x) FROM people"
        ).scalar() == 30
        assert loaded.table_stats()["people"].row_count == 3
        assert loaded.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER hops EDGE (s, d)"
        ).scalar() == 2
