"""Write-ahead log: round-trips, torn-tail repair, checkpoints, group
commit, fault injection, and the save-path crash hardening.

The recovery-equivalence fuzz reuses the DML-friendly generators from
:mod:`tests.test_fuzz` (same ``t1``/``t2`` schema, same predicate
grammar), applying the identical randomized workload to a durable
database and an in-memory oracle, then asserting the *recovered*
database matches the oracle table-for-table.
"""

import os
import shutil
import struct
import threading

import numpy as np
import pytest

from repro import Database, ReproError
from repro.errors import FaultInjectedError, WalError
from repro.faults import FaultInjector
from repro.storage.wal import (
    _RECORD_HEADER,
    _SEGMENT_HEADER,
    WriteAheadLog,
    default_wal_directory,
    scan_wal,
    wal_exists,
)

from tests.test_fuzz import random_predicate, random_scalar


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
SETUP = """
CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
CREATE TABLE t2 (a INT, d INT);
INSERT INTO t1 VALUES
    (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL);
INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50);
"""


def dump(db):
    """Every table's full contents, order-independent."""
    out = {}
    for name in sorted(db.catalog.table_names()):
        result = db.execute(f"SELECT * FROM {name}")
        out[name] = (result.column_names, sorted(result.rows(), key=repr))
    return out


def segment_paths(wal_dir):
    return sorted(
        os.path.join(wal_dir, name)
        for name in os.listdir(wal_dir)
        if name.startswith("seg-")
    )


def record_offsets(path):
    """Byte offset of each record in one segment file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    offsets = []
    offset = _SEGMENT_HEADER.size
    while offset < len(raw):
        length, _crc = _RECORD_HEADER.unpack_from(raw, offset)
        offsets.append(offset)
        offset += _RECORD_HEADER.size + length
    return offsets, raw


class TestRoundTrip:
    """Every record kind replays to the state the live run had."""

    def test_all_dml_kinds_recover(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.executescript(SETUP)
        db.execute("UPDATE t1 SET c = c + 1, b = 'u' WHERE a = 2")
        db.execute("DELETE FROM t1 WHERE a = 3")
        db.execute("CREATE TABLE t3 AS SELECT a, d FROM t2 WHERE a > 1")
        db.execute("DROP TABLE t3")
        db.execute("CREATE TABLE t4 (x INT)")
        with db.appender("t4") as appender:
            appender.append_rows([(i,) for i in range(10)])
        expected = dump(db)
        db.close()

        recovered = Database.open(target, durability="off")
        assert recovered.recovery_info["replayed"] > 0
        assert dump(recovered) == expected
        recovered.close()

    def test_transaction_commit_recovers_and_rollback_leaves_nothing(
        self, tmp_path
    ):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.executescript(SETUP)
        session = db.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO t1 VALUES (7, 'txn', 7.5)")
        session.execute("UPDATE t2 SET d = d + 1 WHERE a = 1")
        session.execute("COMMIT")
        session.execute("BEGIN")
        session.execute("INSERT INTO t1 VALUES (99, 'rolled', 0.0)")
        session.execute("ROLLBACK")
        expected = dump(db)
        db.close()

        recovered = Database.open(target, durability="off")
        assert dump(recovered) == expected
        assert (
            recovered.execute(
                "SELECT count(*) FROM t1 WHERE a = 99"
            ).scalar()
            == 0
        )
        recovered.close()

    def test_graph_index_ddl_recovers(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.execute("INSERT INTO e VALUES (1, 2), (2, 3)")
        db.execute("CREATE GRAPH INDEX gi ON e EDGE (s, d)")
        specs = dict(db.graph_indices.specs())
        db.close()

        recovered = Database.open(target, durability="off")
        assert dict(recovered.graph_indices.specs()) == specs
        recovered.close()

    def test_copy_recovers_file_contents_not_path(self, tmp_path):
        csv = tmp_path / "rows.csv"
        csv.write_text("x,y\n1,2\n3,4\n")
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE c (x INT, y INT)")
        db.execute(f"COPY c FROM '{csv}'")
        expected = dump(db)
        db.close()
        csv.unlink()  # the log must not depend on the file surviving

        recovered = Database.open(target, durability="off")
        assert dump(recovered) == expected
        recovered.close()

    def test_record_kind_per_entry_point(self, tmp_path):
        """Row-shaped writes log one JSON ``insert`` record, bulk
        batches one npy ``append`` record: a single-row INSERT logged
        as npy blobs would be six times larger."""
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE)")
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (1, "x", 2.0))
        db.insert_rows("t", [(2, None, 3.5)])
        db.appender("t").append({"a": np.arange(3), "c": [0.5, None, 1.0]})
        db.close()
        records = scan_wal(default_wal_directory(target), repair=False).records
        assert [r.kind for r in records] == [
            "create_table", "insert", "insert", "append"
        ]
        assert records[1].header["rows"] == [[1, "x", 2.0]]
        assert records[2].header["rows"] == [[2, None, 3.5]]
        assert [d["t"] for d in records[3].header["cols"]] == [
            "bigint", "varchar", "double"
        ]

    def test_committed_wal_v4_fixture_replays(self, tmp_path):
        """A format-4 image plus a log written by the engine before
        every append shared one path: ``insert`` records holding DATE
        strings, tagged dates, day numbers, NULLs and integral floats,
        an INSERT … SELECT, an ``append``, a ``delete``, an ``update``
        and a committed transaction all replay to the rows the writer
        saw."""
        import datetime

        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "wal_v4")
        target = tmp_path / "db"
        shutil.copytree(os.path.join(fixture, "db"), target)
        shutil.copytree(os.path.join(fixture, "db.wal"), str(target) + ".wal")
        db = Database.open(str(target), durability="off")
        assert db.recovery_info["replayed"] == 9
        date = datetime.date
        assert db.execute("SELECT * FROM people ORDER BY id").rows() == [
            (1, "ann", date(1990, 1, 2), 1.5, 10),
            (2, "bea", date(1985, 6, 30), 2.0, 3),
            (3, None, date(2001, 2, 3), None, 7),
            (4, "dee", None, 9.5, None),
            (5, None, None, None, None),
            (6, "eve", date(1970, 1, 5), 0.25, 2**40),
        ]
        assert db.execute("SELECT * FROM edges ORDER BY s").rows() == [
            (1, 2, 1.5),
            (2, 3, 2.0),
            (6, 7, 0.25),
            (11, 12, None),
            (20, 21, 1.0),
        ]
        db.close()

    def test_off_databases_write_no_log(self, tmp_path):
        db = Database(durability="off")
        db.executescript(SETUP)
        assert db.wal is None
        assert not wal_exists(default_wal_directory(str(tmp_path / "db")))
        assert db.wal_stats() == {"enabled": False, "durability": "off"}
        db.close()

    def test_plain_constructor_requires_wal_dir_for_durable(self):
        with pytest.raises(ValueError, match="wal_dir"):
            Database(durability="commit")
        with pytest.raises(ValueError, match="durability"):
            Database(durability="paranoid")


class TestRecoveryEquivalenceFuzz:
    """Randomized DML workload: recovered state == in-memory oracle."""

    def random_dml(self, rng, step):
        roll = rng.random()
        if roll < 0.40:
            values = ", ".join(
                f"({rng.randint(0, 9)}, '{rng.choice('xyz')}{step}', "
                f"{rng.randint(0, 50)}.5)"
                for _ in range(rng.randint(1, 3))
            )
            return f"INSERT INTO t1 VALUES {values}"
        if roll < 0.60:
            return (
                f"UPDATE t1 SET c = {random_scalar(rng)} "
                f"WHERE {random_predicate(rng)}"
            )
        if roll < 0.75:
            return f"DELETE FROM t1 WHERE {random_predicate(rng)} AND a > 6"
        if roll < 0.90:
            return (
                f"INSERT INTO t2 VALUES ({rng.randint(0, 9)}, "
                f"{rng.randint(0, 99)})"
            )
        return f"UPDATE t2 SET d = d + {rng.randint(1, 3)} WHERE a = 2"

    @pytest.mark.parametrize("seed", [11, 222, 3333])
    def test_recovered_state_matches_oracle(self, tmp_path, seed):
        rng = __import__("random").Random(seed)
        statements = [self.random_dml(rng, step) for step in range(40)]

        oracle = Database()
        oracle.executescript(SETUP)
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.executescript(SETUP)
        for index, sql in enumerate(statements):
            oracle.execute(sql)
            db.execute(sql)
            if index == len(statements) // 2:
                db.save(target)  # a mid-workload checkpoint
        db.close()

        recovered = Database.open(target, durability="off")
        assert dump(recovered) == dump(oracle)
        recovered.close()
        oracle.close()


class TestTornTailMatrix:
    """Physical corruption of the last record: the valid prefix always
    survives, the damage is truncated away, recovery never raises."""

    def _make_db(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.close()
        return target, default_wal_directory(target)

    def _recover_and_count(self, target):
        db = Database.open(target, durability="off")
        count = db.execute("SELECT count(*) FROM t").scalar()
        info = dict(db.recovery_info)
        db.close()
        return count, info

    def test_truncated_length_header(self, tmp_path):
        target, wal_dir = self._make_db(tmp_path)
        path = segment_paths(wal_dir)[-1]
        offsets, _raw = record_offsets(path)
        with open(path, "r+b") as handle:
            handle.truncate(offsets[-1] + 3)  # mid length-header
        count, info = self._recover_and_count(target)
        assert count == 4  # last acked insert lost to physical damage
        assert info["truncate_reason"] == "torn record header"
        # the repair is physical: a second scan is clean
        assert scan_wal(wal_dir, repair=False).truncate_reason is None

    def test_bad_crc(self, tmp_path):
        target, wal_dir = self._make_db(tmp_path)
        path = segment_paths(wal_dir)[-1]
        offsets, raw = record_offsets(path)
        flip = offsets[-1] + _RECORD_HEADER.size + 2  # a payload byte
        with open(path, "r+b") as handle:
            handle.seek(flip)
            handle.write(bytes([raw[flip] ^ 0xFF]))
        count, info = self._recover_and_count(target)
        assert count == 4
        assert info["truncate_reason"] == "checksum mismatch"

    def test_zero_filled_tail(self, tmp_path):
        target, wal_dir = self._make_db(tmp_path)
        path = segment_paths(wal_dir)[-1]
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.write(b"\x00" * 64)  # preallocated-but-unwritten tail
        count, info = self._recover_and_count(target)
        assert count == 5  # every real record survives
        assert info["truncate_reason"] == "bad record length"
        assert info["truncated_bytes"] == 64

    def test_duplicate_last_record(self, tmp_path):
        target, wal_dir = self._make_db(tmp_path)
        path = segment_paths(wal_dir)[-1]
        offsets, raw = record_offsets(path)
        with open(path, "ab") as handle:
            handle.write(raw[offsets[-1]:])  # re-appended ack-lost record
        count, info = self._recover_and_count(target)
        assert count == 5  # applied once, not twice
        assert info["duplicates"] == 1
        assert info["truncate_reason"] is None

    def test_lsn_gap_stops_the_scan_and_drops_later_segments(self, tmp_path):
        target, wal_dir = self._make_db(tmp_path)
        path = segment_paths(wal_dir)[-1]
        offsets, raw = record_offsets(path)
        # splice out a middle record: later records are unreachable
        with open(path, "wb") as handle:
            handle.write(raw[: offsets[2]] + raw[offsets[3]:])
        count, info = self._recover_and_count(target)
        assert count == 1  # records before the gap only (create + insert 0)
        assert "lsn gap" in info["truncate_reason"]

    def test_missing_records_before_the_log_raise(self, tmp_path):
        import json

        target, wal_dir = self._make_db(tmp_path)
        db = Database.open(target)  # attach and checkpoint
        db.save(target)
        db.execute("INSERT INTO t VALUES (100)")
        db.close()
        meta_path = os.path.join(target, "catalog.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["wal"]["checkpoint_lsn"] -= 2  # pretend the image is older
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(WalError, match="missing records"):
            Database.open(target)


class TestCheckpoint:
    def test_save_rotates_and_prunes(self, tmp_path):
        target = str(tmp_path / "db")
        wal_dir = default_wal_directory(target)
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert len(segment_paths(wal_dir)) == 1
        db.save(target)
        assert db.wal_stats()["checkpoints"] == 1
        # the pre-checkpoint segment is pruned, a fresh one is live
        paths = segment_paths(wal_dir)
        assert len(paths) == 1
        assert paths[0].endswith("seg-00000002.wal")
        db.execute("INSERT INTO t VALUES (2)")
        db.close()

        recovered = Database.open(target, durability="off")
        assert recovered.recovery_info["replayed"] == 1  # just the insert
        assert recovered.recovery_info["skipped"] == 0
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 2
        recovered.close()

    def test_backup_save_does_not_steal_the_log(self, tmp_path):
        target = str(tmp_path / "db")
        backup = str(tmp_path / "backup")
        wal_dir = default_wal_directory(target)
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.save(target)  # pairs the log with `target`
        db.execute("INSERT INTO t VALUES (2)")
        before = segment_paths(wal_dir)
        db.save(backup)  # a backup copy elsewhere
        assert segment_paths(wal_dir) == before  # no rotation, no prune
        db.execute("INSERT INTO t VALUES (3)")
        db.close()

        # the primary still recovers everything...
        recovered = Database.open(target, durability="off")
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 3
        recovered.close()
        # ...and the backup loads standalone (without the live log)
        loaded = Database.load(backup)
        assert loaded.execute("SELECT count(*) FROM t").scalar() == 2
        loaded.close()

    def test_explicit_snapshot_save_rejected_when_durable(self, tmp_path):
        target = str(tmp_path / "db")
        from repro.persist import save_database

        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        snapshot = db.pin_snapshot()
        with pytest.raises(WalError, match="snapshot"):
            save_database(db, target, snapshot=snapshot)
        db.close()

    def test_create_refuses_existing_segments(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        db.close()
        with pytest.raises(WalError, match="Database.open"):
            Database(
                durability="commit",
                wal_dir=default_wal_directory(target),
            )

    def test_load_raises_without_image_or_log(self, tmp_path):
        missing = str(tmp_path / "nothing")
        with pytest.raises(ReproError, match="not a saved database"):
            Database.load(missing)
        # open() treats the same directory as create-fresh
        db = Database.open(missing, durability="commit")
        assert db.catalog.table_names() == []
        db.close()


class TestInterruptedSaveCleanup:
    def _saved_db(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.save(target)
        db.close()
        return target

    def test_stray_staging_dir_is_removed(self, tmp_path):
        target = self._saved_db(tmp_path)
        stray = tmp_path / "db.saving-deadbeef"
        stray.mkdir()
        (stray / "half.npy").write_bytes(b"junk")
        db = Database.load(target)
        assert db.execute("SELECT count(*) FROM t").scalar() == 1
        assert not stray.exists()
        db.close()

    def test_displaced_old_image_is_restored(self, tmp_path):
        target = self._saved_db(tmp_path)
        holding = tmp_path / "db.replaced-cafe"
        holding.mkdir()
        # simulate a kill between rename-aside and rename-into-place
        os.rename(target, holding / "old")
        db = Database.load(target)
        assert db.execute("SELECT count(*) FROM t").scalar() == 1
        assert not holding.exists()
        db.close()

    def test_leftover_holding_dir_with_live_target_is_dropped(self, tmp_path):
        target = self._saved_db(tmp_path)
        holding = tmp_path / "db.replaced-beef"
        (holding / "old").mkdir(parents=True)
        (holding / "old" / "catalog.json").write_text("{}")
        db = Database.load(target)
        assert db.execute("SELECT count(*) FROM t").scalar() == 1
        assert not holding.exists()
        db.close()


class TestGroupCommit:
    def test_batch_concurrent_writers_all_durable(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="batch")
        db.execute("CREATE TABLE t (a INT)")

        def worker(base):
            for i in range(15):
                db.execute(f"INSERT INTO t VALUES ({base + i})")

        threads = [
            threading.Thread(target=worker, args=(k * 100,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = db.wal_stats()
        assert db.execute("SELECT count(*) FROM t").scalar() == 120
        assert stats["syncs"] <= stats["sync_requests"]
        assert stats["synced_lsn"] == stats["last_lsn"]
        db.close()

        recovered = Database.open(target, durability="off")
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 120
        recovered.close()

    def test_batch_coalesces_while_leader_holds_the_fsync(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path / "wal"), durability="batch"
        )
        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        calls = []

        def slow_fsync(fd):
            calls.append(fd)
            entered.set()
            release.wait(5)
            real_fsync(fd)

        with wal.mutex:
            first = wal.log_simple("drop_table", table="x")
        leader = threading.Thread(target=wal.sync, args=(first,))
        try:
            os.fsync = slow_fsync
            leader.start()
            assert entered.wait(5)
            # followers append while the leader's fsync is in flight
            followers = []
            with wal.mutex:
                for _ in range(4):
                    followers.append(wal.log_simple("drop_table", table="x"))
            waiters = [
                threading.Thread(target=wal.sync, args=(lsn,))
                for lsn in followers
            ]
            for thread in waiters:
                thread.start()
            release.set()
            leader.join(5)
            for thread in waiters:
                thread.join(5)
        finally:
            os.fsync = real_fsync
            release.set()
        assert wal.synced_lsn == followers[-1]
        # 5 commits, far fewer fsyncs than commits (1 leader pass + the
        # next leader's pass for the followers)
        assert wal.syncs <= 2
        wal.close()


class TestFaultInjector:
    def test_error_action_raises_in_process(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(
            target, durability="commit", faults="wal.append.before:error:2"
        )
        db.execute("CREATE TABLE t (a INT)")  # hit 1: not armed yet
        with pytest.raises(FaultInjectedError):
            db.execute("INSERT INTO t VALUES (1)")  # hit 2: fires
        # DML logs *before* the version install, so the failed insert
        # left neither a record nor a visible row
        assert db.execute("SELECT count(*) FROM t").scalar() == 0
        db.execute("INSERT INTO t VALUES (2)")  # one-shot: works again
        db.close()
        recovered = Database.open(target, durability="off")
        assert recovered.execute("SELECT * FROM t").rows() == [(2,)]
        recovered.close()

    def test_count_arms_nth_hit_and_fires_once(self):
        injector = FaultInjector("p:error:3")
        injector.fire("p")
        injector.fire("p")
        with pytest.raises(FaultInjectedError):
            injector.fire("p")
        injector.fire("p")  # one-shot: the 4th hit is silent
        assert injector.hits["p"] == 4

    def test_dict_spec_and_unknown_points_ignored(self):
        injector = FaultInjector({"a.b": "error"})
        injector.fire("other.point")
        with pytest.raises(FaultInjectedError):
            injector.fire("a.b")

    @pytest.mark.parametrize(
        "spec", ["", ":error", "p:smash", "p:error:0", "p:error:x", "p:a:b:c"]
    )
    def test_bad_specs_rejected(self, spec):
        if spec == "":
            assert FaultInjector(spec)._rules == {}
            return
        with pytest.raises(WalError, match="crashpoint"):
            FaultInjector(spec)

    def test_coerce_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRASHPOINT", "x.y:error:2")
        injector = FaultInjector.coerce(None)
        assert injector is not None
        injector.fire("x.y")
        with pytest.raises(FaultInjectedError):
            injector.fire("x.y")
        monkeypatch.delenv("REPRO_CRASHPOINT")
        assert FaultInjector.coerce(None) is None

    def test_failed_statement_leaves_no_record(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database.open(target, durability="commit")
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(ReproError):
            db.execute("INSERT INTO t VALUES ('not an int', 2)")
        last = db.wal_stats()["last_lsn"]
        db.close()
        scan = scan_wal(default_wal_directory(target), repair=False)
        assert scan.last_lsn == last == 1  # only the CREATE
