"""Compressed storage equivalence: a ``Database()`` must be bit-identical
to one holding the same data in plain storage
(``reference_exec.PlainDatabase``: no resting encodings, no zone maps,
no zone pruning) across the fuzz grammars, DML on encoded columns, MVCC
snapshots spanning an encoding change, and the zone-map skip path —
plus unit coverage of the encodings and zone maps themselves, and the
re-factorize-cliff regression test.
"""

import random

import numpy as np
import pytest

from repro import Database, ReproError
from repro.storage import Column, DataType, choose_encoding, encode_columns
from repro.storage.encoding import factorize_counters
from repro.storage.zonemap import (
    ZonePredicate,
    build_column_zone_map,
    select_zone_spans,
)
from reference_exec import PlainDatabase
from test_fuzz import random_graph_query, random_predicate, random_query

FUZZ_SETUP = """
    CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
    CREATE TABLE t2 (a INT, d INT);
    CREATE TABLE e (s INT, d INT, w INT);
    INSERT INTO t1 VALUES
        (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL);
    INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50);
    INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
"""


def _bulk_rows(n):
    """Mixed-type rows with NULL/NaN edge cases and skewed domains."""
    rows = []
    for i in range(n):
        rows.append(
            (
                i,
                None if i % 13 == 0 else f"g{i % 5}",
                float("nan") if i % 17 == 0 else (None if i % 11 == 0 else i / 8),
                i % 2 == 0,
            )
        )
    return rows


def _paired(n=4000):
    """The same data in a compressed database and the plain oracle."""
    pair = []
    for db in (Database(), PlainDatabase(Database())):
        db.executescript(FUZZ_SETUP)
        db.execute("CREATE TABLE big (id BIGINT, grp VARCHAR, val DOUBLE, flag BOOLEAN)")
        db.insert_rows("big", _bulk_rows(n))
        db.execute("ANALYZE")
        pair.append(db)
    return pair


@pytest.fixture(scope="module")
def paired():
    return _paired()


def _assert_same(db_a, db_b, sql):
    """Both engines produce identical rows (repr compares NaN == NaN),
    or both refuse with a declared error."""
    try:
        rows_a = db_a.execute(sql).rows()
    except ReproError as exc_a:
        with pytest.raises(ReproError):
            db_b.execute(sql).rows()
        return
    rows_b = db_b.execute(sql).rows()
    assert repr(rows_a) == repr(rows_b), sql


class TestEncodingUnits:
    def test_dict_round_trip_with_nulls(self):
        values = np.array(
            ["b", "a", None, "b", "c", "a", None, "b"] * 4, dtype=object
        )
        mask = np.array([v is None for v in values])
        column = Column(DataType.VARCHAR, values, mask)
        enc = choose_encoding(column)
        assert enc is not None and enc.kind == "dict"
        data, out_mask = enc.materialize()
        assert [None if out_mask[i] else data[i] for i in range(len(values))] == [
            v for v in values
        ]
        codes, card, uniques = enc.factorize(False)
        p_codes, p_card, p_uniques = Column(
            DataType.VARCHAR, values, mask
        ).factorize()
        assert card == p_card
        assert np.array_equal(codes, p_codes)
        assert list(uniques) == list(p_uniques)

    def test_rle_round_trip(self):
        data = np.repeat(np.array([7, 7, 3, 9], dtype=np.int64), 50)
        mask = np.zeros(len(data), dtype=bool)
        mask[25:30] = True
        column = Column(DataType.BIGINT, data, mask)
        enc = choose_encoding(column)
        assert enc is not None and enc.kind == "rle"
        out, out_mask = enc.materialize()
        assert np.array_equal(out, data)
        assert np.array_equal(out_mask, mask)

    def test_pack_round_trip_is_bit_exact(self):
        data = (np.arange(500, dtype=np.int64) % 200) + 1_000_000
        column = Column(DataType.BIGINT, data, None)
        enc = choose_encoding(column)
        assert enc is not None and enc.kind == "pack"
        out, out_mask = enc.materialize()
        assert out.dtype == data.dtype
        assert np.array_equal(out, data)
        assert out_mask is None

    def test_nan_floats_are_never_encoded(self):
        data = np.ones(1000)
        data[500] = float("nan")
        assert choose_encoding(Column(DataType.DOUBLE, data, None)) is None

    def test_encode_columns_is_idempotent(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.insert_rows("t", [(i % 3,) for i in range(300)])
        version = db.table("t").current()
        first = encode_columns(version)
        assert first == 1
        assert encode_columns(version) == 0  # already resting

    def test_transparent_decode_caches(self):
        db = Database()
        db.execute("CREATE TABLE t (s VARCHAR)")
        db.insert_rows("t", [("ab" if i % 2 else "cd",) for i in range(200)])
        db.execute("ANALYZE")
        column = db.table("t").current().column("s")
        assert column.encoding is not None
        assert column.data[0] == "cd" and column.data[1] == "ab"
        assert column.data is column.data  # decoded once, then cached


    @pytest.mark.parametrize(
        "values, kind",
        [
            ([-0.0] * 3 + [0.0] * 3 + [2.0] * 20_000, "rle"),
            ([-0.0, 0.0, 2.0, 3.0] * 5_000, "plain"),
        ],
        ids=["runs", "dictionary-sized"],
    )
    def test_signed_zeros_survive_analyze_save_load(self, tmp_path, values, kind):
        import math

        db = Database()
        db.execute("CREATE TABLE t (x DOUBLE)")
        db.table("t").insert_columns(
            [Column(DataType.DOUBLE, np.array(values, dtype=np.float64))]
        )
        db.execute("ANALYZE")
        assert db.table("t").current().column("x").resting_info()[0] == kind
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        for source in (db, loaded):
            got = [row[0] for row in source.execute("SELECT x FROM t").rows()]
            assert len(got) == len(values)
            assert [math.copysign(1.0, v) for v in got] == [
                math.copysign(1.0, v) for v in values
            ]


class TestZoneMapUnits:
    def test_comparison_keep_masks(self):
        column = Column(DataType.BIGINT, np.arange(100, dtype=np.int64), None)
        zm = build_column_zone_map(column, granularity=25)
        assert zm.n_zones == 4
        assert list(zm.keep_mask("=", [30])) == [False, True, False, False]
        assert list(zm.keep_mask("<", [25])) == [True, False, False, False]
        assert list(zm.keep_mask(">=", [75])) == [False, False, False, True]
        assert list(zm.keep_mask("in", [10, 90])) == [True, False, False, True]

    def test_nan_zones_stay_conservative(self):
        data = np.arange(50, dtype=np.float64)
        data[10:20] = float("nan")  # second half of zone 0 (gran 20)
        column = Column(DataType.DOUBLE, data, None)
        zm = build_column_zone_map(column, granularity=20)
        # NaNs are excluded from min/max, never poisoning them to NaN —
        # zone 0 still matches its real values and only them
        assert list(zm.keep_mask("=", [5])) == [True, False, False]
        assert list(zm.keep_mask(">", [45])) == [False, False, True]

    def test_all_null_zone_skippable_by_comparison_kept_by_isnull(self):
        data = np.zeros(40, dtype=np.int64)
        mask = np.zeros(40, dtype=bool)
        mask[:20] = True  # zone 0 is all NULL
        data[20:] = np.arange(20)
        column = Column(DataType.BIGINT, data, mask)
        zm = build_column_zone_map(column, granularity=20)
        assert list(zm.keep_mask(">=", [0])) == [False, True]
        assert list(zm.keep_mask("isnull", [])) == [True, False]
        assert list(zm.keep_mask("notnull", [])) == [False, True]

    def test_select_zone_spans_merges_adjacent(self):
        db = Database()
        db.execute("CREATE TABLE t (x BIGINT)")
        db.insert_rows("t", [(i,) for i in range(100)])
        version = db.table("t").current()
        zf = ZonePredicate("x", "<", (("lit", 50),))
        spans, skipped, total = select_zone_spans(
            version, [zf], (), granularity=10
        )
        assert spans == [(0, 50)]  # five kept morsels merged into one span
        assert (skipped, total) == (5, 10)

    def test_unresolvable_operand_keeps_everything(self):
        db = Database()
        db.execute("CREATE TABLE t (x BIGINT)")
        db.insert_rows("t", [(i,) for i in range(100)])
        version = db.table("t").current()
        zf = ZonePredicate("x", "=", (("param", 3),))  # no such param
        spans, skipped, total = select_zone_spans(
            version, [zf], (), granularity=10
        )
        assert spans is None and skipped == 0


class TestFuzzEquivalence:
    """Compressed vs plain storage over the test_fuzz grammars."""

    def test_plain_side_stores_every_column_plain(self, paired):
        db_c, db_p = paired
        encoded = db_c.table("big").current().resting_info()
        plain = db_p.table("big").current().resting_info()
        assert any(kind != "plain" for kind, _ in encoded.values())
        assert all(kind == "plain" for kind, _ in plain.values())

    def test_random_queries_bit_identical(self, paired):
        db_c, db_p = paired
        rng = random.Random(2024)
        for _ in range(120):
            _assert_same(db_c, db_p, random_query(rng))

    def test_random_graph_queries_bit_identical(self, paired):
        db_c, db_p = paired
        rng = random.Random(77)
        for _ in range(60):
            _assert_same(db_c, db_p, random_graph_query(rng))

    def test_bulk_table_with_null_nan_edge_cases(self, paired):
        db_c, db_p = paired
        queries = [
            "SELECT grp, COUNT(*), SUM(val), MIN(id), MAX(id) "
            "FROM big GROUP BY grp ORDER BY grp",
            "SELECT COUNT(*) FROM big WHERE val IS NULL",
            "SELECT COUNT(*) FROM big WHERE grp IS NOT NULL AND id < 100",
            "SELECT DISTINCT flag FROM big ORDER BY flag",
            "SELECT id, val FROM big WHERE id IN (0, 17, 3999) ORDER BY id",
            "SELECT b1.id FROM big b1 JOIN big b2 ON b1.grp = b2.grp "
            "WHERE b1.id < 4 AND b2.id < 4 ORDER BY 1",
            "SELECT val FROM big ORDER BY val LIMIT 20",
        ]
        for sql in queries:
            _assert_same(db_c, db_p, sql)

    def test_random_predicates_on_encoded_bulk_table(self, paired):
        db_c, db_p = paired
        rng = random.Random(5150)
        for _ in range(40):
            sql = (
                "SELECT a, b, c FROM t1 "
                f"WHERE {random_predicate(rng)} ORDER BY 1, 2, 3"
            )
            _assert_same(db_c, db_p, sql)


class TestDMLOnEncodedColumns:
    """Writes against encoded tables: new versions decode transparently."""

    def test_update_insert_delete_after_analyze(self):
        db_c, db_p = _paired(600)
        statements = [
            "UPDATE big SET grp = 'patched' WHERE id % 50 = 0",
            "INSERT INTO big VALUES (9001, NULL, 2.5, TRUE)",
            "DELETE FROM big WHERE id BETWEEN 100 AND 120",
            "UPDATE big SET val = NULL WHERE id > 550",
        ]
        check = "SELECT * FROM big ORDER BY id"
        for sql in statements:
            db_c.execute(sql)
            db_p.execute(sql)
            _assert_same(db_c, db_p, check)

    def test_untouched_columns_keep_their_resting_encoding(self):
        db = Database()
        db.execute("CREATE TABLE t (x BIGINT, s VARCHAR)")
        db.insert_rows("t", [(i, f"g{i % 3}") for i in range(500)])
        db.execute("ANALYZE")
        before = db.table("t").current().resting_info()
        assert before["s"][0] == "dict"
        db.execute("INSERT INTO t VALUES (999, 'g0')")
        # the write built fresh columns; re-ANALYZE re-encodes them
        db.execute("ANALYZE")
        after = db.table("t").current().resting_info()
        assert after["s"][0] == "dict"
        assert db.execute("SELECT count(*) FROM t").scalar() == 501


class TestMVCCAcrossEncoding:
    def test_pinned_snapshot_spans_an_encoding_change(self):
        db = Database()
        db.execute("CREATE TABLE t (x BIGINT, s VARCHAR)")
        db.insert_rows("t", [(i, f"g{i % 4}") for i in range(400)])
        reader = db.connect()
        reader.execute("BEGIN")
        first = reader.execute("SELECT * FROM t ORDER BY x").rows()
        # outside the transaction: encode the resting format, then commit
        # a write on top of it
        db.execute("ANALYZE")
        db.execute("UPDATE t SET s = 'rewritten' WHERE x < 100")
        again = reader.execute("SELECT * FROM t ORDER BY x").rows()
        assert repr(again) == repr(first)  # snapshot unmoved by either
        reader.execute("COMMIT")
        after = reader.execute(
            "SELECT count(*) FROM t WHERE s = 'rewritten'"
        ).scalar()
        assert after == 100


class TestFactorizeCliffRegression:
    def test_repeated_group_by_never_reencodes_an_encoded_column(
        self, monkeypatch
    ):
        import repro.storage.column as column_module

        # force the memo off entirely: without resting encodings every
        # statement would pay a fresh sort-based encode (the old cliff)
        monkeypatch.setattr(column_module, "FACTORIZE_MEMO_MAX_ROWS", 0)
        db = Database()
        db.execute("CREATE TABLE t (g VARCHAR, v BIGINT)")
        db.insert_rows("t", [(f"g{i % 7}", i) for i in range(5000)])
        db.execute("ANALYZE")
        assert db.table("t").current().resting_info()["g"][0] == "dict"
        # no ORDER BY: sorting would factorize the (tiny, fresh)
        # aggregate output column each statement, which is not the cliff
        sql = "SELECT g, SUM(v) FROM t GROUP BY g"
        first = sorted(db.execute(sql).rows())
        baseline = factorize_counters.snapshot()
        for _ in range(3):
            assert sorted(db.execute(sql).rows()) == first
        after = factorize_counters.snapshot()
        assert after["encodes"] == baseline["encodes"]  # zero re-encodes
        assert after["resting_hits"] > baseline["resting_hits"]


class TestZoneSkipEndToEnd:
    def test_selective_scan_skips_morsels_and_matches_oracle(self):
        n = 140_000  # > 2 morsels at the default 64Ki granularity
        db_c = Database()
        db_p = PlainDatabase(Database())
        for db in (db_c, db_p):
            db.execute("CREATE TABLE m (id BIGINT, v DOUBLE)")
            db.insert_rows("m", [(i, i / 2) for i in range(n)])
            db.execute("ANALYZE")
        sql = "SELECT id, v FROM m WHERE id = 139999"
        assert repr(db_c.execute(sql).rows()) == repr(db_p.execute(sql).rows())
        stats = db_c.storage_stats()
        assert stats["morsels_skipped"] > 0
        assert db_p.storage_stats()["morsels_skipped"] == 0
        # ranges and IN skip too, and stay correct
        for sql in [
            "SELECT count(*) FROM m WHERE id >= 139000",
            "SELECT count(*) FROM m WHERE id IN (1, 70000, 139999)",
            "SELECT sum(v) FROM m WHERE id < 1000",
        ]:
            _assert_same(db_c, db_p, sql)
        assert db_c.storage_stats()["morsels_skipped"] > stats["morsels_skipped"]


def _memo_bytes(db, table) -> dict:
    version = db.table(table).current()
    return {
        c.name: sum(
            codes.nbytes + (uniques.nbytes if uniques is not None else 0)
            for codes, _, uniques in (column._fact_memo or {}).values()
        )
        for c, column in zip(version.schema, version.columns)
    }


class TestAnalyzeFootprint:
    """ANALYZE keeps statistics and resting encodings, nothing more."""

    def test_analyze_leaves_no_factorize_memo(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(29)
        db = Database()
        db.execute("CREATE TABLE t (id BIGINT, grp VARCHAR, v DOUBLE)")
        db.appender("t").append(
            {
                "id": np.arange(n),
                "grp": np.array([f"g{i % 50}" for i in range(n)], dtype=object),
                "v": rng.random(n),
            }
        )
        db.analyze()
        kinds = {k: v[0] for k, v in db.table("t").current().resting_info().items()}
        assert kinds["id"] == "pack" and kinds["grp"] == "dict"
        assert _memo_bytes(db, "t") == {"id": 0, "grp": 0, "v": 0}
        stats = db.table_stats()["t"].columns
        db.save(str(tmp_path / "img"))
        db.close()
        loaded = Database.load(str(tmp_path / "img"))
        try:
            loaded.analyze()
            assert _memo_bytes(loaded, "t") == {"id": 0, "grp": 0, "v": 0}
            assert loaded.table_stats()["t"].columns == stats
        finally:
            loaded.close()

    def test_analyze_on_a_loaded_image_decodes_no_packed_column(self, tmp_path):
        rng = np.random.default_rng(7)
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT)")
        db.appender("t").append({"k": rng.integers(-1000, 400_000, 400_000)})
        db.analyze()
        stats = db.table_stats()["t"].columns["k"]
        db.save(str(tmp_path / "img"))
        db.close()
        loaded = Database.load(str(tmp_path / "img"))
        try:
            column = loaded.table("t").current().columns[0]
            assert column.encoding.kind == "pack" and column._data is None
            loaded.analyze()
            assert column._data is None  # min/max came from two rows
            assert loaded.table_stats()["t"].columns["k"] == stats
            assert (stats.min_value, stats.max_value) == (-998, 399998)
        finally:
            loaded.close()
