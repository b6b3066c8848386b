"""Bulk-ingest correctness: the appender / COPY fast path must be
bit-identical to row-at-a-time INSERT.

The row path is the oracle: every fuzz case loads the same values once
through ``Session.executemany`` INSERTs and once through
:class:`repro.api.Appender` (or ``COPY``), then compares the resting
column arrays and null masks exactly — same dtypes, same NaNs, same
mask normalization.  Transactional cases check bulk appends obey MVCC
like any DML: buffered in the transaction, invisible to concurrent
snapshots until COMMIT, first-committer-wins on conflict.

The zone-map regression class pins the append-side staleness fix:
appending to a table whose columns carry zone maps *extends* the maps
over the new tail (intact zones preserved, no full rescan, no
re-ANALYZE) and selective scans keep skipping morsels afterwards.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import Database, TypeError_
from repro.errors import BindError, TransactionConflictError
from repro.storage import (
    ZONE_ROWS,
    Column,
    DataType,
    bulk_column,
    bulk_columns,
    zone_map_for,
)

ALL_TYPES = [
    DataType.BOOLEAN,
    DataType.INTEGER,
    DataType.BIGINT,
    DataType.DOUBLE,
    DataType.VARCHAR,
    DataType.DATE,
]

TYPE_NAMES = {
    DataType.BOOLEAN: "BOOLEAN",
    DataType.INTEGER: "INTEGER",
    DataType.BIGINT: "BIGINT",
    DataType.DOUBLE: "DOUBLE",
    DataType.VARCHAR: "VARCHAR",
    DataType.DATE: "DATE",
}


def random_value(rng: random.Random, type_):
    if type_ == DataType.BOOLEAN:
        return rng.random() < 0.5
    if type_ == DataType.INTEGER:
        return rng.randint(-(2**31), 2**31 - 1)
    if type_ == DataType.BIGINT:
        return rng.randint(-(2**62), 2**62)
    if type_ == DataType.DOUBLE:
        if rng.random() < 0.1:
            return float("nan")  # NaN is a value, not NULL
        return rng.uniform(-1e6, 1e6)
    if type_ == DataType.VARCHAR:
        return "".join(rng.choice("abcdeé ") for _ in range(rng.randint(0, 8)))
    if type_ == DataType.DATE:
        return f"{rng.randint(1990, 2030):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    raise AssertionError(type_)


def random_vector(rng: random.Random, type_, n: int, *, null_rate=0.15):
    return [
        None if rng.random() < null_rate else random_value(rng, type_)
        for _ in range(n)
    ]


def column_state(column: Column):
    data = np.asarray(column.data)
    mask = column.mask
    return data, None if mask is None else np.asarray(mask)


def assert_columns_identical(got: Column, want: Column) -> None:
    gd, gm = column_state(got)
    wd, wm = column_state(want)
    assert got.type == want.type
    assert gd.dtype == wd.dtype
    assert (gm is None) == (wm is None)
    if gm is not None:
        assert np.array_equal(gm, wm)
    live = ~gm if gm is not None else np.ones(len(gd), dtype=bool)
    if gd.dtype.kind == "f":
        assert np.array_equal(gd[live], wd[live], equal_nan=True)
    elif gd.dtype == object:
        assert list(gd[live]) == list(wd[live])
    else:
        assert np.array_equal(gd[live], wd[live])


def assert_tables_identical(db_a: Database, db_b: Database, name: str) -> None:
    va, vb = db_a.table(name).current(), db_b.table(name).current()
    assert va.num_rows == vb.num_rows
    for ca, cb in zip(va.columns, vb.columns):
        assert_columns_identical(ca, cb)


def fresh_pair(columns: list[tuple[str, DataType]]):
    ddl = "CREATE TABLE t (%s)" % ", ".join(
        f"{n} {TYPE_NAMES[t]}" for n, t in columns
    )
    db_bulk, db_rows = Database(), Database()
    db_bulk.execute(ddl)
    db_rows.execute(ddl)
    return db_bulk, db_rows


# ---------------------------------------------------------------------------
# bulk_column / bulk_columns unit level
# ---------------------------------------------------------------------------
class TestBulkColumn:
    @pytest.mark.parametrize("type_", ALL_TYPES)
    def test_list_path_matches_from_values(self, type_):
        rng = random.Random(hash(type_.name) & 0xFFFF)
        values = random_vector(rng, type_, 257)
        got = bulk_column(type_, values)
        want = Column.from_values(type_, values)
        assert_columns_identical(got, want)

    def test_vector_path_matches_row_coercion(self):
        rng = np.random.default_rng(11)
        ints = rng.integers(-(2**31), 2**31 - 1, size=1000)
        doubles = rng.normal(size=1000)
        doubles[::17] = np.nan
        for type_, arr in [
            (DataType.INTEGER, ints.astype(np.int64)),
            (DataType.BIGINT, ints),
            (DataType.DOUBLE, doubles),
            (DataType.BOOLEAN, ints % 2 == 0),
            (DataType.DATE, np.abs(ints) % 100000),
        ]:
            got = bulk_column(type_, arr)
            want = Column.from_values(type_, list(arr))
            assert_columns_identical(got, want)

    def test_integral_floats_accepted_fractional_rejected(self):
        col = bulk_column(DataType.BIGINT, np.array([1.0, 2.0, 3.0]))
        assert list(col.data) == [1, 2, 3] and col.data.dtype == np.int64
        with pytest.raises(TypeError_):
            bulk_column(DataType.BIGINT, np.array([1.0, 2.5]))
        with pytest.raises(TypeError_):
            bulk_column(DataType.INTEGER, np.array([1.0, np.nan]))

    def test_integer_range_check(self):
        with pytest.raises(TypeError_):
            bulk_column(DataType.INTEGER, np.array([2**40], dtype=np.int64))

    def test_float_range_check_is_exact(self):
        with pytest.raises(TypeError_, match="out of BIGINT range"):
            bulk_column(DataType.BIGINT, np.array([2.0**63]))
        col = bulk_column(DataType.BIGINT, np.array([-(2.0**63), 2.0**62]))
        assert list(col.data) == [-(2**63), 2**62]

    def test_type_mismatches_rejected(self):
        with pytest.raises(TypeError_):
            bulk_column(DataType.BOOLEAN, np.array([1, 0]))
        # no float is a date, integral or not, in either form
        with pytest.raises(TypeError_):
            bulk_column(DataType.DATE, np.array([1.0]))
        with pytest.raises(TypeError_):
            bulk_column(DataType.DATE, [1.0])
        with pytest.raises(TypeError_):
            bulk_column(DataType.VARCHAR, [1, 2])
        with pytest.raises(TypeError_):
            bulk_column(DataType.INTEGER, np.zeros((2, 2)))

    def test_unicode_array_takes_coercion_path(self):
        got = bulk_column(DataType.VARCHAR, np.array(["a", "bb", "ccc"]))
        assert got.data.dtype == object and list(got.data) == ["a", "bb", "ccc"]

    def test_unicode_array_matches_list_as_python_str(self, db):
        words = ["a", "bb", "", "ccc"]
        from_array = bulk_column(DataType.VARCHAR, np.array(words))
        assert_columns_identical(
            from_array, bulk_column(DataType.VARCHAR, words)
        )
        assert all(type(v) is str for v in from_array.data)
        db.execute("CREATE TABLE t (s VARCHAR)")
        db.appender("t").append([np.array(words)])
        rows = db.execute("SELECT s FROM t").rows()
        assert rows == [(w,) for w in words]
        assert all(type(s) is str for (s,) in rows)

    def test_bulk_columns_fills_missing_with_nulls(self):
        from repro.storage import Schema

        schema = Schema([("a", DataType.INTEGER), ("b", DataType.VARCHAR)])
        cols = bulk_columns(schema, {"a": [1, 2, 3]})
        assert cols[1].mask is not None and bool(cols[1].mask.all())

    def test_bulk_columns_rejects_bad_shapes(self):
        from repro.storage import Schema

        schema = Schema([("a", DataType.INTEGER), ("b", DataType.VARCHAR)])
        with pytest.raises(TypeError_):
            bulk_columns(schema, {"nope": [1]})
        with pytest.raises(TypeError_):
            bulk_columns(schema, [[1, 2], ["x"]])
        with pytest.raises(TypeError_):
            bulk_columns(schema, [[1, 2]], columns=["a", "b"])


# ---------------------------------------------------------------------------
# appender vs row INSERT fuzz
# ---------------------------------------------------------------------------
class TestAppenderEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_bit_identical(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 5)
        columns = [
            (f"c{i}", rng.choice(ALL_TYPES)) for i in range(width)
        ]
        db_bulk, db_rows = fresh_pair(columns)
        placeholders = ", ".join("?" for _ in columns)
        app = db_bulk.appender("t")
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(0, 300)
            vectors = [random_vector(rng, t, n) for _, t in columns]
            app.append(vectors)
            with db_rows.connect() as session:
                session.executemany(
                    f"INSERT INTO t VALUES ({placeholders})",
                    list(zip(*vectors)) if n else [],
                )
            if rng.random() < 0.3:  # resting encodings mid-stream
                db_bulk.execute("ANALYZE t")
                db_rows.execute("ANALYZE t")
            assert_tables_identical(db_bulk, db_rows, "t")

    def test_numpy_batches_match_row_inserts(self):
        db_bulk, db_rows = fresh_pair(
            [("a", DataType.BIGINT), ("b", DataType.DOUBLE)]
        )
        rng = np.random.default_rng(3)
        a = rng.integers(0, 10**12, size=5000)
        b = rng.normal(size=5000)
        db_bulk.appender("t").append({"a": a, "b": b})
        with db_rows.connect() as session:
            session.executemany(
                "INSERT INTO t VALUES (?, ?)",
                [(int(x), float(y)) for x, y in zip(a, b)],
            )
        assert_tables_identical(db_bulk, db_rows, "t")

    def test_append_rows_convenience(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        assert db.appender("t").append_rows([(1, "x"), (None, None)]) == 2
        assert db.execute("SELECT * FROM t").rows() == [(1, "x"), (None, None)]

    def test_partial_columns_fill_nulls(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.appender("t").append([[1, 2]], columns=["a"])
        assert db.execute("SELECT * FROM t").rows() == [(1, None), (2, None)]

    def test_empty_append_is_noop(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        version_before = db.table("t").current().version_id
        assert db.appender("t").append({"a": []}) == 0
        assert db.table("t").current().version_id == version_before

    def test_closed_appender_rejects(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with db.appender("t") as app:
            app.append({"a": [1]})
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            app.append({"a": [2]})


# ---------------------------------------------------------------------------
# out-of-range integers: a typed error on every entry point
# ---------------------------------------------------------------------------
def _load_literal(db, tmp_path, value):
    db.execute(f"INSERT INTO t VALUES ({value})")


def _load_prepared(db, tmp_path, value):
    db.execute("INSERT INTO t VALUES (?)", (value,))


def _load_appender_list(db, tmp_path, value):
    db.appender("t").append([[1, value]])


def _load_appender_ndarray(db, tmp_path, value):
    # 2**40 fits an int64 array; 2**70 only an object array
    db.appender("t").append([np.array([1, value])])


def _load_copy_csv(db, tmp_path, value):
    path = tmp_path / "rows.csv"
    path.write_text(f"a\n1\n{value}\n")
    db.execute(f"COPY t FROM '{path}'")


@pytest.mark.parametrize(
    "load",
    [
        _load_literal,
        _load_prepared,
        _load_appender_list,
        _load_appender_ndarray,
        _load_copy_csv,
    ],
    ids=lambda load: load.__name__[len("_load_"):],
)
@pytest.mark.parametrize(
    "type_name, value",
    [("INTEGER", 2**40), ("BIGINT", 2**70)],
    ids=["INTEGER", "BIGINT"],
)
def test_out_of_range_integer_is_typed(db, tmp_path, load, type_name, value):
    db.execute(f"CREATE TABLE t (a {type_name})")
    with pytest.raises(TypeError_, match=f"out of {type_name} range"):
        load(db, tmp_path, value)
    assert db.execute("SELECT count(*) FROM t").scalar() == 0


def test_insert_select_arithmetic_overflow_is_typed(db):
    # INTEGER + INTEGER is labelled INTEGER but computed in int64
    db.execute("CREATE TABLE s (x INTEGER)")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute(f"INSERT INTO s VALUES ({2**31 - 1})")
    with pytest.raises(TypeError_, match="out of INTEGER range"):
        db.execute("INSERT INTO t SELECT x + 1 FROM s")
    assert db.execute("SELECT count(*) FROM t").scalar() == 0


def test_insert_select_arithmetic_keeps_int32_across_reopen(tmp_path):
    path = str(tmp_path / "db")
    db = Database.open(path, durability="commit")
    db.execute("CREATE TABLE s (x INTEGER)")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute(f"INSERT INTO s VALUES ({2**31 - 2}), (-5)")
    db.execute("INSERT INTO t SELECT x + 1 FROM s")
    assert db.table("t").current().columns[0].data.dtype == np.int32
    db.close()
    reopened = Database.open(path, durability="commit")
    try:
        assert reopened.recovery_info["replayed"] > 0
        assert reopened.execute("SELECT a FROM t ORDER BY a").rows() == [
            (-4,),
            (2**31 - 1,),
        ]
        assert reopened.table("t").current().columns[0].data.dtype == np.int32
    finally:
        reopened.close()


def test_insert_column_listed_twice_is_rejected(db):
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    with pytest.raises(BindError, match="'a' listed twice in INSERT"):
        db.execute("INSERT INTO t (a, a) VALUES (1, 2)")
    with pytest.raises(BindError, match="'a' listed twice in INSERT"):
        db.execute("INSERT INTO t (a, a) SELECT 1, 2")


# ---------------------------------------------------------------------------
# transactions and snapshots around bulk appends
# ---------------------------------------------------------------------------
class TestAppenderTransactions:
    def test_append_inside_transaction_buffers(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with db.connect() as session:
            session.begin()
            session.appender("t").append({"a": [1, 2, 3]})
            # visible to the transaction's own statements…
            assert session.execute("SELECT count(*) FROM t").scalar() == 3
            # …invisible to autocommit readers until COMMIT
            assert db.execute("SELECT count(*) FROM t").scalar() == 0
            session.commit()
        assert db.execute("SELECT count(*) FROM t").scalar() == 3

    def test_rollback_discards_bulk_append(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with db.connect() as session:
            session.begin()
            session.appender("t").append({"a": list(range(100))})
            session.rollback()
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_snapshot_reader_spans_bulk_commit(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.appender("t").append({"a": [1]})
        with db.connect() as reader:
            reader.begin()
            assert reader.execute("SELECT count(*) FROM t").scalar() == 1
            db.appender("t").append({"a": list(range(50))})  # autocommit
            # the reader's pinned snapshot must not see the bulk commit
            assert reader.execute("SELECT count(*) FROM t").scalar() == 1
            reader.commit()
        assert db.execute("SELECT count(*) FROM t").scalar() == 51

    def test_first_committer_wins_on_bulk_conflict(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        s1, s2 = db.connect(), db.connect()
        s1.begin()
        s2.begin()
        s1.appender("t").append({"a": [1]})
        s2.appender("t").append({"a": [2]})
        s1.commit()
        with pytest.raises(TransactionConflictError):
            s2.commit()

    def test_transactional_append_matches_row_path(self):
        db_bulk, db_rows = fresh_pair(
            [("a", DataType.INTEGER), ("b", DataType.VARCHAR)]
        )
        vectors = [[1, None, 3], ["x", "y", None]]
        with db_bulk.connect() as session:
            session.begin()
            session.appender("t").append(vectors)
            session.commit()
        with db_rows.connect() as session:
            session.begin()
            for row in zip(*vectors):
                session.execute("INSERT INTO t VALUES (?, ?)", row)
            session.commit()
        assert_tables_identical(db_bulk, db_rows, "t")


# ---------------------------------------------------------------------------
# COPY ... FROM
# ---------------------------------------------------------------------------
class TestCopy:
    def test_copy_csv_matches_inserts(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "a,b,c\n"
            "1,hello,1.5\n"
            "2,,2.5\n"
            ",world,\n"
        )
        columns = [
            ("a", DataType.INTEGER),
            ("b", DataType.VARCHAR),
            ("c", DataType.DOUBLE),
        ]
        db_bulk, db_rows = fresh_pair(columns)
        result = db_bulk.execute(f"COPY t FROM '{path}'")
        assert result.rowcount == 3
        with db_rows.connect() as session:
            session.executemany(
                "INSERT INTO t VALUES (?, ?, ?)",
                [(1, "hello", 1.5), (2, None, 2.5), (None, "world", None)],
            )
        assert_tables_identical(db_bulk, db_rows, "t")

    def test_copy_options(self, tmp_path, db):
        path = tmp_path / "rows.txt"
        path.write_text("1|x\n2|y\n")
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute(
            f"COPY t FROM '{path}' WITH (NO_HEADER, DELIMITER '|', FORMAT CSV)"
        )
        assert db.execute("SELECT * FROM t ORDER BY a").rows() == [
            (1, "x"),
            (2, "y"),
        ]

    def test_copy_column_list(self, tmp_path, db):
        path = tmp_path / "rows.csv"
        path.write_text("b\nonly\n")
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute(f"COPY t (b) FROM '{path}'")
        assert db.execute("SELECT * FROM t").rows() == [(None, "only")]

    def test_copy_npz(self, tmp_path, db):
        path = tmp_path / "batch.npz"
        np.savez(
            path,
            a=np.array([1, 2, 3], dtype=np.int64),
            b=np.array([0.5, np.nan, 1.5]),
        )
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)")
        assert db.execute(f"COPY t FROM '{path}'").rowcount == 3
        rows = db.execute("SELECT a FROM t ORDER BY a").rows()
        assert rows == [(1,), (2,), (3,)]

    def test_copy_inside_transaction(self, tmp_path, db):
        path = tmp_path / "rows.csv"
        path.write_text("a\n1\n2\n")
        db.execute("CREATE TABLE t (a INTEGER)")
        with db.connect() as session:
            session.begin()
            session.execute(f"COPY t FROM '{path}'")
            assert session.execute("SELECT count(*) FROM t").scalar() == 2
            assert db.execute("SELECT count(*) FROM t").scalar() == 0
            session.rollback()
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_copy_errors(self, tmp_path, db):
        from repro.errors import BindError, ExecutionError

        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(ExecutionError):
            db.execute("COPY t FROM '/nonexistent/file.csv'")
        path = tmp_path / "rows.csv"
        path.write_text("a\n1\n")
        with pytest.raises(BindError):
            db.execute(f"COPY t FROM '{path}' WITH (FORMAT XML)")
        with pytest.raises(BindError):
            db.execute(f"COPY t FROM '{path}' WITH (WHATEVER)")

    def test_copy_single_column_no_row_loop_semantics(self, tmp_path, db):
        # a ragged row raises, nothing partially applied
        from repro import TypeError_ as Te

        path = tmp_path / "bad.csv"
        path.write_text("a\n1\n1,2\n")
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(Te):
            db.execute(f"COPY t FROM '{path}'")
        assert db.execute("SELECT count(*) FROM t").scalar() == 0


# ---------------------------------------------------------------------------
# zone maps survive appends (the staleness fix)
# ---------------------------------------------------------------------------
class TestZoneMapExtension:
    def _seed(self, db, n):
        db.execute("CREATE TABLE t (k BIGINT, v DOUBLE)")
        rng = np.random.default_rng(5)
        db.appender("t").append(
            {"k": np.arange(n, dtype=np.int64), "v": rng.normal(size=n)}
        )

    def test_append_extends_zone_map_in_place(self, db):
        n = 3 * ZONE_ROWS + 123
        self._seed(db, n)
        column = db.table("t").current().columns[0]
        before = zone_map_for(column)  # lazily built, cached on the column
        assert before.n_rows == n
        tail = np.arange(n, n + ZONE_ROWS, dtype=np.int64)
        db.appender("t").append({"k": tail, "v": np.zeros(len(tail))})
        extended = db.table("t").current().columns[0]._zones[ZONE_ROWS]
        # present WITHOUT a scan or ANALYZE: extended at append time
        assert extended.n_rows == n + len(tail)
        intact = n // ZONE_ROWS
        assert np.array_equal(extended.mins[:intact], before.mins[:intact])
        assert np.array_equal(extended.maxs[:intact], before.maxs[:intact])
        # the old partial last zone was rescanned over old + new rows
        assert extended.mins[intact] == intact * ZONE_ROWS
        assert extended.maxs[-1] == n + len(tail) - 1

    def test_scans_keep_skipping_after_append(self, db):
        n = 3 * ZONE_ROWS
        self._seed(db, n)
        # selective scan builds + consults the zone maps
        sql = "SELECT count(*) FROM t WHERE k >= ?"
        assert db.execute(sql, (n - 5,)).scalar() == 5
        skipped_before = db.storage_stats()["morsels_skipped"]
        assert skipped_before > 0
        db.appender("t").append(
            {
                "k": np.arange(n, n + ZONE_ROWS, dtype=np.int64),
                "v": np.zeros(ZONE_ROWS),
            }
        )
        # no re-ANALYZE: the extended maps still zone-skip
        assert db.execute(sql, (n + ZONE_ROWS - 5,)).scalar() == 5
        assert db.storage_stats()["morsels_skipped"] > skipped_before

    def test_row_inserts_also_extend(self, db):
        n = ZONE_ROWS + 10
        self._seed(db, n)
        column = db.table("t").current().columns[0]
        zone_map_for(column)
        db.execute("INSERT INTO t VALUES (?, ?)", (10**9, 0.0))
        extended = db.table("t").current().columns[0]._zones[ZONE_ROWS]
        assert extended.n_rows == n + 1
        assert extended.maxs[-1] == 10**9
