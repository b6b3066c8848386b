"""The database server: wire protocol, admission control, lifecycle.

Every suite here drives a real asyncio server (:class:`ServerThread`)
over real sockets with the blocking client library — no mocked
transport.  A ``SlowDatabase`` subclass turns statements containing
``slow_marker`` into deterministic long-running work, which is how
saturation (backpressure), timeouts and graceful drain are exercised
without racing on real query runtimes.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import (
    BackpressureError,
    CatalogError,
    Database,
    ParseError,
    ProtocolError,
    ServerShutdownError,
    StatementTimeoutError,
    TransactionConflictError,
    TypeError_,
)
from repro.client import Client
from repro.server import ReproServer, ServerThread, default_queue_depth
from repro.server.protocol import HEADER, encode_frame, frame_length


class SlowDatabase(Database):
    """Statements containing ``slow_marker`` sleep before executing —
    a deterministic long statement for saturation/drain tests."""

    SLEEP = 0.6

    def execute(self, sql, params=(), *, session=None):
        if "slow_marker" in sql:
            time.sleep(self.SLEEP)
        return super().execute(sql, params, session=session)


def no_server_threads():
    names = [t.name for t in threading.enumerate() if t.is_alive()]
    return [n for n in names if n.startswith(("repro-serve", "repro-server"))]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        assert chunk, "server closed the connection mid-frame"
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# basics over the wire
# ---------------------------------------------------------------------------
class TestWireBasics:
    @pytest.fixture()
    def served(self):
        db = Database()
        with ServerThread(db) as st:
            yield st
        db.close()

    def test_ddl_dml_query_round_trip(self, served):
        with Client(*served.address) as client:
            assert client.execute("CREATE TABLE t (x INT, s VARCHAR)").rowcount == 0
            assert (
                client.execute(
                    "INSERT INTO t VALUES (?, ?), (?, ?)", (1, "a", 2, None)
                ).rowcount
                == 2
            )
            result = client.execute("SELECT x, s FROM t ORDER BY x")
            assert result.column_names == ["x", "s"]
            assert result.rows() == [(1, "a"), (2, None)]
            assert len(result) == 2 and result.is_query

    def test_dates_and_floats_round_trip_exactly(self, served):
        import datetime

        with Client(*served.address) as client:
            client.execute("CREATE TABLE t (d DATE, v DOUBLE)")
            client.execute(
                "INSERT INTO t VALUES (?, ?)", (datetime.date(2021, 2, 3), 0.1)
            )
            row = client.execute("SELECT d, v FROM t").rows()[0]
            assert row == (datetime.date(2021, 2, 3), 0.1)
            assert repr(row[1]) == "0.1"  # json round-trips repr exactly

    def test_scalar_and_to_dicts(self, served):
        with Client(*served.address) as client:
            assert client.execute("SELECT 40 + 2 AS answer").scalar() == 42
            assert client.execute("SELECT 1 AS a, 2 AS b").to_dicts() == [
                {"a": 1, "b": 2}
            ]

    def test_prepared_statement_reuse_hits_plan_cache(self, served):
        with Client(*served.address) as client:
            client.execute("CREATE TABLE t (x INT)")
            client.execute("INSERT INTO t VALUES (1), (2), (3)")
            stmt = client.prepare("SELECT sum(x) FROM t WHERE x >= ?")
            before = served.server.db.cache_stats()["plan_cache"]["hits"]
            assert stmt.execute((1,)).scalar() == 6
            assert stmt.execute((2,)).scalar() == 5
            assert stmt.execute((3,)).scalar() == 3
            after = served.server.db.cache_stats()["plan_cache"]["hits"]
            assert after >= before + 3
            stmt.close()
            with pytest.raises(ProtocolError, match="handle"):
                stmt.execute((1,))

    def test_ping_reports_stats(self, served):
        with Client(*served.address) as client:
            stats = client.ping()
            assert stats["connections"] == 1
            assert stats["admission"]["limit"] >= 1

    def test_unknown_op_is_typed_protocol_error(self, served):
        with Client(*served.address) as client:
            with pytest.raises(ProtocolError, match="unknown request op"):
                client._request({"op": "frobnicate"})

    def test_malformed_frame_answered_then_disconnected(self, served):
        host, port = served.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(HEADER.pack(9) + b"not json!")
            header = _recv_exactly(sock, HEADER.size)
            body = _recv_exactly(sock, frame_length(header))
            assert b"PROTOCOL_ERROR" in body
            assert sock.recv(1) == b""  # server hung up after answering

    def test_graph_query_paths_over_the_wire(self, served):
        with Client(*served.address) as client:
            client.execute("CREATE TABLE edges (s INT, d INT, w DOUBLE)")
            client.execute(
                "INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 2.0), (1, 3, 9.0)"
            )
            result = client.execute(
                "SELECT CHEAPEST SUM(e: w) AS (c, p) "
                "WHERE 1 REACHES 3 OVER edges e EDGE (s, d)"
            )
            cost, path = result.rows()[0]
            assert cost == 3.0
            assert path.to_rows() == [(1, 2, 1.0), (2, 3, 2.0)]
            assert path.column_names() == ["s", "d", "w"]


# ---------------------------------------------------------------------------
# typed errors over the wire
# ---------------------------------------------------------------------------
class TestTypedErrorsOverWire:
    @pytest.fixture()
    def served(self):
        db = Database()
        with ServerThread(db) as st:
            yield st
        db.close()

    def test_parse_error_round_trips_typed(self, served):
        with Client(*served.address) as client:
            with pytest.raises(ParseError) as excinfo:
                client.execute("SELEC 1")
            assert excinfo.value.code == "PARSE_ERROR"
            assert "SELEC" in str(excinfo.value)

    def test_catalog_error_round_trips_typed(self, served):
        with Client(*served.address) as client:
            with pytest.raises(CatalogError, match="'nope'"):
                client.execute("SELECT 1 FROM nope")

    def test_out_of_range_integer_round_trips_typed(self, served):
        with Client(*served.address) as client:
            client.execute("CREATE TABLE big (a INTEGER)")
            stmt = client.prepare("INSERT INTO big VALUES (?)")
            with pytest.raises(TypeError_) as excinfo:
                stmt.execute((2**40,))
            assert excinfo.value.code == "TYPE_ERROR"
            assert "out of INTEGER range" in str(excinfo.value)

    def test_no_tracebacks_cross_the_wire(self, served):
        with Client(*served.address) as client:
            try:
                client.execute("SELECT zz FROM nowhere")
            except Exception as exc:  # noqa: BLE001
                assert "Traceback" not in str(exc)


# ---------------------------------------------------------------------------
# transactions and isolation across socket sessions
# ---------------------------------------------------------------------------
class TestTransactionsOverWire:
    @pytest.fixture()
    def served(self):
        db = Database()
        db.execute("CREATE TABLE accounts (id INT, balance INT)")
        db.execute("INSERT INTO accounts VALUES (1, 100), (2, 200)")
        with ServerThread(db) as st:
            yield st
        db.close()

    def test_snapshot_isolation_between_connections(self, served):
        with Client(*served.address) as a, Client(*served.address) as b:
            a.execute("BEGIN")
            assert a.execute("SELECT count(*) FROM accounts").scalar() == 2
            b.execute("INSERT INTO accounts VALUES (3, 300)")
            # A still reads its BEGIN-time snapshot; B sees its own write
            assert a.execute("SELECT count(*) FROM accounts").scalar() == 2
            assert b.execute("SELECT count(*) FROM accounts").scalar() == 3
            a.execute("COMMIT")
            assert a.execute("SELECT count(*) FROM accounts").scalar() == 3

    def test_read_your_own_writes_in_wire_transaction(self, served):
        with Client(*served.address) as client:
            client.execute("BEGIN")
            client.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
            assert (
                client.execute(
                    "SELECT balance FROM accounts WHERE id = 1"
                ).scalar()
                == 101
            )
            client.execute("ROLLBACK")
            assert (
                client.execute(
                    "SELECT balance FROM accounts WHERE id = 1"
                ).scalar()
                == 100
            )

    def test_write_write_conflict_is_typed_over_wire(self, served):
        with Client(*served.address) as a, Client(*served.address) as b:
            a.execute("BEGIN")
            b.execute("BEGIN")
            a.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
            b.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
            a.execute("COMMIT")  # first committer wins
            with pytest.raises(TransactionConflictError) as excinfo:
                b.execute("COMMIT")
            assert excinfo.value.code == "TRANSACTION_CONFLICT"

    def test_disconnect_rolls_back_open_transaction(self, served):
        client = Client(*served.address)
        client.execute("BEGIN")
        client.execute("INSERT INTO accounts VALUES (99, 0)")
        client.close()  # server session closes -> implicit rollback
        deadline = time.time() + 5
        with Client(*served.address) as other:
            while time.time() < deadline:
                n = other.execute(
                    "SELECT count(*) FROM accounts WHERE id = 99"
                ).scalar()
                if n == 0:
                    break
                time.sleep(0.02)
            assert n == 0


# ---------------------------------------------------------------------------
# admission control and timeouts
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_default_queue_depth_sized_against_workers(self):
        assert default_queue_depth(1) == 8
        assert default_queue_depth(4) == 16
        assert default_queue_depth(64) == 256

    def test_queue_overflow_returns_typed_backpressure(self):
        db = SlowDatabase()
        with ServerThread(db, max_queue=1, executor_workers=1) as st:
            host, port = st.address
            done = threading.Event()

            def occupy():
                with Client(host, port) as c:
                    c.execute("SELECT 'slow_marker'")
                    done.set()

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(SlowDatabase.SLEEP / 3)  # the slow statement is in flight
            with Client(host, port) as client:
                with pytest.raises(BackpressureError) as excinfo:
                    client.execute("SELECT 1")
                assert excinfo.value.code == "BACKPRESSURE"
                # rejected without executing: the engine never saw it
                assert st.server.admission.rejected >= 1
            thread.join()
            assert done.is_set()
            # the slot drains once the slow statement finishes
            deadline = time.time() + 5
            with Client(host, port) as client:
                while time.time() < deadline:
                    try:
                        assert client.execute("SELECT 2").scalar() == 2
                        break
                    except BackpressureError:
                        time.sleep(0.02)
        db.close()

    def test_statement_timeout_is_typed_and_connection_survives(self):
        db = SlowDatabase()
        with ServerThread(db, statement_timeout=0.05, executor_workers=1) as st:
            with Client(*st.address) as client:
                with pytest.raises(StatementTimeoutError) as excinfo:
                    client.execute("SELECT 'slow_marker'")
                assert excinfo.value.code == "STATEMENT_TIMEOUT"
                # same connection keeps working once the worker frees up
                # (retries themselves queue behind the slow statement and
                # can time out or trip backpressure until it finishes)
                deadline = time.time() + 5
                while time.time() < deadline:
                    try:
                        assert client.execute("SELECT 1").scalar() == 1
                        break
                    except (StatementTimeoutError, BackpressureError):
                        time.sleep(0.1)
        db.close()

    def test_client_timeout_cannot_exceed_server_ceiling(self):
        db = SlowDatabase()
        with ServerThread(db, statement_timeout=0.05, executor_workers=1) as st:
            with Client(*st.address) as client:
                with pytest.raises(StatementTimeoutError):
                    client.execute("SELECT 'slow_marker'", timeout=30.0)
        db.close()


# ---------------------------------------------------------------------------
# disconnects and shutdown
# ---------------------------------------------------------------------------
class TestDisconnectAndShutdown:
    def test_mid_statement_disconnect_leaves_server_healthy(self):
        db = SlowDatabase()
        with ServerThread(db, executor_workers=1) as st:
            host, port = st.address
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(
                encode_frame({"op": "execute", "sql": "SELECT 'slow_marker'"})
            )
            sock.close()  # gone before the statement finishes
            time.sleep(SlowDatabase.SLEEP / 3)
            with Client(host, port) as client:
                deadline = time.time() + 5
                while time.time() < deadline:
                    try:
                        assert client.execute("SELECT 7").scalar() == 7
                        break
                    except BackpressureError:
                        time.sleep(0.02)
                # the abandoned statement's slot was released on completion
                deadline = time.time() + 5
                while time.time() < deadline:
                    if client.ping()["admission"]["inflight"] == 0:
                        break
                    time.sleep(0.02)
                assert client.ping()["admission"]["inflight"] == 0
        db.close()

    def test_graceful_shutdown_drains_inflight_statements(self):
        db = SlowDatabase()
        st = ServerThread(db, executor_workers=1).__enter__()
        host, port = st.address
        results = {}

        def run_slow():
            with Client(host, port) as c:
                results["rows"] = c.execute("SELECT 'slow_marker' AS m").rows()

        thread = threading.Thread(target=run_slow)
        thread.start()
        time.sleep(SlowDatabase.SLEEP / 3)  # statement is in flight
        st.stop()  # graceful: drains before closing listeners
        thread.join(timeout=30)
        assert results["rows"] == [("slow_marker",)]
        with pytest.raises(OSError):
            Client(host, port)  # listener is gone
        assert no_server_threads() == []
        db.close()

    def test_draining_server_refuses_new_statements_typed(self):
        db = SlowDatabase()
        st = ServerThread(db, executor_workers=1).__enter__()
        host, port = st.address
        holder_started = threading.Event()

        def run_slow():
            with Client(host, port) as c:
                holder_started.set()
                c.execute("SELECT 'slow_marker'")

        bystander = Client(host, port)  # connected before the drain begins
        thread = threading.Thread(target=run_slow)
        thread.start()
        holder_started.wait()
        time.sleep(SlowDatabase.SLEEP / 3)
        stopper = threading.Thread(target=st.stop)
        stopper.start()
        time.sleep(0.05)  # let shutdown mark the server draining
        with pytest.raises((ServerShutdownError, ProtocolError)):
            bystander.execute("SELECT 1")
        bystander.close()
        thread.join(timeout=30)
        stopper.join(timeout=30)
        db.close()

    def test_server_owning_database_closes_it(self):
        db = Database()
        st = ServerThread(db, own_database=True).__enter__()
        with Client(*st.address) as client:
            client.execute("SELECT 1")
        st.stop()
        assert db.closed


# ---------------------------------------------------------------------------
# the acceptance bar: 32 concurrent clients, bit-identical to in-process
# ---------------------------------------------------------------------------
N_CLIENTS = 32


def _client_workload(executor, cid: int) -> list[str]:
    """One client's mixed read/write/transaction workload; returns the
    collected query results as reprs (bit-exact comparison material).
    ``executor`` is anything with execute/prepare — a wire Client or an
    in-process Session."""
    collected = []
    executor.execute(f"CREATE TABLE c{cid} (x INT, v DOUBLE)")
    insert = executor.prepare(f"INSERT INTO c{cid} VALUES (?, ?)")
    for i in range(20):
        insert.execute((i, i * 0.1 + cid))
    executor.execute(f"UPDATE c{cid} SET v = v + ? WHERE x < ?", (0.5, 10))
    executor.execute(f"DELETE FROM c{cid} WHERE x = ?", (19,))
    executor.execute("BEGIN")
    insert.execute((100, 1.25))
    insert.execute((101, 2.5))
    collected.append(repr(
        executor.execute(f"SELECT count(*) FROM c{cid}").rows()
    ))  # read-your-own-writes inside the transaction
    executor.execute("COMMIT")
    collected.append(repr(
        executor.execute(
            f"SELECT count(*), sum(x), sum(v) FROM c{cid}"
        ).rows()
    ))
    collected.append(repr(
        executor.execute(
            f"SELECT r.grp, count(*), sum(c{cid}.v) FROM c{cid} "
            f"JOIN ref r ON c{cid}.x = r.k GROUP BY r.grp ORDER BY r.grp"
        ).rows()
    ))
    collected.append(repr(
        executor.execute(
            f"SELECT x, v FROM c{cid} WHERE x < ? ORDER BY x", (5,)
        ).rows()
    ))
    return collected


def _make_ref(db: Database) -> None:
    db.execute("CREATE TABLE ref (k INT, grp INT)")
    db.table("ref").insert_rows([(k, k % 4) for k in range(110)])


class TestManyConcurrentClients:
    def test_32_clients_bit_identical_to_in_process(self):
        # oracle: the same per-client workloads through in-process sessions
        oracle_db = Database()
        _make_ref(oracle_db)
        expected = {}
        for cid in range(N_CLIENTS):
            with oracle_db.connect() as session:
                expected[cid] = _client_workload(session, cid)
        oracle_db.close()

        served_db = Database()
        _make_ref(served_db)
        actual: dict[int, list] = {}
        failures: list = []
        # queue depth >= client count: every client may have a statement
        # in flight at once, and none of them should see backpressure
        with ServerThread(served_db, max_queue=2 * N_CLIENTS) as st:
            host, port = st.address

            def run(cid: int) -> None:
                try:
                    with Client(host, port, timeout=120) as client:
                        actual[cid] = _client_workload(client, cid)
                except Exception as exc:  # noqa: BLE001
                    failures.append((cid, exc))

            threads = [
                threading.Thread(target=run, args=(cid,))
                for cid in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        assert not failures, failures
        assert len(actual) == N_CLIENTS
        for cid in range(N_CLIENTS):
            assert actual[cid] == expected[cid], f"client {cid} diverged"
        served_db.close()
        assert no_server_threads() == []


@pytest.mark.stress
class TestServerStress:
    def test_shared_table_churn_with_conflict_retries(self):
        """16 clients hammer one shared table with transactional
        increments; every conflict must surface as the typed error and
        every increment must land exactly once."""
        db = Database()
        db.execute("CREATE TABLE counter (id INT, n INT)")
        db.execute("INSERT INTO counter VALUES (1, 0)")
        increments_per_client = 5
        n_clients = 16
        with ServerThread(db, max_queue=2 * n_clients) as st:
            host, port = st.address
            errors: list = []

            def run(cid: int) -> None:
                try:
                    with Client(host, port, timeout=120) as client:
                        for _ in range(increments_per_client):
                            while True:
                                client.execute("BEGIN")
                                try:
                                    client.execute(
                                        "UPDATE counter SET n = n + 1 "
                                        "WHERE id = 1"
                                    )
                                    client.execute("COMMIT")
                                    break
                                except TransactionConflictError:
                                    continue  # retry against fresh state
                except Exception as exc:  # noqa: BLE001
                    errors.append((cid, exc))

            threads = [
                threading.Thread(target=run, args=(c,)) for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not errors, errors
            with Client(host, port) as client:
                total = client.execute(
                    "SELECT n FROM counter WHERE id = 1"
                ).scalar()
        assert total == n_clients * increments_per_client
        db.close()
