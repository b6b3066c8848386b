"""Experiment: served throughput — many concurrent clients over TCP.

``REPRO_BENCH_CLIENTS`` socket clients hammer one :class:`ServerThread`
with the canonical OLTP-ish mix — point lookups through a prepared
statement and a small grouped join — and every statement's wall latency
is recorded.  The JSON artifact (``BENCH_server.json``) carries per-op p50/p99 latency and aggregate statements/sec, the
service-layer numbers the admission-control design is accountable to.

This is a *service overhead* benchmark: the engine work per statement
is tiny by construction, so the recorded latencies are dominated by
framing, dispatch, admission and the executor hop — exactly the layers
:mod:`repro.server` adds over the in-process API.

Environment knobs:

* ``REPRO_BENCH_CLIENTS`` — concurrent client connections (default 8);
* ``REPRO_BENCH_SERVER_STMTS`` — statements per client (default 100);
* ``REPRO_BENCH_SERVER_ROWS`` — fact-table size (default 20_000);
* ``REPRO_BENCH_SERVER_OUT`` — output path for ``BENCH_server.json``
  (default: the system temp directory).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro import Database
from repro.client import Client
from repro.server import ServerThread

from conftest import bench_out_path

CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "8"))
STATEMENTS = int(os.environ.get("REPRO_BENCH_SERVER_STMTS", "100"))
ROWS = int(os.environ.get("REPRO_BENCH_SERVER_ROWS", str(20_000)))
GROUPS = 100
OUT_PATH = bench_out_path("REPRO_BENCH_SERVER_OUT", "BENCH_server.json")


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.array(latencies), q)) if latencies else 0.0


def _build_database() -> Database:
    rng = np.random.default_rng(20260807)
    db = Database()
    db.execute("CREATE TABLE kv (k BIGINT, grp BIGINT, v DOUBLE)")
    db.table("kv").insert_rows(
        [
            (int(k), int(k) - (int(k) // GROUPS) * GROUPS, float(v))
            for k, v in zip(range(ROWS), rng.random(ROWS))
        ]
    )
    db.execute("CREATE TABLE dims (grp BIGINT, label VARCHAR)")
    db.table("dims").insert_rows([(g, f"g{g}") for g in range(GROUPS)])
    db.execute("ANALYZE")
    return db


def _client_run(host: str, port: int, cid: int, latencies: dict, errors: list):
    """One client's statement loop: mostly point lookups through a
    prepared statement, every 10th statement the small grouped join."""
    rng = np.random.default_rng(1000 + cid)
    keys = rng.integers(0, ROWS, size=STATEMENTS)
    point_lat: list[float] = []
    join_lat: list[float] = []
    try:
        with Client(host, port, timeout=120) as client:
            lookup = client.prepare("SELECT v FROM kv WHERE k = ?")
            join_sql = (
                "SELECT d.label, count(*), sum(kv.v) FROM kv "
                "JOIN dims d ON kv.grp = d.grp "
                "WHERE kv.k < ? GROUP BY d.label ORDER BY d.label"
            )
            for i in range(STATEMENTS):
                if i % 10 == 9:
                    start = time.perf_counter()
                    result = client.execute(join_sql, (int(keys[i]) + 1,))
                    join_lat.append(time.perf_counter() - start)
                    assert result.is_query
                else:
                    start = time.perf_counter()
                    value = lookup.execute((int(keys[i]),)).scalar()
                    point_lat.append(time.perf_counter() - start)
                    assert value is not None
    except Exception as exc:  # noqa: BLE001 - surfaced as a test failure
        errors.append((cid, exc))
    latencies[cid] = (point_lat, join_lat)


class TestServerThroughput:
    def test_many_clients_mixed_workload(self, capsys):
        db = _build_database()
        latencies: dict[int, tuple[list, list]] = {}
        errors: list = []
        with ServerThread(db, max_queue=max(8, 2 * CLIENTS)) as st:
            host, port = st.address
            threads = [
                threading.Thread(
                    target=_client_run, args=(host, port, cid, latencies, errors)
                )
                for cid in range(CLIENTS)
            ]
            wall_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            wall = time.perf_counter() - wall_start
            stats = st.server.stats()
        db.close()
        assert not errors, errors
        assert len(latencies) == CLIENTS

        point = [s for p, _ in latencies.values() for s in p]
        join = [s for _, j in latencies.values() for s in j]
        total = len(point) + len(join)
        report = {
            "benchmark": "server_throughput",
            "clients": CLIENTS,
            "statements_per_client": STATEMENTS,
            "rows": ROWS,
            "statements_total": total,
            "statements_per_s": int(total / wall) if wall else None,
            "wall_seconds": round(wall, 4),
            "admission": stats["admission"],
            "ops": {
                "point_lookup": {
                    "count": len(point),
                    "p50_ms": round(_percentile(point, 50) * 1000, 3),
                    "p99_ms": round(_percentile(point, 99) * 1000, 3),
                },
                "small_join": {
                    "count": len(join),
                    "p50_ms": round(_percentile(join, 50) * 1000, 3),
                    "p99_ms": round(_percentile(join, 99) * 1000, 3),
                },
            },
        }
        OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        with capsys.disabled():
            point_stats = report["ops"]["point_lookup"]
            join_stats = report["ops"]["small_join"]
            print(
                f"\nserver: {CLIENTS} clients | {report['statements_per_s']} stmt/s"
                f" | lookup p50 {point_stats['p50_ms']:.2f}ms"
                f" p99 {point_stats['p99_ms']:.2f}ms"
                f" | join p50 {join_stats['p50_ms']:.2f}ms"
                f" p99 {join_stats['p99_ms']:.2f}ms"
            )
        # sanity floor, not a perf assertion: every statement answered,
        # none rejected (the queue was sized to the client count)
        assert total == CLIENTS * STATEMENTS
        assert report["admission"]["rejected"] == 0
