"""``serve_mixed``: ``python -m repro --serve ... --durability batch`` in
its own process, driven by one client connection in a closed loop
(prepared reads by key, Q13 over the wire, a served GROUP BY, durable
single-row INSERTs).  The run ends with SIGKILL, ``Database.open`` and a
check that every acknowledged write survived."""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import gen
from common import (
    SETUP_REPS,
    Checker,
    Phase,
    calibrate,
    cpu_ticks,
    dir_bytes,
    image_parts,
    latency_metrics,
    latency_summary,
    median,
    now,
    peak_rss_mb,
    steal_share,
)
from refs import GraphMirror

POINT = "SELECT branch, balance FROM accounts WHERE id = ?"
HEAVY = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (person1, person2)"
BULK = "SELECT branch, count(*), sum(balance) FROM accounts GROUP BY branch"
WRITE = "INSERT INTO transfers VALUES (?, ?, ?)"
#: bytes of one acknowledged transfer row (three 8-byte values)
TRANSFER_BYTES = 24
#: one pass of the closed loop, in an order shuffled per seed: 60 writes,
#: 600 points, 30 Q13s and 6 served GROUP BYs
MIX = ["write"] * 60 + ["point"] * 600 + ["heavy"] * 30 + ["bulk"] * 6
WARM_UP = ["write", "heavy", "bulk"] + ["point"] * 20
START_TIMEOUT = 120.0


class Connection:
    """The client connection with its prepared statements, generator and
    answer log."""

    def __init__(self, workload, host: str, port: int):
        from repro.client import Client

        self.w = workload
        self.client = Client(host, port, timeout=60)
        self.point_stmt = self.client.prepare(POINT)
        self.write_stmt = self.client.prepare(WRITE)
        self.rng = np.random.default_rng([workload.cfg.seed, 100])
        self.records: list = []
        self.acked: list = []
        self.next_transfer = 0
        self.cycle = [MIX[i] for i in self.rng.permutation(len(MIX))]
        self.ops = {"write": self.write, "point": self.point,
                    "heavy": self.heavy, "bulk": self.bulk}

    def point(self):
        key = int(self.w.account_ids[int(self.rng.integers(len(self.w.account_ids)))])
        t0 = now()
        rows = self.point_stmt.execute((key,)).rows()
        latency = now() - t0
        self.records.append(("point", key, rows))
        return 1, latency

    def heavy(self):
        s, d = (int(x) for x in self.rng.choice(self.w.person_ids, size=2, replace=False))
        t0 = now()
        rows = self.client.execute(HEAVY, (s, d)).rows()
        latency = now() - t0
        self.records.append(("heavy", (s, d), rows))
        return 1, latency

    def bulk(self):
        t0 = now()
        rows = self.client.execute(BULK).rows()
        latency = now() - t0
        self.records.append(("bulk", None, rows))
        return 1, latency

    def write(self):
        row = (self.next_transfer,
               int(self.w.account_ids[int(self.rng.integers(len(self.w.account_ids)))]),
               round(float(self.rng.normal(50.0, 20.0)), 2))
        self.next_transfer += 1
        t0 = now()
        self.write_stmt.execute(row)
        latency = now() - t0
        self.acked.append(row)
        return 1, latency

    def close(self) -> None:
        self.client.close()


class ServedWorkload:
    flush_policy = "durability=batch (group commit) on the server; fsync as the filesystem gives it"

    def __init__(self, cfg):
        self.cfg = cfg
        self.data = gen.accounts(cfg.seed, cfg.scale)
        self.inputs = os.path.join(cfg.workdir, "inputs")
        gen.write_inputs(self.data, self.inputs)
        self.user_bytes = gen.user_bytes(self.data)
        accounts = self.data["accounts"]
        self.account_ids = accounts["id"]
        self.accounts = {
            int(i): (str(b), float(v))
            for i, b, v in zip(accounts["id"], accounts["branch"], accounts["balance"])
        }
        self.branch_totals = {}
        for branch, balance in zip(accounts["branch"].tolist(), accounts["balance"].tolist()):
            count, total = self.branch_totals.get(branch, (0, 0.0))
            self.branch_totals[branch] = (count + 1, total + balance)
        knows = self.data["knows"]
        self.person_ids = self.data["persons"]["id"]
        self.mirror = GraphMirror(self.person_ids, knows["person1"], knows["person2"],
                                  knows["weight"])
        self.server = None
        self.connection = None
        self.directory = None
        self.dumps = 0

    # -- lifecycle ---------------------------------------------------
    def _build_image(self, directory: str) -> None:
        from repro import Database

        db = Database()
        db.execute("CREATE TABLE accounts (id BIGINT, branch VARCHAR, balance DOUBLE)")
        db.execute("CREATE TABLE persons (id BIGINT, firstName VARCHAR)")
        db.execute("CREATE TABLE knows (person1 BIGINT, person2 BIGINT, "
                   "creationDate DATE, weight DOUBLE)")
        db.execute("CREATE TABLE transfers (id BIGINT, account BIGINT, amount DOUBLE)")
        for table, columns in self.data.items():
            db.appender(table).append(gen.read_inputs(self.inputs, table, list(columns)))
        db.execute("CREATE GRAPH INDEX knows_index ON knows EDGE (person1, person2)")
        db.analyze()
        db.save(directory)
        db.close()

    def _launch(self, directory: str) -> tuple:
        root = self.cfg.root
        if self.cfg.trace:
            command = [sys.executable, os.path.join(root, "e2ebench", "serve_traced.py"),
                       "127.0.0.1:0", directory, self.cfg.workdir]
        else:
            command = [sys.executable, "-m", "repro", "--serve", "127.0.0.1:0", directory,
                       "--durability", "batch"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONUNBUFFERED="1")
        # unbuffered: select() must see every byte the server printed
        self.server = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                                       stderr=subprocess.STDOUT, bufsize=0)
        deadline = now() + START_TIMEOUT
        seen = []
        while now() < deadline:
            ready, _, _ = select.select([self.server.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.server.stdout.readline().decode(errors="replace")
            if not line:
                break
            seen.append(line)
            if "listening on" in line:
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)
        raise RuntimeError(f"server did not start: {''.join(seen)[-2000:]}")

    def setup(self, rep: int) -> tuple:
        """Raw files -> ingest -> graph index + ANALYZE -> save -> close
        -> server open (recovery) -> first correct answer over the wire."""
        self.close()
        self.directory = os.path.join(self.cfg.workdir, f"db{rep}")
        start = now()
        self._build_image(self.directory)
        host, port = self._launch(self.directory)
        self.connection = Connection(self, host, port)
        touch = now()
        self.connection.point()
        end = now()
        return end - start, end - touch

    def _stop_server(self, sig=signal.SIGTERM) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(sig)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        self._stop_server()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            shutil.rmtree(self.directory + ".wal", ignore_errors=True)
            self.directory = None

    # -- the run -----------------------------------------------------
    def _phase(self, seconds: float, checker: Checker, recorder=None) -> Phase:
        """The connection in a closed loop for ``seconds``."""
        ops = self.connection.ops
        if recorder is not None:
            ops = {n: recorder.rooted(f"op.{n}", op) for n, op in ops.items()}
        return Phase(ops, self.connection.cycle, seconds, checker).run()

    def _signal_dump(self) -> dict:
        """Ask the traced server to write its spans and counters."""
        self.dumps += 1
        path = os.path.join(self.cfg.workdir, f"trace-{self.dumps}.json")
        self.server.send_signal(signal.SIGUSR1)
        deadline = now() + 60
        while not os.path.exists(path):
            if now() > deadline:
                raise RuntimeError("traced server wrote no span dump")
            time.sleep(0.02)
        with open(path) as handle:
            return json.load(handle)

    def run(self, checker: Checker) -> tuple:
        from spans import CLIENT_TARGETS, ENGINE_TARGETS, SPANS_FILE, Recorder, write_spans

        recorder = None
        if self.cfg.trace:
            recorder = Recorder().install({**ENGINE_TARGETS, **CLIENT_TARGETS})
        start = now()
        setups, touches = [], []
        for rep in range(SETUP_REPS):
            seconds, touch = self.setup(rep)
            checker.attempt()
            setups.append(seconds)
            touches.append(touch)
        Phase(self.connection.ops, WARM_UP, 0, checker).run_once()
        calibration = [calibrate()]
        ticks = cpu_ticks()
        if self.cfg.trace:
            first = self._signal_dump()
            traced = self._phase(self.cfg.seconds / 2, checker, recorder)
            second = self._signal_dump()
            self.server.send_signal(signal.SIGUSR2)
            recorder.uninstall()
            plain = self._phase(self.cfg.seconds / 2, checker)
        else:
            plain = self._phase(self.cfg.seconds, checker)
        calibration.append(calibrate())
        steal = steal_share(ticks, cpu_ticks())
        stats = self.connection.client.ping()
        rss = peak_rss_mb(self.server.pid)
        connection, self.connection = self.connection, None
        connection.close()
        self._stop_server(signal.SIGKILL)
        wal_bytes = dir_bytes(self.directory + ".wal")
        image_bytes = dir_bytes(self.directory)
        parts = image_parts(self.directory)
        end = now()
        acked = connection.acked
        user = self.user_bytes + TRANSFER_BYTES * len(acked)
        self._verify(checker, connection.records, acked)
        latency = latency_metrics(plain.latency)
        record = {"setup_s": setups, "first_touch_s": touches, "calibration_s": calibration,
                  "steal_share": steal,
                  "ops_per_s": plain.ops_per_s,
                  "latency": latency_summary(plain.latency),
                  "server_stats": stats, "acked_writes": len(acked),
                  "stored": {"image": image_bytes, "wal": wal_bytes, "user": user}}
        if not self.cfg.trace:
            return {
                "setup_s": median(setups),
                **latency,
                "peak_rss_mb": rss,
                "stored_bytes_per_user_byte": (image_bytes + wal_bytes) / user,
            }, record
        from layers import per_layer

        offset = 1 << 40  # server span ids live beside the client's
        server_spans = [
            (n, s, e, None if p is None else p + offset, None if st is None else st + offset,
             i + offset, v)
            for n, s, e, p, st, i, v in second["spans"]
        ]
        spans = recorder.spans + server_spans
        write_spans(os.path.join(self.cfg.workdir, SPANS_FILE), spans)
        lo, hi = traced.window
        in_window = lambda name, root=False: sum(  # noqa: E731
            e - s for n, s, e, p, *_ in spans
            if n == name and lo <= s <= hi and (not root or p is None))
        requests = traced.statements
        wire = (in_window("client.request") - in_window("server.request")
                - in_window("server.decode") - in_window("server.encode", root=True))
        traced_latency = latency_metrics(traced.latency)
        metrics = per_layer(
            spans, traced.window, requests, (start, end),
            first["counters"], second["counters"],
            {
                "first_touch_ms": median(touches) * 1e3 - latency["point_p50_ms"],
                "image_parts": parts,
                "wal_bytes_per_user_byte": wal_bytes / user,
                "wire_ms": 1e3 * wire / max(1, requests),
                "admission_rejects": stats.get("admission", {}).get("rejected", 0),
                "point_p50_overhead_ms": traced_latency["point_p50_ms"] - latency["point_p50_ms"],
                "ops_per_s_overhead": traced.ops_per_s - plain.ops_per_s,
            },
        )
        return metrics, record

    def _verify(self, checker: Checker, records: list, acked: list) -> None:
        pairs = [args for kind, args, _ in records if kind == "heavy"]
        hops = iter(self.mirror.hops([s for s, _ in pairs], [d for _, d in pairs]))
        for kind, args, rows in records:
            if kind == "point":
                checker.expect(f"point {args}", [tuple(r) for r in rows],
                               [self.accounts[args]])
            elif kind == "heavy":
                checker.expect(f"Q13 {args}", rows[0][0] if rows else None, next(hops))
            else:
                got = {str(b): (int(c), float(s)) for b, c, s in rows}
                checker.expect("served GROUP BY", got, self.branch_totals)
        from repro import Database

        db = Database.open(self.directory, durability="batch")
        try:
            rows = db.execute("SELECT id, account, amount FROM transfers").rows()
        finally:
            db.close()
        recovered = {int(i): (int(i), int(a), float(m)) for i, a, m in rows}
        for row in acked:
            checker.expect(f"acknowledged write {row[0]} after SIGKILL",
                           recovered.get(row[0]), row)
