"""Experiment: WAL commit cost and group-commit scaling.

Measures what durability charges per commit and what group commit buys
back under concurrency:

* **latency** — single-writer per-commit wall time for
  ``durability="off"`` (the pre-WAL baseline), ``"commit"`` (an fsync
  per commit) and ``"batch"`` (group commit);
* **throughput** — total commits/sec at 1, 8 and 32 concurrent
  writers, ``commit`` vs ``batch``: with per-commit fsyncs every
  committer queues behind the disk flush, while the batch leader
  amortizes one fsync over every committer that arrived meanwhile.

The assertions check the mechanism and a prediction built from measured
quantities, never a fixed speedup (how much group commit can buy depends
on how much of a commit the fsync is):

* **mechanism** — at 32 writers, ``commit`` runs exactly one fsync per
  commit and ``batch`` fewer than one, read from the ``syncs`` /
  ``sync_requests`` counters of ``wal_stats()``;
* **throughput** — with c the per-commit cost outside the fsync, f the
  fsync time (median of several probes) and k the measured batch size
  (commits per fsync), ``batch`` should run (c+f)/(c+f/k) times as many
  commits per second as ``commit``; the median of a few alternating runs
  must reach :data:`PREDICTION_TOLERANCE` of that prediction.  On a
  filesystem whose fsync is nearly free the prediction is ~1 and the
  check says that group commit costs nothing.

JSON artifact: ``BENCH_wal.json``.

Environment knobs:

* ``REPRO_BENCH_WAL_COMMITS`` — single-writer commits per policy
  (default 200; also scales the per-writer counts);
* ``REPRO_BENCH_WAL_OUT`` — output path for ``BENCH_wal.json``
  (default: the system temp directory).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

import numpy as np

from repro import Database

from conftest import bench_out_path

COMMITS = int(os.environ.get("REPRO_BENCH_WAL_COMMITS", "200"))
WRITER_COUNTS = (1, 8, 32)
#: Alternating commit/batch runs at the top writer count (medians taken).
TOP_RUNS = 3
#: Share of the predicted batch-over-commit speedup the median must reach.
PREDICTION_TOLERANCE = 0.75
OUT_PATH = bench_out_path("REPRO_BENCH_WAL_OUT", "BENCH_wal.json")


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.array(latencies), q)) if latencies else 0.0


def _fsync_probe(directory: str, probes: int = 5, rounds: int = 40) -> float:
    """Seconds per fsync of a small append on this filesystem: the
    median over ``probes`` probes of ``rounds`` fsyncs each."""
    path = os.path.join(directory, "probe.bin")
    samples = []
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 256)
        for _ in range(probes):
            start = time.perf_counter()
            for i in range(rounds):
                handle.write(b"x" * 64)
                handle.flush()
                os.fsync(handle.fileno())
            samples.append((time.perf_counter() - start) / rounds)
    return float(np.median(samples))


def _open(durability: str, directory: str) -> Database:
    if durability == "off":
        return Database()
    return Database.open(
        os.path.join(directory, "db"), durability=durability
    )


def _latency_run(durability: str) -> dict:
    directory = tempfile.mkdtemp(prefix="walbench-")
    try:
        db = _open(durability, directory)
        db.execute("CREATE TABLE t (a INT, b VARCHAR)")
        latencies = []
        for i in range(COMMITS):
            start = time.perf_counter()
            db.execute(f"INSERT INTO t VALUES ({i}, 'payload-{i}')")
            latencies.append(time.perf_counter() - start)
        db.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    total = sum(latencies)
    return {
        "commits": len(latencies),
        "p50_us": round(_percentile(latencies, 50) * 1e6, 1),
        "p99_us": round(_percentile(latencies, 99) * 1e6, 1),
        "commits_per_s": int(len(latencies) / total) if total else None,
    }


def _throughput_run(durability: str, writers: int) -> tuple[float, dict]:
    """Total commits/sec and the WAL's fsync counters over the timed
    commits; each writer appends to its own table so the only shared
    resource is the log + its fsync."""
    # enough commits per writer for the coalescing windows to settle —
    # a writer that exits after a handful of commits never contends
    per_writer = max(12, COMMITS // 8)
    directory = tempfile.mkdtemp(prefix="walbench-")
    try:
        db = _open(durability, directory)
        for w in range(writers):
            db.execute(f"CREATE TABLE w{w} (a INT)")
        before = db.wal_stats()
        barrier = threading.Barrier(writers)
        errors: list = []

        def run(w: int) -> None:
            try:
                sql = f"INSERT INTO w{w} VALUES (?)"  # plan-cache hit
                barrier.wait()
                for i in range(per_writer):
                    db.execute(sql, (i,))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(writers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        after = db.wal_stats()
        assert not errors, errors
        for w in range(writers):
            count = db.execute(f"SELECT count(*) FROM w{w}").scalar()
            assert count == per_writer
        db.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    counters = {
        name: after[name] - before[name] for name in ("sync_requests", "syncs")
    }
    return (writers * per_writer) / wall if wall else 0.0, counters


class TestWalCommit:
    def test_commit_latency_and_group_commit_throughput(self, capsys):
        probe_dir = tempfile.mkdtemp(prefix="walbench-probe-")
        try:
            fsync_s = _fsync_probe(probe_dir)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)

        latency = {
            policy: _latency_run(policy)
            for policy in ("off", "commit", "batch")
        }
        throughput: dict = {}
        for writers in WRITER_COUNTS[:-1]:
            commit_tps, _ = _throughput_run("commit", writers)
            batch_tps, _ = _throughput_run("batch", writers)
            throughput[str(writers)] = {
                "commit_per_s": int(commit_tps),
                "batch_per_s": int(batch_tps),
                "speedup": round(batch_tps / commit_tps, 2)
                if commit_tps
                else None,
            }
        top = WRITER_COUNTS[-1]
        runs: dict = {"commit": [], "batch": []}
        for _ in range(TOP_RUNS):
            for policy in runs:
                runs[policy].append(_throughput_run(policy, top))
        commit_tps = float(np.median([tps for tps, _ in runs["commit"]]))
        batch_tps = float(np.median([tps for tps, _ in runs["batch"]]))
        fsyncs_per_commit = {
            policy: sum(c["syncs"] for _, c in done)
            / sum(c["sync_requests"] for _, c in done)
            for policy, done in runs.items()
        }
        # the commit policy pays c + f per commit; batch pays c + f/k
        batch_size = 1 / fsyncs_per_commit["batch"]
        commit_cost = 1 / commit_tps
        other_cost = max(commit_cost - fsync_s, 0.0)
        predicted = commit_cost / (other_cost + fsync_s / batch_size)
        speedup = batch_tps / commit_tps
        throughput[str(top)] = {
            "commit_per_s": int(commit_tps),
            "batch_per_s": int(batch_tps),
            "speedup": round(speedup, 2),
            "runs": TOP_RUNS,
            "fsyncs_per_commit": {
                p: round(v, 3) for p, v in fsyncs_per_commit.items()
            },
            "predicted_speedup": round(predicted, 2),
        }

        report = {
            "benchmark": "wal_commit",
            "commits": COMMITS,
            "fsync_probe_us": round(fsync_s * 1e6, 1),
            "latency": latency,
            "throughput": throughput,
        }
        OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        with capsys.disabled():
            print(
                f"\nwal: fsync {report['fsync_probe_us']}us"
                f" | off p50 {latency['off']['p50_us']}us"
                f" | commit p50 {latency['commit']['p50_us']}us"
                f" | batch p50 {latency['batch']['p50_us']}us"
                f" | {top}w commit {int(commit_tps)}/s"
                f" batch {int(batch_tps)}/s (x{speedup:.2f},"
                f" predicted x{predicted:.2f},"
                f" {fsyncs_per_commit['batch']:.2f} fsyncs/commit)"
            )

        # structural sanity at any scale
        for policy in ("off", "commit", "batch"):
            assert latency[policy]["commits"] == COMMITS
        # the mechanism: one fsync per commit under "commit"; under
        # "batch" the leaders' fsyncs cover several commits each
        assert fsyncs_per_commit["commit"] == 1.0
        assert fsyncs_per_commit["batch"] < 1.0, (
            f"group commit did not batch at {top} writers"
        )
        # the throughput the measured batch size predicts — at full
        # scale only (reduced smoke runs are too noisy to gate)
        if COMMITS >= 200:
            assert speedup >= PREDICTION_TOLERANCE * predicted, (
                f"group commit speedup {speedup:.2f} < "
                f"{PREDICTION_TOLERANCE} x predicted {predicted:.2f} at {top} "
                f"writers (fsync {fsync_s * 1e6:.0f}us, "
                f"batch {batch_size:.2f} commits/fsync)"
            )
