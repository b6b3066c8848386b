"""Shared machinery of the end-to-end benchmark: the closed-loop timed
phase, answer checking, percentiles, process footprint and the run
record.  Nothing here imports ``repro``."""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time

import numpy as np

now = time.perf_counter

#: set-up is repeated and its median reported, so one slow set-up does
#: not move ``setup_s``
SETUP_REPS = 3

#: A run collects at least this many point statements, so that at least
#: ten samples lie beyond the 95th percentile in the run record.
MIN_POINTS = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "point_p50_ms": "ms",
    "heavy_p50_ms": "ms",
    "bulk_p50_ms": "ms",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "stored_bytes_per_user_byte": "ratio",
}


class Checker:
    """Counts statements attempted and failed.  A wrong answer, a refused
    statement or a lost acknowledged write each count as one failure;
    nothing is ever dropped from the count.

    ``corrupt`` deliberately falsifies the first reference answer, so the
    benchmark's own test can show that a mismatch is counted."""

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self._corrupt = corrupt

    def reference(self, value):
        if not self._corrupt:
            return value
        self._corrupt = False
        if isinstance(value, (list, tuple)):
            return list(value) + [None]
        if isinstance(value, dict):
            return {**value, None: None}
        if value is None:
            return -1
        return value + 1

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    def expect(self, what: str, got, want) -> bool:
        """One statement's check: ``got`` must equal the reference
        ``want`` (floats to a relative 1e-9, containers element-wise)."""
        want = self.reference(want)
        if not _same(got, want):
            self.fail(f"{what}: got {got!r:.300}, want {want!r:.300}")
            return False
        return True


def _same(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return got == want


OVERRUN_S = 30.0


class Phase:
    """One closed-loop timed phase: a single caller runs ``cycle`` (a list
    of statement-class names) over and over, each op only after the
    previous one returned, until ``seconds`` have passed, at least
    ``MIN_POINTS`` point statements completed and every class ran (or
    ``OVERRUN_S`` more passed, so a class that keeps failing cannot hold
    the phase open).

    ``ops`` maps a class name to a callable that runs its statements and
    returns ``(statements, latency seconds)``, timing only the engine
    calls.  An op that raises counts its statement as failed."""

    def __init__(self, ops: dict, cycle: list, seconds: float, checker: Checker,
                 on_op=None):
        self.ops = ops
        self.cycle = cycle
        self.seconds = seconds
        self.checker = checker
        self.on_op = on_op
        self.latency: dict[str, list[float]] = {name: [] for name in ops}
        self.statements = 0
        self.window = (0.0, 0.0)

    def _step(self, name: str) -> None:
        try:
            count, latency = self.ops[name]()
        except Exception as exc:  # noqa: BLE001 - a refused statement is a failure
            self.checker.attempt()
            self.checker.fail(f"{name}: {type(exc).__name__}: {exc}")
            return
        self.checker.attempt(count)
        self.latency[name].append(latency)
        self.statements += count
        if self.on_op is not None:
            self.on_op(name)

    def _done(self, t: float, deadline: float) -> bool:
        return t >= deadline and (
            t >= deadline + OVERRUN_S
            or (len(self.latency["point"]) >= MIN_POINTS
                and all(self.latency.values())))

    def run_once(self) -> "Phase":
        """One pass over the cycle (the discarded warm-up)."""
        for name in self.cycle:
            self._step(name)
        return self

    def run(self) -> "Phase":
        # collect, then move everything alive out of the collector's
        # sight, so collections during the phase walk only what the
        # phase allocates
        gc.collect()
        gc.freeze()
        start = now()
        deadline = start + self.seconds
        while not self._done(now(), deadline):
            for name in self.cycle:
                self._step(name)
                if self._done(now(), deadline):
                    break
        self.window = (start, now())
        return self

    @property
    def ops_per_s(self) -> float:
        return self.statements / (self.window[1] - self.window[0])


def ms_percentile(samples: list, q: float) -> float:
    if not samples:
        raise ValueError("no samples for a reported latency")
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def latency_metrics(latency: dict) -> dict:
    return {
        "point_p50_ms": ms_percentile(latency["point"], 50),
        "heavy_p50_ms": ms_percentile(latency["heavy"], 50),
        "bulk_p50_ms": ms_percentile(latency["bulk"], 50),
        "write_p50_ms": ms_percentile(latency["write"], 50),
    }


def latency_summary(latency: dict) -> dict:
    """Sample count and p50/p90/p95/p99 (ms) per statement class, for the
    run record."""
    return {
        name: {"n": len(v), **{f"p{q}": ms_percentile(v, q) for q in (50, 90, 95, 99)}}
        for name, v in latency.items() if v
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.  On a
    small shared machine the engine's worker threads and the server's
    hand-offs otherwise wait for a second CPU that the hypervisor may be
    giving to someone else, and the figures follow that, not the code."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """A fixed CPU loop (interpreter plus numpy), timed before and after
    each run so a disturbed machine shows in the run record."""
    t0 = now()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    data = np.random.default_rng(0).random(1_000_000)
    np.sort(data)
    return now() - t0


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``: steal is
    time a hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before: tuple, after: tuple) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def proc_status(pid="self") -> dict:
    fields = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    return int(proc_status(pid)["VmHWM"].split()[0]) / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def image_parts(path: str) -> dict:
    """Bytes of a saved image split into columns, graph index and the
    catalog/statistics block."""
    parts = {"columns": 0, "graph": 0, "stats": 0}
    for entry in os.listdir(path):
        full = os.path.join(path, entry)
        if entry.endswith(".tbl"):
            parts["columns"] += dir_bytes(full)
        elif entry.startswith("graphindex-"):
            parts["graph"] += os.path.getsize(full)
        elif os.path.isfile(full):
            parts["stats"] += os.path.getsize(full)
    return parts


def median(values) -> float:
    return float(statistics.median(values))


def _fs_type(path: str) -> str:
    best, kind = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) > 2 and real.startswith(fields[1]) and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def _fsync_probe(path: str) -> float:
    """Median seconds of a 4 KiB write + fsync in the work directory."""
    probe = os.path.join(path, "fsync-probe")
    times = []
    with open(probe, "wb") as handle:
        for _ in range(5):
            handle.write(b"x" * 4096)
            handle.flush()
            t0 = now()
            os.fsync(handle.fileno())
            times.append(now() - t0)
    os.remove(probe)
    return median(times)


def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def env_stamp(root: str, workdir: str, flush_policy: str) -> dict:
    import scipy

    fsync_s = _fsync_probe(workdir)
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "filesystem": _fs_type(workdir),
        "fsync_probe_ms": fsync_s * 1e3,
        "fsync_class": "device" if fsync_s > 1e-4 else "page-cache",
        "flush_policy": flush_policy,
    }


def write_record(workdir: str, record: dict) -> None:
    with open(os.path.join(workdir, "run.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
