"""Morsel-driven parallel execution (the DORA/Umbra-style layer).

PR 4 collapsed every key-driven operator onto single-threaded numpy
kernels; this module spreads those kernels across a worker pool.  The
unit of work is a **morsel** — a fixed-size contiguous row range of the
input (:data:`MORSEL_ROWS`, Leis et al.'s morsel-driven parallelism):
each kernel splits its arrays into morsels, runs the per-morsel piece on
the shared :class:`ExecPool` (numpy releases the GIL for the sort /
searchsorted / gather / ufunc primitives the kernels are made of), and
combines the partial results deterministically **in morsel order**.

Determinism is the design constraint, not an afterthought: every
parallel primitive here produces *bit-identical* results to its serial
counterpart, for any worker count and any morsel size.

* **Per-partition dictionary merge** — each morsel dictionary-encodes
  its own values (``np.unique``), the local dictionaries are merged into
  one global, value-ordered code space (``np.unique`` over the much
  smaller dictionary concatenation), and each morsel remaps its rows
  into the global space with ``searchsorted``.  The global dictionary is
  exactly what one big ``np.unique`` would have produced, so the codes
  match :meth:`repro.storage.Column.factorize` bit for bit.
* **Parallel stable argsort** — per-morsel stable argsorts merged
  pairwise with the ``searchsorted`` two-run merge (earlier run wins
  ties).  A stable permutation is *unique*, so the result equals
  ``np.argsort(kind="stable")`` exactly, so a join emits its pairs in
  the same order for any worker count.
* **Partial counts merged by group id** — counts are per-morsel
  ``bincount`` partials summed in morsel order (integer addition is
  associative, so this is exact).  SUM/MIN/MAX/AVG stay serial: one
  scatter pass in row order, so float sums are never re-associated
  through per-partition partials.

Scheduling: :class:`ExecPool` is owned by the :class:`~repro.api.Database`
(``exec_workers``, default the CPU count) and shared by every session,
mirroring a real morsel-driven scheduler's global worker pool.  Kernels
consult :meth:`ParallelContext.active_for` — inputs below
:data:`PARALLEL_MIN_ROWS` (or a 1-worker pool) take the unchanged serial
path, so small queries never pay thread hand-off latency, and
``Database(exec_workers=1)`` *is* the serial engine, preserved as the
oracle for the workers-equivalence fuzz suite.  Tasks submitted by
kernels are always leaves (a morsel task never submits sub-tasks), so
sessions sharing one pool cannot deadlock.

Every morsel execution is timed; :meth:`ExecPool.stats` aggregates
parallel/serial op counts and per-op morsel timings — surfaced by
``Database.parallel_stats()``, profile-report footers and the shell's
``\\workers`` command.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from ..envutil import env_int as _env_int
from ..errors import ExecutionError

#: Rows per morsel: large enough that numpy kernel launch + thread
#: hand-off overhead is amortized, small enough that a 1M-row input
#: yields work for every worker of a desktop-class pool.
MORSEL_ROWS = _env_int("REPRO_MORSEL_ROWS", 65_536)

#: Inputs below this many rows always run the serial kernels — the
#: pool's submit/result latency would exceed the kernel time itself.
PARALLEL_MIN_ROWS = _env_int("REPRO_PARALLEL_MIN_ROWS", 131_072)


def resolve_exec_workers(workers) -> int:
    """Effective kernel worker count: explicit > ``REPRO_EXEC_WORKERS`` >
    CPU count (``os.sched_getaffinity`` where available)."""
    if workers is None or workers == "auto":
        env = _env_int("REPRO_EXEC_WORKERS", 0)
        if env > 0:
            return env
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    try:
        return max(1, int(workers))
    except (TypeError, ValueError):
        raise ExecutionError(
            f"exec_workers must be a positive integer or 'auto', got {workers!r}"
        ) from None


def morsel_spans(n_rows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` row ranges covering ``[0, n_rows)``."""
    size = max(1, int(morsel_rows))
    return [(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


class ParallelStats:
    """Database-wide morsel-execution counters (thread-safe).

    ``parallel_ops`` / ``serial_ops`` count *per-primitive* dispatch
    decisions — one kernel invocation may make several (codify,
    first-occurrence, argsort, probe, emit): a primitive that fanned a
    morsel batch onto the pool vs one that chose the serial path
    because its input was below :data:`PARALLEL_MIN_ROWS` (a 1-worker
    pool counts nothing: kernels never see a context).  ``morsels`` and
    the per-op timing map count the individual pooled tasks.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.parallel_ops: dict[str, int] = {}
        self.serial_ops: dict[str, int] = {}
        self.morsels: dict[str, int] = {}
        self.morsel_seconds: dict[str, float] = {}
        self.morsel_max_seconds: dict[str, float] = {}

    def note_op(self, op: str, parallel: bool) -> None:
        with self._mutex:
            bucket = self.parallel_ops if parallel else self.serial_ops
            bucket[op] = bucket.get(op, 0) + 1

    def note_morsels(self, op: str, timings: Sequence[float]) -> None:
        if not timings:
            return
        with self._mutex:
            self.morsels[op] = self.morsels.get(op, 0) + len(timings)
            self.morsel_seconds[op] = self.morsel_seconds.get(op, 0.0) + sum(
                timings
            )
            self.morsel_max_seconds[op] = max(
                self.morsel_max_seconds.get(op, 0.0), max(timings)
            )

    def snapshot(self) -> dict:
        with self._mutex:
            morsel_total = sum(self.morsels.values())
            seconds_total = sum(self.morsel_seconds.values())
            return {
                "parallel_ops": dict(self.parallel_ops),
                "serial_ops": dict(self.serial_ops),
                "parallel_op_total": sum(self.parallel_ops.values()),
                "serial_op_total": sum(self.serial_ops.values()),
                "morsels": dict(self.morsels),
                "morsel_total": morsel_total,
                "morsel_seconds": {
                    op: round(s, 6) for op, s in self.morsel_seconds.items()
                },
                "morsel_seconds_total": round(seconds_total, 6),
                "morsel_max_ms": {
                    op: round(s * 1000, 3)
                    for op, s in self.morsel_max_seconds.items()
                },
            }


class ExecPool:
    """The shared kernel worker pool of one :class:`~repro.api.Database`.

    The :class:`~concurrent.futures.ThreadPoolExecutor` is created
    lazily on the first parallel kernel (a 1-worker database never
    spawns a thread) and shared by every session — the morsel scheduler
    analogue of one global worker pool per server process.
    """

    def __init__(
        self,
        workers: int | str | None = "auto",
        *,
        morsel_rows: Optional[int] = None,
        min_rows: Optional[int] = None,
    ) -> None:
        self.workers = resolve_exec_workers(workers)
        self.morsel_rows = MORSEL_ROWS if morsel_rows is None else max(1, int(morsel_rows))
        self.min_rows = PARALLEL_MIN_ROWS if min_rows is None else max(0, int(min_rows))
        self.stats = ParallelStats()
        self._mutex = threading.Lock()
        self._closed = False
        self._executor: Optional[ThreadPoolExecutor] = None

    def executor(self) -> Optional[ThreadPoolExecutor]:
        """The lazily-created executor, or None once the pool is shut
        down — statements still holding a retired pool (a concurrent
        ``set_exec_workers``) then run their remaining morsels inline
        instead of resurrecting stray threads on the orphan."""
        with self._mutex:
            if self._executor is None and not self._closed:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-exec",
                )
            return self._executor

    def shutdown(self, wait: bool = False) -> None:
        """Retire the pool.  ``wait=False`` (the ``set_exec_workers``
        resize path) lets in-flight morsels finish on their threads;
        ``wait=True`` (the :meth:`~repro.api.Database.close` teardown
        path) joins every worker thread so nothing dangles at
        interpreter exit."""
        with self._mutex:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def context(self) -> Optional["ParallelContext"]:
        """The per-statement handle kernels receive (None when the pool
        cannot parallelize anything, so serial call sites stay free)."""
        if self.workers <= 1:
            return None
        return ParallelContext(self)


class ParallelContext:
    """What kernels see: the morsel splitter + pooled map of one pool.

    A tiny façade so kernels never touch the executor directly; it is
    also the duck-typed ``runner`` protocol of
    :meth:`repro.storage.Column.factorize` (``active_for`` / ``spans`` /
    ``map``), which keeps :mod:`repro.storage` free of any dependency on
    this module.
    """

    __slots__ = ("pool",)

    def __init__(self, pool: ExecPool) -> None:
        self.pool = pool

    @property
    def workers(self) -> int:
        return self.pool.workers

    def active_for(self, n_rows: int) -> bool:
        """Whether an ``n_rows`` input is worth splitting into morsels."""
        return (
            self.pool.workers > 1
            and n_rows >= self.pool.min_rows
            and n_rows > self.pool.morsel_rows
        )

    def spans(self, n_rows: int) -> list[tuple[int, int]]:
        return morsel_spans(n_rows, self.pool.morsel_rows)

    def note_serial(self, op: str) -> None:
        """Record that a kernel primitive chose the serial path (input
        below the threshold) despite a live multi-worker pool."""
        self.pool.stats.note_op(op, parallel=False)

    def map(self, op: str, fn: Callable, items: Sequence) -> list:
        """Run ``fn(item)`` for every item on the pool; results in input
        order.  Each task is timed into the per-op morsel stats.  A
        single-item batch (or a retired pool, see
        :meth:`ExecPool.executor`) runs inline and counts nothing —
        ``serial_ops`` tracks whole primitives that *chose* the serial
        path, not degenerate dispatches inside a parallel one."""
        executor = self.pool.executor() if len(items) > 1 else None
        if executor is None:
            return [fn(item) for item in items]
        timings = [0.0] * len(items)

        def timed(index: int, item):
            start = time.perf_counter()
            result = fn(item)
            timings[index] = time.perf_counter() - start
            return result

        futures = []
        try:
            for index, item in enumerate(items):
                futures.append(executor.submit(timed, index, item))
        except RuntimeError:
            # the pool was retired mid-submit (a concurrent
            # set_exec_workers): already-queued futures still drain on
            # the old workers; run the rest inline, count nothing
            head = [future.result() for future in futures]
            return head + [fn(item) for item in items[len(head):]]
        results = [future.result() for future in futures]
        self.pool.stats.note_op(op, parallel=True)
        self.pool.stats.note_morsels(op, timings)
        return results


def map_tasks(pool: "ExecPool | None", op: str, fn: Callable, items) -> list:
    """Run ``fn(item)`` for every item on ``pool`` (results in input
    order), inline when the pool cannot parallelize.  The convenience
    entry for callers holding a bare :class:`ExecPool` (COPY's CSV
    chunk parsing) rather than a per-statement context."""
    items = list(items)
    ctx = pool.context() if pool is not None else None
    if ctx is None or len(items) <= 1:
        return [fn(item) for item in items]
    return ctx.map(op, fn, items)


# ---------------------------------------------------------------------------
# deterministic parallel primitives
# ---------------------------------------------------------------------------
def parallel_unique_inverse(
    values: np.ndarray, par: ParallelContext, op: str = "codify"
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` with per-partition
    dictionaries merged into one global dictionary — bit-identical to
    the serial call (the merged dictionary is the same sorted unique
    set, and ``searchsorted`` against it reproduces the inverse).
    Delegates to the single shared merge implementation next to
    ``Column.factorize`` (one copy to keep bit-identical)."""
    from ..storage.column import unique_inverse_morsels

    return unique_inverse_morsels(values, par, op=op)


def _table_radix_bound(par: ParallelContext) -> int:
    """Largest per-morsel scatter/bincount table the radix-keyed fast
    paths may allocate: every morsel holds one radix-sized table until
    the merge, so bounding radix by the morsel size caps the transient
    memory of the whole batch at ~8 bytes per input row."""
    return max(par.pool.morsel_rows, 1024)


def parallel_bincount(
    ids: np.ndarray,
    n_bins: int,
    par: ParallelContext,
    *,
    valid: Optional[np.ndarray] = None,
    op: str = "aggregate",
) -> np.ndarray:
    """Per-morsel ``bincount`` partials summed in morsel order (exact:
    integer addition is associative).  High-cardinality id spaces run
    one serial ``bincount`` instead — O(morsels x n_bins) partials
    would dwarf the input itself."""
    if n_bins > _table_radix_bound(par):
        chunk = ids if valid is None else ids[valid]
        return np.bincount(chunk, minlength=n_bins).astype(np.int64)

    def count(span: tuple[int, int]) -> np.ndarray:
        start, stop = span
        chunk = ids[start:stop]
        if valid is not None:
            chunk = chunk[valid[start:stop]]
        return np.bincount(chunk, minlength=n_bins)

    partials = par.map(op, count, par.spans(len(ids)))
    if not partials:
        return np.zeros(n_bins, dtype=np.int64)
    total = partials[0].astype(np.int64, copy=True)
    for partial in partials[1:]:
        total += partial
    return total


def _merge_runs(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stable two-run merge: ``a`` precedes ``b`` on equal keys, so the
    merged run is exactly what one stable sort over both would give."""
    keys_a, rows_a = a
    keys_b, rows_b = b
    pos_a = np.arange(len(keys_a), dtype=np.int64) + np.searchsorted(
        keys_b, keys_a, side="left"
    )
    pos_b = np.arange(len(keys_b), dtype=np.int64) + np.searchsorted(
        keys_a, keys_b, side="right"
    )
    keys = np.empty(len(keys_a) + len(keys_b), dtype=keys_a.dtype)
    rows = np.empty(len(keys), dtype=np.int64)
    keys[pos_a] = keys_a
    keys[pos_b] = keys_b
    rows[pos_a] = rows_a
    rows[pos_b] = rows_b
    return keys, rows


def parallel_stable_argsort(
    keys: np.ndarray,
    par: ParallelContext,
    op: str = "argsort",
    radix: Optional[int] = None,
) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, morsel-parallel.

    Per-morsel stable argsorts are merged pairwise (tree-shaped, each
    level's merges run concurrently).  The stable permutation of an
    array is unique, so the result is bit-identical to the serial sort.

    When the keys are dense ids with a known small ``radix`` (join
    codes) the merge tree is replaced by one counting-sort
    placement pass: per-morsel bincounts give every (morsel, id) pair
    its output offset, and each morsel scatters its locally-sorted rows
    straight into the final permutation — the same unique stable order
    (ids ascending; within an id, morsels ascend and rows within a
    morsel ascend) at O(n) merge cost instead of O(n log P).
    """
    spans = par.spans(len(keys))
    if len(spans) <= 1:
        return np.argsort(keys, kind="stable")
    if radix is not None and radix <= _table_radix_bound(par):
        return _counting_argsort(keys, par, op, radix, spans)

    def local(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = span
        chunk = keys[start:stop]
        order = np.argsort(chunk, kind="stable")
        return chunk[order], order + start

    runs = par.map(op, local, spans)
    while len(runs) > 1:
        pairs = [
            (runs[index], runs[index + 1]) for index in range(0, len(runs) - 1, 2)
        ]
        merged = par.map(op, lambda pair: _merge_runs(*pair), pairs)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0][1]


def _counting_argsort(
    keys: np.ndarray,
    par: ParallelContext,
    op: str,
    radix: int,
    spans: list[tuple[int, int]],
) -> np.ndarray:
    """The dense-id fast path of :func:`parallel_stable_argsort`."""

    def local(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        start, stop = span
        chunk = keys[start:stop]
        order = np.argsort(chunk, kind="stable")
        return np.bincount(chunk, minlength=radix), chunk[order], order + start

    locals_ = par.map(op, local, spans)
    total = np.zeros(radix, dtype=np.int64)
    for counts, _, _ in locals_:
        total += counts
    starts = np.concatenate(([0], np.cumsum(total)[:-1]))
    out = np.empty(len(keys), dtype=np.int64)
    # base[g] walks forward morsel by morsel: each morsel's rows of
    # group g land right after every earlier morsel's
    base = starts

    def place(
        task: tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> None:
        morsel_base, (counts, sorted_ids, sorted_rows) = task
        local_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        targets = (
            morsel_base[sorted_ids]
            + np.arange(len(sorted_ids), dtype=np.int64)
            - local_starts[sorted_ids]
        )
        out[targets] = sorted_rows

    tasks = []
    for counts, sorted_ids, sorted_rows in locals_:
        tasks.append((base, (counts, sorted_ids, sorted_rows)))
        base = base + counts
    par.map(op, place, tasks)
    return out


def parallel_take(
    values: np.ndarray, indices: np.ndarray, par: ParallelContext, op: str = "gather"
) -> np.ndarray:
    """``values[indices]`` with the gather split into index morsels."""
    spans = par.spans(len(indices))
    out = np.empty(len(indices), dtype=values.dtype)

    def gather(span: tuple[int, int]) -> None:
        start, stop = span
        np.take(values, indices[start:stop], out=out[start:stop])

    par.map(op, gather, spans)
    return out


def parallel_first_rows(
    ids: np.ndarray,
    par: ParallelContext,
    op: str = "distinct",
    radix: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(unique ids ascending, first row of each)`` — the merged
    first-occurrence map of the per-morsel dictionaries.

    Each morsel reports its local first-occurrence map; the merge keeps
    the *minimum* first row per id, which is the global first occurrence
    regardless of how rows were partitioned.  With a known small
    ``radix`` the local maps are radix-sized scatter tables (O(morsel)
    each, mirroring the serial kernel's reversed-scatter trick) merged
    by elementwise minimum; otherwise each morsel sorts
    (``np.unique``).  Both merges produce the identical map.
    """
    n_rows = len(ids)
    spans = par.spans(n_rows)
    if radix is not None and radix <= _table_radix_bound(par):

        def table(span: tuple[int, int]) -> np.ndarray:
            start, stop = span
            first = np.full(radix, n_rows, dtype=np.int64)
            first[ids[stop - 1 : (start - 1 if start else None) : -1]] = (
                np.arange(stop - 1, start - 1, -1, dtype=np.int64)
            )
            return first

        tables = par.map(op, table, spans)
        merged = tables[0]
        for other in tables[1:]:
            np.minimum(merged, other, out=merged)
        present = np.flatnonzero(merged < n_rows)
        return present, merged[present]

    def local(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = span
        uniques, first = np.unique(ids[start:stop], return_index=True)
        return uniques, first + start

    locals_ = par.map(op, local, spans)
    all_ids = np.concatenate([u for u, _ in locals_])
    all_first = np.concatenate([f for _, f in locals_])
    # sort by (id, first row); the first entry per id is the global first
    order = np.lexsort((all_first, all_ids))
    all_ids = all_ids[order]
    all_first = all_first[order]
    keep = np.ones(len(all_ids), dtype=np.bool_)
    keep[1:] = all_ids[1:] != all_ids[:-1]
    return all_ids[keep], all_first[keep]


def parallel_membership(
    probe_ids: np.ndarray,
    key_ids: np.ndarray,
    radix: int,
    small_radix: bool,
    par: ParallelContext,
    op: str = "setop",
) -> np.ndarray:
    """``probe_ids ∈ key_ids`` with the probe side split into morsels
    (the key side is prepared once: a scatter table for small key
    spaces, a sorted unique array + ``searchsorted`` probe otherwise)."""
    out = np.empty(len(probe_ids), dtype=np.bool_)
    if small_radix:
        table = np.zeros(radix, dtype=np.bool_)
        table[key_ids] = True

        def probe(span: tuple[int, int]) -> None:
            start, stop = span
            np.take(table, probe_ids[start:stop], out=out[start:stop])

    else:
        sorted_keys = np.unique(key_ids)

        def probe(span: tuple[int, int]) -> None:
            start, stop = span
            chunk = probe_ids[start:stop]
            slots = np.searchsorted(sorted_keys, chunk)
            slots[slots == len(sorted_keys)] = 0
            found = sorted_keys[slots] == chunk if len(sorted_keys) else (
                np.zeros(len(chunk), dtype=np.bool_)
            )
            out[start:stop] = found

    par.map(op, probe, par.spans(len(probe_ids)))
    return out
