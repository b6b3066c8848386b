"""Public API: an embedded database speaking the extended SQL dialect.

Typical use::

    from repro import Database

    db = Database()
    db.execute("CREATE TABLE friends (src INT, dst INT, weight DOUBLE)")
    db.execute("INSERT INTO friends VALUES (1, 2, 0.5), (2, 3, 2.0)")
    result = db.execute(
        "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)",
        (1, 3),
    )
    print(result.rows())   # [(2,)]

Shortest-path queries follow the paper's syntax: ``REACHES ... OVER ...
EDGE (S, D)`` in WHERE, ``CHEAPEST SUM(e: expr)`` (optionally
``AS (cost, path)``) in SELECT, and ``UNNEST(path)`` in FROM.

Concurrency and caching
-----------------------
A :class:`Database` is safe to share across threads.  Statements acquire
per-table reader/writer locks, so SELECTs run concurrently while DML
gets exclusive access to the tables it writes.  The idiomatic
multi-threaded shape is one :class:`~repro.session.Session` per thread::

    db = Database()
    with db.connect() as session:
        stmt = session.prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? "
                               "OVER friends EDGE (src, dst)")
        stmt.execute((1, 3))   # plan-cache hit on every re-execution

Two caches sit behind the SQL surface, both thread-safe, LRU-bounded and
invalidated by DML/DDL on the tables they depend on:

* the **plan cache** (``plan_cache_capacity``, default 128) keyed on SQL
  text — repeat executions skip parse → bind → rewrite; hit/miss
  counters appear in ``EXPLAIN`` output and profiler reports;
* the **graph-index cache** inside :class:`GraphIndexManager`
  (``graph_cache_capacity``, default 16) holding prepared domain+CSR
  structures for ``CREATE GRAPH INDEX`` definitions.

Large shortest-path batches share the kernels' worker pool
(``exec_workers``, "auto" by default): their source groups run as
morsel-pool tasks, see :meth:`repro.graph.GraphLibrary.solve_encoded`.
``exec_workers=1`` or ``vectorized=False`` solves them serially.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import Any, Iterable, Optional, Sequence

from .errors import (
    CatalogError,
    DatabaseClosedError,
    ExecutionError,
    ReproError,
    TransactionConflictError,
    TransactionError,
)
from .exec import graph_ops  # noqa: F401 - registers the graph operators
from .exec.batch import Batch
from .exec.kernels import KernelCounters
from .exec.operators import ExecContext, execute_plan
from .exec.parallel import ExecPool
from .envutil import env_int
from .graph import GraphLibrary, GraphOverlayState, edge_valid_mask
from .nested import NestedTableValue
from .plan import (
    Binder,
    BoundAnalyze,
    BoundBegin,
    BoundCommit,
    BoundRollback,
    BoundCopy,
    BoundCreateGraphIndex,
    BoundCreateTable,
    BoundCreateTableAs,
    BoundDelete,
    BoundDropGraphIndex,
    BoundDropTable,
    BoundExplain,
    BoundInsert,
    BoundQuery,
    BoundUpdate,
    explain_physical,
    optimize,
)
from .session import PlanCache, Session, Transaction, referenced_tables
from .sql import parse_script, parse_statement
from .sql.normalize import merge_params, normalize_statement
from .storage import (
    TXN_VERSION_BASE,
    Catalog,
    Column,
    DataType,
    LockSet,
    Schema,
    Snapshot,
    StatsManager,
    StorageCounters,
    Table,
    TableVersion,
    WriteInfo,
    build_appended_columns,
    bulk_columns,
    concat_for_append,
    days_to_date,
    encode_columns,
    factorize_counters,
    read_csv_vectors,
    read_npz_vectors,
)
from .storage.spill import SpillCounters, SpillManager


#: Leading words of the statement kinds the plan cache can hold; other
#: statements (UPDATE, DELETE, DDL, EXPLAIN, ANALYZE) skip the literal
#: normalization pass entirely — they could never be served from the
#: normalized index, so tokenizing them for it is wasted work.
_CACHEABLE_PREFIXES = ("SELECT", "WITH", "VALUES", "INSERT", "(")


def _cacheable_statement(sql: str) -> bool:
    head = sql.lstrip()[:8].upper()
    return head.startswith(_CACHEABLE_PREFIXES)


class Result:
    """The outcome of one statement.

    Queries expose rows via :meth:`rows` / iteration; DDL/DML expose
    ``rowcount``.  DATE values come back as :class:`datetime.date`; paths
    come back as :class:`~repro.nested.NestedTableValue` with
    ``to_rows()`` / ``to_dicts()`` accessors (flatten them in SQL with
    UNNEST when you want plain tuples).
    """

    def __init__(self, batch: Optional[Batch], rowcount: int = -1):
        self._batch = batch
        self.rowcount = rowcount

    @staticmethod
    def from_text_lines(column_name: str, lines: list[str]) -> "Result":
        """A single-VARCHAR-column result (used by EXPLAIN)."""
        from .plan.logical import PlanColumn

        column = Column.from_values(DataType.VARCHAR, list(lines))
        schema = (PlanColumn(0, column_name, DataType.VARCHAR),)
        return Result(Batch(schema, [column]))

    @property
    def is_query(self) -> bool:
        return self._batch is not None

    @property
    def column_names(self) -> list[str]:
        if self._batch is None:
            return []
        return [c.name for c in self._batch.schema]

    def __len__(self) -> int:
        return self._batch.num_rows if self._batch is not None else 0

    def rows(self) -> list[tuple]:
        """All result rows as Python tuples."""
        if self._batch is None:
            return []
        decoded = []
        for col, plan_col in zip(self._batch.columns, self._batch.schema):
            decoded.append(col.to_pylist(decode_dates=True))
        return [
            tuple(col[i] for col in decoded) for i in range(self._batch.num_rows)
        ]

    fetchall = rows

    def __iter__(self):
        return iter(self.rows())

    def scalar(self) -> Any:
        """The single value of a 1x1 result (None for an empty result)."""
        rows = self.rows()
        if not rows:
            return None
        if len(rows) > 1 or len(rows[0]) != 1:
            raise ExecutionError("scalar() requires a single-row, single-column result")
        return rows[0][0]

    def to_dicts(self) -> list[dict]:
        names = self.column_names
        return [dict(zip(names, row)) for row in self.rows()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._batch is None:
            return f"<Result rowcount={self.rowcount}>"
        return f"<Result {self._batch.num_rows} rows: {', '.join(self.column_names)}>"


class GraphIndexManager:
    """The paper's Section-6 'graph indices': prepared CSRs keyed on the
    edge table.

    The cache of built libraries is thread-safe, capacity-bounded (LRU)
    and *versioned*: every entry records the edge table's version counter
    at build time and is re-validated against the requested version on
    every lookup, so a stale CSR is never served.

    Each cached index carries a :class:`~repro.graph.overlay.GraphOverlayState`:
    committed appends/deletes/updates fold into a CSR delta
    (:meth:`apply_write`, wired to the table write listeners by
    :class:`Database`), lookups serve base+overlay merged libraries, and
    the first lookup after the delta reaches ``compact_threshold``
    operations compacts the index back into a canonical fresh build
    (``compact_threshold=1`` therefore rebuilds after every write — the
    full-rebuild oracle).  Writes the overlay cannot interpret
    (truncate, whole-table replace, commits of multi-statement
    transactions, endpoint-column updates) invalidate the entry instead,
    and the next lookup rebuilds from scratch.

    Every library the cache holds is marked
    :attr:`~repro.graph.GraphLibrary.indexed`, so it keeps its transpose
    (built on its first single-target query) until it is evicted.  The
    traversal counters (:meth:`note_solve`) count every path statement,
    indexed or not: transposes built, pairs answered bidirectionally and
    forward traversals.
    """

    def __init__(
        self,
        catalog: Catalog,
        capacity: int = 16,
        *,
        compact_threshold: int = 8192,
    ):
        self._catalog = catalog
        self.capacity = max(1, int(capacity))
        self._mutex = threading.RLock()
        self._specs: dict[str, tuple[str, str, str]] = {}
        self._cache: "OrderedDict[tuple[str, str, str], tuple[int, GraphLibrary]]" = (
            OrderedDict()
        )
        self.compact_threshold = max(1, int(compact_threshold))
        #: spec -> GraphOverlayState for every cached base build; kept in
        #: lockstep with ``_cache`` (evicting one drops the other).
        self._states: "dict[tuple[str, str, str], GraphOverlayState]" = {}
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self.invalidations = 0
        self.overlay_hits = 0
        self.overlay_applied = 0
        self.overlay_merges = 0
        self.transpose_builds = 0
        self.bidirectional_pairs = 0
        self.forward_traversals = 0

    def create(self, name: str, table: str, src_col: str, dst_col: str) -> None:
        schema = self._catalog.get(table).schema
        for column in (src_col, dst_col):
            if not schema.has(column):
                raise CatalogError(
                    f"table {table!r} has no column {column!r} for graph index"
                )
        with self._mutex:
            if name in self._specs:
                raise CatalogError(f"graph index already exists: {name!r}")
            self._specs[name] = (table.lower(), src_col.lower(), dst_col.lower())

    def drop(self, name: str) -> None:
        with self._mutex:
            try:
                spec = self._specs.pop(name)
            except KeyError:
                raise CatalogError(f"unknown graph index: {name!r}") from None
            if spec not in self._specs.values():
                self._cache.pop(spec, None)
                self._states.pop(spec, None)

    def names(self) -> list[str]:
        with self._mutex:
            return sorted(self._specs)

    def specs(self) -> dict[str, tuple[str, str, str]]:
        """name -> (table, src column, dst column), for persistence."""
        with self._mutex:
            return dict(self._specs)

    def cached_library(
        self, name: str, version_id: int
    ) -> Optional[GraphLibrary]:
        """The already-built library of index ``name``, but only when it
        was built from exactly table version ``version_id`` — a pure
        cache peek (no build, no LRU reordering), for the persistence
        layer: ``save()`` serializes the CSRs that exist, it never pays
        a build or evicts hot entries for an index nobody queried."""
        with self._mutex:
            spec = self._specs.get(name)
            if spec is None:  # pragma: no cover - defensive
                return None
            cached = self._cache.get(spec)
            if cached is not None and cached[0] == version_id:
                return cached[1]
            return None

    def seed(self, name: str, library: GraphLibrary) -> None:
        """Install a pre-built library for index ``name``, keyed to the
        table's *current* committed version — the ``load()`` path that
        restores persisted CSRs so the first graph query after a reload
        skips the build entirely."""
        with self._mutex:
            spec = self._specs.get(name)
            if spec is None:  # pragma: no cover - defensive
                return
            version = self._catalog.get(spec[0]).current()
            library.indexed = True
            self._cache[spec] = (version.version_id, library)
            self._cache.move_to_end(spec)
            self._states.pop(spec, None)
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """LRU-evict cache entries past capacity (mutex held), dropping
        the paired overlay state with each."""
        while len(self._cache) > self.capacity:
            spec, _ = self._cache.popitem(last=False)
            self._states.pop(spec, None)
            self.evictions += 1

    def clear_cache(self) -> None:
        """Drop every cached library (the :meth:`Database.close` path:
        a cached CSR pins the table version it was built from — clearing
        releases those references; index *definitions* survive)."""
        with self._mutex:
            self._cache.clear()
            self._states.clear()

    def drop_for_table(self, table: str) -> None:
        """Drop the index *definitions* over ``table`` along with their
        cached libraries (DROP TABLE hook) — an orphaned spec would make
        a later :meth:`Database.save`/``load`` round-trip fail on the
        missing table."""
        key = table.lower()
        with self._mutex:
            for name in [n for n, s in self._specs.items() if s[0] == key]:
                del self._specs[name]
            stale = [spec for spec in self._cache if spec[0] == key]
            for spec in stale:
                del self._cache[spec]
                self._states.pop(spec, None)
            self.invalidations += len(stale)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_write(self, table: Table, info: WriteInfo) -> None:
        """Fold one committed mutation into the overlay state of every
        index over ``table`` (the write-listener hook).

        A write the overlay cannot interpret — or a table with a cached
        build but no state — degrades to invalidation: the next lookup
        rebuilds from scratch.
        """
        key = table.name
        with self._mutex:
            specs = [s for s in set(self._specs.values()) if s[0] == key]
            if not specs:
                return
            version = table.current()
            for spec in specs:
                state = self._states.get(spec)
                if state is None:
                    if self._cache.pop(spec, None) is not None:
                        self.invalidations += 1
                    continue
                ok = False
                try:
                    with state.lock:
                        if info.kind == "append":
                            ok = state.apply_append(
                                version,
                                version.column(spec[1]),
                                version.column(spec[2]),
                                info.appended,
                            )
                        elif (
                            info.kind == "delete"
                            and info.dropped_rows is not None
                        ):
                            ok = state.apply_delete(version, info.dropped_rows)
                        elif info.kind == "update":
                            ok = state.apply_update(
                                version, info.columns, (spec[1], spec[2])
                            )
                except Exception:
                    ok = False
                if not ok:
                    self._states.pop(spec, None)
                    self._cache.pop(spec, None)
                    self.invalidations += 1
                    continue
                self.overlay_applied += 1

    @staticmethod
    def _build_library(
        version: TableVersion, src_col: str, dst_col: str
    ) -> tuple[GraphLibrary, "Any"]:
        """A canonical fresh build from an immutable table version (run
        outside the mutex: CSR construction can be slow and must not
        serialize lookups of other indices)."""
        src = version.column(src_col)
        dst = version.column(dst_col)
        valid = ~(src.null_mask() | dst.null_mask())
        return GraphLibrary(src.data[valid], dst.data[valid]), valid

    def _install_build(
        self,
        spec: tuple,
        version: TableVersion,
        library: GraphLibrary,
        valid,
        compacted: bool = False,
    ) -> None:
        """Cache a fresh build and its new overlay state."""
        with self._mutex:
            self.builds += 1
            cached = self._cache.get(spec)
            if version.version_id < TXN_VERSION_BASE and (
                cached is None or cached[0] <= version.version_id
            ):
                # never cache transaction-private (uncommitted) builds,
                # and never let an old-snapshot build clobber a fresher
                # cached CSR (a long transaction would otherwise thrash
                # the slot against current-version queries)
                library.indexed = True
                self._cache[spec] = (version.version_id, library)
                self._cache.move_to_end(spec)
                existing = self._states.get(spec)
                if (
                    existing is None
                    or existing.applied_version <= version.version_id
                ):
                    self._states[spec] = GraphOverlayState(
                        library, version.version_id, valid
                    )
                if compacted:
                    self.overlay_merges += 1
                self._evict_over_capacity()

    def library_for_save(
        self, name: str, version_id: int
    ) -> Optional[GraphLibrary]:
        """The library to persist for index ``name`` at table version
        ``version_id``, or None when nothing is cached (``save()`` never
        force-builds an index nobody queried).

        With a zero-delta overlay state the canonical base serves; a
        state carrying deltas is compacted first, since the on-disk
        format stores a sorted vertex dictionary and a tombstone-free
        CSR — the compaction also benefits every later query.
        """
        with self._mutex:
            spec = self._specs.get(name)
            if spec is None:  # pragma: no cover - defensive
                return None
            cached = self._cache.get(spec)
            if cached is not None and cached[0] == version_id:
                return cached[1]
            state = self._states.get(spec)
        if state is None:
            return None
        with state.lock:
            if state.applied_version != version_id:
                return None
            if state.delta_size == 0:
                return state.base
        try:
            version = self._catalog.get(spec[0]).current()
        except CatalogError:  # pragma: no cover - concurrent drop
            return None
        if version.version_id != version_id:
            return None
        library, valid = self._build_library(version, spec[1], spec[2])
        self._install_build(spec, version, library, valid, compacted=True)
        return library

    def overlay_info(self) -> dict:
        """Per-index overlay introspection for ``\\graph`` and tests."""
        with self._mutex:
            named = dict(self._specs)
            states = dict(self._states)
        indices = {}
        for name, spec in sorted(named.items()):
            state = states.get(spec)
            if state is None:
                indices[name] = None
            else:
                with state.lock:
                    indices[name] = state.describe()
        return {
            "compact_threshold": self.compact_threshold,
            "overlay_hits": self.overlay_hits,
            "overlay_applied": self.overlay_applied,
            "overlay_merges": self.overlay_merges,
            "indices": indices,
        }

    def lookup(
        self,
        table: str,
        src_col: str,
        dst_col: str,
        table_version: Optional[TableVersion] = None,
    ) -> Optional[GraphLibrary]:
        """A prepared library for (table, S, D), or None if not indexed.

        ``table_version`` pins the lookup to a snapshot's view of the
        edge table: the cached library is served only when it was built
        from exactly that version, and a rebuild reads the snapshot's
        immutable columns.  Without it the table's current committed
        version is used.  Rebuilds happen lazily whenever the requested
        version differs from the cached build.

        An overlay state tracking the requested version serves its base
        (zero delta) or the base+overlay merged library — no rebuild
        after DML; a delta at ``compact_threshold`` compacts here first.
        """
        spec = (table.lower(), src_col.lower(), dst_col.lower())
        seed_library = None
        compacting = False
        with self._mutex:
            if spec not in self._specs.values():
                return None
            version = (
                table_version
                if table_version is not None
                else self._catalog.get(spec[0]).current()
            )
            state = self._states.get(spec)
            if state is not None:
                with state.lock:
                    library = state.library_for(version.version_id)
                    delta = state.delta_size
                if library is not None:
                    if delta < self.compact_threshold:
                        self.hits += 1
                        if delta:
                            self.overlay_hits += 1
                        if spec in self._cache:
                            self._cache.move_to_end(spec)
                        return library
                    compacting = True  # fall through to a canonical build
            if not compacting:
                cached = self._cache.get(spec)
                if cached is not None and cached[0] == version.version_id:
                    self._cache.move_to_end(spec)
                    self.hits += 1
                    if state is not None or version.version_id >= TXN_VERSION_BASE:
                        return cached[1]
                    # a seeded/loaded build with no overlay state yet:
                    # create one so later DML maintains it incrementally
                    seed_library = cached[1]
                else:
                    self.misses += 1
        if seed_library is not None:
            valid = edge_valid_mask(
                version.column(src_col),
                version.column(dst_col),
                version.num_rows,
            )
            with self._mutex:
                cached = self._cache.get(spec)
                if (
                    cached is not None
                    and cached[0] == version.version_id
                    and spec not in self._states
                ):
                    self._states[spec] = GraphOverlayState(
                        seed_library, version.version_id, valid
                    )
            return seed_library
        # Build outside the mutex: CSR construction can be slow and must
        # not serialize lookups of other indices.  No locks at all — the
        # TableVersion is immutable, so the build can never observe a
        # half-applied write, and its version id keys the cache entry.
        library, valid = self._build_library(version, src_col, dst_col)
        self._install_build(spec, version, library, valid, compacted=compacting)
        return library

    def note_solve(self, result) -> None:
        """Count the searches one library call ran (a
        :class:`~repro.graph.ShortestPathResult`)."""
        with self._mutex:
            self.transpose_builds += result.transpose_builds
            self.bidirectional_pairs += result.bidirectional_pairs
            self.forward_traversals += result.forward_traversals

    def stats(self) -> dict[str, int]:
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "entries": len(self._cache),
                "capacity": self.capacity,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "overlay_states": len(self._states),
                "overlay_hits": self.overlay_hits,
                "overlay_applied": self.overlay_applied,
                "overlay_merges": self.overlay_merges,
                "transpose_builds": self.transpose_builds,
                "bidirectional_pairs": self.bidirectional_pairs,
                "forward_traversals": self.forward_traversals,
            }


class Appender:
    """A bulk-append channel for one table (DuckDB-appender flavoured).

    Obtained from :meth:`Database.appender` (or
    :meth:`~repro.session.Session.appender`).  Each :meth:`append` call
    takes whole **column vectors** — numpy arrays ride the vectorized
    ingest path, lists the chunked per-value coercion path — and commits
    them as ONE columnar batch: one new table version, zone maps extended
    over the tail, graph overlays fed the append delta.  No per-row
    Python loop anywhere.

    With a session whose transaction is open, appends buffer into the
    transaction (visible to its own statements, published on COMMIT,
    first-committer-wins unchanged); otherwise each append autocommits.

    Usage::

        app = db.appender("edges")
        app.append({"src": src_array, "dst": dst_array})
        app.append([src_list, dst_list, weights], columns=["src", "dst", "w"])
    """

    __slots__ = ("_database", "table", "_session", "closed")

    def __init__(self, database: "Database", table: str, session=None):
        self._database = database
        self.table = database.catalog.get(table).name
        self._session = session
        self.closed = False

    def append(self, values, columns: Optional[Sequence[str]] = None) -> int:
        """Append one columnar batch; returns the row count.

        ``values`` is a mapping of column name → vector, or a sequence
        of vectors aligned with ``columns`` (or the table's column
        order).  Missing columns fill with NULLs.
        """
        if self.closed:
            raise ExecutionError("appender is closed")
        db = self._database
        db._check_open()
        txn = db._active_transaction(self._session)
        if txn is not None:
            version = txn.snapshot.table_version(self.table)
            fresh = bulk_columns(
                version.schema, values, db.exec_pool.context(), columns
            )
            count = len(fresh[0]) if fresh else 0
            if count == 0:
                return 0
            combined = [
                concat_for_append(old, new)
                for old, new in zip(version.columns, fresh)
            ]
            txn.record_write(self.table, combined)
            return count
        with db._write_locks({self.table}):
            table = db.catalog.get(self.table)
            fresh = bulk_columns(
                table.schema, values, db.exec_pool.context(), columns
            )
            if not fresh or len(fresh[0]) == 0:
                return 0
            if db.wal is None:
                return table.insert_columns(fresh)
            # bulk batches log columnar (raw npy blobs), not row JSON
            with db.wal.mutex:
                lsn = db.wal.log_append(table.name, fresh)
                count = table.insert_columns(fresh)
        db.wal.sync(lsn)
        return count

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Row-tuple convenience: transpose into column vectors and
        :meth:`append` them (still one columnar commit)."""
        rows = list(rows)
        if not rows:
            return 0
        return self.append([list(column) for column in zip(*rows)])

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "Appender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Appender table={self.table!r}>"


class Database:
    """An in-process, thread-safe database instance (catalog + executor).

    Parameters
    ----------
    plan_cache_capacity:
        LRU bound of the prepared-statement plan cache (SQL text → plan).
    graph_cache_capacity:
        LRU bound of the graph-index cache (built domain+CSR libraries).
    optimizer:
        When True (default) statements run through the full cost-based
        optimizer (generalized filter pushdown, statistics-driven join
        reordering, hash-join build-side selection, projection pruning,
        graph-operator pushdown).  When False only the paper's legacy
        rewriter runs — the baseline for equivalence testing and
        benchmarks.
    parameterize:
        When True (default) plan-cache keys are additionally normalized
        (literals become parameters, :mod:`repro.sql.normalize`) so
        textually different statements share one cached plan.
    vectorized:
        When True (default) key-driven operators (DISTINCT, GROUP BY,
        equi-join probing, set operations, ORDER BY, recursive-CTE
        dedup) run on the factorized-key kernels of
        :mod:`repro.exec.kernels`; uncodifiable inputs fall back to the
        row-at-a-time paths automatically (counted, see
        :meth:`kernel_stats`).  When False every operator takes the
        original row-at-a-time path — the correctness oracle for the
        kernel fuzz tests and the baseline for ``BENCH_exec.json`` — and
        shortest-path batches are solved serially.
    exec_workers:
        Kernel worker threads for morsel-driven parallel execution
        (:mod:`repro.exec.parallel`): a positive int, or ``"auto"``
        (respect ``REPRO_EXEC_WORKERS`` / the CPU count).  The pool is
        owned by the database and shared by every session.  Large
        key-driven operator inputs are split into fixed-size morsels
        and run across the pool with per-partition dictionary merge;
        results are bit-identical to ``exec_workers=1``, which runs the
        unchanged serial kernels (the oracle for the
        workers-equivalence suite).  Inputs below
        :data:`repro.exec.parallel.PARALLEL_MIN_ROWS` always run
        serially, so small queries pay no pool overhead.  Batched
        shortest-path queries share the same pool: their source groups
        run as ``paths`` tasks (:meth:`repro.graph.GraphLibrary.solve_encoded`).
        Counters: :meth:`parallel_stats` / the shell's ``\\workers``.
    morsel_rows / parallel_min_rows:
        Tuning/testing overrides for the morsel size and the serial
        threshold (default the module constants).
    compression:
        When True (default) ANALYZE attaches *resting encodings*
        (dictionary, run-length, bit-packing — :mod:`repro.storage.encoding`)
        to columns where they pay off, builds per-morsel zone maps
        (:mod:`repro.storage.zonemap`) that scans consult to skip whole
        morsels under pushed-down filters, and :meth:`save` writes the
        encoded format-v4 image that :meth:`load` memory-maps lazily.
        Decode is transparent — every kernel and row path sees the same
        arrays — and results are bit-identical to ``compression=False``,
        which preserves the plain-array storage paths wholesale (the
        correctness oracle for ``tests/test_storage_compression.py``).
        Counters: :meth:`storage_stats` / the shell's ``\\storage``.
    graph_compact_threshold:
        Committed DML on an edge table folds into a CSR delta overlay
        (:mod:`repro.graph.overlay`) instead of invalidating the cached
        graph index: appends extend the adjacency, deletes tombstone CSR
        slots, and path queries run on a base+overlay merged library.
        The first lookup after the delta (appended edges + tombstones)
        reaches this size compacts the index back into a canonical fresh
        CSR; ``1`` rebuilds after every write (the full-rebuild oracle
        of ``tests/test_graph_overlay.py``).
    durability:
        ``"off"`` (default) keeps today's behavior exactly: no
        write-ahead log, durability only through explicit :meth:`save`.
        ``"commit"`` appends every committed write to the WAL
        (:mod:`repro.storage.wal`) and fsyncs before acknowledging;
        ``"batch"`` appends the same records but coalesces concurrent
        committers into one group-commit fsync.  Either way
        :meth:`save` becomes a checkpoint that rotates the log, and
        :meth:`open` replays the log over the last checkpoint image on
        startup.
    wal_dir:
        Where the log lives.  Direct construction with durability
        requires an explicit (empty or absent) directory; use
        :meth:`Database.open` for the common case — it derives
        ``<directory>.wal`` and *recovers* whatever is there.
    faults:
        A :class:`~repro.faults.FaultInjector` (or spec string/dict)
        arming named crashpoints on the WAL and checkpoint paths; None
        consults the ``REPRO_CRASHPOINT`` environment variable.  Test
        machinery — see :mod:`repro.faults`.
    memory_budget:
        Soft per-query working-memory target in bytes.  ``"auto"``
        (default) consults ``REPRO_MEMORY_BUDGET``; unset / ``None`` /
        ``<= 0`` means unlimited — today's fully materialized execution,
        byte for byte.  With a budget, scans stream morsels through
        fused filter/project/aggregate pipelines, grouped aggregation
        and equi-joins partition oversized inputs to spill files
        (:mod:`repro.storage.spill`), and ORDER BY falls back to an
        external merge sort.  Every budgeted path reuses the unchanged
        kernels per partition, so results are bit-identical to the
        unbudgeted oracle for any budget (the forced-budget fuzz suite,
        ``tests/test_memory_budget.py``).  Counters:
        :meth:`memory_stats` / the shell's ``\\memory``.
    """

    def __init__(
        self,
        *,
        plan_cache_capacity: int = 128,
        graph_cache_capacity: int = 16,
        optimizer: bool = True,
        parameterize: bool = True,
        vectorized: bool = True,
        exec_workers: int | str | None = "auto",
        morsel_rows: Optional[int] = None,
        parallel_min_rows: Optional[int] = None,
        compression: bool = True,
        graph_compact_threshold: int = 8192,
        durability: str = "off",
        wal_dir: Optional[str] = None,
        faults=None,
        memory_budget: int | str | None = "auto",
    ) -> None:
        if durability not in ("off", "commit", "batch"):
            raise ValueError(
                "durability must be 'off', 'commit' or 'batch', "
                f"got {durability!r}"
            )
        self.catalog = Catalog()
        self.graph_indices = GraphIndexManager(
            self.catalog,
            capacity=graph_cache_capacity,
            compact_threshold=graph_compact_threshold,
        )
        self.stats = StatsManager(self.catalog)
        self.plan_cache = PlanCache(
            self.catalog,
            capacity=plan_cache_capacity,
            stats_marker=lambda name: self.stats.marker(name),
        )
        self.optimizer_enabled = bool(optimizer)
        self.parameterize = bool(parameterize)
        self.vectorized = bool(vectorized)
        self.kernel_counters = KernelCounters()
        #: Compressed-storage knob: when True (default), ANALYZE and
        #: save() attach resting encodings (dict/RLE/bit-pack) to
        #: columns and scans consult per-morsel zone maps to skip
        #: morsels under pushed-down filters.  False preserves the
        #: plain-array storage paths wholesale — the correctness oracle
        #: for tests/test_storage_compression.py.
        self.compression = bool(compression)
        self.storage_counters = StorageCounters()
        #: Memory-budgeted execution knob (bytes).  ``None`` (the
        #: default, also reachable with ``memory_budget<=0`` or an unset
        #: ``REPRO_MEMORY_BUDGET``) keeps every operator on its fully
        #: materialized path — the bit-identical oracle.  A positive
        #: budget turns on streaming scans and lets grouped
        #: aggregation, equi-joins and ORDER BY spill partitioned
        #: inputs to disk instead of materializing over-budget working
        #: sets.  Results are identical for any budget.
        if memory_budget == "auto":
            memory_budget = env_int("REPRO_MEMORY_BUDGET", None)
        if memory_budget is not None:
            memory_budget = int(memory_budget)
            if memory_budget <= 0:
                memory_budget = None
        self.memory_budget = memory_budget
        self.spill_counters = SpillCounters()
        #: Owner of the temp files partitioned operators write; a
        #: directory-backed database swaps in a manager rooted under
        #: ``<dir>/spill`` on open (swept on recovery), anonymous
        #: databases use a ``repro-spill-*`` tempdir created on first
        #: spill.
        self.spill_manager = SpillManager(counters=self.spill_counters)
        #: Shared morsel-execution worker pool (lazily spawned; a
        #: 1-worker pool never starts a thread and keeps every kernel
        #: on its serial path).
        self.exec_pool = ExecPool(
            exec_workers, morsel_rows=morsel_rows, min_rows=parallel_min_rows
        )
        #: Serializes eager multi-table snapshot pinning against
        #: multi-table COMMIT installation, so a statement can never pin
        #: half of another transaction's committed write set.
        self._snapshot_mutex = threading.Lock()
        #: True once :meth:`close` ran; guarded by ``_close_mutex`` so
        #: concurrent closers tear down exactly once.
        self.closed = False
        self._close_mutex = threading.Lock()
        from .faults import FaultInjector

        self.durability = durability
        self.faults = FaultInjector.coerce(faults)
        #: Recovery summary (records replayed, tail truncated, ...) set
        #: by :meth:`open`; None for a database born fresh.
        self.recovery_info: Optional[dict] = None
        #: The write-ahead log, or None under ``durability="off"`` —
        #: in which case every write path below is byte-for-byte the
        #: pre-WAL code (the ``_wal_lock`` helper degrades to a
        #: nullcontext and no logging call runs).
        self.wal = None
        if durability != "off":
            if wal_dir is None:
                raise ValueError(
                    "a durable Database needs a wal_dir on direct "
                    "construction; use Database.open(directory, "
                    "durability=...) to pair the log with a database "
                    "directory (and recover whatever is already there)"
                )
            from .storage.wal import WriteAheadLog

            self.wal = WriteAheadLog.create(
                wal_dir, durability=durability, faults=self.faults
            )
        # every committed table mutation invalidates both caches and
        # refreshes the recorded statistics row counts
        self.catalog.add_write_listener(self._on_table_write)

    def _on_table_write(self, table: Table, info: WriteInfo) -> None:
        self.plan_cache.invalidate_writes(table.name)
        self.graph_indices.apply_write(table, info)
        self.stats.on_table_write(table)

    def _optimize(self, plan):
        """Lower a bound logical plan through the optimizer."""
        return optimize(
            plan, self.catalog, self.stats, enabled=self.optimizer_enabled
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the engine down: join the kernel worker-pool threads and
        drop both caches (releasing every pinned table version they
        hold).  Idempotent, and safe to call while sessions still exist
        — a statement arriving after close raises a typed
        :class:`~repro.errors.DatabaseClosedError` instead of touching
        retired threads (the server's graceful-shutdown path closes the
        database while client sessions may still be connected).  The
        catalog itself stays readable so post-mortem inspection
        (``db.table(...)``) keeps working."""
        with self._close_mutex:
            if self.closed:
                return
            self.closed = True
        self.exec_pool.shutdown(wait=True)
        self.plan_cache.clear()
        self.graph_indices.clear_cache()
        self.spill_manager.close()
        if self.wal is not None:
            # final fsync: a clean close loses nothing even under the
            # group-commit policy
            self.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise DatabaseClosedError("database is closed")

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def connect(self) -> Session:
        """Open a :class:`~repro.session.Session` (cursor) on this
        database.  Create one per thread; all sessions share the catalog,
        the plan cache and the graph-index cache."""
        self._check_open()
        return Session(self)

    # ------------------------------------------------------------------
    # snapshots and transactions
    # ------------------------------------------------------------------
    def pin_snapshot(
        self,
        tables: Optional[Iterable[str]] = None,
        overlay: Optional[dict] = None,
    ) -> Snapshot:
        """Pin a :class:`~repro.storage.snapshot.Snapshot` — the read
        view of one statement or transaction.

        ``tables`` limits eager pinning to a statement's referenced set;
        None pins the whole catalog (a transaction's BEGIN).  Pinning
        happens under the snapshot mutex shared with COMMIT installation
        so a multi-table commit is observed either fully or not at all.
        Tables touched later are pinned lazily on first access.
        """
        snapshot = Snapshot(
            self.catalog, stats_marker=self.stats.marker, overlay=overlay
        )
        names = (
            self.catalog.table_names()
            if tables is None
            else [n.lower() for n in tables]
        )
        with self._snapshot_mutex:
            snapshot.pin(names)
        return snapshot

    def commit_transaction(self, txn: Transaction) -> None:
        """Publish a transaction's buffered writes (the COMMIT path).

        First-committer-wins conflict detection: all written tables are
        write-locked in sorted-name order (the statement layer's global
        lock order), every base version is compared against the live
        table, and only if all match are the buffered versions installed
        — atomically with respect to snapshot pinning.
        """
        if not txn.active:
            raise TransactionError("transaction is no longer active")
        txn.finish()
        names = sorted(txn.writes)
        if not names:
            return
        locks = {}
        for name in names:
            if not self.catalog.has(name):
                raise TransactionConflictError(
                    f"table {name!r} was dropped by a concurrent statement"
                )
            locks[name] = self.catalog.get(name).lock
        with LockSet(locks, set(names)):
            for name in names:
                if not self.catalog.has(name):
                    raise TransactionConflictError(
                        f"table {name!r} was dropped by a concurrent statement"
                    )
                live = self.catalog.get(name)
                if (
                    live.version != txn.base[name]
                    or live.schema.fingerprint()
                    != txn.writes[name].schema.fingerprint()
                ):
                    raise TransactionConflictError(
                        f"write-write conflict on table {name!r}: committed "
                        f"version {live.version} is newer than this "
                        f"transaction's base version {txn.base[name]}"
                    )
            with self._wal_lock():
                lsn = None
                if self.wal is not None:
                    # one atomic record for the whole write set, logged
                    # after the conflict checks and before the install
                    # becomes visible — recovery replays all or nothing
                    lsn = self.wal.log_txn(
                        (name, list(txn.writes[name].columns))
                        for name in names
                    )
                with self._snapshot_mutex:
                    for name in names:
                        self.catalog.get(name).replace_columns(
                            list(txn.writes[name].columns)
                        )
        self._wal_sync(lsn)

    # ------------------------------------------------------------------
    # write-ahead logging
    # ------------------------------------------------------------------
    def _wal_lock(self):
        """The WAL append+install mutex — or a no-op context under
        ``durability="off"``, keeping the off path identical to the
        pre-WAL engine (no lock, no logging)."""
        wal = self.wal
        return wal.mutex if wal is not None else nullcontext()

    def _wal_sync(self, lsn: Optional[int]) -> None:
        """Make the commit durable per the sync policy before it is
        acknowledged.  Runs *outside* the WAL mutex and the table write
        locks, so the fsync (the slow part) never serializes other
        committers — that's what group commit coalesces."""
        if lsn is not None and self.wal is not None:
            self.wal.sync(lsn)

    def wal_stats(self) -> dict:
        """WAL counters (appends, fsyncs, group-commit coalescing,
        checkpoints) plus the recovery summary — the ``\\storage``
        shell surface and the server's ``ping`` stats."""
        if self.wal is None:
            return {"enabled": False, "durability": self.durability}
        stats = self.wal.stats()
        stats["enabled"] = True
        if self.recovery_info is not None:
            stats["recovery"] = self.recovery_info
        return stats

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        session: Optional[Session] = None,
    ) -> Result:
        """Execute one SQL statement.

        Queries and INSERTs are served through the plan cache: a hit
        (exact-text or literal-normalized) skips parse → bind →
        optimize entirely and goes straight to execution.

        ``session`` carries the transaction scope: inside an explicit
        transaction every statement reads the transaction's snapshot and
        buffers its writes; without a session (or outside BEGIN/COMMIT)
        the statement autocommits against its own snapshot.
        """
        self._check_open()
        txn = self._active_transaction(session)
        entry, bound, _, slots = self._lookup_or_plan(sql, txn=txn)
        params = tuple(params)
        if slots is not None:
            params = merge_params(slots, params)
        if entry is not None:
            return self._execute_cached(entry, params, txn)
        return self._run_bound(bound, params, session=session, txn=txn)

    @staticmethod
    def _active_transaction(session: Optional[Session]) -> Optional[Transaction]:
        if session is None:
            return None
        txn = session.transaction
        return txn if txn is not None and txn.active else None

    def _lookup_or_plan(self, sql: str, txn: Optional[Transaction] = None):
        """The single get-or-fill path of the plan cache.

        Returns ``(entry, bound, was_hit, slots)``: a cache entry
        (served or freshly stored) with ``bound`` None, or — for
        statements the cache does not hold (DDL, UPDATE, DELETE,
        EXPLAIN) — the bound statement with ``entry`` None.  ``slots``
        is non-None only for normalized-index hits: the parameter
        recipe interleaving this text's literals with caller params.

        Inside a transaction, cache entries are validated against (and
        recorded from) the transaction's snapshot rather than the live
        tables, so repeated statements keep hitting plans consistent
        with the transaction's view.
        """
        snapshot = txn.snapshot if txn is not None else None
        entry = self.plan_cache.get(sql, snapshot)
        if entry is not None:
            return entry, None, True, None
        normalized = (
            normalize_statement(sql)
            if self.parameterize and _cacheable_statement(sql)
            else None
        )
        if normalized is not None:
            key, slots = normalized
            entry = self.plan_cache.get_normalized(key, snapshot)
            if entry is not None:
                return entry, None, True, slots
        statement = parse_statement(sql)
        bound = Binder(self.catalog).bind_statement(statement)
        if isinstance(bound, BoundQuery):
            entry = self.plan_cache.put(
                sql, self._optimize(bound.plan), snapshot=snapshot
            )
        elif isinstance(bound, BoundInsert):
            entry = self.plan_cache.put_insert(
                sql, bound, self._optimize(bound.plan), snapshot=snapshot
            )
        else:
            return None, bound, False, None
        if normalized is not None and self.plan_cache.note_normalized_candidate(
            normalized[0], sql
        ):
            self._store_normalized(*normalized)
        return entry, None, False, None

    def _store_normalized(self, key: str, slots) -> None:
        """Plan the literal-normalized text and file it under the
        normalized index.  Best-effort: statements whose literals turn
        out to be load-bearing simply fail to bind and are skipped."""
        if self.plan_cache.contains_normalized(key):
            return
        try:
            statement = parse_statement(key)
            bound = Binder(self.catalog).bind_statement(statement)
            if isinstance(bound, BoundQuery):
                self.plan_cache.put(
                    key, self._optimize(bound.plan), normalized=True
                )
            elif isinstance(bound, BoundInsert):
                self.plan_cache.put_insert(
                    key, bound, self._optimize(bound.plan), normalized=True
                )
        except ReproError:
            pass

    def _execute_cached(
        self, entry, params: tuple, txn: Optional[Transaction] = None
    ) -> Result:
        # entry.deps already names every referenced table: no need to
        # re-walk the plan tree per execution on the cache-hit hot path
        if entry.kind == "insert":
            if txn is not None:
                return self._txn_insert(txn, entry.bound, entry.plan, params)
            with self._write_locks({entry.bound.table}):
                snapshot = self.pin_snapshot(entry.tables())
                return self._run_insert(entry.bound, entry.plan, params, snapshot)
        return self._execute_query_plan(
            entry.plan, params, tables=entry.tables(), txn=txn
        )

    def prepare_plan(self, sql: str):
        """Parse, bind, optimize and cache a statement without executing
        it (the back end of ``Session.prepare``).  Statements the cache
        cannot hold (DDL, UPDATE, DELETE) are validated but not cached."""
        self._check_open()
        entry, _, _, _ = self._lookup_or_plan(sql)
        return entry

    def executescript(
        self, sql: str, *, session: Optional[Session] = None
    ) -> list[Result]:
        """Execute a semicolon-separated list of statements (no params)."""
        self._check_open()
        results = []
        for stmt in parse_script(sql):
            bound = Binder(self.catalog).bind_statement(stmt)
            # re-resolve per statement: BEGIN/COMMIT inside the script
            # switch the transaction scope mid-stream
            txn = self._active_transaction(session)
            results.append(self._run_bound(bound, (), session=session, txn=txn))
        return results

    def profile(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        session: Optional[Session] = None,
    ) -> tuple[Result, str]:
        """Execute a query with per-operator timing instrumentation.

        Returns (result, report); the report is the plan tree annotated
        with self/total milliseconds and output row counts per operator
        (≥10x cardinality misestimates are flagged), plus a plan-cache /
        graph-index-cache summary footer.
        """
        from .exec.profiler import Profiler

        self._check_open()
        txn = self._active_transaction(session)
        entry, _, cache_hit, slots = self._lookup_or_plan(sql, txn=txn)
        if entry is None or entry.kind != "query":
            raise ExecutionError("profile() is only available for queries")
        params = tuple(params)
        if slots is not None:
            params = merge_params(slots, params)
        plan = entry.plan
        profiler = Profiler()
        snapshot = (
            txn.snapshot if txn is not None else self.pin_snapshot(entry.tables())
        )
        ctx = ExecContext(self, params, profiler=profiler, snapshot=snapshot)
        result = Result(execute_plan(plan, ctx))
        profiler.plan_cache_hit = cache_hit
        profiler.cache_stats = self.cache_stats()
        profiler.kernel_stats = self.kernel_stats()
        profiler.parallel_stats = self.parallel_stats()
        profiler.storage_stats = self.storage_stats()
        profiler.memory_stats = {
            **self.memory_stats(),
            "decisions": ctx.accountant.snapshot()["decisions"],
        }
        return result, profiler.render(plan)

    def explain(self, sql: str) -> str:
        """The optimized physical plan of a query (per-operator
        estimated rows and cumulative cost), as indented text, with a
        plan-cache counter footer (the EXPLAIN cache surface)."""
        entry, _, _, _ = self._lookup_or_plan(sql)
        if entry is None or entry.kind != "query":
            raise ExecutionError("EXPLAIN is only available for queries")
        return explain_physical(entry.plan) + "\n" + self._cache_footer()

    def _cache_footer(self) -> str:
        plan = self.plan_cache.stats()
        graph = self.graph_indices.stats()
        footer = (
            f"-- plan cache: hits={plan['hits']} misses={plan['misses']} "
            f"entries={plan['entries']}/{plan['capacity']}\n"
            f"-- graph index cache: hits={graph['hits']} "
            f"misses={graph['misses']} entries={graph['entries']}/"
            f"{graph['capacity']}"
        )
        footer += (
            f"\n-- graph overlay: states={graph['overlay_states']} "
            f"hits={graph['overlay_hits']} "
            f"applied={graph['overlay_applied']} "
            f"merges={graph['overlay_merges']}"
        )
        if self.memory_budget is not None:
            mem = self.memory_stats()
            footer += (
                f"\n-- memory budget: {self.memory_budget} bytes "
                f"spills={mem['spills']} partitions={mem['partitions']} "
                f"streams={mem['streams']} sort_runs={mem['sort_runs']}"
            )
        dynamic = self.storage_counters.snapshot().get(
            "dynamic_zone_filters", {}
        )
        if dynamic:
            rendered = " ".join(
                f"{source}={count}" for source, count in sorted(dynamic.items())
            )
            footer += f"\n-- dynamic zone filters: {rendered}"
        return footer

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters of both caches, for monitoring and tests.

        ``plan_cache`` includes ``normalized_hits`` /
        ``normalized_entries``: statements served through the
        literal-normalized index (textually different, same shape).
        """
        return {
            "plan_cache": self.plan_cache.stats(),
            "graph_index_cache": self.graph_indices.stats(),
        }

    def kernel_stats(self) -> dict:
        """Cumulative vectorized-kernel counters: per-operation hit and
        fallback counts (``hits`` / ``fallbacks`` dicts plus
        ``hit_total`` / ``fallback_total``).  A fallback means an
        operator ran its row-at-a-time path because the key columns were
        not codifiable (or ``vectorized=False`` — then everything is
        simply uncounted).  ``fallback_reasons`` breaks every op's
        fallbacks down by cause (uncodifiable type vs kernel-less
        aggregate vs NaN sort key)."""
        return self.kernel_counters.snapshot()

    def parallel_stats(self) -> dict:
        """Morsel-driven execution counters of the shared kernel pool:
        worker/morsel configuration, parallel-vs-serial kernel decisions
        per op, and per-op morsel counts and timings (total seconds and
        max single-morsel milliseconds).  Surfaced by profile-report
        footers and the shell's ``\\workers`` command."""
        pool = self.exec_pool
        return {
            "workers": pool.workers,
            "morsel_rows": pool.morsel_rows,
            "parallel_min_rows": pool.min_rows,
            **pool.stats.snapshot(),
        }

    def storage_stats(self) -> dict:
        """Compressed-storage counters: whether compression is on, the
        zone-map scan counters (scans consulted, morsels total/skipped,
        per-table breakdown) and the factorize counters (full encodes vs
        resting-code / memo hits vs shared-dictionary joins).  Surfaced
        by profile-report footers and the shell's ``\\storage``
        command."""
        return {
            "compression": self.compression,
            **self.storage_counters.snapshot(),
            "factorize": factorize_counters.snapshot(),
            "spill": self.memory_stats(),
        }

    def memory_stats(self) -> dict:
        """Memory-budget counters: the configured budget (None =
        unlimited) plus the cumulative spill/stream totals — spill
        decisions taken, partitions and temp files written, bytes
        written/read through spill files, streamed pipelines and their
        morsel counts, external-sort runs and merges.  Surfaced by
        profile-report footers and the shell's ``\\memory`` command."""
        return {
            "memory_budget": self.memory_budget,
            **self.spill_counters.snapshot(),
        }

    def set_exec_workers(self, workers: int | str | None) -> int:
        """Resize the shared worker pool of kernels and path batches
        (the ``\\workers`` shell surface).  The old pool is shut down
        without waiting (in-flight morsels finish on their threads);
        cumulative counters carry over.  Returns the effective worker
        count."""
        old = self.exec_pool
        fresh = ExecPool(
            workers, morsel_rows=old.morsel_rows, min_rows=old.min_rows
        )
        fresh.stats = old.stats
        self.exec_pool = fresh
        old.shutdown()
        return fresh.workers

    # ------------------------------------------------------------------
    # optimizer statistics
    # ------------------------------------------------------------------
    def analyze(
        self,
        table: Optional[str] = None,
        *,
        snapshot: Optional[Snapshot] = None,
    ) -> list[str]:
        """Collect optimizer statistics (the ``ANALYZE`` statement);
        returns the names of the tables analyzed.

        ANALYZE reads a snapshot (its own, or the enclosing
        transaction's) instead of taking read locks, so it never blocks
        writers however long the scan takes.  Statistics are shared
        global state, so only *committed* versions are analyzed — inside
        a transaction the snapshot's pinned committed view, never the
        uncommitted write overlay (whose contents may be rolled back).
        """
        names = [table.lower()] if table is not None else self.catalog.table_names()
        if snapshot is None:
            snapshot = self.pin_snapshot(names)
        analyzed = []
        for name in names:
            try:
                version = snapshot.committed_version(name)
            except CatalogError:
                continue  # tolerate concurrent DROPs
            if self.compression:
                # encode first: _analyze_column then reads distinct /
                # min / max straight off the resting dictionaries
                encode_columns(version)
                version.build_zone_maps()
            self.stats.analyze(name, version)
            analyzed.append(name)
        return analyzed

    def table_stats(self):
        """Recorded per-table statistics (the ``\\stats`` surface)."""
        return self.stats.describe()

    # ------------------------------------------------------------------
    # convenience (non-SQL) helpers
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: list[tuple[str, DataType]]) -> Table:
        return self.catalog.create_table(name, Schema(columns))

    def insert_rows(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        target = self.catalog.get(table)
        if self.wal is None:
            return target.insert_rows(rows)
        rows = list(rows)
        if not rows:
            return 0
        with self._write_locks({target.name}):
            version = target.current()
            combined = build_appended_columns(
                version.schema, version.columns, rows
            )
            with self.wal.mutex:
                lsn = self.wal.log_insert(target.name, rows)
                target.replace_columns(
                    combined, WriteInfo("append", appended=len(rows))
                )
        self.wal.sync(lsn)
        return len(rows)

    def appender(
        self, table: str, *, session: Optional[Session] = None
    ) -> Appender:
        """A bulk-append channel for ``table`` (see :class:`Appender`).

        Pass ``session`` to buffer appends into that session's open
        transaction instead of autocommitting each batch."""
        self._check_open()
        return Appender(self, table, session)

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def lookup_graph_index(
        self, table, src_col, dst_col, table_version=None
    ) -> Optional[GraphLibrary]:
        return self.graph_indices.lookup(
            table, src_col, dst_col, table_version=table_version
        )

    def graph_overlay_info(self) -> dict:
        """Per-index overlay state (delta sizes, base versions) plus the
        manager-level overlay counters — the ``\\graph`` shell surface."""
        return self.graph_indices.overlay_info()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist all tables and graph-index definitions to a directory."""
        from .persist import save_database

        save_database(self, directory)

    @staticmethod
    def load(directory: str, **options) -> "Database":
        """Load a database previously written by :meth:`save`.

        Keyword options are forwarded to the :class:`Database`
        constructor (e.g. ``compression=False`` materializes every
        column eagerly to plain arrays instead of memory-mapping the
        encoded format-v4 files).  When a write-ahead log sits next to
        the image (``<directory>.wal``), its records are replayed over
        it — pass ``durability="commit"``/``"batch"`` to keep logging
        afterwards, see :meth:`open`."""
        from .persist import load_database

        return load_database(directory, **options)

    @classmethod
    def open(
        cls, directory: str, *, durability: str = "commit", **options
    ) -> "Database":
        """Open (or create) a durable database at ``directory``.

        The recovery entry point: loads the last checkpoint image if
        one exists, replays the paired write-ahead log
        (``<directory>.wal`` unless ``wal_dir`` overrides it) in commit
        order — truncating a torn tail rather than failing — and
        attaches a live log so further commits are durable.  A
        directory with neither image nor log starts fresh.  The
        recovery summary lands in :attr:`recovery_info`.
        """
        from .persist import open_database

        return open_database(directory, durability=durability, **options)

    # ------------------------------------------------------------------
    # statement-scoped locking (writers only — readers pin snapshots)
    # ------------------------------------------------------------------
    def _write_locks(self, tables: set[str]) -> LockSet:
        """A write :class:`LockSet` over the named tables (writers
        serialize per table among themselves); tables dropped since
        analysis are simply skipped — the executor will raise its
        regular CatalogError."""
        locks = {}
        for name in {n.lower() for n in tables}:
            if self.catalog.has(name):
                locks[name] = self.catalog.get(name).lock
        return LockSet(locks, set(locks))

    def _execute_query_plan(
        self,
        plan,
        params: tuple,
        tables: Optional[set[str]] = None,
        txn: Optional[Transaction] = None,
    ) -> Result:
        """Run a query plan lock-free against a pinned snapshot (the
        transaction's, or a fresh one covering the referenced tables)."""
        if txn is not None:
            snapshot = txn.snapshot
        else:
            if tables is None:
                tables = referenced_tables(plan)
            snapshot = self.pin_snapshot(tables)
        ctx = ExecContext(self, params, snapshot=snapshot)
        return Result(execute_plan(plan, ctx))

    # ------------------------------------------------------------------
    #: Bound statement kinds that mutate the catalog or index/stat
    #: definitions — rejected inside an explicit transaction (the write
    #: buffer holds table *data* versions, not catalog state).
    _DDL_BOUND = (
        BoundCreateTable,
        BoundDropTable,
        BoundCreateTableAs,
        BoundCreateGraphIndex,
        BoundDropGraphIndex,
    )

    def _run_bound(
        self,
        bound,
        params: tuple,
        session: Optional[Session] = None,
        txn: Optional[Transaction] = None,
    ) -> Result:
        from .session import expr_tables

        if isinstance(bound, BoundBegin):
            self._require_session(session, "BEGIN").begin()
            return Result(None, rowcount=0)
        if isinstance(bound, BoundCommit):
            self._require_session(session, "COMMIT").commit()
            return Result(None, rowcount=0)
        if isinstance(bound, BoundRollback):
            self._require_session(session, "ROLLBACK").rollback()
            return Result(None, rowcount=0)
        if txn is not None and isinstance(bound, self._DDL_BOUND):
            raise TransactionError(
                f"{type(bound).__name__[5:]} is not allowed inside a "
                "transaction; COMMIT or ROLLBACK first"
            )
        if isinstance(bound, BoundQuery):
            return self._execute_query_plan(
                self._optimize(bound.plan), params, txn=txn
            )
        if isinstance(bound, BoundExplain):
            text = (
                explain_physical(self._optimize(bound.plan))
                + "\n"
                + self._cache_footer()
            )
            return Result.from_text_lines("plan", text.splitlines())
        if isinstance(bound, BoundCreateTable):
            # DDL logs after the catalog op succeeds (a rejected CREATE
            # must leave no record), both under the WAL mutex so log
            # order always equals install order
            with self._wal_lock():
                table = self.catalog.create_table(
                    bound.name, Schema(list(bound.columns))
                )
                lsn = (
                    self.wal.log_create_table(table.name, table.schema)
                    if self.wal is not None
                    else None
                )
            self._wal_sync(lsn)
            return Result(None, rowcount=0)
        if isinstance(bound, BoundDropTable):
            # take the table's write lock first: in-flight writers
            # holding it finish before the table disappears under them
            # (lock-free readers keep their pinned versions regardless)
            with self._write_locks({bound.name}):
                with self._wal_lock():
                    self.catalog.drop_table(bound.name)
                    lsn = (
                        self.wal.log_simple("drop_table", table=bound.name)
                        if self.wal is not None
                        else None
                    )
            self.plan_cache.invalidate_table(bound.name)
            self.graph_indices.drop_for_table(bound.name)
            self.stats.drop(bound.name)
            self._wal_sync(lsn)
            return Result(None, rowcount=0)
        if isinstance(bound, BoundAnalyze):
            snapshot = txn.snapshot if txn is not None else None
            return Result(
                None, rowcount=len(self.analyze(bound.table, snapshot=snapshot))
            )
        if isinstance(bound, BoundInsert):
            plan = self._optimize(bound.plan)
            if txn is not None:
                return self._txn_insert(txn, bound, plan, params)
            with self._write_locks({bound.table}):
                snapshot = self.pin_snapshot(
                    referenced_tables(plan) | {bound.table}
                )
                return self._run_insert(bound, plan, params, snapshot)
        if isinstance(bound, BoundCopy):
            return self._run_copy(bound, txn)
        if isinstance(bound, BoundCreateTableAs):
            snapshot = self.pin_snapshot(referenced_tables(bound.plan))
            return self._run_create_table_as(bound, params, snapshot)
        if isinstance(bound, BoundDelete):
            reads = referenced_tables(bound.scan)
            if bound.predicate is not None:
                reads |= expr_tables(bound.predicate)
            if txn is not None:
                columns, count, _ = self._delete_columns(
                    bound, params, txn.snapshot
                )
                txn.record_write(bound.table, columns)
                return Result(None, rowcount=count)
            with self._write_locks({bound.table}):
                snapshot = self.pin_snapshot(reads | {bound.table})
                columns, count, dropped = self._delete_columns(
                    bound, params, snapshot
                )
                with self._wal_lock():
                    lsn = (
                        self.wal.log_delete(bound.table, dropped)
                        if self.wal is not None
                        else None
                    )
                    self.catalog.get(bound.table).replace_columns(
                        columns, WriteInfo("delete", dropped_rows=dropped)
                    )
            self._wal_sync(lsn)
            return Result(None, rowcount=count)
        if isinstance(bound, BoundUpdate):
            reads = referenced_tables(bound.scan)
            if bound.predicate is not None:
                reads |= expr_tables(bound.predicate)
            for _, expr in bound.assignments:
                reads |= expr_tables(expr)
            if txn is not None:
                columns, count = self._update_columns(bound, params, txn.snapshot)
                txn.record_write(bound.table, columns)
                return Result(None, rowcount=count)
            with self._write_locks({bound.table}):
                snapshot = self.pin_snapshot(reads | {bound.table})
                schema = snapshot.table_version(bound.table).schema
                touched = tuple(
                    schema.columns[position].name
                    for position, _ in bound.assignments
                )
                columns, count = self._update_columns(bound, params, snapshot)
                with self._wal_lock():
                    lsn = None
                    if self.wal is not None:
                        positions = sorted(
                            {position for position, _ in bound.assignments}
                        )
                        lsn = self.wal.log_update(
                            bound.table,
                            [schema.columns[p].name for p in positions],
                            [columns[p] for p in positions],
                        )
                    self.catalog.get(bound.table).replace_columns(
                        columns, WriteInfo("update", columns=touched)
                    )
            self._wal_sync(lsn)
            return Result(None, rowcount=count)
        if isinstance(bound, BoundCreateGraphIndex):
            with self._wal_lock():
                self.graph_indices.create(
                    bound.name, bound.table, bound.src_col, bound.dst_col
                )
                lsn = (
                    self.wal.log_simple(
                        "create_graph_index",
                        name=bound.name,
                        table=bound.table,
                        src=bound.src_col,
                        dst=bound.dst_col,
                    )
                    if self.wal is not None
                    else None
                )
            self._wal_sync(lsn)
            # build eagerly so the first query benefits (lock-free: the
            # build reads the table's current immutable version)
            self.graph_indices.lookup(bound.table, bound.src_col, bound.dst_col)
            return Result(None, rowcount=0)
        if isinstance(bound, BoundDropGraphIndex):
            with self._wal_lock():
                self.graph_indices.drop(bound.name)
                lsn = (
                    self.wal.log_simple("drop_graph_index", name=bound.name)
                    if self.wal is not None
                    else None
                )
            self._wal_sync(lsn)
            return Result(None, rowcount=0)
        raise ExecutionError(f"cannot execute {type(bound).__name__}")

    @staticmethod
    def _require_session(session: Optional[Session], what: str) -> Session:
        if session is None:
            raise TransactionError(
                f"{what} requires a session — use Database.connect() and "
                "execute transaction statements through it"
            )
        return session

    def _run_create_table_as(
        self, bound: BoundCreateTableAs, params: tuple, snapshot: Snapshot
    ) -> Result:
        ctx = ExecContext(self, params, snapshot=snapshot)
        batch = execute_plan(self._optimize(bound.plan), ctx)
        # derive the schema from the materialized result so columns whose
        # static type was unknown (host parameters) get their runtime type
        columns = []
        for plan_col, col in zip(batch.schema, batch.columns):
            type_ = plan_col.type or col.type
            if type_ == DataType.NESTED_TABLE:
                raise ExecutionError(
                    "nested tables cannot be stored in a physical table "
                    "(flatten with UNNEST first)"
                )
            columns.append((plan_col.name, type_))
        # fill before publishing (see Catalog.publish_table for why)
        table = Table(bound.name, Schema(columns))
        table.insert_columns(
            [
                col if col.type == type_ else col.cast(type_)
                for col, (_, type_) in zip(batch.columns, columns)
            ]
        )
        with self._wal_lock():
            self.catalog.publish_table(table)
            lsn = (
                self.wal.log_ctas(
                    table.name, table.schema, list(table.current().columns)
                )
                if self.wal is not None
                else None
            )
        self._wal_sync(lsn)
        return Result(None, rowcount=batch.num_rows)

    def _delete_columns(
        self, bound: BoundDelete, params: tuple, snapshot: Snapshot
    ) -> tuple[list[Column], int, "Any"]:
        """The surviving column set, deleted-row count and dropped
        positions (pre-delete row order — ``bound.scan`` is the raw
        unoptimized table scan, so batch rows align with table rows) of
        a DELETE, computed from the snapshot without touching the live
        table.  The dropped positions feed the graph overlay's delete
        tombstones."""
        import numpy as np

        ctx = ExecContext(self, params, snapshot=snapshot)
        batch = execute_plan(bound.scan, ctx)
        if bound.predicate is None:
            schema = snapshot.table_version(bound.table).schema
            return (
                [Column.empty(c.type) for c in schema],
                batch.num_rows,
                np.arange(batch.num_rows, dtype=np.int64),
            )
        predicate = ctx.eval(bound.predicate, batch)
        drop = predicate.data.astype(np.bool_)
        if predicate.mask is not None:
            drop = drop & ~predicate.mask
        return (
            [c.filter(~drop) for c in batch.columns],
            int(drop.sum()),
            np.flatnonzero(drop).astype(np.int64),
        )

    def _update_columns(
        self, bound: BoundUpdate, params: tuple, snapshot: Snapshot
    ) -> tuple[list[Column], int]:
        """The rewritten column set (and hit count) of an UPDATE,
        computed from the snapshot without touching the live table."""
        import numpy as np

        schema = snapshot.table_version(bound.table).schema
        ctx = ExecContext(self, params, snapshot=snapshot)
        batch = execute_plan(bound.scan, ctx)
        if bound.predicate is not None:
            predicate = ctx.eval(bound.predicate, batch)
            hit = predicate.data.astype(np.bool_)
            if predicate.mask is not None:
                hit = hit & ~predicate.mask
        else:
            hit = np.ones(batch.num_rows, dtype=np.bool_)
        new_columns = list(batch.columns)
        for position, expr in bound.assignments:
            declared = schema.columns[position].type
            fresh = ctx.eval(expr, batch)
            if fresh.type != declared:
                fresh = fresh.cast(declared)
            old = new_columns[position]
            data = old.data.copy()
            data[hit] = fresh.data[hit]
            mask = old.null_mask().copy()
            mask[hit] = fresh.null_mask()[hit]
            new_columns[position] = Column(declared, data, mask if mask.any() else None)
        return new_columns, int(hit.sum())

    def _insert_rows_for(
        self, bound: BoundInsert, plan, params: tuple, snapshot: Snapshot
    ) -> list[tuple]:
        """Materialize an INSERT's source rows (snapshot reads), widened
        to the target schema when an explicit column list was given."""
        schema = snapshot.table_version(bound.table).schema
        ctx = ExecContext(self, params, snapshot=snapshot)
        batch = execute_plan(plan, ctx)
        incoming = batch.to_rows()
        if not bound.columns:
            return incoming
        positions = [schema.index_of(c) for c in bound.columns]
        width = len(schema)
        rows = []
        for row in incoming:
            full: list[Any] = [None] * width
            for position, value in zip(positions, row):
                full[position] = value
            rows.append(tuple(full))
        return rows

    def _run_insert(
        self, bound: BoundInsert, plan, params: tuple, snapshot: Snapshot
    ) -> Result:
        rows = self._insert_rows_for(bound, plan, params, snapshot)
        table = self.catalog.get(bound.table)
        if self.wal is None or not rows:
            count = table.insert_rows(rows)
            return Result(None, rowcount=count)
        # validate + coerce *before* logging: a rejected INSERT must
        # not leave a record that recovery would replay.  The caller
        # holds the table's write lock, so current() is stable.
        version = table.current()
        combined = build_appended_columns(version.schema, version.columns, rows)
        with self.wal.mutex:
            lsn = self.wal.log_insert(table.name, rows)
            table.replace_columns(
                combined, WriteInfo("append", appended=len(rows))
            )
        self.wal.sync(lsn)
        return Result(None, rowcount=len(rows))

    def _txn_insert(
        self, txn: Transaction, bound: BoundInsert, plan, params: tuple
    ) -> Result:
        """Buffer an INSERT inside a transaction: append to the
        overlay's table version, never the live table."""
        rows = self._insert_rows_for(bound, plan, params, txn.snapshot)
        version = txn.snapshot.table_version(bound.table)
        columns = build_appended_columns(version.schema, version.columns, rows)
        txn.record_write(bound.table, columns)
        return Result(None, rowcount=len(rows))

    def _copy_vectors(self, bound: BoundCopy, schema: Schema):
        """Read a COPY statement's source file into per-column vectors."""
        try:
            if bound.format == "npz":
                vectors = read_npz_vectors(bound.path)
                if bound.columns:
                    allowed = set(bound.columns)
                    unknown = {str(k).lower() for k in vectors} - allowed
                    if unknown:
                        raise ExecutionError(
                            f"COPY: file columns {sorted(unknown)} are not "
                            "in the statement's column list"
                        )
                return vectors
            names = (
                list(bound.columns)
                if bound.columns
                else [c.name for c in schema]
            )
            types = [schema.columns[schema.index_of(n)].type for n in names]
            return read_csv_vectors(
                bound.path,
                types,
                header=bound.header,
                delimiter=bound.delimiter,
                pool=self.exec_pool,
            )
        except OSError as exc:
            raise ExecutionError(
                f"COPY: cannot read {bound.path!r}: {exc}"
            ) from None

    def _run_copy(self, bound: BoundCopy, txn: Optional[Transaction]) -> Result:
        """``COPY <table> FROM '<file>'`` — the bulk-ingest fast path.

        Reads the whole file into per-column vectors and commits them as
        ONE columnar batch through :func:`~repro.storage.bulk_columns`
        (morsel-parallel on the shared kernel pool): one new table
        version, zone maps extended over the appended tail, graph
        overlays fed the append delta.  Inside a transaction the batch
        buffers into the transaction's table version like any other DML
        (MVCC and first-committer-wins unchanged)."""
        if txn is not None:
            version = txn.snapshot.table_version(bound.table)
            vectors = self._copy_vectors(bound, version.schema)
            fresh = bulk_columns(
                version.schema,
                vectors,
                self.exec_pool.context(),
                bound.columns or None,
            )
            count = len(fresh[0]) if fresh else 0
            if count:
                combined = [
                    concat_for_append(old, new)
                    for old, new in zip(version.columns, fresh)
                ]
                txn.record_write(bound.table, combined)
            return Result(None, rowcount=count)
        with self._write_locks({bound.table}):
            table = self.catalog.get(bound.table)
            vectors = self._copy_vectors(bound, table.schema)
            fresh = bulk_columns(
                table.schema,
                vectors,
                self.exec_pool.context(),
                bound.columns or None,
            )
            if not fresh or len(fresh[0]) == 0:
                return Result(None, rowcount=0)
            if self.wal is None:
                return Result(None, rowcount=table.insert_columns(fresh))
            # the file's contents are logged, not its path: recovery
            # must not depend on the CSV still existing (or matching)
            with self.wal.mutex:
                lsn = self.wal.log_append(table.name, fresh)
                count = table.insert_columns(fresh)
        self.wal.sync(lsn)
        return Result(None, rowcount=count)


def connect(**kwargs: Any) -> Database:
    """Create a fresh in-memory database (DB-API-flavoured spelling).

    Keyword arguments are forwarded to :class:`Database`
    (``plan_cache_capacity``, ``graph_cache_capacity``,
    ``exec_workers`` — which also sizes shortest-path batches).  To share one database between threads, call
    :meth:`Database.connect` on the instance to open per-thread
    :class:`~repro.session.Session` cursors.
    """
    return Database(**kwargs)


__all__ = [
    "Appender",
    "Database",
    "Result",
    "GraphIndexManager",
    "Session",
    "connect",
    "NestedTableValue",
    "days_to_date",
]
