"""Base tables: a schema plus one immutable column version per state.

Tables are MVCC-versioned: all physical state (the column list) lives in
an immutable :class:`TableVersion` that writers swap atomically under
the table's write lock.  Readers never lock — they grab ``current()``
(one atomic reference read under the GIL) and keep working against that
version no matter how many writers commit after them.  This is the
MonetDB-style snapshot design the paper's prototype inherits: columns
themselves were already immutable, so versioning the *table state* is
what makes whole statements (and session transactions) lock-free on the
read side.

Concurrency contract: every mutation builds a full new ``TableVersion``
(fresh column list, ``version_id`` bumped by one) and publishes it with
a single reference assignment *before* notifying write listeners, so a
racing reader that pairs a version id with a column snapshot can only
err on the stale side (it re-reads), never serve new data under an old
version.  Writers still serialize per table among themselves through the
table's reentrant ``lock``; the statement layer takes it for the whole
statement (:class:`~repro.storage.locks.LockSet`) and mutators
re-acquire it defensively for callers that bypass SQL.

Transaction buffers hold ``TableVersion`` objects too, with synthetic
``version_id`` values drawn from :func:`next_txn_version_id` (all
``>= TXN_VERSION_BASE``) so an uncommitted version can never be mistaken
for a committed one by the version-keyed caches.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..errors import CatalogError, TypeError_
from .column import Column
from .ingest import bulk_columns
from .schema import Schema

@dataclass(frozen=True)
class WriteInfo:
    """What a committed mutation did, delivered to write listeners.

    ``kind`` is one of ``"append"``, ``"delete"``, ``"update"``,
    ``"truncate"``, ``"replace"``.  For appends, ``appended`` is the
    tail row count of the new version.  For deletes, ``dropped_rows``
    holds the dropped positions in *pre-delete* row order.  For updates,
    ``columns`` names the assigned columns (row count and order
    unchanged).  Listeners that cannot interpret a payload treat it as
    ``"replace"`` (invalidate everything) — the conservative default a
    bare ``callback(table)`` used to imply.
    """

    kind: str
    appended: int = 0
    dropped_rows: Any = None  # np.ndarray | None
    columns: tuple = ()


#: Version ids at or above this value are transaction-private (buffered,
#: uncommitted table versions); committed table versions count up from 0
#: and stay far below.  The version-keyed caches use this to avoid
#: caching transaction-private state.
TXN_VERSION_BASE = 1 << 40

#: Globally unique ids for buffered (uncommitted) table versions.
#: ``itertools.count`` increments atomically under CPython's GIL.
_txn_version_ids = itertools.count(TXN_VERSION_BASE)


def next_txn_version_id() -> int:
    """A fresh transaction-private version id (``>= TXN_VERSION_BASE``)."""
    return next(_txn_version_ids)


@dataclass(frozen=True, eq=False)
class TableVersion:
    """One immutable state of a table: columns + row count + version id.

    Readers resolve scans entirely through a ``TableVersion`` (pinned in
    a :class:`~repro.storage.snapshot.Snapshot`), never through the live
    table, so no reader ever observes a half-applied write.
    """

    name: str
    schema: Schema
    columns: tuple[Column, ...]
    version_id: int

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def to_rows(self) -> list[tuple[Any, ...]]:
        cols = [c.to_pylist() for c in self.columns]
        return [tuple(col[i] for col in cols) for i in range(self.num_rows)]

    # -- storage introspection -----------------------------------------
    def resting_info(self) -> "dict[str, tuple[str, int]]":
        """``{column name: (encoding kind, resting bytes)}`` for this
        version (``\\storage`` / ``Database.storage_stats()``)."""
        return {
            col_def.name: col.resting_info()
            for col_def, col in zip(self.schema, self.columns)
        }

    def build_zone_maps(self) -> int:
        """Eagerly build per-morsel zone maps for every eligible column
        (ANALYZE calls this; scans otherwise build them lazily).  The
        maps cache on the immutable Column objects, so columns untouched
        by later DML keep their maps across versions.  Returns how many
        columns now carry a map."""
        from .zonemap import zone_map_for

        built = 0
        for col in self.columns:
            if zone_map_for(col) is not None:
                built += 1
        return built


# ---------------------------------------------------------------------------
# shared column-building helpers (used by Table mutators *and* the
# transaction write buffer, which computes new versions without touching
# the live table)
# ---------------------------------------------------------------------------
def concat_for_append(old: Column, new: Column) -> Column:
    """``Column.concat`` for the append path, with zone maps *extended*
    instead of discarded: any map cached on ``old`` is carried onto the
    combined column by rescanning only the appended tail, so selective
    scans keep zone-skipping after an append without a re-ANALYZE."""
    combined = Column.concat([old, new])
    if combined is old or combined is new:
        return combined  # single contributor: maps already attached
    zones = old._zones
    if zones:
        from .zonemap import extend_zone_map

        for granularity, zm in zones.items():
            if zm is None:
                continue
            extended = extend_zone_map(zm, combined, granularity)
            if extended is not None:
                if combined._zones is None:
                    combined._zones = {}
                combined._zones[granularity] = extended
    return combined


def row_vectors(schema: Schema, rows: Iterable[Sequence[Any]]) -> list[tuple]:
    """Transpose row tuples (in schema order) into per-column value
    lists for :func:`~repro.storage.ingest.bulk_columns`, checking each
    row's width."""
    rows = list(rows)
    width = len(schema)
    for row in rows:
        if len(row) != width:
            raise TypeError_(
                f"row has {len(row)} values, table has {width} columns"
            )
    return list(zip(*rows)) if rows else [()] * width


def validate_columns(schema: Schema, columns: Sequence[Column]) -> int:
    """Check count/length/type agreement; returns the common length."""
    if len(columns) != len(schema):
        raise TypeError_("column count mismatch")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise TypeError_("columns have differing lengths")
    for col, col_def in zip(columns, schema):
        if col.type != col_def.type:
            raise TypeError_(
                f"column type {col.type} does not match {col_def.name} {col_def.type}"
            )
    return int(lengths.pop()) if lengths else 0


class Table:
    """A named base table holding an immutable, atomically-swapped
    :class:`TableVersion`."""

    def __init__(self, name: str, schema: Schema):
        self.name = name.lower()
        self.schema = schema
        self._current = TableVersion(
            self.name,
            schema,
            tuple(Column.empty(c.type) for c in schema),
            0,
        )
        #: Statement-scoped writer lock (see module docstring); readers
        #: take none, they pin a version
        self.lock = threading.RLock()
        self._listeners: list[Callable[["Table", "WriteInfo"], None]] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The current committed version id (bumped on every mutation;
        used by the graph-index cache and the plan cache to detect
        staleness)."""
        return self._current.version_id

    def current(self) -> TableVersion:
        """The current committed :class:`TableVersion` — one atomic
        reference read; the foundation of lock-free snapshot scans."""
        return self._current

    # ------------------------------------------------------------------
    def add_write_listener(
        self, callback: Callable[["Table", WriteInfo], None]
    ) -> None:
        """Register a callback fired after every committed mutation.

        The caches (plan cache, graph-index cache) subscribe here so DML
        invalidates (or incrementally maintains — see
        ``repro.graph.overlay``) their state explicitly instead of
        relying on lazy version checks alone.  Callbacks receive the
        table plus a :class:`WriteInfo` describing what the mutation
        did.
        """
        self._listeners.append(callback)

    def _publish(
        self, columns: Sequence[Column], info: "WriteInfo | None" = None
    ) -> None:
        """Swap in a new committed version (caller holds the write lock)
        and notify listeners with what the write did."""
        self._current = TableVersion(
            self.name, self.schema, tuple(columns), self._current.version_id + 1
        )
        if info is None:
            info = WriteInfo("replace")
        for callback in self._listeners:
            callback(self, info)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._current.num_rows

    @property
    def num_rows(self) -> int:
        return len(self)

    def column(self, name: str) -> Column:
        return self._current.column(name)

    def columns(self) -> list[Column]:
        return list(self._current.columns)

    # ------------------------------------------------------------------
    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows (sequences matching the schema order); returns count.

        The rows are transposed and built into columns by
        :func:`~repro.storage.ingest.bulk_columns`, then committed
        through :meth:`insert_columns`."""
        rows = list(rows)
        if not rows:
            return 0
        vectors = row_vectors(self.schema, rows)
        return self.insert_columns(bulk_columns(self.schema, vectors))

    def insert_columns(self, columns: Sequence[Column]) -> int:
        """Append pre-built columns (must match schema types and lengths).

        This is the bulk-ingest commit point: zone maps on the existing
        columns are extended over the appended tail (not discarded), and
        listeners learn the append size so the graph overlay can fold
        the new edges in without a CSR rebuild.
        """
        count = validate_columns(self.schema, columns)
        with self.lock:
            self._publish(
                [
                    concat_for_append(old, new)
                    for old, new in zip(self._current.columns, columns)
                ],
                WriteInfo("append", appended=count),
            )
        return count

    def truncate(self) -> None:
        with self.lock:
            self._publish(
                [Column.empty(c.type) for c in self.schema],
                WriteInfo("truncate"),
            )

    def replace_columns(
        self, columns: Sequence[Column], info: "WriteInfo | None" = None
    ) -> None:
        """Swap in a full new set of columns (DELETE/UPDATE rebuilds and
        transaction COMMIT installs).  Callers that know what the
        replacement did pass a :class:`WriteInfo` so listeners can react
        incrementally; without one it counts as an opaque replace."""
        validate_columns(self.schema, columns)
        with self.lock:
            self._publish(list(columns), info)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize as Python tuples (mainly for tests and examples)."""
        return self._current.to_rows()


class Catalog:
    """The database catalog: a flat namespace of base tables.

    Thread-safe: the namespace dict is guarded by a mutex, and every
    write listener registered on the catalog is attached to each table it
    creates (so caches observe DML on tables made before or after they
    subscribed).
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._mutex = threading.RLock()
        self._write_listeners: list[Callable[[Table, WriteInfo], None]] = []

    def add_write_listener(
        self, callback: Callable[[Table, WriteInfo], None]
    ) -> None:
        """Subscribe ``callback`` to mutations of every (future) table."""
        with self._mutex:
            self._write_listeners.append(callback)
            for table in self._tables.values():
                table.add_write_listener(callback)

    def create_table(self, name: str, schema: Schema, *, replace: bool = False) -> Table:
        key = name.lower()
        with self._mutex:
            if key in self._tables and not replace:
                raise CatalogError(f"table already exists: {name!r}")
            table = Table(key, schema)
            for callback in self._write_listeners:
                table.add_write_listener(callback)
            self._tables[key] = table
            return table

    def publish_table(self, table: Table) -> Table:
        """Register a pre-built table (CTAS fills before publishing: a
        half-filled table must never be visible, and filling it after
        publication would mutate state that concurrent snapshots could
        pin half-built)."""
        with self._mutex:
            if table.name in self._tables:
                raise CatalogError(f"table already exists: {table.name!r}")
            for callback in self._write_listeners:
                table.add_write_listener(callback)
            self._tables[table.name] = table
            return table

    def drop_table(self, name: str) -> None:
        with self._mutex:
            try:
                del self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown table: {name!r}") from None

    def has(self, name: str) -> bool:
        with self._mutex:
            return name.lower() in self._tables

    def get(self, name: str) -> Table:
        with self._mutex:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown table: {name!r}") from None

    def table_names(self) -> list[str]:
        with self._mutex:
            return sorted(self._tables)
