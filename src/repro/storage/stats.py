"""Per-table / per-column statistics for the cost-based optimizer.

``ANALYZE [table]`` (or :meth:`StatsManager.analyze`) records, per
column: null count, distinct-value count and — for numeric/date columns
— min and max.  It is one pass per column: ANALYZE first picks each
column's resting encoding (``encode_columns``), which dictionary-encodes
the column through :meth:`Column.factorize` and memoizes the result, and
the statistics are read off that dictionary — its length and ends — or,
for dense-span integer codes, off one ``bincount`` of the codes.  Float
NaN counts as one distinct value and never as a range end.  The
optimizer uses the statistics for selectivity estimation, join ordering
and hash-join build-side choice; without ANALYZE it falls back to live
row counts plus heuristics.

Maintenance rides on the existing write-listener/version machinery:

* every committed mutation refreshes the recorded ``row_count`` (the
  listener fires after the column swap, so ``table.num_rows`` is the
  post-write count) and marks the column-level stats *stale* — they are
  still served (better than nothing) but flagged, and ``\\stats`` shows
  the staleness;
* every ANALYZE bumps the table's *marker* (per-table counter).
  Plan-cache entries record, per referenced table, the marker at plan
  time, so fresh statistics transparently re-optimize exactly the
  cached plans that read the analyzed table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .table import Catalog, Table, TableVersion
from .types import DataType


@dataclass
class ColumnStats:
    """Statistics of one column, computed by ANALYZE."""

    null_count: int
    distinct: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None

    @property
    def has_range(self) -> bool:
        return self.min_value is not None and self.max_value is not None


@dataclass
class TableStats:
    """Statistics of one table at ANALYZE time."""

    table: str
    row_count: int
    version: int  #: table version at ANALYZE time (staleness detection)
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    stale: bool = False  #: set when the table mutated since ANALYZE

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())


def _analyze_column(column, type_: DataType) -> ColumnStats:
    """One column's statistics, read off its ``factorize()`` result —
    the dictionary ANALYZE's encoding choice has just built (and
    memoized), or a resting encoding's own codes.  Nothing here decodes
    a resting encoding: dense-span integer codes give min and max by
    decoding only the two rows that hold them."""
    null_mask = column.null_mask()
    null_count = int(null_mask.sum())
    if null_count == len(column):
        return ColumnStats(null_count=null_count, distinct=0)
    if type_ == DataType.NESTED_TABLE:
        return ColumnStats(null_count=null_count, distinct=len(column) - null_count)
    codes, cardinality, uniques = column.factorize()
    ranged = type_.is_numeric or type_ == DataType.DATE
    min_value = max_value = None
    if uniques is not None:
        # the sorted dictionary is the distinct set; float NaN slots
        # hold the codes between it and the NULL code, and count as one
        # more distinct value
        distinct = len(uniques)
        distinct += int(cardinality > distinct + (null_count > 0))
        if ranged and len(uniques):
            min_value = uniques[0].item()
            max_value = uniques[-1].item()
    else:
        # dense-span integer codes (``value - min``, gaps allowed) or
        # insertion-ordered codes of unorderable objects; NULL's code is
        # the last one
        counts = np.bincount(codes)
        present = np.flatnonzero(counts[: cardinality - (null_count > 0)])
        distinct = len(present)
        if ranged:
            # value-ordered codes: the lowest and highest present codes
            # mark rows holding the minimum and the maximum
            min_value = _value_at(column, int(np.argmax(codes == present[0])))
            max_value = _value_at(column, int(np.argmax(codes == present[-1])))
    return ColumnStats(
        null_count=null_count,
        distinct=distinct,
        min_value=min_value,
        max_value=max_value,
    )


def _value_at(column, row: int):
    """The value at ``row``, decoding only the zone that holds it."""
    return column.slice_morsel(row, row + 1).value(0)


class StatsManager:
    """Thread-safe registry of :class:`TableStats` over one catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._mutex = threading.Lock()
        self._stats: dict[str, TableStats] = {}
        #: Per-table ANALYZE counters: plan-cache entries record the
        #: marker per referenced table, so fresh statistics re-optimize
        #: only the plans that actually read the analyzed table.
        self._markers: dict[str, int] = {}

    # ------------------------------------------------------------------
    def analyze(
        self, table_name: str, table_version: Optional[TableVersion] = None
    ) -> TableStats:
        """Compute and store fresh statistics for one table.

        ``table_version`` pins the state to analyze (the statement's
        snapshot version), so ANALYZE never blocks writers and never
        observes a half-applied write; without it the table's current
        committed version is used.
        """
        if table_version is None:
            table_version = self._catalog.get(table_name).current()
        stats = TableStats(
            table=table_version.name,
            row_count=table_version.num_rows,
            version=table_version.version_id,
        )
        for col_def, column in zip(table_version.schema, table_version.columns):
            stats.columns[col_def.name] = _analyze_column(column, col_def.type)
        with self._mutex:
            self._stats[stats.table] = stats
            self._markers[stats.table] = self._markers.get(stats.table, 0) + 1
        return stats

    def restore(self, stats: TableStats) -> None:
        """Install statistics recovered by ``load()`` (persisted by a
        previous ``save()``), bumping the table's marker so plans cached
        before the restore re-optimize against the recovered stats."""
        with self._mutex:
            self._stats[stats.table] = stats
            self._markers[stats.table] = self._markers.get(stats.table, 0) + 1

    # ------------------------------------------------------------------
    def get(self, table_name: str) -> Optional[TableStats]:
        """Recorded stats for a table (possibly stale), or None."""
        with self._mutex:
            return self._stats.get(table_name.lower())

    def marker(self, table_name: str) -> int:
        """ANALYZE counter for one table (0 = never analyzed).

        Lock-free on purpose: this sits on the plan-cache hit path
        (validated per referenced table per lookup, while the cache
        mutex is held).  A single dict read is atomic under the GIL,
        and the marker is a monotone counter — the worst a race can do
        is conservatively invalidate one plan."""
        return self._markers.get(table_name.lower(), 0)

    def drop(self, table_name: str) -> None:
        """DROP TABLE hook."""
        with self._mutex:
            self._stats.pop(table_name.lower(), None)
            self._markers.pop(table_name.lower(), None)

    def on_table_write(self, table: Table) -> None:
        """Write-listener hook: refresh row count, flag column stats."""
        with self._mutex:
            stats = self._stats.get(table.name)
            if stats is None:
                return
            stats.row_count = table.num_rows
            stats.stale = stats.version != table.version

    # ------------------------------------------------------------------
    def row_count(self, table_name: str) -> int:
        """The live row count (always current, with or without ANALYZE)."""
        return self._catalog.get(table_name).num_rows

    def describe(self) -> dict[str, TableStats]:
        """Snapshot of all recorded stats (the ``\\stats`` surface)."""
        with self._mutex:
            return dict(self._stats)


__all__ = ["ColumnStats", "TableStats", "StatsManager"]
