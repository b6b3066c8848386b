"""Per-morsel zone maps: min/max/null-count small indexes that let the
scan operator skip whole morsels for pushed-down filters.

A :class:`ColumnZoneMap` summarizes one immutable column in chunks of
:data:`ZONE_ROWS` rows (aligned to the executor's ``MORSEL_ROWS`` by
default — both read ``REPRO_MORSEL_ROWS``).  Because columns are
immutable, the map is cached *on the column object*: DML builds new
columns for the data it changes, so untouched columns keep their maps
across table versions for free, and there is no invalidation protocol.

Skipping is strictly conservative:

* NaN values are excluded from min/max at build time — sound, because a
  NaN satisfies no SQL comparison, so it can never be the row a
  comparison filter keeps;
* a morsel with no valid (non-NULL, non-NaN) values is skippable by any
  comparison filter (NULL rows never pass);
* any predicate the map cannot decide (unresolvable operand, NULL
  operand, non-numeric column) simply keeps every morsel.

The residual :class:`PFilter` above the scan always re-evaluates the
predicate on the surviving rows, so zone maps can only remove rows the
filter would drop anyway — results stay bit-identical with a scan that
prunes nothing (the plain-storage reference of the test tree,
``tests/reference_exec.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..envutil import env_int as _env_int
from ..errors import TypeError_
from .types import DataType, coerce_python_value

#: Zone granularity in rows; tracks the executor's morsel size so one
#: zone-map entry decides one morsel.
ZONE_ROWS = _env_int("REPRO_ZONE_ROWS", _env_int("REPRO_MORSEL_ROWS", 65_536)) or 65_536

#: Column types zone maps cover (ordered physical domains).
_ZONE_TYPES = (
    DataType.BOOLEAN,
    DataType.INTEGER,
    DataType.BIGINT,
    DataType.DOUBLE,
    DataType.DATE,
)


@dataclass
class ColumnZoneMap:
    """Min/max/null-count per ``granularity``-row zone of one column."""

    granularity: int
    n_rows: int
    mins: np.ndarray  # column dtype; arbitrary where has_values is False
    maxs: np.ndarray
    null_counts: np.ndarray  # int64
    has_values: np.ndarray  # bool: zone holds >=1 non-NULL, non-NaN value

    @property
    def n_zones(self) -> int:
        return len(self.mins)

    def zone_rows(self, zone: int) -> int:
        return min(self.granularity, self.n_rows - zone * self.granularity)

    # ------------------------------------------------------------------
    def keep_mask(self, op: str, values: "list[Any]") -> np.ndarray:
        """True per zone when the zone *may* contain a passing row."""
        rows = np.minimum(
            self.granularity,
            self.n_rows - np.arange(self.n_zones, dtype=np.int64) * self.granularity,
        )
        if op == "isnull":
            return self.null_counts > 0
        if op == "notnull":
            return self.null_counts < rows
        mins, maxs, has = self.mins, self.maxs, self.has_values
        keep = np.zeros(self.n_zones, dtype=np.bool_)
        for value in values:
            if op == "=" or op == "in":
                hit = (mins <= value) & (value <= maxs)
            elif op == "<":
                hit = mins < value
            elif op == "<=":
                hit = mins <= value
            elif op == ">":
                hit = maxs > value
            elif op == ">=":
                hit = maxs >= value
            else:  # unknown op: keep everything
                return np.ones(self.n_zones, dtype=np.bool_)
            keep |= hit
        return keep & has


def build_column_zone_map(column, granularity: int = ZONE_ROWS) -> "ColumnZoneMap | None":
    """Build the zone map for ``column`` (None for non-orderable types)."""
    if column.type not in _ZONE_TYPES:
        return None
    n = len(column)
    data = column.data
    mask = column.mask
    is_float = data.dtype.kind == "f"
    n_zones = max(1, -(-n // granularity))
    mins = np.zeros(n_zones, dtype=data.dtype)
    maxs = np.zeros(n_zones, dtype=data.dtype)
    null_counts = np.zeros(n_zones, dtype=np.int64)
    has_values = np.zeros(n_zones, dtype=np.bool_)
    for zone in range(n_zones):
        start = zone * granularity
        stop = min(start + granularity, n)
        chunk = data[start:stop]
        if mask is not None:
            null_chunk = mask[start:stop]
            null_counts[zone] = int(np.count_nonzero(null_chunk))
            chunk = chunk[~null_chunk]
        if is_float and len(chunk):
            chunk = chunk[~np.isnan(chunk)]
        if len(chunk):
            mins[zone] = chunk.min()
            maxs[zone] = chunk.max()
            has_values[zone] = True
    return ColumnZoneMap(granularity, n, mins, maxs, null_counts, has_values)


def extend_zone_map(
    old_map: "ColumnZoneMap | None", column, granularity: int = ZONE_ROWS
) -> "ColumnZoneMap | None":
    """Zone map for ``column`` reusing ``old_map``, which was built over
    the first ``old_map.n_rows`` rows of the same data.

    Only the old partial last zone (if any) and the appended tail are
    scanned — an append of ``k`` rows costs ``O(k + granularity)``
    instead of ``O(n)``, which is what keeps bulk ingest from discarding
    and rebuilding maps on every batch.  Falls back to a full build when
    the shapes do not line up.
    """
    if column.type not in _ZONE_TYPES:
        return None
    n = len(column)
    if (
        old_map is None
        or old_map.granularity != granularity
        or old_map.n_rows > n
    ):
        return build_column_zone_map(column, granularity)
    old_n = old_map.n_rows
    #: zones wholly inside the old data are reused verbatim
    intact = old_n // granularity
    data = column.data
    mask = column.mask
    is_float = data.dtype.kind == "f"
    n_zones = max(1, -(-n // granularity))
    mins = np.zeros(n_zones, dtype=data.dtype)
    maxs = np.zeros(n_zones, dtype=data.dtype)
    null_counts = np.zeros(n_zones, dtype=np.int64)
    has_values = np.zeros(n_zones, dtype=np.bool_)
    mins[:intact] = old_map.mins[:intact]
    maxs[:intact] = old_map.maxs[:intact]
    null_counts[:intact] = old_map.null_counts[:intact]
    has_values[:intact] = old_map.has_values[:intact]
    for zone in range(intact, n_zones):
        start = zone * granularity
        stop = min(start + granularity, n)
        chunk = data[start:stop]
        if mask is not None:
            null_chunk = mask[start:stop]
            null_counts[zone] = int(np.count_nonzero(null_chunk))
            chunk = chunk[~null_chunk]
        if is_float and len(chunk):
            chunk = chunk[~np.isnan(chunk)]
        if len(chunk):
            mins[zone] = chunk.min()
            maxs[zone] = chunk.max()
            has_values[zone] = True
    return ColumnZoneMap(granularity, n, mins, maxs, null_counts, has_values)


def zone_map_for(column, granularity: int = ZONE_ROWS) -> "ColumnZoneMap | None":
    """The (lazily built, column-cached) zone map for ``column``.

    The cache is write-once per granularity; a benign double-compute
    race stores an identical map twice (columns are immutable).
    """
    zones = column._zones
    if zones is None:
        zones = column._zones = {}
    if granularity not in zones:
        zones[granularity] = build_column_zone_map(column, granularity)
    return zones[granularity]


# ----------------------------------------------------------------------
# zone predicates (attached to PScan by the optimizer)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZonePredicate:
    """One zone-testable conjunct of a pushed-down filter.

    ``operands`` holds ``("lit", value)`` / ``("param", index)`` pairs —
    the plan cache normalizes literals into parameters, so values must
    resolve against the statement's parameter vector at execution time.
    ``op`` is one of ``= < <= > >= in isnull notnull insub``; ``insub``
    (non-negated ``IN (subquery)``) carries a ``("sub", physical_plan)``
    operand and is resolved by the executor-supplied callback of
    :func:`select_zone_spans`, which runs the subquery and reports the
    probe values' range.
    """

    column: str
    op: str
    operands: "tuple[tuple[str, Any], ...]" = ()

    def resolve(self, params, col_type: DataType) -> "list[Any] | None":
        """Operand values coerced to the column's domain, or None when
        the predicate cannot be decided (missing/NULL operand, type
        mismatch) — callers then keep every morsel."""
        values = []
        for kind, payload in self.operands:
            if kind == "param":
                try:
                    value = params[payload]
                except (IndexError, TypeError):
                    return None
            else:
                value = payload
            if value is None:
                return None
            try:
                value = coerce_python_value(value, col_type)
            except (TypeError_, TypeError, ValueError):
                return None
            if value is None or isinstance(value, str):
                return None
            if isinstance(value, float) and value != value:
                return None  # NaN operand: no row can match anyway
            values.append(value)
        return values

    def describe(self) -> str:
        if self.op == "insub":
            return f"{self.column} IN (subquery)"
        if self.op in ("isnull", "notnull"):
            return f"{self.column} IS {'NOT ' if self.op == 'notnull' else ''}NULL"
        rendered = []
        for kind, payload in self.operands:
            rendered.append(f"${payload}" if kind == "param" else repr(payload))
        if self.op == "in":
            return f"{self.column} IN ({', '.join(rendered)})"
        return f"{self.column} {self.op} {rendered[0] if rendered else '?'}"


def select_zone_spans(
    version, zone_filters, params, granularity: int = ZONE_ROWS, resolver=None
) -> "tuple[list[tuple[int, int]] | None, int, int]":
    """Row spans of morsels that survive ``zone_filters``.

    Returns ``(spans, skipped, total)`` where ``spans`` is None when no
    morsel can be skipped (callers then scan zero-copy), ``skipped`` /
    ``total`` count morsels for the storage counters.

    ``resolver(zf, col_type)`` decides ``insub`` predicates: it returns
    ``None`` (undecidable — keep every zone), ``()`` (the probe list has
    no matchable value, so *no* zone can pass), or a ``(lo, hi)`` bound
    pair; zones whose min/max range misses ``[lo, hi]`` entirely cannot
    contain a matching row and are skipped — a conservative superset of
    the true probe set.
    """
    if not version.columns:
        return None, 0, 0
    n = len(version.columns[0])
    total = max(1, -(-n // granularity))
    if n <= granularity:
        return None, 0, total
    keep = None
    for zf in zone_filters:
        try:
            idx = version.schema.index_of(zf.column)
        except Exception:
            continue
        column = version.columns[idx]
        zm = zone_map_for(column, granularity)
        if zm is None or zm.n_rows != n:
            continue
        if zf.op == "insub":
            if resolver is None:
                continue
            bounds = resolver(zf, column.type)
            if bounds is None:
                continue
            if bounds:
                lo, hi = bounds
                mask = zm.has_values & (zm.maxs >= lo) & (zm.mins <= hi)
            else:
                # empty probe set: IN () is never true, every zone skips
                mask = np.zeros(zm.n_zones, dtype=np.bool_)
        elif zf.op in ("isnull", "notnull"):
            mask = zm.keep_mask(zf.op, [])
        else:
            values = zf.resolve(params, column.type)
            if not values:
                continue
            mask = zm.keep_mask(zf.op, values)
        keep = mask if keep is None else keep & mask
    if keep is None or bool(keep.all()):
        return None, 0, total
    skipped = total - int(np.count_nonzero(keep))
    spans: "list[tuple[int, int]]" = []
    for zone in np.flatnonzero(keep):
        start = int(zone) * granularity
        stop = min(start + granularity, n)
        if spans and spans[-1][1] == start:
            spans[-1] = (spans[-1][0], stop)
        else:
            spans.append((start, stop))
    return spans, skipped, total


class StorageCounters:
    """Cumulative zone-map skip counters, one instance per Database.

    The same shape as ``KernelCounters``/``ParallelStats``: a
    mutex-guarded tally with a ``snapshot()`` for
    ``Database.storage_stats()``, the profiler footer, and ``\\storage``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.scans = 0
        self.morsels_total = 0
        self.morsels_skipped = 0
        self.by_table: "dict[str, dict[str, int]]" = {}
        #: runtime-derived zone predicates applied (hash-join build
        #: ranges, IN-subquery probe ranges), keyed by source
        self.dynamic: "dict[str, int]" = {}

    def note_scan(self, table: str, total: int, skipped: int) -> None:
        with self._lock:
            self.scans += 1
            self.morsels_total += total
            self.morsels_skipped += skipped
            entry = self.by_table.setdefault(table, {"morsels": 0, "skipped": 0})
            entry["morsels"] += total
            entry["skipped"] += skipped

    def note_dynamic(self, source: str) -> None:
        with self._lock:
            self.dynamic[source] = self.dynamic.get(source, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "zone_scans": self.scans,
                "morsels_total": self.morsels_total,
                "morsels_skipped": self.morsels_skipped,
                "by_table": {t: dict(v) for t, v in self.by_table.items()},
                "dynamic_zone_filters": dict(self.dynamic),
            }
