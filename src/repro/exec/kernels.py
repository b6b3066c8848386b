"""Vectorized execution kernels: factorized keys for key-driven operators.

The executor's full-materialization model (every operator produces whole
:class:`~repro.exec.batch.Batch` columns) makes its key-driven operators
— DISTINCT, GROUP BY, multi-key hash joins, UNION/INTERSECT/EXCEPT,
ORDER BY, recursive-CTE dedup — natural targets for column-at-a-time
kernels, yet until this module they all dropped to per-row Python
tuples.  The core primitive here is **key codification**: each key
column is dictionary-encoded into dense ``int64`` codes
(:meth:`repro.storage.Column.factorize`: ``np.unique``'s ranks, with
SQL NULL handling), and a multi-column key is combined into one id per row
by mixed-radix arithmetic.  Everything else reduces to integer kernels:

* DISTINCT / dedup    — first-occurrence-of-id masks (``np.unique``);
* GROUP BY            — dense group ids + one fold per aggregate over
  row ranges (:class:`AggregateFold`: ``bincount``, ``ufunc.at``), no
  sort; DISTINCT aggregates fold the first row of each distinct
  (group, argument) pair (:func:`distinct_arguments`);
* multi-key equi-join — sort + ``searchsorted`` over shared-dictionary
  codes (generalizing the single-int-key sorted join of the PR-2
  executor to any number of columns and any key type);
* INTERSECT / EXCEPT  — ``np.isin`` over jointly-codified row ids;
* ORDER BY            — one stable argsort of a null-aware composite
  rank over ordered codes (:func:`composite_sort_rank`).

Key semantics: NULL keys group together but never match in joins;
float NaN keys are each their own key, so they neither group nor join.
For *order*, NaN is greater than every number and less than NULL
(PostgreSQL's rule): ascending ORDER BY puts numbers, then NaN, then
NULL; MAX over a group holding a NaN is NaN, and MIN ignores NaN unless
the group holds nothing else.

Every key-driven operator has this one body.  The test tree's
``reference_exec.row_at_a_time()`` installs independent row-at-a-time
handlers for those operators, which are the correctness oracle of the
kernel fuzz tests and the ``BENCH_exec.json`` baselines.

Morsel-driven parallelism: every kernel accepts an optional ``par``
(:class:`~repro.exec.parallel.ParallelContext`) and, for inputs large
enough to clear :data:`~repro.exec.parallel.PARALLEL_MIN_ROWS`, runs
its per-row passes morsel-parallel on the database's shared worker pool
— per-partition dictionary merge for codification, partial counts
merged by group id, per-morsel probe/emit for joins and membership for
setops.  The combines are deterministic in morsel order, the sort
permutations are the (unique) stable ones and float sums stay serial,
so results are **bit-identical** to the serial kernels for any worker
count; a ``None``/inactive ``par`` takes exactly the PR-4 serial code —
which is why ``Database(exec_workers=1)`` stays the oracle for the
workers-equivalence suite.

Known (documented) deviations from the row-at-a-time reference, both
confined to degenerate territory: integer SUM accumulates in ``int64``
(Python ints are unbounded), and equi-joins comparing huge integers
(>2^53) against DOUBLE keys go through float promotion.  Float SUM/AVG
add each group's values in row order, and MIN/MAX keep the first of
equal values, so both equal the reference bit for bit however a memory
budget splits the rows into ranges.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ExecutionError, TypeError_
from ..storage import Column, DataType, comparable, promote
from ..storage.encoding import DictEncoding, factorize_counters
from . import parallel as mp
from .parallel import ParallelContext


class KernelCounters:
    """Database-wide hit counters per kernel operation.

    Shared by every statement of one :class:`~repro.api.Database` (like
    the plan-cache counters); rendered by the profiler report and the
    shell's ``\\kernels`` command.  Increments are coarse — one per
    operator execution, never per row — so a lock keeps them exact.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.hits: dict[str, int] = {}

    def hit(self, op: str) -> None:
        with self._mutex:
            self.hits[op] = self.hits.get(op, 0) + 1

    def snapshot(self) -> dict:
        with self._mutex:
            return {"hits": dict(self.hits), "hit_total": sum(self.hits.values())}


# ---------------------------------------------------------------------------
# key codification
# ---------------------------------------------------------------------------
#: Headroom bound for the mixed-radix combine: before multiplying the
#: accumulated radix by the next column's cardinality would approach
#: int64 range, the intermediate ids are re-densified through np.unique.
_MAX_RADIX = np.iinfo(np.int64).max // 4


def _use_par(par: Optional[ParallelContext], n_rows: int, op: str) -> bool:
    """One primitive's parallel-vs-serial decision, recorded in the
    pool stats when a live context declines (below-threshold input)."""
    if par is None:
        return False
    if par.active_for(n_rows):
        return True
    par.note_serial(op)
    return False


def _codify(
    columns: Sequence[Column],
    n_rows: int,
    *,
    nan_distinct: bool = True,
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, int]:
    """``(ids, radix)``: one ``int64`` id per row plus the (exclusive)
    upper bound on the id values — the mixed-radix key-space size, which
    downstream kernels use to pick scatter-table strategies over
    sort-based ones when the space is small."""
    if not columns:
        return np.zeros(n_rows, dtype=np.int64), 1
    use_par = _use_par(par, n_rows, "codify")
    codes, radix, _ = columns[0].factorize(nan_distinct=nan_distinct, runner=par)
    ids = codes
    for column in columns[1:]:
        codes, cardinality, _ = column.factorize(
            nan_distinct=nan_distinct, runner=par
        )
        if radix > _MAX_RADIX // cardinality:
            # dictionary overflow: densify the intermediate ids back to
            # a compact code space before the next radix multiply
            ids, radix = _densify(ids, par, "codify")
            if radix > _MAX_RADIX // cardinality:  # pragma: no cover - 2^62 keys
                raise ExecutionError("key space exceeds int64 after densify")
        if use_par:
            combined = np.empty(n_rows, dtype=np.int64)
            local_codes = codes

            def combine(span: tuple[int, int]) -> None:
                start, stop = span
                np.multiply(
                    ids[start:stop], cardinality, out=combined[start:stop]
                )
                combined[start:stop] += local_codes[start:stop]

            par.map("codify", combine, par.spans(n_rows))
            ids = combined
        else:
            ids = ids * cardinality + codes
        radix *= cardinality
    return ids, radix


def _densify(
    ids: np.ndarray, par: Optional[ParallelContext], op: str
) -> tuple[np.ndarray, int]:
    """``ids`` renumbered densely in value order (``np.unique``'s
    inverse), with the new radix."""
    if _use_par(par, len(ids), op):
        uniques, ids = mp.parallel_unique_inverse(ids, par, op=op)
    else:
        uniques, inverse = np.unique(ids, return_inverse=True)
        ids = inverse.reshape(-1).astype(np.int64, copy=False)
    return ids, max(len(uniques), 1)


def codify(
    columns: Sequence[Column],
    n_rows: int,
    *,
    nan_distinct: bool = True,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """One ``int64`` id per row over the given key columns.

    Two rows get equal ids iff they are equal as keys (NULLs equal,
    NaNs distinct under ``nan_distinct``).  Ids are *not* dense — use
    :func:`group_ids` when dense, first-occurrence-ordered ids are
    needed.  Zero key columns put every row in one group.
    """
    return _codify(columns, n_rows, nan_distinct=nan_distinct, par=par)[0]


def _small_radix(radix: int, n_rows: int) -> bool:
    """Whether a radix-sized scatter table is cheaper than a sort."""
    return radix <= max(4 * n_rows, 1024)


def _first_scatter_table(ids: np.ndarray, radix: int, n_rows: int) -> np.ndarray:
    """Radix-sized table mapping id -> its first row (``n_rows`` for
    absent ids).  Reversed scatter: numpy fancy assignment keeps the
    last write, so writing positions back-to-front leaves each id's
    first row."""
    first = np.full(radix, n_rows, dtype=np.int64)
    first[ids[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    return first


def _first_rows_of(
    ids: np.ndarray,
    radix: int,
    n_rows: int,
    par: Optional[ParallelContext] = None,
    op: str = "distinct",
) -> np.ndarray:
    """Row index of the first occurrence of every distinct id (in
    ascending id order for the sort/morsel paths, unspecified order
    otherwise — callers treat it as a set or sort it)."""
    if _use_par(par, n_rows, op):
        return mp.parallel_first_rows(ids, par, op=op, radix=radix)[1]
    if _small_radix(radix, n_rows):
        first = _first_scatter_table(ids, radix, n_rows)
        return first[first < n_rows]
    _, first = np.unique(ids, return_index=True)
    return first


def group_ids(
    columns: Sequence[Column],
    n_rows: int,
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense group ids in first-occurrence order.

    Returns ``(ids, n_groups, first_rows)``: ``ids[i]`` is the group of
    row ``i``, groups are numbered by first appearance (matching the
    insertion-ordered dict of the row-at-a-time GROUP BY), and
    ``first_rows[g]`` is the representative (first) row of group ``g``.
    Zero key columns are a global aggregate: one group, even over an
    empty input, and no representative rows.
    """
    if not columns:
        return np.zeros(n_rows, dtype=np.int64), 1, np.empty(0, dtype=np.int64)
    raw, radix = _codify(columns, n_rows, par=par)
    if _use_par(par, n_rows, "group_by"):
        # merged per-morsel first-occurrence maps give (unique raw ids
        # ascending, global first row each); rank by first row = the
        # first-appearance numbering of the serial paths
        unique_ids, first_rows = mp.parallel_first_rows(
            raw, par, op="group_by", radix=radix
        )
        order = np.argsort(first_rows, kind="stable")
        n_groups = len(unique_ids)
        out = np.empty(n_rows, dtype=np.int64)
        if _small_radix(radix, n_rows):
            lookup = np.empty(radix, dtype=np.int64)
            lookup[unique_ids[order]] = np.arange(n_groups, dtype=np.int64)

            def remap(span: tuple[int, int]) -> None:
                start, stop = span
                np.take(lookup, raw[start:stop], out=out[start:stop])

        else:
            remap_table = np.empty(n_groups, dtype=np.int64)
            remap_table[order] = np.arange(n_groups, dtype=np.int64)

            def remap(span: tuple[int, int]) -> None:
                start, stop = span
                out[start:stop] = remap_table[
                    np.searchsorted(unique_ids, raw[start:stop])
                ]

        par.map("group_by", remap, par.spans(n_rows))
        return out, n_groups, first_rows[order]
    if n_rows and _small_radix(radix, n_rows):
        first = _first_scatter_table(raw, radix, n_rows)
        present = np.flatnonzero(first < n_rows)  # distinct ids, id order
        first_rows = first[present]
        order = np.argsort(first_rows, kind="stable")  # first-appearance rank
        lookup = np.empty(radix, dtype=np.int64)
        lookup[present[order]] = np.arange(len(present), dtype=np.int64)
        return lookup[raw], len(present), first_rows[order]
    uniques, first, inverse = np.unique(
        raw, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(uniques), dtype=np.int64)
    remap[order] = np.arange(len(uniques), dtype=np.int64)
    return remap[inverse.reshape(-1)], len(uniques), np.sort(first)


def distinct_mask(
    columns: Sequence[Column],
    n_rows: int,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Boolean keep-mask selecting the first occurrence of every key."""
    keep = np.zeros(n_rows, dtype=np.bool_)
    if n_rows:
        ids, radix = _codify(columns, n_rows, par=par)
        keep[_first_rows_of(ids, radix, n_rows, par)] = True
    return keep


# ---------------------------------------------------------------------------
# shared dictionaries across two inputs (setops, dedup-against, joins)
# ---------------------------------------------------------------------------
def has_value(column: Column) -> bool:
    """Whether ``column`` holds at least one non-NULL value."""
    mask = column.mask
    return len(column) > 0 and (mask is None or not bool(mask.all()))


def _aligned_pair(left: Column, right: Column) -> tuple[Column, Column]:
    """Cast a cross-input key-column pair onto one physical representation
    so a shared dictionary can encode both sides consistently.

    Comparable types meet at their common supertype.  Otherwise a side
    without a single non-NULL value — an all-NULL parameter column,
    whose type is a guess — becomes NULLs of the other side's type: it
    matches nothing in a join and stays NULL = NULL in set operations.
    An untyped side pairs with a typed one of the same physical dtype.
    Any other pair raises the error ``=`` raises."""
    if left.type == right.type:
        return left, right
    if left.type is None or right.type is None:
        if left.data.dtype == right.data.dtype != np.dtype(object):
            # parameter-derived columns carry no type: relabel the
            # untyped side so Column.concat accepts the pair
            if left.type is None:
                return Column(right.type, left.data, left.mask), right
            return left, Column(left.type, right.data, right.mask)
    elif comparable(left.type, right.type):
        target = promote(left.type, right.type)
        return left.cast(target), right.cast(target)
    if right.type is not None and not has_value(left):
        return Column.nulls(right.type, len(left)), right
    if left.type is not None and not has_value(right):
        return left, Column.nulls(left.type, len(right))
    raise TypeError_(f"cannot compare {left.type} with {right.type}")


def _shared_dictionary(
    left: Column, right: Column
) -> "tuple[DictEncoding, DictEncoding] | None":
    """Both sides' resting :class:`DictEncoding` when they encode over
    the *same* dictionary (so their stored codes are one code space),
    else None."""
    enc_l, enc_r = left.encoding, right.encoding
    if not (isinstance(enc_l, DictEncoding) and isinstance(enc_r, DictEncoding)):
        return None
    if left.type != right.type:
        return None
    uniques_l, uniques_r = enc_l.uniques, enc_r.uniques
    if uniques_l is not uniques_r:
        if (
            len(uniques_l) != len(uniques_r)
            or uniques_l.dtype != uniques_r.dtype
            or not np.array_equal(uniques_l, uniques_r)
        ):
            return None
    factorize_counters.note("shared_dict_joins")
    return enc_l, enc_r


def _shared_dict_codes(
    left: Column, right: Column
) -> "tuple[np.ndarray, np.ndarray, int] | None":
    """Resting-code fast path: when both sides of a key pair rest in
    dictionary encodings over the *same* dictionary, their stored codes
    are already a shared code space (value-ranked, NULL last) — the
    concat + re-factorize of the general path is skipped entirely.

    Only id *equality* matters to the downstream kernels (joins match,
    setops/dedup test membership), which the shared dictionary gives by
    construction; NULL rows on both sides carry the reserved last code,
    matching the concat path's NULL semantics.  Dict-encoded columns
    never contain NaN, so ``nan_distinct`` cannot bite here.
    """
    shared = _shared_dictionary(left, right)
    if shared is None:
        return None
    enc_l, enc_r = shared
    radix = len(enc_l.uniques) + 1  # reserve the shared NULL-last code
    return (
        enc_l.codes.astype(np.int64),
        enc_r.codes.astype(np.int64),
        radix,
    )


def _joint_codes(
    left_columns: Sequence[Column],
    right_columns: Sequence[Column],
    n_left: int,
    n_right: int,
    *,
    nan_distinct: bool = True,
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Codify two inputs' key columns through one shared dictionary:
    ``(left_ids, right_ids, radix)``, where equal ids across the two
    arrays mean equal keys (same semantics as :func:`codify`)."""
    if not left_columns:
        return (
            np.zeros(n_left, dtype=np.int64),
            np.zeros(n_right, dtype=np.int64),
            1,
        )
    if len(left_columns) == 1:
        shared = _shared_dict_codes(left_columns[0], right_columns[0])
        if shared is not None:
            return shared
    joined = []
    for left, right in zip(left_columns, right_columns):
        left, right = _aligned_pair(left, right)
        joined.append(Column.concat([left, right]))
    ids, radix = _codify(
        joined, n_left + n_right, nan_distinct=nan_distinct, par=par
    )
    return ids[:n_left], ids[n_left:], radix


def _matchable(column: Column) -> np.ndarray:
    """Rows whose key value can equal another row's: not NULL, not NaN."""
    ok = ~column.null_mask()
    if column.data.dtype.kind == "f":
        ok &= ~np.isnan(column.data)
    return ok


class _KeyLookup:
    """One key pair's dictionary over build-side values.

    :meth:`fit` codifies the given build rows and keeps their values as
    the dictionary; :meth:`probe` codifies a slice of the probe column
    against it.  When both sides rest in one shared dictionary
    (:func:`_shared_dictionary`) the codes are the stored ones;
    otherwise the pair is aligned (:func:`_aligned_pair`) and the
    dictionary is the build side's sorted distinct values, searched
    with ``searchsorted``.
    """

    def __init__(self, build: Column, probe: Column):
        self._probe = probe
        self._shared = _shared_dictionary(build, probe)
        if self._shared is None:
            build, _ = _aligned_pair(build, probe.slice_morsel(0, 0))
            self.build_ok = _matchable(build)
        else:
            self.build_ok = ~build.null_mask()
        self._build = build
        self.cardinality = 1

    def fit(self, rows: np.ndarray) -> np.ndarray:
        """Codes of build rows ``rows`` (all matchable); their values
        become the dictionary."""
        if self._shared is not None:
            enc_b = self._shared[0]
            codes = enc_b.codes[rows].astype(np.int64)
            self.cardinality = max(len(enc_b.uniques), 1)
            # one slot past the dictionary: the NULL code, never present
            self._present = np.zeros(len(enc_b.uniques) + 1, dtype=np.bool_)
            self._present[codes] = True
            return codes
        self._uniques, inverse = np.unique(
            self._build.data[rows], return_inverse=True
        )
        self.cardinality = max(len(self._uniques), 1)
        return inverse.reshape(-1).astype(np.int64, copy=False)

    def probe(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, found)`` for probe rows ``[start, stop)``: ``found``
        marks rows whose value is in the dictionary (never NULL or NaN),
        ``codes`` their codes (other slots hold arbitrary values)."""
        if self._shared is not None:
            codes = self._shared[1].codes[start:stop].astype(np.int64)
            return codes, self._present[codes]
        chunk = _aligned_pair(
            self._build, self._probe.slice_morsel(start, stop)
        )[1]
        found = _matchable(chunk)
        codes = np.zeros(len(chunk), dtype=np.int64)
        if not len(self._uniques):
            return codes, np.zeros(len(chunk), dtype=np.bool_)
        values = chunk.data[found]
        pos = np.minimum(
            np.searchsorted(self._uniques, values), len(self._uniques) - 1
        )
        codes[found] = pos
        found[found] = self._uniques[pos] == values
        return codes, found


class JoinKeyDictionary:
    """An equi-join's shared key dictionary, built from its build side.

    :func:`_joint_codes` codifies both inputs through one dictionary of
    their concatenation, which puts ``int64`` codes for every probe row
    in memory at once.  Only probe keys that occur on the build side can
    match, so this dictionary holds just the build keys: the build side
    is codified whole — ``build_rows`` (its rows with no NULL or NaN key
    component, ascending) and their ``build_ids`` — and the probe side
    one slice at a time through :meth:`probe`, which drops rows whose
    key is NULL, NaN or absent from the build side.  Equal keys get
    equal ids on both sides.

    Key semantics are :func:`_joint_codes`'s: mixed-type pairs compare
    after :func:`_aligned_pair`, pairs resting in one shared dictionary
    compare their stored codes, and a multi-column key combines its
    columns' codes mixed-radix, densified over the build keys after
    every column (so probe keys whose prefix no build key has drop out
    early).
    """

    def __init__(
        self, build_columns: Sequence[Column], probe_columns: Sequence[Column]
    ):
        self._lookups = [
            _KeyLookup(b, p) for b, p in zip(build_columns, probe_columns)
        ]
        ok = self._lookups[0].build_ok
        for lookup in self._lookups[1:]:
            ok = ok & lookup.build_ok
        self.build_rows = np.flatnonzero(ok).astype(np.int64, copy=False)
        ids = self._lookups[0].fit(self.build_rows)
        radix = self._lookups[0].cardinality
        #: per further column: the sorted distinct build-key prefixes
        self._prefixes: list[np.ndarray] = []
        for lookup in self._lookups[1:]:
            codes = lookup.fit(self.build_rows)
            if radix > _MAX_RADIX // lookup.cardinality:  # pragma: no cover
                raise ExecutionError("join key space exceeds int64")
            prefixes, inverse = np.unique(
                ids * lookup.cardinality + codes, return_inverse=True
            )
            self._prefixes.append(prefixes)
            ids = inverse.reshape(-1).astype(np.int64, copy=False)
            radix = max(len(prefixes), 1)
        self.build_ids = ids

    def probe(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)`` of the probe rows in ``[start, stop)`` whose
        key occurs on the build side; ``rows`` are ascending and
        relative to ``start``."""
        codes, found = self._lookups[0].probe(start, stop)
        rows = np.flatnonzero(found)
        ids = codes[rows]
        for lookup, prefixes in zip(self._lookups[1:], self._prefixes):
            codes, found = lookup.probe(start, stop)
            keep = found[rows]
            rows = rows[keep]
            ids = ids[keep] * lookup.cardinality + codes[rows]
            if not len(prefixes):
                return rows[:0], ids[:0]
            pos = np.minimum(np.searchsorted(prefixes, ids), len(prefixes) - 1)
            hit = prefixes[pos] == ids
            rows, ids = rows[hit], pos[hit]
        return rows, ids


def _membership(
    probe_ids: np.ndarray,
    key_ids: np.ndarray,
    radix: int,
    par: Optional[ParallelContext] = None,
    op: str = "setop",
) -> np.ndarray:
    """``probe_ids ∈ key_ids``, element-wise — a radix-sized boolean
    table when the key space is small, ``np.isin`` (sort-based) else."""
    small = _small_radix(radix, len(probe_ids) + len(key_ids))
    if _use_par(par, len(probe_ids), op):
        return mp.parallel_membership(
            probe_ids, key_ids, radix, small, par, op=op
        )
    if small:
        table = np.zeros(radix, dtype=np.bool_)
        table[key_ids] = True
        return table[probe_ids]
    return np.isin(probe_ids, key_ids)


def setop_mask(
    left_columns: Sequence[Column],
    n_left: int,
    right_columns: Sequence[Column],
    n_right: int,
    *,
    keep_members: bool,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Keep-mask over the left input for INTERSECT (``keep_members``)
    or EXCEPT (not), with set semantics (first occurrence only)."""
    left_ids, right_ids, radix = _joint_codes(
        left_columns, right_columns, n_left, n_right, par=par
    )
    keep = np.zeros(n_left, dtype=np.bool_)
    if n_left:
        keep[_first_rows_of(left_ids, radix, n_left, par, op="setop")] = True
        member = _membership(left_ids, right_ids, radix, par)
        keep &= member if keep_members else ~member
    return keep


def new_rows_mask(
    seen_columns: Sequence[Column],
    n_seen: int,
    new_columns: Sequence[Column],
    n_new: int,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Keep-mask over the new input selecting rows not already present
    in the seen input (first occurrence only) — recursive-CTE dedup."""
    seen_ids, new_ids, radix = _joint_codes(
        seen_columns, new_columns, n_seen, n_new, par=par
    )
    keep = np.zeros(n_new, dtype=np.bool_)
    if n_new:
        keep[_first_rows_of(new_ids, radix, n_new, par, op="dedup")] = True
        if n_seen:
            keep &= ~_membership(new_ids, seen_ids, radix, par, op="dedup")
    return keep


# ---------------------------------------------------------------------------
# equi-joins
# ---------------------------------------------------------------------------
def join_indices(
    left_keys: Sequence[Column],
    right_keys: Sequence[Column],
    guard: Optional[Callable[[int, int, int], None]] = None,
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching ``(left row, right row)`` index pairs of an equi-join.

    NULL keys never match; NaN keys never match (IEEE/Python equality).
    Single-column numeric keys join directly on their values (the PR-2
    sorted-join fast path, extended to DOUBLE with NaN/NULL exclusion);
    everything else joins on shared-dictionary codes.  ``guard`` is
    called with ``(total, n_left, n_right)`` once the output size is
    known, before any output row is materialized.
    """
    left, right = left_keys[0], right_keys[0]
    n_left, n_right = len(left), len(right)
    if len(left_keys) == 1 and left.data.dtype.kind in "iub" and (
        right.data.dtype.kind in "iub"
    ):
        lk = left.data.astype(np.int64, copy=False)
        rk = right.data.astype(np.int64, copy=False)
        left_valid = ~left.null_mask()
        right_valid = ~right.null_mask()
        if n_left and n_right:
            # narrow integer domains probe through bincount tables
            # (value - min as the id) instead of binary search
            lo = min(int(lk.min()), int(rk.min()))
            span = max(int(lk.max()), int(rk.max())) - lo + 1
            if _small_radix(span, n_left + n_right):
                return _equi_join_ids(
                    lk - lo, rk - lo, left_valid, right_valid, span, guard, par
                )
        return _sorted_equi_join(lk, rk, left_valid, right_valid, guard, par)
    if len(left_keys) == 1 and left.data.dtype.kind in "iubf" and (
        right.data.dtype.kind in "iubf"
    ):
        # DOUBLE (or mixed numeric) single key: join on float64 values,
        # excluding NULLs and NaNs — NaN joins nothing, like the probe
        lk = left.data.astype(np.float64, copy=False)
        rk = right.data.astype(np.float64, copy=False)
        return _sorted_equi_join(
            lk,
            rk,
            ~left.null_mask() & ~np.isnan(lk),
            ~right.null_mask() & ~np.isnan(rk),
            guard,
            par,
        )
    left_valid = np.ones(n_left, dtype=np.bool_)
    for column in left_keys:
        if column.mask is not None:
            left_valid &= ~column.mask
    right_valid = np.ones(n_right, dtype=np.bool_)
    for column in right_keys:
        if column.mask is not None:
            right_valid &= ~column.mask
    left_ids, right_ids, radix = _joint_codes(
        left_keys, right_keys, n_left, n_right, par=par
    )
    return _equi_join_ids(
        left_ids, right_ids, left_valid, right_valid, radix, guard, par
    )


def _equi_join_ids(
    lk: np.ndarray,
    rk: np.ndarray,
    left_valid: np.ndarray,
    right_valid: np.ndarray,
    radix: int,
    guard: Optional[Callable[[int, int, int], None]],
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-join over ids in ``[0, radix)``: when the id space is small,
    probe through radix-sized bincount start/count tables (O(1) per
    probe row) instead of binary-searching the sorted build side."""
    if not _small_radix(radix, len(lk) + len(rk)):
        return _sorted_equi_join(lk, rk, left_valid, right_valid, guard, par)
    right_rows = np.flatnonzero(right_valid)
    rkv = rk[right_rows]
    order = _stable_argsort(rkv, par, op="join", radix=radix)
    sorted_rows = right_rows[order]  # grouped by id; ascending row within
    if _use_par(par, len(rkv), "join"):
        counts_table = mp.parallel_bincount(rkv, radix, par, op="join")
    else:
        counts_table = np.bincount(rkv, minlength=radix)
    starts_table = np.concatenate(([0], np.cumsum(counts_table)[:-1]))
    left_rows = np.flatnonzero(left_valid)
    if _use_par(par, len(left_rows), "join"):
        probe = mp.parallel_take(lk, left_rows, par, op="join")
        counts = mp.parallel_take(
            np.asarray(counts_table, dtype=np.int64), probe, par, op="join"
        )
        lo = mp.parallel_take(
            np.asarray(starts_table, dtype=np.int64), probe, par, op="join"
        )
    else:
        probe = lk[left_rows]
        counts = counts_table[probe]
        lo = starts_table[probe]
    return _emit_pairs(
        left_rows, counts, lo, sorted_rows, len(lk), len(rk), guard, par
    )


def _emit_pairs(
    left_rows: np.ndarray,
    counts: np.ndarray,
    lo: np.ndarray,
    sorted_right: np.ndarray,
    n_left: int,
    n_right: int,
    guard: Optional[Callable[[int, int, int], None]],
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-probe-row match ranges (``lo``/``counts`` into the
    key-sorted right side) to the final index pairs, guard first.

    Pairs come out in probe order; the morsel path gives every probe
    morsel its own output slice (offsets from the per-morsel totals), so
    the concatenation is exactly the serial emission.
    """
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if guard is not None:
        guard(total, n_left, n_right)
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if _use_par(par, len(left_rows), "join"):
        spans = par.spans(len(left_rows))
        sums = [int(counts[start:stop].sum()) for start, stop in spans]
        offsets = [0]
        for chunk in sums[:-1]:
            offsets.append(offsets[-1] + chunk)
        li = np.empty(total, dtype=np.int64)
        ri = np.empty(total, dtype=np.int64)

        def emit(task: tuple[tuple[int, int], int, int]) -> None:
            (start, stop), out_start, out_total = task
            if out_total == 0:
                return
            span_counts = counts[start:stop]
            li[out_start : out_start + out_total] = np.repeat(
                left_rows[start:stop], span_counts
            )
            cum = np.concatenate(([0], np.cumsum(span_counts)[:-1]))
            slots = np.repeat(lo[start:stop] - cum, span_counts) + np.arange(
                out_total, dtype=np.int64
            )
            np.take(
                sorted_right, slots, out=ri[out_start : out_start + out_total]
            )

        par.map("join", emit, list(zip(spans, offsets, sums)))
        return li, ri
    li = np.repeat(left_rows, counts)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(lo - cum, counts) + np.arange(total, dtype=np.int64)
    return li, sorted_right[slots]


def _sorted_equi_join(
    lk: np.ndarray,
    rk: np.ndarray,
    left_valid: np.ndarray,
    right_valid: np.ndarray,
    guard: Optional[Callable[[int, int, int], None]],
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort + searchsorted equi-join over comparable key arrays.

    Emits pairs in probe order (ascending left row; equal-key right rows
    ascending), identical to the row-at-a-time dict probe.
    """
    right_rows = np.flatnonzero(right_valid)
    rkv = rk[right_rows]
    order = right_rows[_stable_argsort(rkv, par, op="join")]
    sorted_rk = rk[order]
    left_rows = np.flatnonzero(left_valid)
    if _use_par(par, len(left_rows), "join"):
        probe = mp.parallel_take(lk, left_rows, par, op="join")
        n_probe = len(probe)
        lo = np.empty(n_probe, dtype=np.int64)
        hi = np.empty(n_probe, dtype=np.int64)

        def search(span: tuple[int, int]) -> None:
            start, stop = span
            chunk = probe[start:stop]
            lo[start:stop] = np.searchsorted(sorted_rk, chunk, side="left")
            hi[start:stop] = np.searchsorted(sorted_rk, chunk, side="right")

        par.map("join", search, par.spans(n_probe))
    else:
        probe = lk[left_rows]
        lo = np.searchsorted(sorted_rk, probe, side="left")
        hi = np.searchsorted(sorted_rk, probe, side="right")
    counts = (hi - lo).astype(np.int64)
    return _emit_pairs(
        left_rows, counts, lo, order, len(lk), len(rk), guard, par
    )


def _stable_argsort(
    keys: np.ndarray,
    par: Optional[ParallelContext],
    op: str = "argsort",
    radix: Optional[int] = None,
) -> np.ndarray:
    """``np.argsort(kind="stable")``, morsel-parallel when worthwhile.
    The stable permutation is unique, so both paths agree bitwise."""
    if _use_par(par, len(keys), op):
        return mp.parallel_stable_argsort(keys, par, op=op, radix=radix)
    return np.argsort(keys, kind="stable")


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------
def ordered_sort_codes(
    column: Column,
    ascending: bool,
    par: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, int]:
    """Value-ordered int64 codes (and their cardinality) for one ORDER BY
    key.  ``factorize(nan_distinct=False)`` codes the numbers in value
    order, then one shared code for NaN, then NULL, so ascending order
    is numbers, NaN, NULL: NaN is greater than every number (as in
    PostgreSQL) and NULLS LAST.  Descending keys flip their codes, which
    gives NULL, NaN, then the numbers descending — NULLS FIRST.
    """
    codes, cardinality, _ = column.factorize(nan_distinct=False, runner=par)
    if not ascending:
        codes = (cardinality - 1) - codes
    return codes, cardinality


def composite_sort_rank(
    keys: Sequence[tuple[Column, bool]],
    n_rows: int,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """One mixed-radix int64 rank per row whose *stable argsort* is the
    ORDER BY permutation over ``keys`` (ties in the rank are exactly
    ties in every key, and the stable permutation of equal keys is
    unique).  The in-memory sort argsorts it whole; the external merge
    sort argsorts runs of it and merges them with ``searchsorted``.

    When the next key would carry the mixed-radix product past 2^62,
    the rank so far is first densified with ``np.unique``'s inverse, as
    :func:`_codify` does: that keeps the ranks' order, and at most
    ``n_rows`` distinct ranks times one key's cardinality always fits.
    """
    rank = np.zeros(n_rows, dtype=np.int64)
    radix = 1
    for column, ascending in keys:
        codes, cardinality = ordered_sort_codes(column, ascending, par)
        cardinality = max(cardinality, 1)
        if radix > (1 << 62) // cardinality:
            rank, radix = _densify(rank, par, "sort")
        rank = codes if radix == 1 else rank * cardinality + codes
        radix *= cardinality
    return rank


def sort_order(
    keys: Sequence[tuple[Column, bool]],
    n_rows: int,
    par: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Stable sort permutation for multi-key ORDER BY: the stable argsort
    of :func:`composite_sort_rank`, morsel-parallel under ``par`` for
    both the codification and the sort.  Stability across fully-tied
    rows matches a multi-pass stable sort."""
    return _stable_argsort(composite_sort_rank(keys, n_rows, par), par, "sort")


# ---------------------------------------------------------------------------
# grouped aggregation
# ---------------------------------------------------------------------------
class AggregateFold:
    """One aggregate folded over row ranges of dense group ids.

    :meth:`add` folds one range — its argument rows and their group ids
    — into ``n_groups`` accumulators, and :meth:`result` is the aggregate
    as a column of ``n_groups``.  The executor feeds the whole input as
    one range, ``SPILL_CHUNK_ROWS``-row ranges under a memory budget, or
    each filtered morsel with every id 0 (a streamed global aggregate);
    the answer does not depend on the split.  A DISTINCT aggregate is
    fed only the rows :func:`distinct_arguments` keeps.

    Accumulators start at their identity (0 for sums, the type's far
    end for MIN/MAX) and fold through ``ufunc.at``, which visits the
    rows in order: float SUM/AVG add each group's values left to right,
    so totals are bit-identical to a sequential sum however the rows
    are split.  COUNT is ``bincount`` (morsel-parallel under ``par``;
    integer addition is exact).  MIN/MAX keep the first of equal values,
    as Python's ``min``/``max`` do; for floats that shows only on
    ``0.0`` against ``-0.0``, so a zero result takes the sign of its
    group's first zero.  NaN is greater than every number: MAX folds
    with ``np.maximum``, which propagates it, and float MIN with
    ``np.fmin`` from a NaN identity, which skips NaN unless the group
    holds nothing else.  Strings reduce ordered codes within a range and
    merge across ranges by comparison.  Groups with no non-NULL input
    are NULL (COUNT excepted).
    """

    def __init__(self, func: str, n_groups: int):
        self.func = func
        self.counts = np.zeros(n_groups, dtype=np.int64)
        self.type: Optional[DataType] = None
        self.acc: Optional[np.ndarray] = None
        #: float MIN/MAX: sign of each group's first zero (0: none yet)
        self._zero_sign: Optional[np.ndarray] = None

    def add(
        self,
        arg: Optional[Column],
        ids: np.ndarray,
        par: Optional[ParallelContext] = None,
    ) -> None:
        """Fold one range: ``arg`` holds its rows (None for COUNT(*)) and
        ``ids`` their group ids."""
        func, n_groups = self.func, len(self.counts)
        valid = None if arg is None or arg.mask is None else ~arg.mask
        vids = ids if valid is None else ids[valid]
        if n_groups == 1:  # a global aggregate or a streamed morsel
            counts = np.array([len(vids)], dtype=np.int64)
        elif _use_par(par, len(ids), "aggregate"):
            counts = mp.parallel_bincount(ids, n_groups, par, valid=valid)
        else:
            counts = np.bincount(vids, minlength=n_groups)
        if func not in ("count_star", "count"):
            if arg.data.dtype == np.dtype(object):
                self._fold_ordered(arg, vids, valid, counts, par)
            else:
                self._fold_numbers(arg, vids, valid)
            self.type = arg.type
        self.counts += counts

    def _fold_numbers(self, arg: Column, vids, valid) -> None:
        vals = arg.data if valid is None else arg.data[valid]
        if self.func in ("sum", "avg"):
            # float64 for DOUBLE, int64 otherwise (Python ints are
            # unbounded; int64 is the documented kernel deviation)
            if self.acc is None:
                kind = np.float64 if vals.dtype.kind == "f" else np.int64
                self.acc = np.zeros(len(self.counts), dtype=kind)
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN
                np.add.at(self.acc, vids, vals.astype(self.acc.dtype, copy=False))
            return
        if self.acc is None:
            self.acc = np.full(
                len(self.counts),
                _fold_identity(self.func, vals.dtype),
                dtype=vals.dtype,
            )
        ufunc = np.fmin if self.func == "min" else np.maximum
        with np.errstate(invalid="ignore"):  # NaN arguments are expected
            ufunc.at(self.acc, vids, vals)
        zeros = np.flatnonzero(vals == 0) if vals.dtype.kind == "f" else ()
        if len(zeros):
            if self._zero_sign is None:
                self._zero_sign = np.zeros(len(self.counts), dtype=np.int8)
            groups, first = np.unique(vids[zeros], return_index=True)
            fresh = self._zero_sign[groups] == 0
            self._zero_sign[groups[fresh]] = np.where(
                np.signbit(vals[zeros[first[fresh]]]), -1, 1
            )

    def _fold_ordered(self, arg: Column, vids, valid, counts, par) -> None:
        """MIN/MAX over strings: the range's ordered codes reduce per
        group, then merge into the running values by comparison."""
        if self.func not in ("min", "max"):
            # the binder rejects non-numeric SUM/AVG; a parameter is
            # typed only by its value
            raise TypeError_(f"{self.func.upper()} requires a numeric argument")
        codes, cardinality, uniques = arg.factorize(runner=par)
        is_min = self.func == "min"
        best = np.full(len(self.counts), cardinality if is_min else -1)
        ufunc = np.minimum if is_min else np.maximum
        ufunc.at(best, vids, codes if valid is None else codes[valid])
        if self.acc is None:
            self.acc = np.empty(len(self.counts), dtype=object)
        take = counts > 0
        both = np.flatnonzero(take & (self.counts > 0))
        if len(both):
            new, old = uniques[best[both]], self.acc[both]
            take[both] = (new < old) if is_min else (new > old)
        self.acc[take] = uniques[best[take]]

    def result(self) -> Column:
        counts = self.counts
        if self.func in ("count_star", "count"):
            return Column(DataType.BIGINT, counts)
        mask = counts == 0
        acc = self.acc
        if self.func == "avg":
            data = np.zeros(len(counts), dtype=np.float64)
            present = ~mask
            data[present] = acc[present].astype(np.float64) / counts[present]
            return Column(DataType.DOUBLE, data, mask)
        if self.func == "sum":
            type_ = DataType.DOUBLE if acc.dtype.kind == "f" else DataType.BIGINT
            return Column(type_, acc, mask)
        if acc.dtype == np.dtype(object):
            return Column(self.type or DataType.VARCHAR, acc, mask)
        acc[mask] = 0  # empty groups held the identity
        if self._zero_sign is not None:
            zero = acc == 0
            acc[zero] = np.copysign(0.0, self._zero_sign[zero])
        return Column(self.type, acc, mask)


def _fold_identity(func: str, dtype: np.dtype):
    """The MIN (MAX) identity of ``dtype``: its largest (smallest)
    value; for floats, NaN for MIN — ``np.fmin`` passes over it."""
    if dtype.kind == "f":
        low, high = -np.inf, np.nan
    elif dtype.kind == "b":
        low, high = False, True
    else:
        low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
    return high if func == "min" else low


def distinct_arguments(
    arg: Column, ids: np.ndarray, par: Optional[ParallelContext] = None
) -> np.ndarray:
    """Keep-mask of the first row of each distinct (group id, argument)
    pair — the rows a DISTINCT aggregate folds.  Argument values compare
    as keys do: NULLs equal (and then skipped by the fold), each NaN
    distinct, ``0.0`` equal to ``-0.0``."""
    return distinct_mask([Column(DataType.BIGINT, ids), arg], len(ids), par)


def grouped_aggregate(
    func: str,
    arg: Optional[Column],
    ids: np.ndarray,
    n_groups: int,
    par: Optional[ParallelContext] = None,
) -> Column:
    """One aggregate over dense group ids, as a column of ``n_groups``:
    an :class:`AggregateFold` fed all rows as one range."""
    fold = AggregateFold(func, n_groups)
    fold.add(arg, ids, par)
    return fold.result()
