"""Resting column encodings: dictionary, run-length, and subtract-min
bit-packing.

An :class:`Encoding` is an alternate, usually smaller, physical
representation of one immutable :class:`~repro.storage.column.Column`.
Encodings are *resting* formats: attaching one never changes the
column's logical values — ``column.data`` / ``column.mask`` decode
transparently (and cache), so every operator keeps working unchanged
— but the vectorized kernels get two shortcuts:

* :meth:`Encoding.factorize` hands :meth:`Column.factorize` its codes
  without re-encoding (the dictionary case is a plain ``astype``), so
  GROUP BY / DISTINCT / ORDER BY on an encoded column never pay the
  sort-based encode again, regardless of the factorize-memo threshold;
* two dictionary-encoded columns that share a dictionary join on their
  resting codes directly (see ``exec/kernels._shared_dict_codes``).

Every array slot may hold a zero-argument loader instead of the array
itself — format-v4 images install ``np.load(..., mmap_mode="r")``
thunks so a reopened database materializes columns lazily.

The factorize contract (value-ordered codes, NULL code last) is
preserved exactly; float columns containing NaN are never encoded, so
the ``nan_distinct`` subtleties stay confined to the plain path.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from ..errors import TypeError_
from .types import DataType
from .zonemap import ZONE_ROWS as _ZONE_ROWS

#: Encoded representation must be at most this fraction of the plain
#: bytes to be worth adopting (decode costs a copy; marginal wins lose).
_ADOPT_RATIO = 0.9


def _narrow_uint(max_code: int) -> "np.dtype | None":
    """Smallest unsigned dtype holding ``max_code``, or None past uint32."""
    if max_code < (1 << 8):
        return np.dtype(np.uint8)
    if max_code < (1 << 16):
        return np.dtype(np.uint16)
    if max_code < (1 << 32):
        return np.dtype(np.uint32)
    return None


class _FactorizeCounters:
    """Process-wide encode/hit counters behind :func:`factorize_stats`.

    Mirrors the ``KernelCounters`` pattern: a mutex-guarded tally that
    ``Database.storage_stats()`` snapshots.  ``encodes`` counts actual
    sort/unique encodes in ``Column._factorize_impl``; ``resting_hits``
    counts factorizes answered from a resting encoding; ``memo_hits``
    counts answers from the per-column memo.  The re-factorize-cliff
    regression test asserts ``encodes`` stays flat across repeated
    GROUP BYs on an encoded column.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.encodes = 0
        self.resting_hits = 0
        self.memo_hits = 0
        self.shared_dict_joins = 0

    def note(self, field: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + delta)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "encodes": self.encodes,
                "resting_hits": self.resting_hits,
                "memo_hits": self.memo_hits,
                "shared_dict_joins": self.shared_dict_joins,
            }


factorize_counters = _FactorizeCounters()


class Encoding:
    """Base resting encoding; subclasses fill the layout-specific parts.

    ``length`` is the logical row count — available without decoding, so
    ``len(column)`` never materializes a lazy column.
    """

    kind = "plain"
    __slots__ = ("length",)

    def __init__(self, length: int):
        self.length = length

    # -- layout-specific -------------------------------------------------
    def materialize(self) -> "tuple[np.ndarray, np.ndarray | None]":
        raise NotImplementedError

    def null_mask(self) -> "np.ndarray | None":
        """The decoded null mask alone (cheaper than full materialize)."""
        raise NotImplementedError

    def factorize(self, nan_distinct: bool):
        """``(codes, cardinality, uniques)`` per the Column.factorize
        contract, or None when this layout has no shortcut."""
        return None

    def materialize_range(self, start: int, stop: int):
        """Decode only rows ``[start, stop)`` — the morsel-streaming
        primitive behind :meth:`Column.slice_morsel`.  The base
        implementation decodes everything (correct, not lazy);
        subclasses override with genuinely bounded decodes."""
        data, mask = self.materialize()
        return data[start:stop], (mask[start:stop] if mask is not None else None)

    def nbytes(self) -> int:
        """Resting payload bytes (decoded arrays excluded)."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------
    @staticmethod
    def _resolve(ref):
        """Array slots may hold zero-arg loaders (mmap thunks)."""
        return ref() if callable(ref) else ref


class PlainEncoding(Encoding):
    """No compression — exists so format-v4 *plain* columns can still be
    lazy: ``data``/``mask`` hold mmap thunks until first touch."""

    kind = "plain"
    __slots__ = ("_data", "_mask")

    def __init__(self, length: int, data, mask=None):
        super().__init__(length)
        self._data = data
        self._mask = mask

    @property
    def data(self) -> np.ndarray:
        d = self._resolve(self._data)
        self._data = d
        return d

    def materialize(self):
        return self.data, self.null_mask()

    def null_mask(self):
        m = self._resolve(self._mask)
        self._mask = m
        if m is not None and not m.any():
            m = self._mask = None
        return m

    def materialize_range(self, start: int, stop: int):
        # slicing an mmapped array yields a view: only touched pages load
        m = self.null_mask()
        return self.data[start:stop], (m[start:stop] if m is not None else None)

    def nbytes(self) -> int:
        m = self.null_mask()
        return int(self.data.nbytes) + (int(m.nbytes) if m is not None else 0)


class DictEncoding(Encoding):
    """Dictionary codes + sorted dictionary; NULL coded last.

    ``codes`` is a narrow unsigned array where valid rows hold the rank
    of their value in the ascending ``uniques`` array and NULL rows (iff
    ``has_null``) hold ``len(uniques)`` — exactly the
    :meth:`Column.factorize` layout, so factorize is an ``astype``.
    """

    kind = "dict"
    __slots__ = ("_codes", "_uniques", "has_null", "dtype_")

    def __init__(self, length: int, codes, uniques, has_null: bool, dtype_):
        super().__init__(length)
        self._codes = codes
        self._uniques = uniques
        self.has_null = bool(has_null)
        self.dtype_ = np.dtype(dtype_)

    @property
    def codes(self) -> np.ndarray:
        c = self._resolve(self._codes)
        self._codes = c
        return c

    @property
    def uniques(self) -> np.ndarray:
        u = self._resolve(self._uniques)
        self._uniques = u
        return u

    def materialize(self):
        codes, uniques = self.codes, self.uniques
        k = len(uniques)
        mask = None
        if self.has_null:
            mask = codes == k
            # clamp NULL slots onto an arbitrary in-range code; the mask
            # is the sole source of truth for NULL-ness
            codes = np.where(mask, 0, codes) if k else codes
        if k:
            data = uniques[codes]
            if data.dtype != self.dtype_:
                data = data.astype(self.dtype_)
        elif self.dtype_ == np.dtype(object):
            data = np.empty(self.length, dtype=object)
        else:
            data = np.zeros(self.length, dtype=self.dtype_)
        if mask is not None and not mask.any():
            mask = None
        return data, mask

    def null_mask(self):
        if not self.has_null:
            return None
        return self.codes == len(self.uniques)

    def materialize_range(self, start: int, stop: int):
        codes = self.codes[start:stop]
        uniques = self.uniques
        k = len(uniques)
        mask = None
        if self.has_null:
            mask = codes == k
            codes = np.where(mask, 0, codes) if k else codes
        if k:
            data = uniques[codes]
            if data.dtype != self.dtype_:
                data = data.astype(self.dtype_)
        elif self.dtype_ == np.dtype(object):
            data = np.empty(len(codes), dtype=object)
        else:
            data = np.zeros(len(codes), dtype=self.dtype_)
        if mask is not None and not mask.any():
            mask = None
        return data, mask

    def factorize(self, nan_distinct: bool):
        # NaN-bearing float columns are never dict-encoded, so the
        # nan_distinct flag cannot change the coding.
        factorize_counters.note("resting_hits")
        cardinality = len(self.uniques) + (1 if self.has_null else 0)
        return (
            self.codes.astype(np.int64),
            max(cardinality, 1),
            self.uniques,
        )

    def nbytes(self) -> int:
        return int(self.codes.nbytes) + int(self.uniques.nbytes)


class RLEEncoding(Encoding):
    """Run-length encoding: ``(run_values, run_lengths[, run_mask])``.

    A run never spans a value change *or* a NULL-ness change, so
    ``np.repeat`` reconstructs both arrays exactly.  Factorize encodes
    the (small) runs column and repeats the run codes — the distinct
    set, value order, and NULL-last code are unchanged.
    """

    kind = "rle"
    __slots__ = ("_values", "_lengths", "_mask", "col_type", "_ends")

    def __init__(self, length: int, values, lengths, mask, col_type: DataType):
        super().__init__(length)
        self._values = values
        self._lengths = lengths
        self._mask = mask
        self.col_type = col_type
        self._ends = None  # cached cumulative run ends (range decode)

    @property
    def values(self) -> np.ndarray:
        v = self._resolve(self._values)
        self._values = v
        return v

    @property
    def lengths(self) -> np.ndarray:
        l = self._resolve(self._lengths)
        self._lengths = l
        return l

    @property
    def run_mask(self) -> "np.ndarray | None":
        m = self._resolve(self._mask)
        self._mask = m
        return m

    def materialize(self):
        data = np.repeat(self.values, self.lengths)
        mask = self.null_mask()
        return data, mask

    def null_mask(self):
        rm = self.run_mask
        if rm is None:
            return None
        mask = np.repeat(rm, self.lengths)
        return mask if mask.any() else None

    def materialize_range(self, start: int, stop: int):
        if stop <= start:
            return self.values[:0], None
        ends = self._ends
        if ends is None:
            ends = self._ends = np.cumsum(self.lengths, dtype=np.int64)
        i0 = int(np.searchsorted(ends, start, side="right"))
        i1 = int(np.searchsorted(ends, stop - 1, side="right"))
        lengths = self.lengths[i0 : i1 + 1].astype(np.int64, copy=True)
        prev_end = int(ends[i0 - 1]) if i0 > 0 else 0
        lengths[0] -= start - prev_end
        lengths[-1] -= int(ends[i1]) - stop
        data = np.repeat(self.values[i0 : i1 + 1], lengths)
        rm = self.run_mask
        mask = None
        if rm is not None:
            mask = np.repeat(rm[i0 : i1 + 1], lengths)
            if not mask.any():
                mask = None
        return data, mask

    def factorize(self, nan_distinct: bool):
        from .column import Column  # deferred: column.py imports this module

        runs = Column(self.col_type, self.values, self.run_mask)
        run_codes, cardinality, uniques = runs.factorize(
            nan_distinct=nan_distinct
        )
        factorize_counters.note("resting_hits")
        return np.repeat(run_codes, self.lengths), cardinality, uniques

    def nbytes(self) -> int:
        total = int(self.values.nbytes) + int(self.lengths.nbytes)
        if self.run_mask is not None:
            total += int(self.run_mask.nbytes)
        return total


class PackedEncoding(Encoding):
    """Subtract-min (frame-of-reference) bit-packing for narrow integer
    domains.

    ``packed`` stores ``value - lo`` in the smallest unsigned dtype that
    fits the observed span (placeholders in NULL slots included, so the
    physical array round-trips bit-exactly).  ``lo`` is either one
    column-wide minimum or — when the domain is locally clustered — a
    per-zone minima array (``zone_rows`` rows per frame), which packs
    into a narrower dtype whenever values drift but stay locally tight
    (timestamps, auto-increment keys after compaction, ...).

    With a scalar ``lo``, no NULLs, and a span narrow enough for the
    dense-code fast path, the packed bytes *are* the factorize codes;
    per-zone frames give that up (codes would be frame-relative) and
    factorize falls back to the plain path.
    """

    kind = "pack"
    __slots__ = ("_packed", "_mask", "_lo", "span", "dtype_", "zone_rows")

    def __init__(
        self, length: int, packed, mask, lo, span: int, dtype_, zone_rows: int = 0
    ):
        super().__init__(length)
        self._packed = packed
        self._mask = mask
        self._lo = lo if (callable(lo) or isinstance(lo, np.ndarray)) else int(lo)
        self.span = int(span)
        self.dtype_ = np.dtype(dtype_)
        self.zone_rows = int(zone_rows)

    @property
    def packed(self) -> np.ndarray:
        p = self._resolve(self._packed)
        self._packed = p
        return p

    @property
    def lo(self):
        l = self._resolve(self._lo)
        self._lo = l
        return l

    def _frame_base(self, start: int, stop: int) -> np.ndarray:
        """Per-row frame minimum for rows ``[start, stop)``."""
        zones = np.arange(start, stop, dtype=np.int64) // self.zone_rows
        return np.asarray(self.lo, dtype=np.int64)[zones]

    def materialize(self):
        packed = self.packed
        if self.zone_rows:
            lo = np.asarray(self.lo, dtype=np.int64)
            sizes = np.full(len(lo), self.zone_rows, dtype=np.int64)
            sizes[-1] = len(packed) - (len(lo) - 1) * self.zone_rows
            base = np.repeat(lo, sizes)
        else:
            base = self.lo
        data = (packed.astype(np.int64) + base).astype(self.dtype_)
        return data, self.null_mask()

    def materialize_range(self, start: int, stop: int):
        packed = self.packed[start:stop]
        if self.zone_rows:
            base = self._frame_base(start, start + len(packed))
        else:
            base = self.lo
        data = (packed.astype(np.int64) + base).astype(self.dtype_)
        m = self.null_mask()
        mask = m[start:stop] if m is not None else None
        if mask is not None and not mask.any():
            mask = None
        return data, mask

    def null_mask(self):
        m = self._resolve(self._mask)
        self._mask = m
        if m is not None and not m.any():
            m = self._mask = None
        return m

    def factorize(self, nan_distinct: bool):
        from .column import _dense_span_bound

        if self.zone_rows:
            return None  # frame-relative bytes are not global codes
        if self.null_mask() is not None:
            return None  # lo covers placeholder slots; codes would skew
        if self.span > _dense_span_bound(self.length):
            return None
        factorize_counters.note("resting_hits")
        codes = self.packed.astype(np.int64)
        return codes, max(self.span, 1), None

    def nbytes(self) -> int:
        m = self.null_mask()
        total = int(self.packed.nbytes) + (int(m.nbytes) if m is not None else 0)
        if self.zone_rows:
            total += int(np.asarray(self.lo).nbytes)
        return total


# ----------------------------------------------------------------------
# encoding selection
# ----------------------------------------------------------------------
def _object_payload_bytes(values: np.ndarray, sample: int = 1024) -> int:
    """Estimated payload bytes of an object array (pointer + chars)."""
    n = len(values)
    if n == 0:
        return 0
    picked = values[:sample]
    payload = 0
    for v in picked:
        try:
            payload += len(v) if v is not None else 0
        except TypeError:
            payload += 16
    return int(8 * n + payload * (n / len(picked)))


def _run_starts(data: np.ndarray, mask: "np.ndarray | None") -> np.ndarray:
    """Start offsets of value/NULL-ness runs (always includes 0).  Float
    runs compare bit patterns, so ``-0.0`` and ``0.0`` never share a
    run."""
    if data.dtype.kind == "f":
        data = data.view(f"u{data.dtype.itemsize}")
    changes = np.asarray(data[1:] != data[:-1], dtype=np.bool_)
    if mask is not None:
        changes = changes | (mask[1:] != mask[:-1])
    return np.concatenate((np.zeros(1, dtype=np.int64), np.flatnonzero(changes) + 1))


def _signed_zeros_mixed(data: np.ndarray, mask: "np.ndarray | None") -> bool:
    """Whether a float column holds both ``-0.0`` and ``0.0`` in valid
    rows."""
    if data.dtype.kind != "f":
        return False
    zeros = data == 0
    if mask is not None:
        zeros &= ~mask
    signs = np.signbit(data[zeros])
    return bool(signs.any()) and not bool(signs.all())


def choose_encoding(column) -> "Encoding | None":
    """Pick the smallest resting encoding for ``column``, or None.

    Pure inspection — the returned encoding decodes to exactly the
    column's current ``data``/``mask``.  Float columns containing NaN
    and nested-table payloads are never encoded, and a float column
    whose zeros carry both signs is never dictionary-encoded (its
    dictionary, like every factorize key, merges ``-0.0`` and ``0.0``);
    an encoding is adopted only when its resting bytes beat the plain
    layout by :data:`_ADOPT_RATIO`.
    """
    n = len(column)
    if n == 0 or column.type == DataType.NESTED_TABLE:
        return None
    data, mask = column.data, column.mask
    dtype = data.dtype
    if dtype.kind == "f" and bool(np.isnan(data).any()):
        return None
    if dtype == np.dtype(object):
        raw = _object_payload_bytes(data)
    else:
        raw = int(data.nbytes)
    if mask is not None:
        raw += int(mask.nbytes)

    candidates: "list[tuple[int, str]]" = []

    # -- RLE -----------------------------------------------------------
    starts = _run_starts(data, mask)
    n_runs = len(starts)
    item = 8 if dtype == np.dtype(object) else dtype.itemsize
    rle_bytes = n_runs * (item + 8 + (1 if mask is not None else 0))
    if n_runs * 3 <= n:
        candidates.append((rle_bytes, "rle"))

    # -- dictionary ------------------------------------------------------
    dict_parts = None
    try:
        codes, cardinality, uniques = column.factorize()
    except (TypeError, TypeError_):
        codes = cardinality = uniques = None
    if (
        uniques is not None
        and len(uniques) + (1 if mask is not None else 0) == cardinality
        and not _signed_zeros_mixed(data, mask)
    ):
        code_dtype = _narrow_uint(cardinality - 1 if cardinality else 0)
        if code_dtype is not None:
            if uniques.dtype == np.dtype(object):
                dict_bytes = n * code_dtype.itemsize + _object_payload_bytes(uniques)
            else:
                dict_bytes = n * code_dtype.itemsize + int(uniques.nbytes)
            dict_parts = (codes, uniques, code_dtype)
            candidates.append((dict_bytes, "dict"))

    # -- subtract-min packing -------------------------------------------
    pack_parts = None
    packz_parts = None
    if dtype.kind in "iu" and dtype.itemsize > 1:
        mask_bytes = int(mask.nbytes) if mask is not None else 0
        lo = int(data.min())
        hi = int(data.max())
        pack_dtype = _narrow_uint(hi - lo)
        if n > _ZONE_ROWS:
            # per-zone frame-of-reference: locally-clustered domains pack
            # narrower against each zone's own minimum than the column's
            zone_starts = np.arange(0, n, _ZONE_ROWS)
            zone_lo = np.minimum.reduceat(data, zone_starts).astype(np.int64)
            zone_hi = np.maximum.reduceat(data, zone_starts).astype(np.int64)
            zone_span = int((zone_hi - zone_lo).max())
            zone_dtype = _narrow_uint(zone_span)
            if (
                zone_dtype is not None
                and zone_dtype.itemsize < dtype.itemsize
                and (pack_dtype is None or zone_dtype.itemsize < pack_dtype.itemsize)
            ):
                packz_bytes = (
                    n * zone_dtype.itemsize + int(zone_lo.nbytes) + mask_bytes
                )
                packz_parts = (zone_lo, zone_span + 1, zone_dtype)
                candidates.append((packz_bytes, "packz"))
        if packz_parts is None and pack_dtype is not None and pack_dtype.itemsize < dtype.itemsize:
            pack_bytes = n * pack_dtype.itemsize + mask_bytes
            pack_parts = (lo, hi - lo + 1, pack_dtype)
            candidates.append((pack_bytes, "pack"))

    if not candidates:
        return None
    best_bytes, best = min(candidates, key=lambda c: c[0])
    if best_bytes > raw * _ADOPT_RATIO:
        return None

    if best == "rle":
        run_values = data[starts]
        run_lengths = np.diff(np.concatenate((starts, np.array([n], dtype=np.int64))))
        run_mask = mask[starts].copy() if mask is not None else None
        return RLEEncoding(n, run_values, run_lengths, run_mask, column.type)
    if best == "dict":
        codes, uniques, code_dtype = dict_parts
        return DictEncoding(
            n, codes.astype(code_dtype), uniques, mask is not None, dtype
        )
    if best == "packz":
        zone_lo, span, pack_dtype = packz_parts
        sizes = np.diff(np.append(np.arange(0, n, _ZONE_ROWS), n))
        base = np.repeat(zone_lo, sizes)
        packed = (data.astype(np.int64) - base).astype(pack_dtype)
        return PackedEncoding(
            n, packed, mask, zone_lo, span, dtype, zone_rows=_ZONE_ROWS
        )
    lo, span, pack_dtype = pack_parts
    packed = (data.astype(np.int64) - lo).astype(pack_dtype)
    return PackedEncoding(n, packed, mask, lo, span, dtype)


def encode_columns(version, *, force: bool = False) -> int:
    """Attach resting encodings to every eligible column of a
    :class:`TableVersion` (idempotent); returns how many were attached.

    Columns already carrying an encoding are left alone.  Safe on live
    versions: attaching is an observably-pure cache install, readers
    pinned to this (or any other) version sharing the column objects see
    identical values before and after.
    """
    attached = 0
    for col in version.columns:
        if col.encoding is not None and not force:
            continue
        enc = choose_encoding(col)
        if enc is not None:
            col.set_resting_encoding(enc)
            attached += 1
    return attached
