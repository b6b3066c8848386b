"""Physical columns: a typed numpy array plus an optional null mask.

A :class:`Column` is immutable once built (operators always produce new
columns), mirroring MonetDB's BAT-style materialized execution model.  The
null mask is a boolean numpy array where ``True`` marks NULL; columns with
no NULLs carry ``mask=None`` so the common case stays branch-free.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..envutil import env_int as _env_int
from ..errors import TypeError_
from .encoding import Encoding, factorize_counters
from .types import DataType, coerce_python_value, days_to_date

#: Sentinel distinguishing "mask not derived yet" from a legitimate
#: ``None`` (= no NULLs) on lazily-decoded columns.
_UNSET = object()


def _parse_string(value: Any, target: DataType) -> Any:
    """Parse a VARCHAR value for CAST into ``target`` (None passes)."""
    if value is None:
        return None
    text = value.strip()
    try:
        if target.is_integral:
            return int(text)
        if target == DataType.DOUBLE:
            return float(text)
        if target == DataType.BOOLEAN:
            if text.lower() in ("true", "t", "1"):
                return True
            if text.lower() in ("false", "f", "0"):
                return False
            raise ValueError(text)
    except ValueError:
        raise TypeError_(f"cannot cast {value!r} to {target}") from None
    return text  # DATE handled by coerce_python_value


def _dense_span_bound(n_values: int) -> int:
    """Largest ``value - min`` code span worth a scatter table instead
    of a sort-based dictionary (shared by the serial and morsel
    factorize paths, which must take the same branch to stay
    bit-identical)."""
    return max(4 * n_values, 1024)


def _dense_span(values: np.ndarray) -> "tuple[int, int] | None":
    """``(min, span)`` when integer ``values`` cover a range narrow
    enough that ``value - min`` beats a sort-based ``np.unique`` as the
    dictionary code (span bounded by :func:`_dense_span_bound`), else
    None."""
    if values.dtype.kind not in "iub" or len(values) == 0:
        return None
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo + 1
    if span > _dense_span_bound(len(values)):
        return None
    return lo, span


def _factorize_objects(values: np.ndarray) -> tuple[np.ndarray, int, "np.ndarray | None"]:
    """Dense codes for an object array (NULLs already excluded).

    Sortable payloads (strings) get value-ordered codes via ``np.unique``;
    unorderable but hashable payloads get insertion-ordered codes from a
    dictionary (``uniques`` None).  Unhashable payloads raise TypeError.
    """
    try:
        uniques, inverse = np.unique(values, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64, copy=False), len(uniques), uniques
    except TypeError:
        pass
    mapping: dict = {}
    codes = np.empty(len(values), dtype=np.int64)
    for i, value in enumerate(values):
        code = mapping.get(value)
        if code is None:
            code = mapping[value] = len(mapping)
        codes[i] = code
    return codes, len(mapping), None


#: Columns longer than this skip the *plain-path* factorize memo: the
#: memo pins a full-size int64 codes array (plus the dictionary) for
#: the column version's lifetime, and above this bound (512MB of codes
#: by default) the resident-memory cost outweighs the repeat-statement
#: win.  The threshold no longer creates a re-*encode* cliff: columns
#: carrying a resting :class:`~repro.storage.encoding.DictEncoding`
#: (attached by ANALYZE / ``save()``) answer factorize from their
#: stored codes with one ``astype`` regardless of size, so only
#: never-analyzed plain columns above the bound pay a per-statement
#: sort-based encode.  Env knob ``REPRO_FACTORIZE_MEMO_ROWS``; DML
#: releases memos naturally because writers build new columns.
FACTORIZE_MEMO_MAX_ROWS = _env_int("REPRO_FACTORIZE_MEMO_ROWS", 67_108_864)


def unique_inverse_morsels(
    values: np.ndarray, runner, op: str = "factorize"
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` via per-partition
    dictionary merge — *the* single implementation of the merge (the
    exec layer's ``parallel_unique_inverse`` delegates here), because
    the bit-identity guarantee depends on every caller encoding the
    same way: each morsel builds its own sorted dictionary, the local
    dictionaries merge into the global sorted unique set, and each
    morsel remaps with ``searchsorted`` (exactly ``np.unique``'s
    inverse)."""
    spans = runner.spans(len(values))
    locals_ = runner.map(op, lambda s: np.unique(values[s[0] : s[1]]), spans)
    uniques = np.unique(np.concatenate(locals_)) if locals_ else values[:0]
    inverse = np.empty(len(values), dtype=np.int64)

    def remap(s: "tuple[int, int]") -> None:
        inverse[s[0] : s[1]] = np.searchsorted(uniques, values[s[0] : s[1]])

    runner.map(op, remap, spans)
    return uniques, inverse


def _factorize_morsels(
    values: np.ndarray, runner
) -> tuple[np.ndarray, int, "np.ndarray | None"]:
    """Morsel-parallel dictionary codes for a primitive-dtype value array
    (NULLs and NaNs already excluded), bit-identical to the serial path.

    The dense-span fast path distributes the min/max scan and the
    ``value - min`` subtraction; the dictionary path builds one sorted
    dictionary *per morsel*, merges them into the global code space
    (``np.unique`` over the concatenated dictionaries — the same sorted
    unique set one big ``np.unique`` would produce), and remaps every
    morsel into it with ``searchsorted`` (exactly ``np.unique``'s
    inverse).
    """
    spans = runner.spans(len(values))
    if values.dtype.kind in "iub":
        bounds = runner.map(
            "factorize",
            lambda s: (int(values[s[0] : s[1]].min()), int(values[s[0] : s[1]].max())),
            spans,
        )
        lo = min(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        span = hi - lo + 1
        if span <= _dense_span_bound(len(values)):
            codes = np.empty(len(values), dtype=np.int64)

            def subtract(s: "tuple[int, int]") -> None:
                chunk = values[s[0] : s[1]].astype(np.int64, copy=False)
                np.subtract(chunk, lo, out=codes[s[0] : s[1]])

            runner.map("factorize", subtract, spans)
            return codes, span, None
    uniques, codes = unique_inverse_morsels(values, runner)
    return codes, len(uniques), uniques


class Column:
    """An immutable typed vector of values.

    Parameters
    ----------
    type_:
        The logical :class:`DataType` of the values.
    data:
        A numpy array with the physical representation.  NULL slots hold an
        arbitrary placeholder (0 / empty string / None) and are identified
        solely through ``mask``.
    mask:
        Optional boolean array; ``True`` marks a NULL.  ``None`` means the
        column contains no NULLs.
    """

    __slots__ = ("type", "_data", "_mask", "_fact_memo", "_encoding", "_zones")

    def __init__(self, type_: DataType, data: np.ndarray, mask: np.ndarray | None = None):
        if mask is not None and len(mask) != len(data):
            raise TypeError_("null mask length does not match data length")
        if mask is not None and not mask.any():
            mask = None
        self.type = type_
        self._data = data
        self._mask = mask
        #: nan_distinct -> (codes, cardinality, uniques); see factorize().
        self._fact_memo: dict | None = None
        #: resting Encoding (see storage/encoding.py) or None for plain.
        self._encoding: Encoding | None = None
        #: granularity -> ColumnZoneMap | None; see storage/zonemap.py.
        self._zones: dict | None = None

    # ------------------------------------------------------------------
    # physical representation (decoded lazily when resting-encoded)
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The physical value array, decoding the resting encoding on
        first touch (cached).  Treat as read-only — loaded columns may
        be read-only memory maps."""
        d = self._data
        if d is None:
            d, mask = self._encoding.materialize()
            if self._mask is _UNSET:
                self._mask = mask
            self._data = d
        return d

    @property
    def mask(self) -> "np.ndarray | None":
        """The null mask (None = no NULLs), decoded lazily like data."""
        m = self._mask
        if m is _UNSET:
            m = self._mask = self._encoding.null_mask()
        return m

    @property
    def encoding(self) -> "Encoding | None":
        """The resting encoding, or None for a plain column."""
        return self._encoding

    @classmethod
    def from_encoding(cls, type_: DataType, encoding: Encoding) -> "Column":
        """A column resting entirely in ``encoding`` — ``data``/``mask``
        decode (and cache) on first access, so loaded images
        materialize lazily per column."""
        column = cls.__new__(cls)
        column.type = type_
        column._data = None
        column._mask = _UNSET
        column._fact_memo = None
        column._encoding = encoding
        column._zones = None
        return column

    def set_resting_encoding(self, encoding: Encoding) -> None:
        """Attach a resting encoding produced *from this column* (an
        observably-pure cache install: the encoding decodes to exactly
        the current values, so snapshots sharing this column object are
        unaffected)."""
        self._encoding = encoding

    def resting_info(self) -> "tuple[str, int]":
        """``(encoding kind, resting bytes)`` for introspection — the
        ``\\storage`` shell command and storage_stats() report these."""
        enc = self._encoding
        if enc is not None:
            return enc.kind, enc.nbytes()
        d = self._data
        nbytes = int(d.nbytes) if d is not None else 0
        if self._mask is not None and self._mask is not _UNSET:
            nbytes += int(self._mask.nbytes)
        return "plain", nbytes

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_values(type_: DataType, values: Iterable[Any]) -> "Column":
        """Build a column from Python values, coercing each to ``type_``."""
        values = list(values)
        coerced = [coerce_python_value(v, type_) for v in values]
        mask = np.fromiter((v is None for v in coerced), dtype=np.bool_, count=len(coerced))
        if type_.numpy_dtype == np.dtype(object):
            data = np.empty(len(coerced), dtype=object)
            for i, v in enumerate(coerced):
                data[i] = v
        else:
            filler = 0
            data = np.fromiter(
                (filler if v is None else v for v in coerced),
                dtype=type_.numpy_dtype,
                count=len(coerced),
            )
        return Column(type_, data, mask if mask.any() else None)

    @staticmethod
    def constant(type_: DataType, value: Any, length: int) -> "Column":
        """A column holding ``length`` copies of one (coerced) value."""
        value = coerce_python_value(value, type_)
        if value is None:
            return Column.nulls(type_, length)
        if type_.numpy_dtype == np.dtype(object):
            data = np.empty(length, dtype=object)
            data[:] = value
        else:
            data = np.full(length, value, dtype=type_.numpy_dtype)
        return Column(type_, data)

    @staticmethod
    def nulls(type_: DataType, length: int) -> "Column":
        """A column of ``length`` NULLs."""
        if type_.numpy_dtype == np.dtype(object):
            data = np.empty(length, dtype=object)
        else:
            data = np.zeros(length, dtype=type_.numpy_dtype)
        return Column(type_, data, np.ones(length, dtype=np.bool_))

    @staticmethod
    def empty(type_: DataType) -> "Column":
        return Column(type_, np.empty(0, dtype=type_.numpy_dtype))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # materialization-free: lazy columns know their length from the
        # encoding, so catalogs/row counts never force a decode
        d = self._data
        if d is None:
            return self._encoding.length
        return len(d)

    @property
    def has_nulls(self) -> bool:
        return self.mask is not None

    def null_mask(self) -> np.ndarray:
        """The null mask as a real array (all-False when mask is None)."""
        if self.mask is None:
            return np.zeros(len(self), dtype=np.bool_)
        return self.mask

    def value(self, index: int) -> Any:
        """The Python value at ``index`` (``None`` for NULL)."""
        if self.mask is not None and self.mask[index]:
            return None
        item = self.data[index]
        if isinstance(item, np.generic):
            item = item.item()
        return item

    def to_pylist(self, *, decode_dates: bool = False) -> list[Any]:
        """Materialize the column as a list of Python values."""
        if self.data.dtype != np.dtype(object):
            out = self.data.tolist()  # bulk conversion (C speed)
            if self.mask is not None:
                mask_list = self.mask.tolist()
                out = [None if null else v for v, null in zip(out, mask_list)]
        else:
            out = list(self.data)
            if self.mask is not None:
                mask_list = self.mask.tolist()
                out = [None if null else v for v, null in zip(out, mask_list)]
        if decode_dates and self.type == DataType.DATE:
            out = [None if v is None else days_to_date(v) for v in out]
        return out

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self.value(i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(v) for v in self.to_pylist()[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Column<{self.type}>[{preview}{suffix}]"

    # ------------------------------------------------------------------
    # positional operations (the building blocks of every operator)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position (late materialization / join payload)."""
        data = self.data[indices]
        mask = self.mask[indices] if self.mask is not None else None
        return Column(self.type, data, mask)

    def filter(self, keep: np.ndarray) -> "Column":
        """Keep rows where the boolean array ``keep`` is True."""
        data = self.data[keep]
        mask = self.mask[keep] if self.mask is not None else None
        return Column(self.type, data, mask)

    def slice(self, start: int, stop: int) -> "Column":
        data = self.data[start:stop]
        mask = self.mask[start:stop] if self.mask is not None else None
        return Column(self.type, data, mask)

    def slice_morsel(self, start: int, stop: int) -> "Column":
        """Rows ``[start, stop)`` decoded alone.

        Unlike :meth:`slice`, a resting-encoded or mmapped column never
        materializes outside the requested range (each encoding decodes
        just the touched zone; plain mmaps page in only the sliced
        rows), which is what lets budgeted execution stream a
        larger-than-memory column morsel-at-a-time.  Values are
        bit-identical to ``slice(start, stop)``.
        """
        if self._data is not None:
            return self.slice(start, stop)
        data, mask = self._encoding.materialize_range(start, stop)
        return Column(self.type, data, mask)

    @staticmethod
    def concat(columns: Sequence["Column"]) -> "Column":
        """Stack columns of an identical type end to end."""
        if not columns:
            raise TypeError_("cannot concatenate zero columns")
        type_ = columns[0].type
        if any(c.type != type_ for c in columns):
            raise TypeError_("concat requires identical column types")
        non_empty = [c for c in columns if len(c)]
        if len(non_empty) == 1:
            # single contributor: share it (columns are immutable), which
            # keeps resting encodings / lazy mmaps intact — e.g. the
            # empty-table insert that persist.load_database performs
            return non_empty[0]
        data = np.concatenate([c.data for c in columns])
        if any(c.mask is not None for c in columns):
            mask = np.concatenate([c.null_mask() for c in columns])
        else:
            mask = None
        return Column(type_, data, mask)

    # ------------------------------------------------------------------
    # factorization (the primitive behind the vectorized exec kernels)
    # ------------------------------------------------------------------
    def factorize(
        self, *, nan_distinct: bool = True, runner=None
    ) -> tuple[np.ndarray, int, "np.ndarray | None"]:
        """Dictionary-encode the column into dense ``int64`` codes.

        Returns ``(codes, cardinality, uniques)`` where ``codes`` assigns
        every row an integer in ``[0, cardinality)`` such that two rows
        share a code iff they are the same *key*:

        * non-NULL, non-NaN values get ranks ``0..K-1`` in ascending value
          order (``uniques[code]`` recovers the value), so the codes are
          directly usable as null-aware sort keys;
        * float NaN slots come next — one fresh code per slot when
          ``nan_distinct`` (matching the Python-tuple identity semantics
          of the row-at-a-time operators, where every materialized NaN is
          its own key), or one shared code when ordering is all that
          matters;
        * the NULL code is always last, which makes ascending code order
          exactly SQL's NULLS LAST.

        ``uniques`` is ``None`` in two cases: the integer fast path
        (codes are ``value - min`` — still value-ordered, no dictionary
        materialized) and object payloads that are not orderable, which
        fall back to insertion-ordered codes from a hash dictionary —
        still valid grouping/join keys, but unusable for ordering
        kernels (non-object codes are value-ordered regardless of
        ``uniques``).  Raises ``TypeError`` for payloads that are
        neither orderable nor hashable (nested tables); callers treat
        that as "no kernel".

        The method is pure and re-entrant: concurrent calls (kernels on
        the shared worker pool) are safe.  Results are memoized on the
        column (up to :data:`FACTORIZE_MEMO_MAX_ROWS` rows — the memo
        pins a codes array as large as the column) — immutable, so the
        memo is write-once per key; a benign double-compute race just
        stores the identical result twice.  Callers must treat the
        returned arrays as read-only.

        ``runner``, when given, is a duck-typed morsel scheduler (the
        :class:`repro.exec.parallel.ParallelContext` protocol:
        ``active_for`` / ``spans`` / ``map``).  Large primitive-dtype
        columns are then factorized morsel-parallel with **per-partition
        dictionary merge**: every morsel builds its own sorted
        dictionary, the local dictionaries merge into one global code
        space, and each morsel remaps into it — bit-identical to the
        serial encoding for any worker count or morsel size.
        """
        memo = self._fact_memo
        key = bool(nan_distinct)
        if memo is not None:
            cached = memo.get(key)
            if cached is not None:
                factorize_counters.note("memo_hits")
                return cached
        encoding = self._encoding
        if encoding is not None:
            # resting codes: a lookup/astype, never a re-encode — this is
            # what retires the re-factorize cliff for analyzed columns
            result = encoding.factorize(key)
            if result is not None:
                return result
        result = self._factorize_impl(nan_distinct, runner)
        if len(self) <= FACTORIZE_MEMO_MAX_ROWS:
            if memo is None:
                memo = self._fact_memo = {}
            memo[key] = result
        return result

    def _factorize_impl(
        self, nan_distinct: bool, runner
    ) -> tuple[np.ndarray, int, "np.ndarray | None"]:
        factorize_counters.note("encodes")
        data, n = self.data, len(self.data)
        valid = np.ones(n, dtype=np.bool_) if self.mask is None else ~self.mask
        nan = None
        if data.dtype.kind == "f":
            nan = np.isnan(data) & valid
            valid = valid & ~nan
        if data.dtype == np.dtype(object):
            codes_valid, cardinality, uniques = _factorize_objects(data[valid])
        else:
            values = data[valid]
            if runner is not None and runner.active_for(len(values)):
                codes_valid, cardinality, uniques = _factorize_morsels(
                    values, runner
                )
            else:
                span = _dense_span(values)
                if span is not None:
                    # integer fast path: value - min is already a monotonic
                    # dense-enough code — no sort needed.  ``uniques`` stays
                    # None (non-object codes are value-ordered regardless).
                    lo, cardinality = span
                    codes_valid = values.astype(np.int64, copy=False) - lo
                    uniques = None
                else:
                    uniques, inverse = np.unique(values, return_inverse=True)
                    codes_valid = inverse.reshape(-1).astype(np.int64, copy=False)
                    cardinality = len(uniques)
        codes = np.zeros(n, dtype=np.int64)
        codes[valid] = codes_valid
        if nan is not None and nan.any():
            positions = np.flatnonzero(nan)
            if nan_distinct:
                codes[positions] = cardinality + np.arange(
                    len(positions), dtype=np.int64
                )
                cardinality += len(positions)
            else:
                codes[positions] = cardinality
                cardinality += 1
        if self.mask is not None:
            codes[self.mask] = cardinality
            cardinality += 1
        return codes, max(cardinality, 1), uniques

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def cast(self, target: DataType) -> "Column":
        """Cast to another logical type, NULLs passing through.

        Follows SQL CAST semantics for the supported type lattice; invalid
        string-to-number conversions raise :class:`TypeError_`.
        """
        if target == self.type:
            return self
        source, mask = self.type, self.mask
        if source.is_numeric and target.is_numeric:
            if target == DataType.BOOLEAN:
                data = self.data.astype(np.bool_)
            else:
                # a float-to-integer astype truncates toward zero, as
                # SQL's CAST does
                data = self.data.astype(target.numpy_dtype)
            return Column(target, data, mask)
        if target == DataType.VARCHAR:
            if source == DataType.DATE:
                # few distinct days: format each once (NULL slots may
                # hold any value, so they format day 0 instead)
                days = self.data if mask is None else np.where(mask, 0, self.data)
                days, inverse = np.unique(days, return_inverse=True)
                texts = [days_to_date(d).isoformat() for d in days.tolist()]
                data = np.array(texts, dtype=object)[inverse.reshape(-1)]
            elif source == DataType.BOOLEAN:
                data = np.where(self.data, "true", "false").astype(object)
            else:
                # str() of each Python value: floats keep -0.0 and nan
                data = np.array(list(map(str, self.data.tolist())), dtype=object)
            if mask is not None:
                data[mask] = ""
            return Column(target, data, mask)
        if source == DataType.VARCHAR:
            return Column.from_values(target, [_parse_string(v, target) for v in self.to_pylist()])
        if source == DataType.DATE and target.is_integral:
            return Column(target, self.data.astype(target.numpy_dtype), mask)
        if source.is_integral and target == DataType.DATE:
            return Column(target, self.data.astype(np.int64), mask)
        raise TypeError_(f"cannot cast {source} to {target}")
