"""Columnar batch building: the one builder behind every append.

SQL INSERT, COPY, the appender and ``Database.insert_rows`` all hand
:func:`bulk_columns` their batch as per-column vectors, and it returns
validated table columns without a per-row Python loop where it can:

* numpy arrays of a numeric/bool dtype, and integer/boolean result
  columns without NULLs, take a **vectorized** path — one dtype and
  range check + ``astype`` per morsel, optionally fanned across the
  shared :class:`~repro.exec.parallel.ExecPool` (the same duck-typed
  ``runner`` protocol ``Column.factorize`` uses), with integrality
  checks computed as array ops; a unicode array bound for VARCHAR is
  stored with one ``astype(object)``;
* lists, object arrays (strings, dates, values mixed with ``None``)
  and other result columns take a **chunked** path that runs
  ``Column.from_values`` per morsel — ``coerce_python_value`` on each
  value, so both paths accept the same values and raise the same
  errors.

Both paths yield plain immutable :class:`Column` objects, so everything
downstream (MVCC versioning, zone-map extension, resting encodings,
the graph overlay) is unaffected by *how* the batch was built.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..errors import TypeError_
from .column import Column
from .schema import Schema
from .types import INTEGRAL_RANGES, DataType

#: Result-column types whose NULL-free data converts vectorized into
#: the target types below with the value path's exact outcome; other
#: pairs (DOUBLE into an integer, anything into BOOLEAN or VARCHAR)
#: differ in what they accept or in the error message.
_VECTOR_SOURCES = frozenset({DataType.BOOLEAN, DataType.INTEGER, DataType.BIGINT})
_VECTOR_TARGETS = frozenset(
    {DataType.INTEGER, DataType.BIGINT, DataType.DOUBLE, DataType.DATE}
)


def _spans(n: int, runner) -> "list[tuple[int, int]] | None":
    """Morsel spans when the batch is worth fanning out, else None."""
    if runner is not None and runner.active_for(n):
        return runner.spans(n)
    return None


def _map(runner, spans, fn) -> list:
    if spans is None:
        return []
    return runner.map("ingest", fn, spans)


def _vector_column(
    type_: DataType, values: np.ndarray, runner
) -> Column:
    """The no-Python-loop path for numeric/bool ndarray input."""
    kind = values.dtype.kind
    n = len(values)
    target = type_.numpy_dtype
    if type_ == DataType.BOOLEAN:
        if kind != "b":
            raise TypeError_(
                f"expected boolean values, got dtype {values.dtype}"
            )
        return Column(type_, values.astype(np.bool_), None)
    if type_ == DataType.DOUBLE:
        if kind not in "fiub":
            raise TypeError_(f"expected double values, got dtype {values.dtype}")
        out = np.empty(n, dtype=np.float64)
        spans = _spans(n, runner)

        def cast(span: "tuple[int, int]") -> None:
            start, stop = span
            out[start:stop] = values[start:stop]

        if spans is None:
            cast((0, n))
        else:
            _map(runner, spans, cast)
        return Column(type_, out, None)
    if type_ in (DataType.INTEGER, DataType.BIGINT, DataType.DATE):
        if kind == "f" and type_ != DataType.DATE:
            # the value path accepts integral floats only (and no float
            # as a DATE); NaN/fractional values must fail here exactly
            # as coerce_python_value would
            spans = _spans(n, runner)

            def check(span: "tuple[int, int]") -> bool:
                start, stop = span
                chunk = values[start:stop]
                return bool(
                    np.isfinite(chunk).all() and (chunk == np.floor(chunk)).all()
                )

            ok = (
                all(_map(runner, spans, check))
                if spans is not None
                else check((0, n))
            )
            if not ok:
                raise TypeError_(
                    f"expected {type_}, got non-integral float values"
                )
        elif kind not in "iub":
            raise TypeError_(f"expected {type_}, got dtype {values.dtype}")
        if n and not np.can_cast(values.dtype, target):
            # only a dtype wider than the column's can hold values out of
            # range; compared against high + 1, which a float max meets
            # exactly (2**63 - 1 would round up and let 2**63 through)
            low, high = INTEGRAL_RANGES[type_]
            if values.min() < low or values.max() >= high + 1:
                raise TypeError_(f"integer value out of {type_.name} range")
        out = np.empty(n, dtype=target)
        spans = _spans(n, runner)

        def cast(span: "tuple[int, int]") -> None:
            start, stop = span
            out[start:stop] = values[start:stop]

        if spans is None:
            cast((0, n))
        else:
            _map(runner, spans, cast)
        return Column(type_, out, None)
    raise TypeError_(f"no vectorized ingest for {type_}")


def _chunked_column(type_: DataType, values: Sequence[Any], runner) -> Column:
    """Per-morsel ``Column.from_values`` — per-value coercion semantics,
    chunked so big object batches still parallelize."""
    n = len(values)
    spans = _spans(n, runner)
    if spans is None:
        return Column.from_values(type_, values)

    def build(span: "tuple[int, int]") -> Column:
        start, stop = span
        return Column.from_values(type_, values[start:stop])

    parts = _map(runner, spans, build)
    data = np.concatenate([p.data for p in parts])
    if any(p.mask is not None for p in parts):
        mask = np.concatenate([p.null_mask() for p in parts])
    else:
        mask = None
    return Column(type_, data, mask)


def bulk_column(
    type_: DataType, values, runner=None
) -> Column:
    """Build one column from a value vector: an ndarray, a list, or an
    existing :class:`Column` such as a statement's result column.

    A column of the target type stored in that type's dtype passes
    through.  Any other column is coerced as its Python values would
    be: integral or boolean data without NULLs bound for a numeric or
    DATE column takes the vectorized path (which accepts exactly those
    values and raises the same range error); everything else goes value
    by value.  Integer arithmetic labels its result INTEGER but holds
    it as int64, so such a column is range-checked and narrowed here.

    ``runner`` is the morsel-parallel protocol (``active_for`` /
    ``spans`` / ``map``) — pass ``ExecPool.context()`` to fan large
    batches across the shared kernel pool.
    """
    if isinstance(values, Column):
        if values.type == type_ and values.data.dtype == type_.numpy_dtype:
            return values
        if (
            values.mask is None
            and values.type in _VECTOR_SOURCES
            and type_ in _VECTOR_TARGETS
        ):
            return _vector_column(type_, values.data, runner)
        return _chunked_column(type_, values.to_pylist(), runner)
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TypeError_("ingest vectors must be one-dimensional")
        if values.dtype.kind in "bifu":
            return _vector_column(type_, values, runner)
        if values.dtype.kind == "U" and type_ == DataType.VARCHAR:
            # a unicode array holds only str and no NULL; astype(object)
            # yields Python str values, as the value path stores them
            return Column(type_, values.astype(object), None)
        # other unicode/object arrays (dates, mixed-with-None) fall
        # through to per-value coercion
    return _chunked_column(type_, list(values), runner)


def bulk_columns(
    schema: Schema,
    values: "Sequence[Any] | dict[str, Any]",
    runner=None,
    columns: "Optional[Sequence[str]]" = None,
) -> list[Column]:
    """Build a full batch for ``schema`` from per-column vectors.

    ``values`` is either a sequence aligned with ``columns`` (or the
    schema order when ``columns`` is None) or a mapping of column name
    to vector.  Unnamed columns are filled with NULLs, so partial-column
    ``COPY``/appends work like partial-column INSERT.
    """
    names = [c.name for c in schema]
    if isinstance(values, dict):
        vectors = {str(k).lower(): v for k, v in values.items()}
        unknown = set(vectors) - set(names)
        if unknown:
            raise TypeError_(f"unknown columns in ingest batch: {sorted(unknown)}")
    else:
        order = [str(c).lower() for c in columns] if columns is not None else names
        if len(values) != len(order):
            raise TypeError_(
                f"batch has {len(values)} vectors, expected {len(order)}"
            )
        unknown = set(order) - set(names)
        if unknown:
            raise TypeError_(f"unknown columns in ingest batch: {sorted(unknown)}")
        vectors = dict(zip(order, values))
    lengths = {len(v) for v in vectors.values()}
    if len(lengths) > 1:
        raise TypeError_("ingest vectors have differing lengths")
    n = lengths.pop() if lengths else 0
    built = []
    for col_def in schema:
        vector = vectors.get(col_def.name)
        if vector is None:
            built.append(Column.nulls(col_def.type, n))
        else:
            built.append(bulk_column(col_def.type, vector, runner))
    return built


# ---------------------------------------------------------------------------
# COPY ... FROM file readers
# ---------------------------------------------------------------------------
_TRUE_LITERALS = frozenset({"true", "t", "1", "yes"})
_FALSE_LITERALS = frozenset({"false", "f", "0", "no"})


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE_LITERALS:
        return True
    if low in _FALSE_LITERALS:
        return False
    raise ValueError(f"invalid boolean literal {text!r}")


def _csv_converter(type_: DataType):
    if type_ == DataType.BOOLEAN:
        return _parse_bool
    if type_ in (DataType.INTEGER, DataType.BIGINT):
        return int
    if type_ == DataType.DOUBLE:
        return float
    # VARCHAR stays text; DATE strings go through coerce_python_value's
    # ISO parsing inside Column.from_values
    return str


def read_csv_vectors(
    path: str,
    types: Sequence[DataType],
    *,
    header: bool = True,
    delimiter: str = ",",
    pool=None,
) -> list[list]:
    """Read a CSV file into per-column value lists for :func:`bulk_columns`.

    Empty fields become NULL; everything else converts by target type
    (booleans accept true/false/t/f/1/0/yes/no) and the resulting Python
    values take the chunked-coercion path, so a COPY loads bit-identically
    to the equivalent row INSERTs.

    With a multi-worker ``pool`` (the database's shared
    :class:`~repro.exec.parallel.ExecPool`), files of at least
    ``REPRO_PARALLEL_CSV_BYTES`` (default 4 MiB) without quoted fields
    are split at newline boundaries and parsed one chunk per task;
    chunk results concatenate in file order and errors carry the same
    global line numbers, so output and failure behavior are identical
    to the serial read.
    """
    import csv

    converters = [_csv_converter(t) for t in types]
    if pool is not None and getattr(pool, "workers", 1) > 1:
        parsed = _read_csv_parallel(
            path, types, converters, header=header, delimiter=delimiter,
            pool=pool,
        )
        if parsed is not None:
            return parsed
    vectors: list[list] = [[] for _ in types]
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        if header:
            next(reader, None)
        for lineno, row in enumerate(reader, 1):
            if not row:
                continue
            if len(row) != len(types):
                raise TypeError_(
                    f"CSV row {lineno} has {len(row)} fields, "
                    f"expected {len(types)}"
                )
            for out, convert, text in zip(vectors, converters, row):
                if text == "":
                    out.append(None)
                else:
                    try:
                        out.append(convert(text))
                    except ValueError as exc:
                        raise TypeError_(f"CSV row {lineno}: {exc}") from None
    return vectors


def _parse_csv_chunk(text: str, types, converters, delimiter: str) -> tuple:
    """Parse one newline-aligned chunk: ``("ok", raw_rows, None,
    vectors)`` or the first failing row as ``("badfields"/"badvalue",
    local_lineno, detail, None)`` — the caller turns local line numbers
    into the global ones the serial reader reports."""
    import csv
    import io

    vectors: list[list] = [[] for _ in types]
    raw = 0
    for row in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter):
        raw += 1
        if not row:
            continue
        if len(row) != len(types):
            return ("badfields", raw, len(row), None)
        for out, convert, field in zip(vectors, converters, row):
            if field == "":
                out.append(None)
            else:
                try:
                    out.append(convert(field))
                except ValueError as exc:
                    return ("badvalue", raw, str(exc), None)
    return ("ok", raw, None, vectors)


def _read_csv_parallel(
    path: str, types, converters, *, header: bool, delimiter: str, pool
) -> "list[list] | None":
    """The chunked COPY fast path, or None when the file should take
    the serial reader (small file, quoted fields, undecodable bytes)."""
    import locale
    import os

    from ..envutil import env_int
    from ..exec.parallel import map_tasks

    min_bytes = env_int("REPRO_PARALLEL_CSV_BYTES", 4 * 1024 * 1024)
    try:
        if min_bytes is None or os.path.getsize(path) < min_bytes:
            return None
    except OSError:
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if b'"' in data:
        return None  # quoted fields may span newlines: serial only
    if header:
        cut = data.find(b"\n")
        data = data[cut + 1:] if cut >= 0 else b""
    if not data:
        return [[] for _ in types]
    n_chunks = min(max(int(getattr(pool, "workers", 1)) * 2, 1), 64)
    approx = max(1, len(data) // n_chunks)
    starts = [0]
    while len(starts) < n_chunks:
        target = starts[-1] + approx
        if target >= len(data):
            break
        cut = data.find(b"\n", target)
        if cut < 0 or cut + 1 >= len(data):
            break
        starts.append(cut + 1)
    encoding = locale.getpreferredencoding(False)
    try:
        texts = [
            data[start:stop].decode(encoding)
            for start, stop in zip(starts, starts[1:] + [len(data)])
        ]
    except (UnicodeDecodeError, LookupError):
        return None
    results = map_tasks(
        pool,
        "copy_csv",
        lambda text: _parse_csv_chunk(text, types, converters, delimiter),
        texts,
    )
    merged: list[list] = [[] for _ in types]
    base = 0
    for status, local, detail, vectors in results:
        if status == "badfields":
            raise TypeError_(
                f"CSV row {base + local} has {detail} fields, "
                f"expected {len(types)}"
            )
        if status == "badvalue":
            raise TypeError_(f"CSV row {base + local}: {detail}")
        for out, part in zip(merged, vectors):
            out.extend(part)
        base += local
    return merged


def read_npz_vectors(path: str) -> dict[str, np.ndarray]:
    """Read an ``.npz`` archive into name → array vectors.

    Numeric/bool arrays take the vectorized ingest path wholesale;
    unicode arrays fall back to per-value coercion.  Pickled object
    arrays are rejected (``allow_pickle=False``)."""
    with np.load(path, allow_pickle=False) as payload:
        return {name: payload[name] for name in payload.files}


__all__ = [
    "bulk_column",
    "bulk_columns",
    "read_csv_vectors",
    "read_npz_vectors",
]
