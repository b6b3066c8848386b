"""Vertex domain encoding.

The paper's code-generation stage translates "all the values from X, Y, S
and D ... into integers from the domain H = {0, ..., |V|-1}" (Section
3.1).  :class:`VertexDomain` performs exactly that dictionary encoding:
it derives the vertex set ``V = S ∪ D`` from the edge endpoints and maps
arbitrary key values (integers or strings) onto dense ids.  A vertex's
id is the rank of its key, so the encoding is canonical: the same edge
set always yields the same ids, CSR and paths.

:meth:`VertexDomain.from_edges` derives the dictionary and both endpoint
code arrays in one pass, since building the graph representation
dominates a path query's cost.  Integer keys whose span is at most the
number of endpoints take a lookup table (a "seen" bitmap whose prefix
sum is the rank), so the table is never larger than the arrays it
encodes; other numeric keys take one ``np.unique(..., return_inverse=True)``,
and string keys the storage layer's hash-first dictionary
(:func:`repro.storage.column.factorize_objects`: one hash pass finds
the distinct keys and only those are sorted).

Values that are *not* vertices encode to :data:`NOT_A_VERTEX`; the caller
uses this for the "initial filtering on the values that are not vertices"
the paper describes (joining X and Y with V).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..storage.column import factorize_objects

NOT_A_VERTEX = -1


def _rank_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(np.unique(keys), codes)`` where ``codes`` is each key's rank in
    the sorted unique values, as int64."""
    if keys.dtype.kind in "iu" and len(keys):
        lo, hi = keys.min(), keys.max()
        # Python ints: int64 extremes would overflow ``hi - lo``
        span = int(hi) - int(lo) + 1
        if span <= len(keys):
            # modular difference, read unsigned: exact for any key width
            offsets = (keys - lo).view(f"u{keys.itemsize}").astype(np.intp)
            seen = np.zeros(span, dtype=np.bool_)
            seen[offsets] = True
            ranks = np.cumsum(seen, dtype=np.int64) - 1
            values = np.flatnonzero(seen).astype(keys.dtype) + lo
            return values, ranks[offsets]
    if keys.dtype == np.dtype(object):
        codes, _, values = factorize_objects(keys)
        if values is None:
            raise TypeError("vertex keys are not orderable")
        return values, codes
    values, inverse = np.unique(keys, return_inverse=True)
    return values, inverse.reshape(-1).astype(np.int64, copy=False)


class VertexDomain:
    """Dense dictionary encoding of vertex keys.

    Parameters
    ----------
    src, dst:
        The raw source/destination key arrays of the edge table (numpy
        arrays of identical dtype; integers or objects/strings).
    """

    __slots__ = ("values", "_lookup")

    def __init__(self, src: np.ndarray, dst: np.ndarray):
        self._adopt(_rank_keys(_endpoints(src, dst))[0])

    @classmethod
    def from_edges(
        cls, src: np.ndarray, dst: np.ndarray
    ) -> tuple["VertexDomain", np.ndarray, np.ndarray]:
        """The domain of an edge list plus the int64 ids of both
        endpoint arrays (every key is a vertex by construction)."""
        values, codes = _rank_keys(_endpoints(src, dst))
        domain = cls.__new__(cls)
        domain._adopt(values)
        return domain, codes[: len(src)], codes[len(src) :]

    def _adopt(self, values: np.ndarray) -> None:
        self.values = values
        #: key -> id for non-integer keys, built on the first
        #: :meth:`encode` (only query endpoints need it)
        self._lookup = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def num_vertices(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------------
    def encode(self, keys: np.ndarray) -> np.ndarray:
        """Map raw keys to dense ids; unknown keys map to NOT_A_VERTEX."""
        if len(self.values) == 0:
            return np.full(len(keys), NOT_A_VERTEX, dtype=np.int64)
        if self.values.dtype.kind in "iu":
            keys = np.asarray(keys)
            positions = np.searchsorted(self.values, keys)
            positions = np.clip(positions, 0, len(self.values) - 1)
            ids = positions.astype(np.int64)
            misses = self.values[positions] != keys
            ids[misses] = NOT_A_VERTEX
            return ids
        lookup = self._lookup
        if lookup is None:
            # a racing second build is identical, so no lock is needed
            lookup = self._lookup = {key: i for i, key in enumerate(self.values)}
        return np.fromiter(
            (lookup.get(k, NOT_A_VERTEX) for k in keys),
            dtype=np.int64,
            count=len(keys),
        )

    def decode(self, ids: Sequence[int]) -> list[Any]:
        """Map dense ids back to the original key values."""
        return [self.values[i] for i in ids]


def _endpoints(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return np.concatenate([src, dst]) if len(src) or len(dst) else src
