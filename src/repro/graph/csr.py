"""Compressed Sparse Row graph representation.

Mirrors Section 3.2 of the paper: "the columns {S, D} ∪ W are sorted
according to S, thus a prefix sum is computed on S itself.  [...] given a
vertex id η ∈ H, all the outgoing edges of η are stored in D from the
position S[η-1] up to the position S[η]-1".

On top of the paper's layout we also keep ``edge_rows``: for each CSR
slot, the row id of the edge in the *original* edge-table intermediate.
This is what makes nested-table paths (Section 3.3) possible — a path is
physically "a list of references to the actual rows of the table
expression that generated it", and those references are exactly the
``edge_rows`` entries along the shortest-path tree.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphRuntimeError

INT64_MAX = int(np.iinfo(np.int64).max)
FLOAT64_MAX = float(np.finfo(np.float64).max)


class CSRGraph:
    """An immutable CSR adjacency structure over dense vertex ids.

    Attributes
    ----------
    num_vertices:
        Size of the dense domain H.
    indptr:
        int64 array of length ``num_vertices + 1`` (the prefix sum).
    dst:
        int64 array of destination ids, grouped by source.
    src:
        int64 array of source ids aligned with ``dst`` (redundant with
        ``indptr`` but convenient for path reconstruction).
    weights:
        Optional float64/int64 array aligned with ``dst``.
    edge_rows:
        int64 array aligned with ``dst``: original edge-table row ids.
    may_overflow:
        Whether a path-cost sum can leave the range of the weight type
        (``w_max·|V|`` above the int64 / float64 maximum); only then
        does :func:`~repro.graph.dijkstra.dijkstra` check its sums.
    """

    __slots__ = ("num_vertices", "indptr", "dst", "src", "weights", "edge_rows",
                 "integral_weights", "bucket_width", "may_overflow")

    def __init__(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        dst: np.ndarray,
        src: np.ndarray,
        weights: np.ndarray | None,
        edge_rows: np.ndarray,
    ):
        self.num_vertices = num_vertices
        self.indptr = indptr
        self.dst = dst
        self.src = src
        self.weights = weights
        self.edge_rows = edge_rows
        self.integral_weights = weights is None or weights.dtype.kind in "iu"
        # Δ of the Δ-stepping Dijkstra: max(w_min, w_max·|V|/|E|), the
        # heaviest weight over the mean out-degree but never below the
        # lightest edge (Meyer & Sanders); integral for integer weights,
        # so bucket bounds stay exact
        self.bucket_width = 1
        # a relaxed sum extends a simple path (at most |V|-1 edges) by
        # one edge, so no sum exceeds w_max·|V|
        self.may_overflow = False
        if weights is not None and len(weights):
            w_min, w_max = weights.min().item(), weights.max().item()
            if self.integral_weights:
                self.bucket_width = min(
                    max(w_min, -(-w_max * num_vertices // len(weights))), INT64_MAX
                )
                self.may_overflow = w_max * num_vertices > INT64_MAX
            else:
                self.bucket_width = max(w_min, w_max * num_vertices / len(weights))
                self.may_overflow = w_max * num_vertices > FLOAT64_MAX

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of the outgoing edges of ``vertex``."""
        return self.dst[self.indptr[vertex] : self.indptr[vertex + 1]]

    def out_degree(self, vertex: int) -> int:
        return int(self.indptr[vertex + 1] - self.indptr[vertex])


def check_weights(weights: np.ndarray) -> None:
    """Weights must be strictly positive — the paper specifies a runtime
    exception otherwise (Section 2); NaN fails that test too.  Float
    weights must also be finite: an infinite edge carries no path cost."""
    if not (weights > 0).all():
        raise GraphRuntimeError(
            "CHEAPEST SUM weights must be strictly greater than 0"
        )
    if weights.dtype.kind == "f" and not np.isfinite(weights).all():
        raise GraphRuntimeError("CHEAPEST SUM weights must be finite")


def build_csr(
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    num_vertices: int,
    weights: np.ndarray | None = None,
) -> CSRGraph:
    """Build a CSR graph from encoded endpoint arrays.

    ``weights``, when given, must pass :func:`check_weights`.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    if len(src_ids) != len(dst_ids):
        raise GraphRuntimeError("source and destination columns differ in length")
    if weights is not None:
        weights = np.asarray(weights)
        if len(weights) != len(src_ids):
            raise GraphRuntimeError("weight column length does not match edges")
        check_weights(weights)
    # stable sort keeps the original edge order within one source vertex,
    # making path choice deterministic.
    order = np.argsort(src_ids, kind="stable")
    sorted_src = src_ids[order]
    sorted_dst = dst_ids[order]
    sorted_weights = weights[order] if weights is not None else None
    counts = np.bincount(sorted_src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(
        num_vertices=num_vertices,
        indptr=indptr,
        dst=sorted_dst,
        src=sorted_src,
        weights=sorted_weights,
        edge_rows=order.astype(np.int64),
    )


def expand_frontier(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Positions (CSR slots) of all outgoing edges of the frontier vertices.

    Vectorized range expansion: for each vertex v in ``frontier`` this
    yields ``indptr[v] .. indptr[v+1]-1``, concatenated.
    """
    starts = indptr[frontier]
    counts = (indptr[frontier + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # classic repeat/arange trick for concatenated ranges
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)


def min_mask(keys: np.ndarray, values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mask of the entries whose value is the minimum among the entries
    sharing their key — without sorting.

    ``scratch`` is a work array indexed by key (e.g. one slot per
    vertex) of the values' dtype; its contents are ignored and clobbered.
    Seeding it with any member of each group and folding the rest in with
    the unbuffered ``np.minimum.at`` makes the result independent of the
    order in which repeated keys are written.  With distinct ``values``
    the mask selects exactly one entry per key.
    """
    scratch[keys] = values
    np.minimum.at(scratch, keys, values)
    return values == scratch[keys]


def expand_level(
    graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One BFS level: the vertices first reached from ``frontier`` and
    the CSR slot that discovers each.

    Vertices with ``dist >= 0`` are already reached and skipped.  When
    several frontier edges reach the same vertex the smallest slot wins,
    so the tree is deterministic and does not depend on frontier order.
    ``scratch`` is an int64 work array of ``num_vertices`` entries.
    """
    slots = expand_frontier(graph.indptr, frontier)
    heads = graph.dst[slots]
    fresh = dist[heads] < 0
    heads, slots = heads[fresh], slots[fresh]
    first = min_mask(heads, slots, scratch)
    return heads[first], slots[first]
