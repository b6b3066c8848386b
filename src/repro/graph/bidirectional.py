"""Bidirectional BFS for single-pair unweighted queries.

The paper's evaluation notes its BFS "is still largely unoptimized" and
that the authors "expect in the future to significantly improve the BFS
implementation" (Section 4).  This module is that improvement for the
single-pair case: two level-synchronous frontiers, one from the source
over the forward CSR and one from the destination over the reverse CSR
(:func:`reverse_csr`), expanding the smaller frontier first.  On
small-world graphs (LDBC friendships) this explores O(b^(d/2)) instead
of O(b^d) vertices: a two-hop pair meets after about deg(s) + deg(t)
edges.

The engine runs it for every unweighted source group with exactly one
distinct target on a library a graph index holds, which keeps the
transpose (:class:`~repro.graph.library.GraphLibrary`); point Q13 and
batched Q13 are such groups.

The search returns the hop distance plus the meeting vertex and both
predecessor-edge arrays, from which the full path (as original edge-table
row ids, like :func:`repro.graph.bfs.reconstruct_path`) is rebuilt.  The
meeting vertex is the one minimizing the total distance, smallest id on
ties, and each side's tree takes the smallest CSR slot per vertex, so
the path is a deterministic shortest path, though not necessarily the
one forward BFS's tree yields.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import UNREACHED
from .csr import CSRGraph, build_csr, expand_level


def reverse_csr(graph: CSRGraph) -> CSRGraph:
    """The transposed graph; ``edge_rows`` still index the original edges."""
    reversed_graph = build_csr(graph.dst, graph.src, graph.num_vertices)
    # build_csr's edge_rows point into the (dst, src) arrays we passed,
    # which are CSR-slot ordered; map back to original edge-table rows
    remapped = graph.edge_rows[reversed_graph.edge_rows]
    return CSRGraph(
        num_vertices=reversed_graph.num_vertices,
        indptr=reversed_graph.indptr,
        dst=reversed_graph.dst,
        src=reversed_graph.src,
        weights=None,
        edge_rows=remapped,
    )


def bidirectional_distance(
    forward: CSRGraph, backward: CSRGraph, source: int, target: int
) -> tuple[int | None, np.ndarray | None]:
    """(hop distance, path as original edge row ids) or (None, None).

    ``backward`` must be :func:`reverse_csr` of ``forward``; hop counts
    are no shortest paths on a weighted graph, so one is rejected.
    """
    if forward.weights is not None:
        raise GraphRuntimeError(
            "bidirectional search supports unweighted queries only"
        )
    if source == target:
        return 0, np.empty(0, dtype=np.int64)
    n = forward.num_vertices
    dist_f = np.full(n, UNREACHED, dtype=np.int64)
    dist_b = np.full(n, UNREACHED, dtype=np.int64)
    pred_f = np.full(n, UNREACHED, dtype=np.int64)  # forward CSR slots
    pred_b = np.full(n, UNREACHED, dtype=np.int64)  # backward CSR slots
    scratch = np.empty(n, dtype=np.int64)
    dist_f[source] = 0
    dist_b[target] = 0
    frontier_f = np.array([source], dtype=np.int64)
    frontier_b = np.array([target], dtype=np.int64)
    depth_f = depth_b = 0  # deepest fully settled BFS level per side
    best = None  # (total distance, meeting vertex)

    while len(frontier_f) and len(frontier_b):
        # any undiscovered s-t path is longer than depth_f + depth_b + 1;
        # once the best meeting beats that bound it is provably minimal
        if best is not None and best[0] <= depth_f + depth_b + 1:
            break
        # expand the smaller frontier first (classic balancing heuristic)
        if len(frontier_f) <= len(frontier_b):
            frontier_f, meet = _step(forward, frontier_f, dist_f, pred_f, dist_b, scratch)
            depth_f += 1
        else:
            frontier_b, meet = _step(backward, frontier_b, dist_b, pred_b, dist_f, scratch)
            depth_b += 1
        if meet is not None:
            total = int(dist_f[meet] + dist_b[meet])
            if best is None or total < best[0]:
                best = (total, meet)
    if best is None:
        return None, None
    return _stitch(forward, backward, pred_f, pred_b, dist_f, dist_b, best[1])


def _step(graph, frontier, dist, pred, other_dist, scratch):
    """One level expansion; returns (new frontier, best meeting vertex)."""
    level = int(dist[frontier[0]]) + 1
    frontier, slots = expand_level(graph, frontier, dist, scratch)
    dist[frontier] = level
    pred[frontier] = slots
    touched = frontier[other_dist[frontier] != UNREACHED]
    if len(touched) == 0:
        return frontier, None
    # the meeting vertex minimizing the total distance, smallest id on ties
    totals = dist[touched] + other_dist[touched]
    return frontier, int(touched[totals == totals.min()].min())


def _stitch(forward, backward, pred_f, pred_b, dist_f, dist_b, meet):
    """Join the two half-paths at the meeting vertex."""
    rows_front: list[int] = []
    vertex = meet
    while pred_f[vertex] != UNREACHED:
        slot = pred_f[vertex]
        rows_front.append(int(forward.edge_rows[slot]))
        vertex = int(forward.src[slot])
    rows_front.reverse()
    rows_back: list[int] = []
    vertex = meet
    while pred_b[vertex] != UNREACHED:
        slot = pred_b[vertex]
        rows_back.append(int(backward.edge_rows[slot]))
        vertex = int(backward.src[slot])
    distance = int(dist_f[meet] + dist_b[meet])
    path = np.asarray(rows_front + rows_back, dtype=np.int64)
    return distance, path
