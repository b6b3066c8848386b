"""Breadth-First Search over a CSR graph.

Implements the unweighted shortest-path runtime of Section 3.2.  The
search is level-synchronous and vectorized: each step expands the whole
frontier with one gather and resolves vertices discovered several times
in the level with a sort-free scatter (:func:`~repro.graph.csr.expand_level`)
instead of a per-vertex Python loop.

Besides distances, the search records for every reached vertex the CSR
slot of the edge that first discovered it (``pred_edge``), from which
:func:`reconstruct_path` rebuilds the path as a sequence of original
edge-table row ids — the physical content of the paper's nested tables.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, expand_level

UNREACHED = -1


class TraversalResult:
    """Distances and shortest-path tree of one single-source traversal."""

    __slots__ = ("source", "dist", "pred_edge")

    def __init__(self, source: int, dist: np.ndarray, pred_edge: np.ndarray):
        self.source = source
        self.dist = dist
        self.pred_edge = pred_edge

    def reached(self, vertex: int) -> bool:
        return self.dist[vertex] != UNREACHED

    def cost(self, vertex: int):
        """Cost of the shortest path to ``vertex`` (None when unreached)."""
        value = self.dist[vertex]
        return None if value == UNREACHED else value.item()


def bfs(
    graph: CSRGraph,
    source: int,
    targets: np.ndarray | None = None,
) -> TraversalResult:
    """Single-source BFS; optionally stops early once ``targets`` are found.

    Returns hop distances (-1 for unreached vertices) and the
    predecessor-edge array.  ``targets`` is a (possibly empty) array of
    vertex ids; the search stops as soon as all of them are settled,
    matching the paper's per-pair query pattern.  A vertex's predecessor
    is the smallest CSR slot reaching it from the previous level.
    """
    n = graph.num_vertices
    dist = np.full(n, UNREACHED, dtype=np.int64)
    pred_edge = np.full(n, UNREACHED, dtype=np.int64)
    scratch = np.empty(n, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        if targets is not None and (dist[targets] != UNREACHED).all():
            break
        level += 1
        frontier, slots = expand_level(graph, frontier, dist, scratch)
        dist[frontier] = level
        pred_edge[frontier] = slots
    return TraversalResult(source, dist, pred_edge)


def pred_chain(graph: CSRGraph, pred_edge: np.ndarray, vertex: int) -> np.ndarray:
    """The predecessor CSR slots from ``vertex`` back to its search's
    root, nearest first; empty at the root."""
    slots: list[int] = []
    slot = int(pred_edge[vertex])
    while slot != UNREACHED:
        slots.append(slot)
        slot = int(pred_edge[graph.src[slot]])
    return np.asarray(slots, dtype=np.int64)


def reconstruct_path(graph: CSRGraph, result: TraversalResult, target: int) -> np.ndarray:
    """Original edge-table row ids along the path source → target.

    Returns an empty array for ``target == source`` and ``None`` when the
    target was not reached.
    """
    if result.dist[target] == UNREACHED:
        return None
    return graph.edge_rows[pred_chain(graph, result.pred_edge, target)[::-1]]
