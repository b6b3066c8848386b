"""Dijkstra's algorithm for weighted shortest paths, as a Δ-stepping
frontier kernel.

The paper's runtime pairs Dijkstra with the Radix Queue of Ahuja et al.
(Section 3.2), a priority queue popped one vertex at a time.  Here the
same single-source search is bucket-synchronous instead (Meyer &
Sanders, "Δ-stepping", J. Algorithms 2003), so every step is a numpy
operation over a whole frontier rather than a Python loop over edges:

* the bucket ``[m, m + Δ)`` opens at the smallest tentative distance
  ``m`` of any unsettled vertex; its vertices are the active frontier;
* one round gathers the frontier's out-edges
  (:func:`~repro.graph.csr.expand_frontier`), computes ``tent[src] + w``
  and keeps strict improvements only;
* several edges may improve one target in a round: the winner has the
  minimum cost, then the smallest CSR slot
  (:func:`~repro.graph.csr.min_mask`); an equal-cost edge found in a
  later round is not a strict improvement and leaves ``pred_edge`` as
  it is — so the earliest round reaching the final cost wins, and
  ``pred_edge`` and the returned paths are deterministic;
* targets landing back inside the bucket are the next round's frontier;
  when a round improves nothing inside the bucket, every vertex below
  ``m + Δ`` is final and the bucket is settled;
* early termination on ``targets`` is checked when a bucket closes.

Δ is derived from the graph (``CSRGraph.bucket_width``), not tuned: a Δ
as small as the lightest weight would open one bucket per distinct
distance, while ``w_max·|V|/|E|`` keeps buckets few and re-relaxations
rare.  One kernel serves integer and floating-point weights.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import TraversalResult, UNREACHED
from .csr import CSRGraph, expand_frontier, min_mask


def dijkstra(
    graph: CSRGraph,
    source: int,
    targets: np.ndarray | None = None,
) -> TraversalResult:
    """Single-source Dijkstra with optional early termination.

    Distances of unreached vertices — and, when the search stops early
    once ``targets`` are settled, of vertices not yet settled — are -1;
    the distance array dtype follows the weights (int64 or float64).
    """
    weights = graph.weights
    if weights is None:
        raise GraphRuntimeError("dijkstra requires an edge weight array")
    n = graph.num_vertices
    if graph.integral_weights:
        weights = weights.astype(np.int64, copy=False)
        unreached = np.iinfo(np.int64).max
    else:
        weights = weights.astype(np.float64, copy=False)
        unreached = np.inf
    tent = np.full(n, unreached, dtype=weights.dtype)
    pred_edge = np.full(n, UNREACHED, dtype=np.int64)
    settled = np.zeros(n, dtype=np.bool_)
    queued = np.zeros(n, dtype=np.bool_)  # listed in `pending`
    best_cost = np.empty(n, dtype=weights.dtype)
    best_slot = np.empty(n, dtype=np.int64)
    delta = graph.bucket_width
    indptr, src, dst = graph.indptr, graph.src, graph.dst
    tent[source] = 0
    pending = np.array([source], dtype=np.int64)  # reached, not yet settled
    queued[source] = True
    while len(pending):
        costs = tent[pending]
        ceiling = costs.min() + delta
        inside = costs < ceiling
        active = pending[inside]
        pending = pending[~inside]
        settled[active] = True  # final once the bucket converges
        while len(active):
            slots = expand_frontier(indptr, active)
            heads = dst[slots]
            cost = tent[src[slots]] + weights[slots]
            better = cost < tent[heads]
            slots, heads, cost = slots[better], heads[better], cost[better]
            cheapest = min_mask(heads, cost, best_cost)
            slots, heads, cost = slots[cheapest], heads[cheapest], cost[cheapest]
            first = min_mask(heads, slots, best_slot)
            heads, cost = heads[first], cost[first]
            tent[heads] = cost
            pred_edge[heads] = slots[first]
            again = cost < ceiling
            active = heads[again]
            settled[active] = True
            later = heads[~again]
            later = later[~queued[later]]
            queued[later] = True
            pending = np.concatenate((pending, later))
        if targets is not None and settled[targets].all():
            break
        pending = pending[~settled[pending]]
    # vertices relaxed but never settled hold tentative distances only
    unsettled = ~settled
    tent[unsettled] = UNREACHED
    pred_edge[unsettled] = UNREACHED
    return TraversalResult(source, tent, pred_edge)
