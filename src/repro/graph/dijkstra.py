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

Path costs stay exact or fail loudly.  When ``CSRGraph.may_overflow``
says a sum can leave the weight type's range, each round drops the sums
that wrapped (int64) or reached infinity (float64): such a path costs
more than any representable one, so it can never be the shortest.  If a
target is then left unsettled, it may be reachable only through such a
path, and the search raises :class:`~repro.errors.GraphRuntimeError`
rather than report it unreachable.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import TraversalResult, UNREACHED
from .csr import INT64_MAX, CSRGraph, expand_frontier, min_mask


@np.errstate(over="ignore")  # overflowed sums are detected, not warned
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
        unreached = INT64_MAX
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
    guard, overflowed = graph.may_overflow, False
    indptr, src, dst = graph.indptr, graph.src, graph.dst
    tent[source] = 0
    pending = np.array([source], dtype=np.int64)  # reached, not yet settled
    queued[source] = True
    while len(pending):
        costs = tent[pending]
        # in Python numbers, capped at the sentinel: never wraps
        ceiling = min(costs.min().item() + delta, unreached)
        inside = costs < ceiling
        active = pending[inside]
        pending = pending[~inside]
        settled[active] = True  # final once the bucket converges
        while len(active):
            slots = expand_frontier(indptr, active)
            heads = dst[slots]
            base = tent[src[slots]]
            cost = base + weights[slots]
            if guard:
                lost = cost == unreached
                if graph.integral_weights:
                    lost |= cost < base  # wrapped around
                if lost.any():
                    overflowed = True
                    kept = ~lost
                    slots, heads, cost = slots[kept], heads[kept], cost[kept]
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
    if overflowed and (targets is None or not settled[targets].all()):
        raise GraphRuntimeError(
            "CHEAPEST SUM path cost exceeds the range of "
            + ("BIGINT" if graph.integral_weights else "DOUBLE")
        )
    # vertices relaxed but never settled hold tentative distances only
    unsettled = ~settled
    tent[unsettled] = UNREACHED
    pred_edge[unsettled] = UNREACHED
    return TraversalResult(source, tent, pred_edge)
