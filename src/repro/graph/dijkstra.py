"""Dijkstra's algorithm for weighted shortest paths, as a Δ-stepping
frontier kernel, forward or meeting in the middle.

The paper's runtime pairs Dijkstra with the Radix Queue of Ahuja et al.
(Section 3.2), a priority queue popped one vertex at a time.  Here the
same search is bucket-synchronous instead (Meyer & Sanders,
"Δ-stepping", J. Algorithms 2003), so every step is a numpy operation
over a whole frontier rather than a Python loop over edges.  One
:class:`Frontier` holds the state of one search and closes one bucket
at a time (:meth:`Frontier.close_bucket`):

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
  ``m + Δ`` is final and the bucket is settled.

:func:`dijkstra` closes buckets from one source until its ``targets``
are settled.  :func:`bidirectional_dijkstra` answers one (source,
target) pair with two frontiers, one over the forward CSR from the
source and one over the transpose from the target (Goldberg &
Harrelson, SODA 2005, after Pohl 1971).  Each step closes the bucket of
the side whose bucket has fewer out-edges.  Every edge a round relaxes
whose head the other side has reached joins a path of cost
``d_f(u) + w(u, v) + d_b(v)``; μ is the least such cost.  The search
stops once the two sides' smallest pending distances sum to at least μ,
or when one side runs dry.  On a small-world graph the two balls of
radius d/2 hold far fewer edges than the forward ball of radius d.

Δ is derived from the graph (``CSRGraph.bucket_width``), not tuned: a Δ
as small as the lightest weight would open one bucket per distinct
distance, while ``w_max·|V|/|E|`` keeps buckets few and re-relaxations
rare.  One kernel serves integer and floating-point weights.

Path costs stay exact or fail loudly.  When ``CSRGraph.may_overflow``
says a sum can leave the weight type's range, each round drops the sums
that wrapped (int64) or reached infinity (float64): such a path costs
more than any representable one, so it can never be the shortest.  A
meeting sum joins two paths, so it is checked the same way on every
graph.  If a target is then left unsettled, it may be reachable only
through such a path, and the search raises
:class:`~repro.errors.GraphRuntimeError` rather than report it
unreachable.  A bidirectional search reports an unmet pair unreachable
only when a side ran dry without dropping a sum.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import TraversalResult, UNREACHED, pred_chain
from .csr import INT64_MAX, CSRGraph, expand_frontier, min_mask


class Frontier:
    """One Δ-stepping search over ``graph`` from ``source``.

    ``tent`` holds tentative distances (the type's maximum, or infinity,
    for unreached vertices), ``pred_edge`` the CSR slot that set each,
    and ``pending`` the vertices reached but not yet settled.
    """

    __slots__ = ("graph", "weights", "unreached", "tent", "pred_edge",
                 "settled", "queued", "pending", "overflowed",
                 "_best_cost", "_best_slot", "_bucket")

    def __init__(self, graph: CSRGraph, source: int):
        weights = graph.weights
        if weights is None:
            raise GraphRuntimeError("dijkstra requires an edge weight array")
        n = graph.num_vertices
        if graph.integral_weights:
            self.weights = weights.astype(np.int64, copy=False)
            self.unreached = INT64_MAX
        else:
            self.weights = weights.astype(np.float64, copy=False)
            self.unreached = np.inf
        self.graph = graph
        self.tent = np.full(n, self.unreached, dtype=self.weights.dtype)
        self.pred_edge = np.full(n, UNREACHED, dtype=np.int64)
        self.settled = np.zeros(n, dtype=np.bool_)
        self.queued = np.zeros(n, dtype=np.bool_)  # listed in `pending`
        self._best_cost = np.empty(n, dtype=self.weights.dtype)
        self._best_slot = np.empty(n, dtype=np.int64)
        self.overflowed = False
        self.tent[source] = 0
        self.pending = np.array([source], dtype=np.int64)
        self.queued[source] = True
        self._bucket = None  # (m, ceiling, active, rest) of the next bucket

    def _next_bucket(self):
        if self._bucket is None:
            costs = self.tent[self.pending]
            lowest = costs.min().item()
            # in Python numbers, capped at the sentinel: never wraps
            ceiling = min(lowest + self.graph.bucket_width, self.unreached)
            inside = costs < ceiling
            self._bucket = (
                lowest, ceiling, self.pending[inside], self.pending[~inside]
            )
        return self._bucket

    def lowest(self):
        """The smallest pending distance: no unsettled vertex is nearer.
        Only defined while ``pending`` is not empty."""
        return self._next_bucket()[0]

    def bucket_edges(self) -> int:
        """Out-edges of the vertices the next bucket opens with."""
        active = self._next_bucket()[2]
        indptr = self.graph.indptr
        return int((indptr[active + 1] - indptr[active]).sum())

    @np.errstate(over="ignore")  # overflowed sums are detected, not warned
    def close_bucket(self, meeting: "Meeting | None" = None) -> None:
        """Open the bucket at the smallest pending distance and relax
        until it converges; every vertex in it is then settled.
        ``meeting`` sees each round's relaxed edges."""
        _, ceiling, active, pending = self._next_bucket()
        self._bucket = None
        graph, weights, tent = self.graph, self.weights, self.tent
        settled, queued = self.settled, self.queued
        indptr, src, dst = graph.indptr, graph.src, graph.dst
        settled[active] = True  # final once the bucket converges
        while len(active):
            slots = expand_frontier(indptr, active)
            heads = dst[slots]
            base = tent[src[slots]]
            cost = base + weights[slots]
            if graph.may_overflow:
                lost = cost == self.unreached
                if graph.integral_weights:
                    lost |= cost < base  # wrapped around
                if lost.any():
                    self.overflowed = True
                    kept = ~lost
                    slots, heads, cost = slots[kept], heads[kept], cost[kept]
            if meeting is not None:
                meeting.offer(self, slots, heads, cost)
            better = cost < tent[heads]
            slots, heads, cost = slots[better], heads[better], cost[better]
            cheapest = min_mask(heads, cost, self._best_cost)
            slots, heads, cost = slots[cheapest], heads[cheapest], cost[cheapest]
            first = min_mask(heads, slots, self._best_slot)
            heads, cost = heads[first], cost[first]
            tent[heads] = cost
            self.pred_edge[heads] = slots[first]
            again = cost < ceiling
            active = heads[again]
            settled[active] = True
            later = heads[~again]
            later = later[~queued[later]]
            queued[later] = True
            pending = np.concatenate((pending, later))
        self.pending = pending[~settled[pending]]


def overflow_error(graph: CSRGraph) -> GraphRuntimeError:
    return GraphRuntimeError(
        "CHEAPEST SUM path cost exceeds the range of "
        + ("BIGINT" if graph.integral_weights else "DOUBLE")
    )


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
    search = Frontier(graph, source)
    while len(search.pending):
        search.close_bucket()
        if targets is not None and search.settled[targets].all():
            break
    settled = search.settled
    if search.overflowed and (targets is None or not settled[targets].all()):
        raise overflow_error(graph)
    # vertices relaxed but never settled hold tentative distances only
    unsettled = ~settled
    search.tent[unsettled] = UNREACHED
    search.pred_edge[unsettled] = UNREACHED
    return TraversalResult(source, search.tent, search.pred_edge)


class Meeting:
    """The best join of a forward and a backward frontier seen so far:
    μ, and the frontier and CSR slot of the edge that reached it."""

    __slots__ = ("forward", "backward", "mu", "side", "slot")

    def __init__(self, forward: Frontier, backward: Frontier):
        self.forward, self.backward = forward, backward
        self.mu = self.side = self.slot = None

    @np.errstate(over="ignore")
    def offer(self, side: Frontier, slots, heads, cost) -> None:
        """Fold in one round of ``side``'s relaxed edges: μ improves
        strictly only, and among a round's cheapest joins the smallest
        slot of ``side``'s CSR wins."""
        other = self.backward if side is self.forward else self.forward
        across = other.tent[heads]
        joined = across != other.unreached
        if not joined.any():
            return
        slots, cost, across = slots[joined], cost[joined], across[joined]
        total = cost + across
        # two paths of up to |V|-1 edges each: may wrap on any graph, and
        # a join past the range is never the shortest
        kept = total != other.unreached
        if side.graph.integral_weights:
            kept &= total >= cost
        slots, total = slots[kept], total[kept]
        if not len(total):
            return
        least = total.min()
        if self.mu is None or least < self.mu:
            self.mu = least.item()
            self.side = side
            self.slot = int(slots[total == least].min())


def bidirectional_dijkstra(
    forward: CSRGraph, backward: CSRGraph, source: int, target: int
) -> tuple[int | float | None, np.ndarray | None]:
    """(cost, path as original edge row ids) or (None, None).

    ``backward`` is the transpose of ``forward`` (see
    :func:`~repro.graph.bidirectional.reverse_csr`) carrying the same
    weights.  The path runs along the forward tree to the meeting edge,
    then along the backward tree to ``target``; its cost is summed from
    the source, the way :func:`dijkstra` sums it.
    """
    search = Frontier(forward, source)
    if source == target:
        return search.tent[source].item(), np.empty(0, dtype=np.int64)
    reverse = Frontier(backward, target)
    meeting = Meeting(search, reverse)
    while len(search.pending) and len(reverse.pending):
        if (
            meeting.mu is not None
            and search.lowest() + reverse.lowest() >= meeting.mu
        ):
            break
        if search.bucket_edges() <= reverse.bucket_edges():
            search.close_bucket(meeting)
        else:
            reverse.close_bucket(meeting)
    if meeting.mu is None:
        # a side that ran dry without dropping a sum has settled all it
        # can reach, so no path joins the pair
        for side in (search, reverse):
            if not len(side.pending) and not side.overflowed:
                return None, None
        raise overflow_error(forward)
    side, slot = meeting.side, meeting.slot
    tail, head = int(side.graph.src[slot]), int(side.graph.dst[slot])
    before, after = (tail, head) if side is search else (head, tail)
    front = pred_chain(forward, search.pred_edge, before)[::-1]
    back = pred_chain(backward, reverse.pred_edge, after)
    rows = np.concatenate((
        forward.edge_rows[front],
        [side.graph.edge_rows[slot]],
        backward.edge_rows[back],
    )).astype(np.int64)
    weights = np.concatenate((
        search.weights[front], [side.weights[slot]], reverse.weights[back]
    ))
    cost = 0
    for weight in weights.tolist():  # left to right, as forward sums run
        cost += weight
    return cost, rows
