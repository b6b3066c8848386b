"""Bit-parallel bidirectional BFS: up to 64 (source, target) pairs per
traversal.

A batched Q13, a REACHES filter or a reachability-only graph join asks
for many hop distances at once.  Searching them one pair at a time
repeats the same gathers over the same hub vertices; packing the pairs
into the bits of one ``uint64`` word per vertex lets a single level
expansion serve them all.  That is multi-source BFS (Then et al., *The
More the Merrier: Efficient Multi-Source Graph Traversal*, VLDB 2014),
run from both ends of every pair, choosing each round's direction by
the frontier's edge count as direction-optimizing BFS does (Beamer,
Asanović & Patterson, SC'12).

Lane ``i`` of a word is pair ``i``.  Each side keeps two dense words per
vertex: ``seen`` (reached at some depth) and ``front`` (reached at the
current depth).  Every round expands one side, the one whose live
frontier has fewer out-edges, by a push over that side's CSR: each live
frontier vertex ORs its word into its out-neighbours
(``np.bitwise_or.at``, no sort).

There is no pull step (each unseen vertex ORing its in-neighbours'
words), although direction-optimizing BFS has one: under this side
rule it never touches fewer slots.  Every vertex on the other side's
live frontier is still unseen from this side in that lane, or the lane
would have ended, so the in-edges a pull reads include every edge the
other side would push, and that side pushes at least as many edges as
this one.

A lane ends when its side's new frontier first meets the other side's
seen set, at hop distance ``depth_f + depth_b``: the two seen sets were
disjoint before that round, so no shorter path exists, and the meeting
vertex gives one of exactly that length.  A lane whose new frontier is
empty can never meet and ends unreachable; ``source == target`` ends at
0 before any round.  Distances equal forward :func:`~repro.graph.bfs.bfs`
exactly.  No paths are recorded: the kernel serves path-free calls.
"""

from __future__ import annotations

import numpy as np

from .bfs import UNREACHED
from .csr import CSRGraph, expand_frontier

#: Pairs per traversal: one bit of a ``uint64`` word each.
LANE_WIDTH = 64

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_SHIFTS = np.arange(LANE_WIDTH, dtype=np.uint64)


def _lanes_of(mask: np.uint64, count: int) -> np.ndarray:
    """Indices of the set bits of ``mask`` among the first ``count``."""
    return np.flatnonzero((mask >> _SHIFTS[:count]) & _ONE)


def lane_distances(
    forward: CSRGraph,
    backward: CSRGraph,
    sources: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Hop distance per pair, :data:`~repro.graph.bfs.UNREACHED` where
    ``targets[i]`` cannot be reached from ``sources[i]``.

    ``backward`` must be :func:`~repro.graph.bidirectional.reverse_csr`
    of ``forward``; at most :data:`LANE_WIDTH` pairs, all endpoints
    vertices of the graph.  Pairs need not be distinct, but a duplicate
    spends a lane.
    """
    count = len(sources)
    if count > LANE_WIDTH:
        raise ValueError(f"one word holds at most {LANE_WIDTH} pairs")
    dist = np.full(count, UNREACHED, dtype=np.int64)
    if count == 0:
        return dist
    bits = _ONE << _SHIFTS[:count]
    sides = (_Side(forward, sources, bits), _Side(backward, targets, bits))
    same = sources == targets
    dist[same] = 0
    live = np.bitwise_or.reduce(bits[~same], initial=_ZERO)
    while live:
        # the side whose live frontier has fewer out-edges expands
        for side in sides:
            side.active = np.flatnonzero(side.front & live)
            side.cost = int(side.degree[side.active].sum())
        side, other = sides if sides[0].cost <= sides[1].cost else sides[::-1]
        side.push(live)
        met = np.bitwise_or.reduce(side.front & other.seen, initial=_ZERO)
        reached = np.bitwise_or.reduce(side.front, initial=_ZERO)
        dist[_lanes_of(met, count)] = side.depth + other.depth
        live &= reached & ~met
    return dist


class _Side:
    """One direction of the search: its CSR and the seen/frontier words
    per vertex."""

    __slots__ = ("graph", "degree", "seen", "front", "depth", "active", "cost")

    def __init__(self, graph: CSRGraph, starts: np.ndarray, bits: np.ndarray):
        self.graph = graph
        self.degree = np.diff(graph.indptr)
        self.seen = np.zeros(graph.num_vertices, dtype=np.uint64)
        np.bitwise_or.at(self.seen, starts, bits)
        self.front = self.seen.copy()
        self.depth = 0
        self.active = None  # live frontier vertices, and their out-edges
        self.cost = 0

    def push(self, live: np.uint64) -> None:
        """One level: every live frontier vertex ORs its word into its
        out-neighbours; the lanes newly set there form the frontier."""
        fresh = np.zeros(self.graph.num_vertices, dtype=np.uint64)
        if self.cost:
            slots = expand_frontier(self.graph.indptr, self.active)
            words = np.repeat(self.front[self.active], self.degree[self.active])
            np.bitwise_or.at(fresh, self.graph.dst[slots], words)
        fresh &= ~self.seen & live
        self.seen |= fresh
        self.front = fresh
        self.depth += 1
