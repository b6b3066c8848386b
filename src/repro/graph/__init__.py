"""Graph runtime: vertex-domain encoding, CSR, BFS, Dijkstra and the
many-to-many shortest-path library facade.

Both traversals are numpy frontier kernels with no per-edge Python loop.
BFS is level-synchronous; Dijkstra is bucket-synchronous Δ-stepping
(Meyer & Sanders 2003), with Δ derived from the graph as
``max(w_min, w_max·|V|/|E|)`` and one kernel for integer and float
weights.  Where several edges reach a vertex at the same cost, the
earliest relaxation round that reaches that cost wins, then the
smallest CSR slot within the round, so predecessor trees and paths are
deterministic.  This replaces the paper's "Dijkstra combined with the
Radix Queue" (Section 3.2), which settles one vertex per step.
On a library a graph index holds, an unweighted call that returns no
path and has at least ``LANE_MIN_PAIRS`` distinct pairs runs the lane
kernel (:mod:`~repro.graph.lanes`): a bit-parallel bidirectional BFS
with one (source, target) pair per bit of a ``uint64`` word, 64 pairs
per traversal.  Other unweighted source groups with one distinct
target there run bidirectional BFS over the CSR and its transpose
instead of a forward BFS, and weighted ones bidirectional Δ-stepping
over the weighted CSR and a transpose carrying the same weights.
"""

from .bfs import UNREACHED, TraversalResult, bfs, reconstruct_path
from .bidirectional import bidirectional_distance, reverse_csr
from .csr import CSRGraph, build_csr, expand_frontier
from .dijkstra import bidirectional_dijkstra, dijkstra
from .domain import NOT_A_VERTEX, VertexDomain
from .lanes import LANE_WIDTH, lane_distances
from .library import (
    LANE_MIN_PAIRS,
    PARALLEL_MIN_PAIRS,
    GraphLibrary,
    ShortestPathResult,
)
from .overlay import GraphOverlayState, OverlayDomain

__all__ = [
    "UNREACHED",
    "TraversalResult",
    "bfs",
    "reconstruct_path",
    "bidirectional_distance",
    "reverse_csr",
    "LANE_WIDTH",
    "LANE_MIN_PAIRS",
    "lane_distances",
    "CSRGraph",
    "build_csr",
    "expand_frontier",
    "dijkstra",
    "bidirectional_dijkstra",
    "NOT_A_VERTEX",
    "VertexDomain",
    "GraphLibrary",
    "ShortestPathResult",
    "GraphOverlayState",
    "OverlayDomain",
    "PARALLEL_MIN_PAIRS",
]
