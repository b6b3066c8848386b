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
"""

from .bfs import UNREACHED, TraversalResult, bfs, reconstruct_path
from .bidirectional import bidirectional_distance, reverse_csr
from .csr import CSRGraph, build_csr, expand_frontier
from .dijkstra import dijkstra
from .domain import NOT_A_VERTEX, VertexDomain
from .library import PARALLEL_MIN_PAIRS, GraphLibrary, ShortestPathResult
from .overlay import GraphOverlayState, OverlayDomain, edge_valid_mask

__all__ = [
    "UNREACHED",
    "TraversalResult",
    "bfs",
    "reconstruct_path",
    "bidirectional_distance",
    "reverse_csr",
    "CSRGraph",
    "build_csr",
    "expand_frontier",
    "dijkstra",
    "NOT_A_VERTEX",
    "VertexDomain",
    "GraphLibrary",
    "ShortestPathResult",
    "GraphOverlayState",
    "OverlayDomain",
    "edge_valid_mask",
    "PARALLEL_MIN_PAIRS",
]
