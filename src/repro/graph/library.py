"""The graph runtime library — the Python analogue of the paper's external
C++ library (Section 3.2).

The invocation contract follows the paper:

1. inputs are the columns ``S`` and ``D`` denoting the edges;
2. the source ``X`` and destination ``Y`` vertices to filter;
3. optionally, additional weight columns for the shortest-path functions.

The library dictionary-encodes every key into the dense domain
``H = {0..|V|-1}`` (:class:`~repro.graph.domain.VertexDomain`), always
builds a CSR representation (:func:`~repro.graph.csr.build_csr`), and
returns "the sequence of row ids t such that t[S] is connected to t[D]
and the requested shortest paths" — here a boolean connectivity mask per
input pair, a cost array, and per-pair paths as arrays of original
edge-table row ids.

Pairs are grouped by source so that all pairs sharing a source reuse one
traversal; each traversal terminates early once its targets are settled.
Reachability-only queries still run the search and discard the paths,
exactly like the prototype ("the library still performs a BFS ...
discarding the computed shortest paths").  Which search serves a group
follows from the library and the group, never from an option:

* an unweighted group with exactly one distinct target, on a library a
  graph index holds (:attr:`GraphLibrary.indexed`), runs bidirectional
  BFS (:func:`~repro.graph.bidirectional.bidirectional_distance`) over
  the forward CSR and the library's transpose.  On a small-world graph
  it meets after about deg(s) + deg(t) edges where a forward BFS
  gathers most of the graph.  The transpose is built once per indexed
  library, under a lock and before any shard is dealt, and lives as
  long as the library;
* any other unweighted group — several targets (graph joins, repeated
  sources), or a library built ad hoc for one statement, which would
  throw the O(E) transpose away — runs one level-synchronous forward
  BFS (:func:`~repro.graph.bfs.bfs`);
* weighted groups run the Δ-stepping kernel
  (:func:`~repro.graph.dijkstra.dijkstra`) for integer and float weights
  alike, where the paper used Dijkstra with a radix queue.  Δ comes from
  the graph, not from a parameter, and an equal-cost tie goes to the
  earliest relaxation round reaching the final cost, then to the
  smallest CSR slot within that round.

Costs never depend on the search.  Paths are shortest paths and do not
depend on the run or the worker count, but a bidirectional path may be
a different shortest path than forward BFS's smallest-slot tree yields.

Batches large enough to matter run on the statement's shared exec pool
(:class:`~repro.exec.parallel.ExecPool`, sized by ``Database(exec_workers=)``):
source groups are dealt round-robin onto one shard per pool worker and
handed to ``par.map("paths", ...)`` as leaf tasks; each shard traverses
independently (the CSRs are immutable and every shard writes disjoint
slots of the output arrays).  Without a parallel context —
``exec_workers=1`` or ``vectorized=False`` — and for batches below
:data:`PARALLEL_MIN_PAIRS` pairs, the batch is solved serially, so
per-pair latency never pays a thread hand-off.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import bfs, reconstruct_path
from .bidirectional import bidirectional_distance, reverse_csr
from .csr import CSRGraph, build_csr
from .dijkstra import dijkstra
from .domain import NOT_A_VERTEX, VertexDomain

#: Below this many valid pairs a batch is always solved serially.
PARALLEL_MIN_PAIRS = 32


@dataclass
class ShortestPathResult:
    """Outcome of one many-to-many shortest-path invocation.

    ``connected`` has one entry per input pair.  ``costs`` is aligned with
    the *connected* pairs only when compacted via ``costs[connected]`` —
    unreached pairs hold -1.  ``paths`` (optional) holds, per pair, an
    int64 array of edge-table row ids, or None when not connected.

    The counts say which searches served the call: distinct pairs
    answered by bidirectional search, forward traversals (BFS or
    Δ-stepping) and transposes built.
    """

    connected: np.ndarray
    costs: np.ndarray | None
    paths: list[np.ndarray | None] | None
    bidirectional_pairs: int = 0
    forward_traversals: int = 0
    transpose_builds: int = 0


class GraphLibrary:
    """One prepared graph: domain encoding + CSR, ready for many queries.

    This object is what the paper's future-work "graph index" would
    persist (Section 6); `repro.exec` caches instances keyed on the edge
    table fingerprint to implement exactly that.
    """

    def __init__(
        self,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        domain = VertexDomain(src_keys, dst_keys)
        src_ids, dst_ids = domain.encode_edges(src_keys, dst_keys)
        self._adopt(
            domain, build_csr(src_ids, dst_ids, domain.num_vertices, weights)
        )

    def _adopt(self, domain, csr: CSRGraph) -> None:
        self.domain = domain
        self.csr = csr
        self.weighted = csr.weights is not None
        #: True once a graph index holds this library (set by the index
        #: cache): only then do single-target unweighted groups pay for
        #: a transpose, which later statements reuse
        self.indexed = False
        self._reverse_csr: CSRGraph | None = None
        self._reverse_lock = threading.Lock()

    @classmethod
    def from_csr(cls, domain, csr: CSRGraph) -> "GraphLibrary":
        """A library over an already encoded domain and built CSR."""
        library = cls.__new__(cls)
        library._adopt(domain, csr)
        return library

    @classmethod
    def from_parts(
        cls,
        domain_values: np.ndarray,
        indptr: np.ndarray,
        dst: np.ndarray,
        src: np.ndarray,
        edge_rows: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "GraphLibrary":
        """Reassemble a prepared library from its persisted arrays —
        the ``save()``/``load()`` path that skips both the domain
        ``np.unique`` and the CSR build sort entirely."""
        return cls.from_csr(
            VertexDomain.from_values(domain_values),
            CSRGraph(
                num_vertices=len(domain_values),
                indptr=np.asarray(indptr, dtype=np.int64),
                dst=np.asarray(dst, dtype=np.int64),
                src=np.asarray(src, dtype=np.int64),
                weights=weights,
                edge_rows=np.asarray(edge_rows, dtype=np.int64),
            ),
        )

    @property
    def reverse(self) -> CSRGraph:
        """The transposed CSR, built on first use (once, under a lock)
        and kept for the library's lifetime."""
        return self._transpose()[0]

    def _transpose(self) -> tuple[CSRGraph, bool]:
        """The transposed CSR and whether this call built it; concurrent
        statements on one library build it once."""
        reverse = self._reverse_csr
        if reverse is not None:
            return reverse, False
        with self._reverse_lock:
            if self._reverse_csr is not None:
                return self._reverse_csr, False
            self._reverse_csr = reverse_csr(self.csr)
            return self._reverse_csr, True

    # ------------------------------------------------------------------
    def encode_endpoints(
        self, sources: np.ndarray, dests: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode raw X/Y values; the validity mask marks pairs whose both
        endpoints are vertices (the paper's join-with-V filtering)."""
        src_ids = self.domain.encode(sources)
        dst_ids = self.domain.encode(dests)
        valid = (src_ids != NOT_A_VERTEX) & (dst_ids != NOT_A_VERTEX)
        return src_ids, dst_ids, valid

    def solve(
        self,
        sources: np.ndarray,
        dests: np.ndarray,
        *,
        want_cost: bool = False,
        want_path: bool = False,
        par=None,
    ) -> ShortestPathResult:
        """Evaluate reachability / shortest paths for aligned raw pairs."""
        if len(sources) != len(dests):
            raise GraphRuntimeError("source and destination vectors differ in length")
        src_ids, dst_ids, _ = self.encode_endpoints(sources, dests)
        return self.solve_encoded(
            src_ids, dst_ids, want_cost=want_cost, want_path=want_path, par=par
        )

    def solve_encoded(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        *,
        want_cost: bool = False,
        want_path: bool = False,
        par=None,
    ) -> ShortestPathResult:
        """Like :meth:`solve` but over pre-encoded dense vertex ids.

        Entries equal to :data:`~repro.graph.domain.NOT_A_VERTEX` are
        treated as unconnected (the join-with-V filtering already failed).

        ``par`` is the statement's
        :class:`~repro.exec.parallel.ParallelContext` (None solves
        serially): a batch of at least :data:`PARALLEL_MIN_PAIRS` valid
        pairs spreads its source groups over the pool's workers.
        Results are identical for any worker count.  The module
        docstring gives the rule choosing each group's search.
        """
        if len(src_ids) != len(dst_ids):
            raise GraphRuntimeError("source and destination vectors differ in length")
        n_pairs = len(src_ids)
        valid = (src_ids != NOT_A_VERTEX) & (dst_ids != NOT_A_VERTEX)
        connected = np.zeros(n_pairs, dtype=np.bool_)
        cost_dtype = (
            np.float64
            if (self.weighted and not self.csr.integral_weights)
            else np.int64
        )
        costs = np.full(n_pairs, -1, dtype=cost_dtype) if (want_cost or want_path) else None
        paths: list[np.ndarray | None] | None = [None] * n_pairs if want_path else None
        result = ShortestPathResult(connected, costs, paths)
        # group pairs by encoded source: one search per distinct source
        valid_positions = np.flatnonzero(valid)
        if len(valid_positions) == 0:
            return result
        order = valid_positions[np.argsort(src_ids[valid_positions], kind="stable")]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(src_ids[order]) != 0) + 1))
        groups = np.split(order, starts[1:])
        # a group whose pairs all share one target is one s-t search
        targets = dst_ids[order]
        single = np.minimum.reduceat(targets, starts) == np.maximum.reduceat(
            targets, starts
        )
        backward = None
        if self.indexed and not self.weighted and single.any():
            # built before the shards are dealt, so they share one
            backward, built = self._transpose()
            result.transpose_builds = int(built)
        else:
            single[:] = False  # every group runs forward
        result.bidirectional_pairs = int(single.sum())
        result.forward_traversals = len(groups) - result.bidirectional_pairs
        traverse = dijkstra if self.weighted else bfs

        def solve_pair(members: np.ndarray) -> None:
            distance, path = bidirectional_distance(
                self.csr, backward, int(src_ids[members[0]]), int(dst_ids[members[0]])
            )
            if distance is None:
                return
            connected[members] = True
            if costs is not None:
                costs[members] = distance
            if paths is not None:
                for position in members:
                    paths[position] = path

        def solve_group(members: np.ndarray) -> None:
            found = traverse(self.csr, int(src_ids[members[0]]), dst_ids[members])
            for position in members:
                target = int(dst_ids[position])
                value = found.cost(target)
                if value is None:
                    continue
                connected[position] = True
                if costs is not None:
                    costs[position] = value
                if paths is not None:
                    paths[position] = reconstruct_path(self.csr, found, target)

        def solve_shard(shard: list[tuple[np.ndarray, bool]]) -> None:
            # groups never overlap, so concurrent shards write disjoint
            # slots of the shared output arrays
            for members, pairwise in shard:
                (solve_pair if pairwise else solve_group)(members)

        tasks = list(zip(groups, single.tolist()))
        if par is None or len(valid_positions) < PARALLEL_MIN_PAIRS:
            if par is not None:
                par.note_serial("paths")
            solve_shard(tasks)
        else:
            # deal groups round-robin so one hub source cannot load a
            # single shard with all the heavy traversals
            n_shards = min(par.workers, len(tasks))
            par.map("paths", solve_shard, [tasks[i::n_shards] for i in range(n_shards)])
        return result
