"""The graph runtime library — the Python analogue of the paper's external
C++ library (Section 3.2).

The invocation contract follows the paper:

1. inputs are the columns ``S`` and ``D`` denoting the edges;
2. the source ``X`` and destination ``Y`` vertices to filter;
3. optionally, additional weight columns for the shortest-path functions.

The library dictionary-encodes every key into the dense domain
``H = {0..|V|-1}`` (:class:`~repro.graph.domain.VertexDomain`, which
yields the endpoint ids in the same pass as the dictionary), always
builds a CSR representation (:func:`~repro.graph.csr.build_csr`), and
returns "the sequence of row ids t such that t[S] is connected to t[D]
and the requested shortest paths" — here a boolean connectivity mask per
input pair, a cost array, and per-pair paths as arrays of original
edge-table row ids.

Which search serves a call follows from the library and the call, never
from an option:

* an unweighted, path-free call (batched Q13, a REACHES filter, a
  reachability-only graph join) on a library a graph index holds
  (:attr:`GraphLibrary.indexed`), with at least :data:`LANE_MIN_PAIRS`
  distinct (source, target) pairs, runs the lane kernel
  (:func:`~repro.graph.lanes.lane_distances`): a bit-parallel
  bidirectional BFS answering up to 64 distinct pairs per traversal,
  one pair per bit of a ``uint64`` word.  Reachability-only calls get
  their answer from the distances and nothing is discarded;
* every other call groups its pairs by source, so pairs sharing a
  source reuse one search that stops once its targets are settled.
  Reachability-only calls among them still run the search and discard
  the paths, exactly like the prototype ("the library still performs a
  BFS ... discarding the computed shortest paths"):

  - a group with exactly one distinct target, on an indexed library,
    meets in the middle over the forward CSR and the library's
    transpose: bidirectional BFS
    (:func:`~repro.graph.bidirectional.bidirectional_distance`) when
    unweighted, bidirectional Δ-stepping
    (:func:`~repro.graph.dijkstra.bidirectional_dijkstra`) when
    weighted.  On a small-world graph the two balls of radius d/2 hold
    far fewer edges than the forward ball of radius d.  Point Q13 and
    Q14 are such groups;
  - any other group — several targets in a call that asks for paths or
    has fewer than :data:`LANE_MIN_PAIRS` pairs (weighted calls never
    run lanes), or a library built ad hoc for one statement, which
    would throw the O(E) transpose away — runs one forward search:
    level-synchronous BFS (:func:`~repro.graph.bfs.bfs`) when
    unweighted, the Δ-stepping kernel
    (:func:`~repro.graph.dijkstra.dijkstra`) for integer and float
    weights alike when weighted, where the paper used Dijkstra with a
    radix queue.  Δ comes from the graph, not from a parameter.

The lane kernel and the bidirectional searches use the library's
transpose, built once per indexed library, under a lock and before any
work is dealt, and kept as long as the library.  A weighted view
(:meth:`GraphLibrary.weighted_view`) shares that transpose's arrays and
gathers its own weights through ``edge_rows``, once per view.

Tie rule.  Within one search, an equal-cost tie goes to the earliest
relaxation round reaching the final cost, then to the smallest CSR slot
within that round.  Bidirectional BFS meets at the vertex minimizing
the total, smallest id on ties.  Bidirectional Δ-stepping meets at the
edge that first brought μ to its final value, the smallest CSR slot of
the relaxing side among a round's ties; the path runs along the forward
tree to that edge and along the backward tree from it.

Costs never depend on the search, except that a DOUBLE cost is the sum
of its path's weights from the source, so where two paths tie to within
rounding, forward and bidirectional search may report sums that differ
in the last place.  Integer costs are exact or a
:class:`~repro.errors.GraphRuntimeError`.  Paths are shortest paths and
do not depend on the run or the worker count, but a bidirectional path
may be a different shortest path than the forward tree yields.

Calls run on the statement's shared exec pool
(:class:`~repro.exec.parallel.ExecPool`, sized by ``Database(exec_workers=)``)
when there is work for more than one worker.  The lane kernel deals one
64-pair word per task, and only when a call has two words or more.  The
per-group searches still count pairs: a call with at least
:data:`PARALLEL_MIN_PAIRS` valid pairs deals its source groups
round-robin onto one shard per pool worker (each shard traverses
independently; the CSRs are immutable and every shard writes disjoint
slots of the output arrays).  Without a parallel context
(``exec_workers=1``) or below those sizes, the call is solved serially,
so per-pair latency never pays a thread hand-off.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GraphRuntimeError
from .bfs import UNREACHED, bfs, reconstruct_path
from .bidirectional import bidirectional_distance, reverse_csr
from .csr import CSRGraph, build_csr, check_weights
from .dijkstra import bidirectional_dijkstra, dijkstra
from .domain import NOT_A_VERTEX, VertexDomain
from .lanes import LANE_WIDTH, lane_distances

#: Below this many valid pairs the per-group searches run serially.
PARALLEL_MIN_PAIRS = 32

#: Distinct pairs from which an unweighted, path-free call on an indexed
#: library runs the lane kernel.  One word costs about as much as two
#: bidirectional searches: for 4 pairs it took 0.24 ms against 0.44 ms
#: on the LDBC bench graph (1,650 vertices, one CPU; the table in
#: ``BENCH_lanes.json`` from ``benchmarks/test_ablation_bidirectional.py``)
#: and 0.36 against 0.43 ms on the e2ebench graph (399,980 edges).
LANE_MIN_PAIRS = 4

#: Weighted views (one per weight expression) an indexed library keeps
#: for its newest table version.
WEIGHTED_VIEWS = 4


@dataclass
class ShortestPathResult:
    """Outcome of one many-to-many shortest-path invocation.

    ``connected`` has one entry per input pair.  ``costs`` is aligned with
    the *connected* pairs only when compacted via ``costs[connected]`` —
    unreached pairs hold -1.  ``paths`` (optional) holds, per pair, an
    int64 array of edge-table row ids, or None when not connected.

    The counts say which searches served the call: distinct pairs
    answered by bidirectional search (BFS or Δ-stepping), distinct pairs
    answered by the lane kernel, forward traversals (BFS or Δ-stepping)
    and transposes built.
    """

    connected: np.ndarray
    costs: np.ndarray | None
    paths: list[np.ndarray | None] | None
    bidirectional_pairs: int = 0
    lane_pairs: int = 0
    forward_traversals: int = 0
    transpose_builds: int = 0


class _Transpose:
    """A CSR's transpose (:func:`~repro.graph.bidirectional.reverse_csr`),
    built on first use, once, under a lock.  One library and its
    weighted views share one."""

    __slots__ = ("forward", "graph", "lock")

    def __init__(self, forward: CSRGraph):
        self.forward = forward
        self.graph: CSRGraph | None = None
        self.lock = threading.Lock()

    def get(self) -> tuple[CSRGraph, bool]:
        """The transpose and whether this call built it."""
        graph = self.graph
        if graph is not None:
            return graph, False
        with self.lock:
            if self.graph is not None:
                return self.graph, False
            self.graph = reverse_csr(self.forward)
            return self.graph, True


class GraphLibrary:
    """One prepared graph: domain encoding + CSR, ready for many queries.

    This object is the paper's future-work "graph index" (Section 6):
    the database's graph-index cache keeps instances keyed on the edge
    table version.  It lives in memory only; a saved image stores the
    index definition, and the first path query after a load rebuilds
    the library from the columns, since one build costs little more
    than reading a stored CSR back.

    A weighted CHEAPEST SUM runs on a weighted view
    (:meth:`with_weights`): the same domain and CSR with a weight per
    CSR slot.  An indexed library keeps the views it built
    (:meth:`weighted_view`), keyed by the caller's weight-expression key
    and the edge-table version, so a weighted query evaluates and
    gathers its weights once per table version.
    """

    def __init__(
        self,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        domain, src_ids, dst_ids = VertexDomain.from_edges(src_keys, dst_keys)
        self._adopt(
            domain,
            build_csr(src_ids, dst_ids, domain.num_vertices, weights),
            edge_weights=None if weights is None else np.asarray(weights),
        )

    def _adopt(
        self,
        domain,
        csr: CSRGraph,
        transpose: "_Transpose | None" = None,
        edge_weights: np.ndarray | None = None,
    ) -> None:
        self.domain = domain
        self.csr = csr
        self.weighted = csr.weights is not None
        #: True once a graph index holds this library (set by the index
        #: cache): only then do single-target groups and the lane kernel
        #: pay for a transpose, which later statements reuse
        self.indexed = False
        #: the unweighted transpose, shared with the weighted views
        self._shared_transpose = _Transpose(csr) if transpose is None else transpose
        #: a weighted library's weights in edge order, kept until its
        #: transpose gathers them through ``edge_rows``
        self._edge_weights = edge_weights
        self._weighted_reverse: CSRGraph | None = None
        self._reverse_lock = threading.Lock()
        #: (table version id, {weight key: weighted view}) — the views
        #: of the newest version a statement asked for
        self._views: tuple[int, dict] = (-1, {})
        self._views_lock = threading.Lock()

    @classmethod
    def from_csr(cls, domain, csr: CSRGraph, **shared) -> "GraphLibrary":
        """A library over an already encoded domain and built CSR."""
        library = cls.__new__(cls)
        library._adopt(domain, csr, **shared)
        return library

    @property
    def reverse(self) -> CSRGraph:
        """The transposed CSR, built on first use (once, under a lock)
        and kept for the library's lifetime."""
        return self._transpose()[0]

    def _transpose(self) -> tuple[CSRGraph, bool]:
        """The transposed CSR and whether this call built the unweighted
        one; concurrent statements on one library build it once.

        A weighted library's transpose shares the unweighted one's
        arrays and gathers its weights through ``edge_rows``: no second
        sort."""
        reverse, built = self._shared_transpose.get()
        if not self.weighted:
            return reverse, built
        weighted = self._weighted_reverse
        if weighted is None:
            with self._reverse_lock:
                weighted = self._weighted_reverse
                if weighted is None:
                    weighted = CSRGraph(
                        num_vertices=reverse.num_vertices,
                        indptr=reverse.indptr,
                        dst=reverse.dst,
                        src=reverse.src,
                        weights=self._edge_weights[reverse.edge_rows],
                        edge_rows=reverse.edge_rows,
                    )
                    self._weighted_reverse = weighted
                    self._edge_weights = None
        return weighted, built

    def with_weights(self, weights: np.ndarray) -> "GraphLibrary":
        """A weighted view sharing this library's domain, CSR order and
        transpose.

        ``weights`` holds one value per edge in the order the library was
        built from; it is validated by
        :func:`~repro.graph.csr.check_weights` and gathered into CSR
        order."""
        check_weights(weights)
        weights = weights.astype(
            np.int64 if weights.dtype.kind in "iu" else np.float64, copy=False
        )
        csr = self.csr
        return GraphLibrary.from_csr(
            self.domain,
            CSRGraph(
                num_vertices=csr.num_vertices,
                indptr=csr.indptr,
                dst=csr.dst,
                src=csr.src,
                weights=weights[csr.edge_rows],
                edge_rows=csr.edge_rows,
            ),
            transpose=self._shared_transpose,
            edge_weights=weights,
        )

    def weighted_view(
        self, key, version_id: int, weights: Callable[[], np.ndarray]
    ) -> tuple["GraphLibrary", bool]:
        """The weighted view for ``key`` at table version ``version_id``
        and whether this call built it.

        ``weights()`` produces the edge weights on a miss.  Views are
        kept for the newest version asked for only, at most
        :data:`WEIGHTED_VIEWS` keys (the oldest build goes first); a view
        for an older version (a pinned snapshot) is built and not kept.
        Builds run under a lock, like the transpose's, so concurrent
        statements build a view once, and a build that raises keeps
        nothing.  A view is indexed when this library is, so its
        single-target groups meet in the middle over its transpose.
        """
        version, views = self._views
        if version == version_id and key in views:
            return views[key], False
        with self._views_lock:
            version, views = self._views
            if version == version_id and key in views:
                return views[key], False
            view = self.with_weights(weights())
            view.indexed = self.indexed
            if version_id >= version:
                # a new dict each time: readers may hold the old one
                views = dict(views) if version == version_id else {}
                views[key] = view
                if len(views) > WEIGHTED_VIEWS:
                    del views[next(iter(views))]
                self._views = (version_id, views)
            return view, True

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
        serially).  Results are identical for any worker count.  The
        module docstring gives the rule choosing the search and when
        the pool takes part.
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
        valid_positions = np.flatnonzero(valid)
        if len(valid_positions) == 0:
            return result
        if self.indexed and not self.weighted and not want_path:
            # one lane per distinct pair, in (source, target) order
            n = self.csr.num_vertices
            keys = src_ids[valid_positions] * n + dst_ids[valid_positions]
            pairs, inverse = np.unique(keys, return_inverse=True)
            if len(pairs) >= LANE_MIN_PAIRS:
                found = self._solve_lanes(pairs // n, pairs % n, result, par)[inverse]
                connected[valid_positions] = found != UNREACHED
                if costs is not None:
                    costs[valid_positions] = found
                return result
        # group pairs by encoded source: one search per distinct source
        order = valid_positions[np.argsort(src_ids[valid_positions], kind="stable")]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(src_ids[order]) != 0) + 1))
        groups = np.split(order, starts[1:])
        # a group whose pairs all share one target is one s-t search
        targets = dst_ids[order]
        single = np.minimum.reduceat(targets, starts) == np.maximum.reduceat(
            targets, starts
        )
        backward = None
        if self.indexed and single.any():
            # built before the shards are dealt, so they share one
            backward, built = self._transpose()
            result.transpose_builds = int(built)
        else:
            single[:] = False  # every group runs forward
        result.bidirectional_pairs = int(single.sum())
        result.forward_traversals = len(groups) - result.bidirectional_pairs
        traverse = dijkstra if self.weighted else bfs
        meet = bidirectional_dijkstra if self.weighted else bidirectional_distance

        def solve_pair(members: np.ndarray) -> None:
            distance, path = meet(
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

    def _solve_lanes(self, sources, targets, result, par) -> np.ndarray:
        """Hop distances of distinct pairs by the lane kernel, one word
        of :data:`~repro.graph.lanes.LANE_WIDTH` pairs per pool task."""
        backward, built = self._transpose()
        result.transpose_builds = int(built)
        result.lane_pairs = len(sources)
        distances = np.empty(len(sources), dtype=np.int64)

        def solve_word(word: slice) -> None:
            distances[word] = lane_distances(
                self.csr, backward, sources[word], targets[word]
            )

        words = [
            slice(start, start + LANE_WIDTH)
            for start in range(0, len(sources), LANE_WIDTH)
        ]
        if par is None or len(words) < 2:
            if par is not None:
                par.note_serial("paths")
            for word in words:
                solve_word(word)
        else:
            par.map("paths", solve_word, words)
        return distances
