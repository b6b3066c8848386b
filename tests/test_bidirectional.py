"""Bidirectional BFS — the implemented version of the paper's
"significantly improve the BFS implementation" future work."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphRuntimeError
from repro.graph import (
    GraphLibrary,
    bfs,
    bidirectional_distance,
    build_csr,
    reverse_csr,
)
from repro.graph.bidirectional import _step

edges_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=50,
)


def _csr_from(edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    n = int(max(src.max(), dst.max())) + 1
    return build_csr(src, dst, n), n, src, dst


class TestReverseCsr:
    def test_transposes_edges(self):
        graph, n, src, dst = _csr_from([(0, 1), (1, 2), (0, 2)])
        reversed_graph = reverse_csr(graph)
        forward = sorted(zip(graph.src.tolist(), graph.dst.tolist()))
        backward = sorted(zip(reversed_graph.dst.tolist(), reversed_graph.src.tolist()))
        assert forward == backward

    def test_edge_rows_still_point_to_original(self):
        edges = [(2, 0), (0, 1), (1, 2)]
        graph, n, src, dst = _csr_from(edges)
        reversed_graph = reverse_csr(graph)
        for slot in range(reversed_graph.num_edges):
            original = reversed_graph.edge_rows[slot]
            # reversed edge (src=d, dst=s) must match the original row
            assert dst[original] == reversed_graph.src[slot]
            assert src[original] == reversed_graph.dst[slot]


class TestBidirectionalDistance:
    def test_self_pair(self):
        graph, *_ = _csr_from([(0, 1)])
        distance, path = bidirectional_distance(graph, reverse_csr(graph), 0, 0)
        assert distance == 0 and len(path) == 0

    def test_simple_chain(self):
        graph, *_ = _csr_from([(0, 1), (1, 2), (2, 3)])
        distance, path = bidirectional_distance(graph, reverse_csr(graph), 0, 3)
        assert distance == 3 and len(path) == 3

    def test_unreachable(self):
        graph, *_ = _csr_from([(0, 1), (2, 3)])
        distance, path = bidirectional_distance(graph, reverse_csr(graph), 0, 3)
        assert distance is None and path is None

    def test_first_meeting_is_not_trusted_blindly(self):
        # a long detour meets before the short path does if expansion is
        # unbalanced; the termination bound must still return 2
        edges = [(0, 10), (10, 11), (11, 12), (12, 5), (0, 4), (4, 5)]
        graph, *_ = _csr_from(edges)
        distance, _ = bidirectional_distance(graph, reverse_csr(graph), 0, 5)
        assert distance == 2

    @given(edges_strategy)
    @settings(max_examples=80, deadline=None)
    def test_matches_unidirectional_bfs(self, edges):
        graph, n, src, dst = _csr_from(edges)
        backward = reverse_csr(graph)
        for source in range(0, n, max(1, n // 3)):
            reference = bfs(graph, source)
            for target in range(0, n, max(1, n // 3)):
                distance, path = bidirectional_distance(
                    graph, backward, source, target
                )
                assert distance == reference.cost(target)
                if distance:
                    current = source
                    for row in path:
                        assert src[row] == current
                        current = dst[row]
                    assert current == target

    @given(edges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, edges):
        graph, n, *_ = _csr_from(edges)
        backward = reverse_csr(graph)
        reference = nx.MultiDiGraph()
        reference.add_edges_from(edges)
        distance, _ = bidirectional_distance(graph, backward, edges[0][0], edges[-1][1])
        try:
            expected = nx.shortest_path_length(reference, edges[0][0], edges[-1][1])
        except nx.NetworkXNoPath:
            expected = None
        assert distance == expected


def unique_bfs_reference(graph, source):
    """The level expansion BFS used before the sort-free helper: the
    ``np.unique`` first occurrence over a frontier kept in ascending order
    (kept here as the oracle for the tree both searches build)."""
    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        slots = np.concatenate(
            [np.arange(graph.indptr[v], graph.indptr[v + 1]) for v in frontier]
        ).astype(np.int64)
        neighbors = graph.dst[slots]
        fresh = dist[neighbors] == -1
        neighbors, slots = neighbors[fresh], slots[fresh]
        unique_neighbors, first_pos = np.unique(neighbors, return_index=True)
        dist[unique_neighbors] = level
        pred[unique_neighbors] = slots[first_pos]
        frontier = unique_neighbors
    return dist, pred


class TestLevelExpansionAgainstUniqueReference:
    """``bfs`` and the bidirectional search's ``_step`` share one
    sort-free level expansion; both must build the reference's tree."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pred_arrays_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 6 * n))
        graph = build_csr(rng.integers(0, n, m), rng.integers(0, n, m), n)
        backward = reverse_csr(graph)
        for source in range(0, n, max(1, n // 5)):
            for csr in (graph, backward):
                dist, pred = unique_bfs_reference(csr, source)
                result = bfs(csr, source)
                assert result.dist.tolist() == dist.tolist()
                assert result.pred_edge.tolist() == pred.tolist()
                # drive the bidirectional step alone: nothing ever meets
                step_dist = np.full(n, -1, dtype=np.int64)
                step_pred = np.full(n, -1, dtype=np.int64)
                step_dist[source] = 0
                never = np.full(n, -1, dtype=np.int64)
                scratch = np.empty(n, dtype=np.int64)
                frontier = np.array([source], dtype=np.int64)
                while len(frontier):
                    frontier, meet = _step(
                        csr, frontier, step_dist, step_pred, never, scratch
                    )
                    assert meet is None
                assert step_dist.tolist() == dist.tolist()
                assert step_pred.tolist() == pred.tolist()


class TestLibraryIntegration:
    def _library(self):
        return GraphLibrary(
            np.array([1, 2, 3, 1]), np.array([2, 3, 4, 4])
        )

    @staticmethod
    def _bidirectional(library, src, dst):
        return [
            bidirectional_distance(library.csr, library.reverse, int(s), int(d))[0]
            if s >= 0 and d >= 0
            else None
            for s, d in zip(src, dst)
        ]

    def test_algorithm_parameter(self):
        library = self._library()
        src = library.domain.encode(np.array([1, 4]))
        dst = library.domain.encode(np.array([4, 1]))
        assert self._bidirectional(library, src, dst) == [1, None]

    def test_agrees_with_default(self):
        library = self._library()
        rng = np.random.default_rng(5)
        src = library.domain.encode(rng.integers(1, 5, 20))
        dst = library.domain.encode(rng.integers(1, 5, 20))
        default = library.solve_encoded(src, dst, want_cost=True)
        expected = [
            int(cost) if hit else None
            for hit, cost in zip(default.connected, default.costs)
        ]
        assert self._bidirectional(library, src, dst) == expected

    def test_reverse_cached(self):
        library = self._library()
        assert library.reverse is library.reverse

    def test_rejected_for_weighted(self):
        library = GraphLibrary(
            np.array([1]), np.array([2]), np.array([3], dtype=np.int64)
        )
        with pytest.raises(GraphRuntimeError, match="unweighted"):
            bidirectional_distance(library.csr, library.reverse, 0, 1)

    def test_unknown_algorithm_rejected(self):
        # the batch solver has no algorithm switch and no worker count of
        # its own (it takes the statement's exec-pool context)
        library = self._library()
        for name, value in [
            ("algorithm", "bidirectional"),
            ("algorithm", "astar"),
            ("workers", 2),
        ]:
            with pytest.raises(TypeError, match=name):
                library.solve_encoded(np.array([0]), np.array([1]), **{name: value})
            with pytest.raises(TypeError, match=name):
                library.solve(np.array([1]), np.array([2]), **{name: value})
