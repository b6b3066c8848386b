"""Unit tests for the graph runtime: domain encoding, CSR, BFS, the
Δ-stepping Dijkstra and the library facade (the paper's Section 3.2
component)."""

import numpy as np
import pytest
from test_path_reference import bellman_ford

from repro.errors import GraphRuntimeError
from repro.graph import (
    NOT_A_VERTEX,
    UNREACHED,
    CSRGraph,
    GraphLibrary,
    VertexDomain,
    bfs,
    build_csr,
    dijkstra,
    expand_frontier,
    reconstruct_path,
)
from repro.graph.csr import stable_argsort


class TestVertexDomain:
    def test_vertices_are_union_of_endpoints(self):
        domain = VertexDomain(np.array([5, 1]), np.array([9, 5]))
        assert domain.num_vertices == 3  # {1, 5, 9}

    def test_ids_are_dense_and_sorted(self):
        domain = VertexDomain(np.array([30, 10]), np.array([20, 10]))
        assert domain.encode(np.array([10, 20, 30])).tolist() == [0, 1, 2]

    def test_unknown_key_maps_to_sentinel(self):
        domain = VertexDomain(np.array([1]), np.array([2]))
        assert domain.encode(np.array([99]))[0] == NOT_A_VERTEX

    def test_string_keys(self):
        a = np.array(["x", "y"], dtype=object)
        b = np.array(["z", "x"], dtype=object)
        domain = VertexDomain(a, b)
        assert domain.num_vertices == 3
        assert domain.encode(np.array(["q"], dtype=object))[0] == NOT_A_VERTEX

    def test_decode_roundtrip(self):
        domain = VertexDomain(np.array([7, 3]), np.array([11, 7]))
        ids = domain.encode(np.array([3, 7, 11]))
        assert domain.decode(ids) == [3, 7, 11]

    def test_empty_graph(self):
        domain = VertexDomain(np.empty(0, np.int64), np.empty(0, np.int64))
        assert domain.num_vertices == 0
        assert domain.encode(np.array([1]))[0] == NOT_A_VERTEX


class TestCSR:
    def test_prefix_sum_layout(self):
        # paper: edges sorted by S; outgoing edges of η live in
        # D[S[η-1] .. S[η]-1]
        graph = build_csr(np.array([1, 0, 1, 2]), np.array([2, 1, 0, 0]), 3)
        assert graph.indptr.tolist() == [0, 1, 3, 4]
        assert sorted(graph.neighbors(1).tolist()) == [0, 2]
        assert graph.out_degree(0) == 1

    def test_edge_rows_map_back_to_input(self):
        src = np.array([2, 0, 1])
        dst = np.array([0, 1, 2])
        graph = build_csr(src, dst, 3)
        for slot in range(3):
            original = graph.edge_rows[slot]
            assert src[original] == graph.src[slot]
            assert dst[original] == graph.dst[slot]

    def test_parallel_edges_kept(self):
        graph = build_csr(np.array([0, 0]), np.array([1, 1]), 2)
        assert graph.out_degree(0) == 2

    def test_nonpositive_weight_rejected(self):
        # "Its value must always be strictly greater than 0, otherwise a
        # runtime exception is raised."
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            build_csr(np.array([0]), np.array([1]), 2, np.array([0]))

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphRuntimeError):
            build_csr(np.array([0]), np.array([1]), 2, np.array([-1.5]))

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphRuntimeError, match="strictly greater"):
            build_csr(np.array([0, 1]), np.array([1, 0]), 2, np.array([1.0, np.nan]))

    def test_infinite_weight_rejected(self):
        with pytest.raises(GraphRuntimeError, match="finite"):
            build_csr(np.array([0, 1]), np.array([1, 0]), 2, np.array([1.0, np.inf]))

    def test_overflow_bound_is_per_graph(self):
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
        assert not build_csr(src, dst, 3, np.array([1, 100, 7])).may_overflow
        assert not build_csr(src, dst, 3, np.array([1.0, 1e300, 2.0])).may_overflow
        assert build_csr(src, dst, 3, np.array([1, 2, 5 * 10**18])).may_overflow
        assert build_csr(src, dst, 3, np.array([1.0, 1e308, 2.0])).may_overflow

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphRuntimeError):
            build_csr(np.array([0]), np.array([1, 2]), 3)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphRuntimeError):
            build_csr(np.array([0]), np.array([1]), 2, np.array([1, 2]))

    def test_expand_frontier(self):
        graph = build_csr(np.array([0, 0, 1]), np.array([1, 2, 2]), 3)
        slots = expand_frontier(graph.indptr, np.array([0, 1]))
        assert slots.tolist() == [0, 1, 2]

    def test_expand_frontier_empty(self):
        graph = build_csr(np.array([0]), np.array([1]), 2)
        assert len(expand_frontier(graph.indptr, np.array([1]))) == 0

    @pytest.mark.parametrize(
        "num_keys, count",
        [(0, 0), (5, 0), (7, 200), (4480, 50_000), (1 << 16, 50_000),
         ((1 << 16) + 1, 50_000), (1 << 33, 50_000)],
    )
    def test_stable_argsort_matches_numpy(self, num_keys, count):
        # one 16-bit pass up to 2^16 keys, two past it, three past 2^32;
        # few distinct keys force long runs of equal keys
        rng = np.random.default_rng(num_keys + count)
        for high in {max(num_keys, 1), min(max(num_keys, 1), 3)}:
            keys = rng.integers(0, high, count)
            keys[: min(count, 2)] = high - 1  # the largest key is present
            expected = np.argsort(keys, kind="stable")
            assert np.array_equal(stable_argsort(keys, num_keys), expected)


def diamond() -> CSRGraph:
    """0 -> 1 -> 3 (w 1+1), 0 -> 2 -> 3 (w 10+10), 0 -> 3 (w 5)."""
    return build_csr(
        np.array([0, 1, 0, 2, 0]),
        np.array([1, 3, 2, 3, 3]),
        4,
        np.array([1, 1, 10, 10, 5], dtype=np.int64),
    )


class TestBfs:
    def test_distances(self):
        graph = build_csr(np.array([0, 1, 2]), np.array([1, 2, 3]), 4)
        result = bfs(graph, 0)
        assert result.dist.tolist() == [0, 1, 2, 3]

    def test_unreached_marker(self):
        graph = build_csr(np.array([0]), np.array([1]), 3)
        result = bfs(graph, 0)
        assert result.dist[2] == UNREACHED and result.cost(2) is None

    def test_direction_matters(self):
        graph = build_csr(np.array([0]), np.array([1]), 2)
        assert bfs(graph, 1).cost(0) is None

    def test_early_exit_still_correct_for_target(self):
        graph = build_csr(np.arange(9), np.arange(1, 10), 10)
        result = bfs(graph, 0, targets=np.array([4]))
        assert result.cost(4) == 4

    def test_path_reconstruction(self):
        graph = diamond()
        result = bfs(graph, 0)
        path = reconstruct_path(graph, result, 3)
        assert len(path) == 1  # direct hop is the BFS shortest
        assert path is not None

    def test_path_to_source_is_empty(self):
        graph = diamond()
        result = bfs(graph, 0)
        assert reconstruct_path(graph, result, 0).tolist() == []

    def test_path_to_unreached_is_none(self):
        graph = build_csr(np.array([0]), np.array([1]), 3)
        result = bfs(graph, 0)
        assert reconstruct_path(graph, result, 2) is None


class TestDijkstra:
    def test_weighted_distances(self):
        result = dijkstra(diamond(), 0)
        assert result.dist.tolist() == [0, 1, 10, 2]

    def test_path_follows_cheapest_route(self):
        graph = diamond()
        result = dijkstra(graph, 0)
        path = reconstruct_path(graph, result, 3)
        # original edge rows: 0->1 is row 0, 1->3 is row 1
        assert path.tolist() == [0, 1]

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = 30, 120
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            w = rng.integers(1, 50, m).astype(np.int64)
            graph = build_csr(src, dst, n, w)
            expected = bellman_ford(n, list(zip(src, dst, w)), 0)
            assert dijkstra(graph, 0).dist.tolist() == [
                UNREACHED if d is None else d for d in expected
            ]

    def test_float_weights(self):
        graph = build_csr(
            np.array([0, 1]), np.array([1, 2]), 3, np.array([0.5, 0.25])
        )
        result = dijkstra(graph, 0)
        assert result.dist[2] == pytest.approx(0.75)

    def test_equal_cost_tie_takes_smallest_slot(self):
        # 0 -> 1 -> 3 and 0 -> 2 -> 3 both cost 2; the edge 1 -> 3 holds
        # the smaller CSR slot, so it is 3's predecessor in every run
        graph = build_csr(
            np.array([0, 0, 2, 1]), np.array([1, 2, 3, 3]), 4,
            np.array([1, 1, 1, 1], dtype=np.int64),
        )
        for _ in range(3):
            result = dijkstra(graph, 0)
            assert result.dist.tolist() == [0, 1, 1, 2]
            assert reconstruct_path(graph, result, 3).tolist() == [0, 3]

    def test_equal_cost_tie_takes_earliest_round(self):
        # 5 -> 3 (slot 2) reaches 3 at cost 3 in the first round; 0 -> 3
        # (slot 0) ties it one round later and is not a strict improvement
        graph = build_csr(
            np.array([0, 5, 5]), np.array([3, 0, 3]), 6,
            np.array([2, 1, 3], dtype=np.int64),
        )
        for _ in range(3):
            result = dijkstra(graph, 5)
            assert result.cost(3) == 3
            assert result.pred_edge[3] == 2

    def test_bucket_width_is_derived_from_the_graph(self):
        # max(w_min, w_max * |V| / |E|): 4 vertices, 5 edges, weights 1..10
        assert diamond().bucket_width == 8
        graph = build_csr(np.array([0, 1]), np.array([1, 0]), 2, np.array([3, 7]))
        assert graph.bucket_width == 7
        floats = build_csr(np.array([0, 0]), np.array([1, 1]), 4, np.array([0.5, 2.0]))
        assert floats.bucket_width == pytest.approx(4.0)

    def test_unweighted_graph_rejected(self):
        graph = build_csr(np.array([0]), np.array([1]), 2)
        with pytest.raises(GraphRuntimeError, match="weight"):
            dijkstra(graph, 0)

    def test_unknown_queue_rejected(self):
        # one kernel for every weight type: there is no queue to choose
        graph = build_csr(np.array([0]), np.array([1]), 2, np.array([1]))
        with pytest.raises(TypeError):
            dijkstra(graph, 0, queue="radix")

    def test_early_exit_target_distance_final(self):
        graph = diamond()
        result = dijkstra(graph, 0, targets=np.array([3]))
        assert result.cost(3) == 2


class TestGraphLibrary:
    def test_reachability_mask(self):
        lib = GraphLibrary(np.array([1, 2]), np.array([2, 3]))
        result = lib.solve(np.array([1, 3, 99]), np.array([3, 1, 1]))
        assert result.connected.tolist() == [True, False, False]

    def test_self_reachability_is_true_for_vertices(self):
        # P(x, x) holds via the empty path when x is a vertex
        lib = GraphLibrary(np.array([1]), np.array([2]))
        result = lib.solve(np.array([1]), np.array([1]), want_cost=True)
        assert result.connected[0] and result.costs[0] == 0

    def test_non_vertex_never_connected(self):
        lib = GraphLibrary(np.array([1]), np.array([2]))
        result = lib.solve(np.array([99]), np.array([99]))
        assert not result.connected[0]

    def test_costs_for_unconnected_stay_minus_one(self):
        lib = GraphLibrary(np.array([1]), np.array([2]))
        result = lib.solve(np.array([2]), np.array([1]), want_cost=True)
        assert result.costs[0] == -1

    def test_batch_grouped_by_source(self):
        lib = GraphLibrary(np.array([1, 2, 3]), np.array([2, 3, 4]))
        sources = np.array([1, 1, 1, 2])
        dests = np.array([2, 3, 4, 4])
        result = lib.solve(sources, dests, want_cost=True)
        assert result.costs.tolist() == [1, 2, 3, 2]

    def test_paths_reference_original_rows(self):
        src = np.array([10, 20])
        dst = np.array([20, 30])
        lib = GraphLibrary(src, dst)
        result = lib.solve(np.array([10]), np.array([30]), want_path=True)
        path = result.paths[0]
        assert src[path[0]] == 10 and dst[path[1]] == 30

    def test_weighted_prefers_cheap_detour(self):
        lib = GraphLibrary(
            np.array([1, 1, 2]),
            np.array([3, 2, 3]),
            np.array([10, 1, 1], dtype=np.int64),
        )
        result = lib.solve(np.array([1]), np.array([3]), want_cost=True)
        assert result.costs[0] == 2

    def test_solve_length_mismatch(self):
        lib = GraphLibrary(np.array([1]), np.array([2]))
        with pytest.raises(GraphRuntimeError):
            lib.solve(np.array([1, 2]), np.array([1]))

    def test_deterministic_path_choice(self):
        # two equal-cost paths; the library must return one, consistently
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 2, 3, 3])
        lib = GraphLibrary(src, dst)
        p1 = lib.solve(np.array([0]), np.array([3]), want_path=True).paths[0]
        p2 = lib.solve(np.array([0]), np.array([3]), want_path=True).paths[0]
        assert p1.tolist() == p2.tolist()
