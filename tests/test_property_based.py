"""Property-based tests (hypothesis) on the core data structures, with
networkx as the reference implementation for graph algorithms."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_path_reference import bellman_ford

from repro import Database
from repro.graph import (
    GraphLibrary,
    VertexDomain,
    bfs,
    build_csr,
    dijkstra,
    reconstruct_path,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
edges_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=1,
    max_size=60,
)

weighted_edges_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 30)),
    min_size=1,
    max_size=50,
)


def _csr_from(edges, weights=None):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    n = int(max(src.max(), dst.max())) + 1
    w = np.array(weights, dtype=np.int64) if weights is not None else None
    return build_csr(src, dst, n, w), n


def _nx_digraph(edges, weights=None):
    graph = nx.MultiDiGraph()
    for i, (a, b) in enumerate(edges):
        graph.add_edge(a, b, weight=weights[i] if weights else 1)
    return graph


class TestCsrProperties:
    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_csr_preserves_adjacency_multiset(self, edges):
        graph, n = _csr_from(edges)
        rebuilt = sorted(zip(graph.src.tolist(), graph.dst.tolist()))
        assert rebuilt == sorted(edges)

    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_indptr_is_monotone_prefix_sum(self, edges):
        graph, n = _csr_from(edges)
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == len(edges)
        assert (np.diff(graph.indptr) >= 0).all()

    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_edge_rows_is_permutation(self, edges):
        graph, _ = _csr_from(edges)
        assert sorted(graph.edge_rows.tolist()) == list(range(len(edges)))


class TestBfsAgainstNetworkx:
    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_distances_match(self, edges):
        graph, n = _csr_from(edges)
        reference = _nx_digraph(edges)
        result = bfs(graph, 0)
        expected = (
            nx.single_source_shortest_path_length(reference, 0)
            if 0 in reference
            else {0: 0}
        )
        for v in range(n):
            ours = result.cost(v)
            if v == 0:
                assert ours == 0
            elif v in expected:
                assert ours == expected[v]
            else:
                assert ours is None

    @given(edges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_paths_are_valid_and_shortest(self, edges):
        graph, n = _csr_from(edges)
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        result = bfs(graph, 0)
        for v in range(n):
            if result.cost(v) is None:
                continue
            path = reconstruct_path(graph, result, v)
            assert len(path) == result.cost(v)
            # path is a connected edge sequence from 0 to v
            current = 0
            for row in path:
                assert src[row] == current
                current = dst[row]
            assert current == v


class TestDijkstraAgainstNetworkx:
    @given(weighted_edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_costs_match(self, edges):
        weights = [e[2] for e in edges]
        graph, n = _csr_from([(a, b) for a, b, _ in edges], weights)
        reference = _nx_digraph([(a, b) for a, b, _ in edges], weights)
        result = dijkstra(graph, 0)
        expected = (
            nx.single_source_dijkstra_path_length(reference, 0)
            if 0 in reference
            else {0: 0}
        )
        for v in range(n):
            ours = result.cost(v)
            if v == 0:
                assert ours == 0
            elif v in expected:
                assert ours == expected[v]
            else:
                assert ours is None

    @given(weighted_edges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_path_cost_equals_reported_cost(self, edges):
        weights = [e[2] for e in edges]
        graph, n = _csr_from([(a, b) for a, b, _ in edges], weights)
        w = np.array(weights)
        result = dijkstra(graph, 0)
        for v in range(n):
            cost = result.cost(v)
            if cost is None:
                continue
            path = reconstruct_path(graph, result, v)
            assert int(w[path].sum()) == cost


@st.composite
def delta_stepping_graphs(draw, weights):
    """(vertex count, [(u, v, w)]): self-loops and parallel edges come up
    often on so few vertices, and vertices beyond the last endpoint stay
    unreachable."""
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex, weights), min_size=1, max_size=50)
    )
    return n + draw(st.integers(0, 2)), edges


WEIGHTS = {
    "narrow_int": st.integers(1, 9),
    "wide_int": st.integers(1, 10**6),
    "float": st.one_of(
        st.just(1e-9),
        st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False),
    ),
}


def _delta_csr(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges])
    return build_csr(src, dst, n, w)


def _same_distance(ours, reference):
    if reference is None:
        return ours is None
    if isinstance(reference, float):
        return ours == pytest.approx(reference, rel=1e-12)
    return ours == reference


class TestDeltaSteppingAgainstBellmanFord:
    """The Δ-stepping kernel against the naive Bellman-Ford reference of
    ``test_path_reference`` on integer weights of narrow and wide range and
    on non-integral float weights down to 1e-9."""

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distances_match(self, kind, data):
        n, edges = data.draw(delta_stepping_graphs(WEIGHTS[kind]))
        graph = _delta_csr(n, edges)
        source = data.draw(st.integers(0, n - 1))
        result = dijkstra(graph, source)
        reference = bellman_ford(n, edges, source)
        for v in range(n):
            assert _same_distance(result.cost(v), reference[v])

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_path_cost_equals_reported_cost(self, kind, data):
        n, edges = data.draw(delta_stepping_graphs(WEIGHTS[kind]))
        graph = _delta_csr(n, edges)
        result = dijkstra(graph, 0)
        for v in range(n):
            cost = result.cost(v)
            if cost is None:
                continue
            path = reconstruct_path(graph, result, v)
            current = 0
            for row in path.tolist():
                assert edges[row][0] == current
                current = edges[row][1]
            assert current == v
            # the kernel adds weights source-outward, so the same fold
            # reproduces the cost exactly, floats included
            total = 0
            for row in path.tolist():
                total = total + edges[row][2]
            assert total == cost

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_early_termination_on_targets(self, kind, data):
        n, edges = data.draw(delta_stepping_graphs(WEIGHTS[kind]))
        graph = _delta_csr(n, edges)
        targets = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        )
        full = dijkstra(graph, 0)
        early = dijkstra(graph, 0, targets)
        for t in targets.tolist():
            assert early.cost(t) == full.cost(t)
        # unsettled vertices read -1; settled ones hold final distances
        for v in range(n):
            if early.cost(v) is None:
                assert early.pred_edge[v] == -1
            else:
                assert early.cost(v) == full.cost(v)

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pred_edge_is_deterministic(self, kind, data):
        n, edges = data.draw(delta_stepping_graphs(WEIGHTS[kind]))
        graph = _delta_csr(n, edges)
        first, second = dijkstra(graph, 0), dijkstra(graph, 0)
        assert first.pred_edge.tolist() == second.pred_edge.tolist()
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        library = GraphLibrary(src, dst, np.array([e[2] for e in edges]))
        keys = np.unique(np.concatenate((src, dst)))
        sources, dests = np.repeat(keys, len(keys)), np.tile(keys, len(keys))
        one = library.solve(sources, dests, want_cost=True, want_path=True, workers=1)
        four = library.solve(sources, dests, want_cost=True, want_path=True, workers=4)
        assert one.costs.tolist() == four.costs.tolist()
        for a, b in zip(one.paths, four.paths):
            assert (a is None and b is None) or a.tolist() == b.tolist()


class TestDomainProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, keys):
        arr = np.array(keys, dtype=np.int64)
        domain = VertexDomain(arr, arr[::-1].copy())
        ids = domain.encode(arr)
        assert (ids >= 0).all()
        assert domain.decode(ids) == keys


class TestSqlEngineProperties:
    @given(st.lists(st.integers(-100, 100), min_size=0, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_order_by_sorts(self, values):
        db = Database()
        db.execute("CREATE TABLE v (x INT)")
        if values:
            db.table("v").insert_rows([(v,) for v in values])
        rows = db.execute("SELECT x FROM v ORDER BY x").rows()
        assert [r[0] for r in rows] == sorted(values)

    @given(st.lists(st.integers(0, 10), min_size=0, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_group_by_counts_match_python(self, values):
        db = Database()
        db.execute("CREATE TABLE v (x INT)")
        if values:
            db.table("v").insert_rows([(v,) for v in values])
        rows = db.execute("SELECT x, count(*) FROM v GROUP BY x").rows()
        from collections import Counter

        assert dict(rows) == dict(Counter(values))

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_reaches_matches_networkx(self, edges, source, dest):
        db = Database()
        db.execute("CREATE TABLE e (s INT, d INT)")
        db.table("e").insert_rows(edges)
        connected = (
            db.execute(
                "SELECT 1 WHERE ? REACHES ? OVER e EDGE (s, d)", (source, dest)
            ).rows()
            != []
        )
        graph = _nx_digraph(edges)
        vertices = set(graph.nodes)
        expected = (
            source in vertices
            and dest in vertices
            and nx.has_path(graph, source, dest)
        )
        assert connected == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 9)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_cheapest_sum_matches_networkx(self, edges):
        db = Database()
        db.execute("CREATE TABLE e (s INT, d INT, w INT)")
        db.table("e").insert_rows(edges)
        graph = _nx_digraph(
            [(a, b) for a, b, _ in edges], [w for _, _, w in edges]
        )
        source = edges[0][0]
        costs = db.execute(
            "SELECT d.v, CHEAPEST SUM(e: w) FROM (SELECT DISTINCT d AS v FROM e) d "
            "WHERE ? REACHES d.v OVER e e EDGE (s, d)",
            (source,),
        ).rows()
        expected = nx.single_source_dijkstra_path_length(graph, source)
        for vertex, cost in costs:
            assert cost == expected[vertex]
