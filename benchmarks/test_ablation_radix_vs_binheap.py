"""Ablation A1: the Δ-stepping Dijkstra kernel vs a binary-heap Dijkstra.

The paper's runtime pairs Dijkstra with the radix queue of Ahuja et al.
("a more tuned radix queue under the hood"), a priority queue popped one
vertex at a time.  The engine replaced it with a bucket-synchronous
Δ-stepping kernel whose steps are numpy operations over whole frontiers.
This ablation keeps the classic one-vertex-at-a-time search as a
reference — a ``heapq`` Dijkstra with lazy deletion, defined here, outside
the engine — and checks that both give identical distances on

* the weighted bench graph (LDBC-shaped ``knows`` edges, integer weights);
* a 20k-vertex, 200k-edge uniform random graph with weights in
  [1, 10^6], where a Δ fixed at the lightest weight would need one
  round per distinct distance.

Timings are recorded by the ``test_bench_dijkstra`` cases, not asserted.
"""

import heapq

import numpy as np
import pytest

from repro.graph import GraphLibrary, build_csr, dijkstra

from conftest import SCALE_FACTORS


def heapq_dijkstra(graph, source: int) -> list:
    """Binary-heap Dijkstra over a CSR graph; -1 marks unreached."""
    indptr, dst = graph.indptr.tolist(), graph.dst.tolist()
    weights = graph.weights.tolist()
    dist = [-1] * graph.num_vertices
    settled = [False] * graph.num_vertices
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        key, vertex = heapq.heappop(heap)
        if settled[vertex]:
            continue
        settled[vertex] = True
        for slot in range(indptr[vertex], indptr[vertex + 1]):
            head = dst[slot]
            candidate = key + weights[slot]
            if dist[head] == -1 or candidate < dist[head]:
                dist[head] = candidate
                heapq.heappush(heap, (candidate, head))
    return dist


@pytest.fixture(scope="module")
def bench_graph(networks):
    """Weighted CSR of the largest bench graph + query sources."""
    network = networks[max(SCALE_FACTORS)]
    src, dst, _, weights = network.directed_edges()
    scaled = (weights * 10).astype(np.int64)
    library = GraphLibrary(src, dst, scaled)
    rng = np.random.default_rng(17)
    sources = library.domain.encode(rng.choice(network.person_ids, size=32))
    return library.csr, [int(s) for s in sources]


@pytest.fixture(scope="module")
def wide_graph():
    """20k vertices, 200k uniform random edges, weights in [1, 10^6]."""
    rng = np.random.default_rng(23)
    n, m = 20_000, 200_000
    graph = build_csr(
        rng.integers(0, n, m), rng.integers(0, n, m), n,
        rng.integers(1, 10**6 + 1, m),
    )
    return graph, [int(s) for s in rng.integers(0, n, 4)]


def test_kernel_and_heap_agree_on_bench_graph(bench_graph):
    graph, sources = bench_graph
    for source in sources[:8]:
        assert dijkstra(graph, source).dist.tolist() == heapq_dijkstra(graph, source)


def test_kernel_and_heap_agree_on_wide_weights(wide_graph):
    graph, sources = wide_graph
    for source in sources[:2]:
        assert dijkstra(graph, source).dist.tolist() == heapq_dijkstra(graph, source)


@pytest.mark.parametrize("search", ["kernel", "heapq"])
@pytest.mark.parametrize("graph_name", ["bench", "wide"])
def test_bench_dijkstra(benchmark, request, graph_name, search):
    graph, sources = request.getfixturevalue(f"{graph_name}_graph")
    run = dijkstra if search == "kernel" else heapq_dijkstra
    state = {"i": 0}

    def one_traversal():
        source = sources[state["i"] % len(sources)]
        state["i"] += 1
        return run(graph, source)

    benchmark(one_traversal)
