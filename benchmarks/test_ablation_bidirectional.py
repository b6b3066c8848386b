"""Ablation A6: unidirectional vs bidirectional BFS on a prepared graph.

The paper expects "to significantly improve the BFS implementation"
(Section 4).  Bidirectional search is that improvement for the
single-pair case: with the CSR (and its transpose) already prepared — a
graph index — the per-query work drops from O(b^d) to O(b^(d/2))
explored vertices.  The engine makes this choice itself: every
unweighted source group with one distinct target on an indexed library
runs bidirectional search, everything else forward BFS.  This ablation
times the two kernels the choice is between, on the same pairs.
"""

import numpy as np
import pytest

from repro.graph import GraphLibrary, bfs, bidirectional_distance

from conftest import SCALE_FACTORS


@pytest.fixture(scope="module")
def prepared(networks):
    network = networks[max(SCALE_FACTORS)]
    src, dst, _, _ = network.directed_edges()
    library = GraphLibrary(src, dst)
    library.reverse  # pre-build the transpose, like a graph index would
    rng = np.random.default_rng(41)
    encoded = library.domain.encode(rng.choice(network.person_ids, size=64))
    pairs = [(int(encoded[2 * i]), int(encoded[2 * i + 1])) for i in range(32)]
    return library, pairs


def test_bench_unidirectional_single_pair(benchmark, prepared):
    library, pairs = prepared
    state = {"i": 0}

    def one_pair():
        source, target = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return bfs(library.csr, source, targets=np.array([target]))

    benchmark(one_pair)


def test_bench_bidirectional_single_pair(benchmark, prepared):
    library, pairs = prepared
    state = {"i": 0}

    def one_pair():
        source, target = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return bidirectional_distance(library.csr, library.reverse, source, target)

    benchmark(one_pair)


def test_bidirectional_agrees_on_bench_graph(prepared):
    library, pairs = prepared
    for source, target in pairs:
        reference = bfs(library.csr, source, targets=np.array([target]))
        distance, _ = bidirectional_distance(
            library.csr, library.reverse, source, target
        )
        assert distance == reference.cost(target)
