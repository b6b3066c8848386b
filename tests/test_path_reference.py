"""Property-based correctness: BFS / Dijkstra / bidirectional search vs
a brute-force Bellman-Ford reference on random graphs.

For each random graph the suite checks, across algorithms and worker
counts:

* costs equal the reference distances exactly (int) / to 1e-9 (float);
* returned paths are *valid* — they start at the source, end at the
  destination, chain edge-to-edge through the edge list — and
  *cost-consistent* — the sum of their edge weights equals the reported
  cost.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exec.parallel import ExecPool
from repro.graph import GraphLibrary, bidirectional_distance


# ---------------------------------------------------------------------------
# the reference implementation (deliberately naive)
# ---------------------------------------------------------------------------
def bellman_ford(num_vertices: int, edges: list[tuple[int, int, float]], source: int):
    """Plain |V|-1-round edge relaxation; None marks unreachable."""
    dist: list = [None] * num_vertices
    dist[source] = 0
    for _ in range(max(num_vertices - 1, 1)):
        changed = False
        for u, v, w in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def random_graph(rng: random.Random, *, integral: bool):
    n = rng.randint(2, 24)
    m = rng.randint(0, 4 * n)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        weight = rng.randint(1, 9) if integral else rng.uniform(0.1, 5.0)
        edges.append((u, v, weight))
    # guarantee at least one edge so the library has a non-empty domain
    if not edges:
        edges.append((0, min(1, n - 1), 1 if integral else 1.0))
    return n, edges


def build_library(edges, *, weighted: bool):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    if not weighted:
        return GraphLibrary(src, dst)
    weights = np.asarray([e[2] for e in edges])
    return GraphLibrary(src, dst, weights)


def check_paths(result, edges, sources, dests, costs_are_hops: bool):
    """Paths are valid edge chains and their weight sums match costs."""
    for i in range(len(sources)):
        path = result.paths[i]
        if not result.connected[i]:
            assert path is None
            continue
        assert path is not None
        source, dest = int(sources[i]), int(dests[i])
        if len(path) == 0:
            assert source == dest and result.costs[i] == 0
            continue
        rows = [edges[j] for j in path]
        assert rows[0][0] == source
        assert rows[-1][1] == dest
        for (_, mid, _), (nxt, _, _) in zip(rows, rows[1:]):
            assert mid == nxt, "path edges do not chain"
        total = len(rows) if costs_are_hops else sum(w for _, _, w in rows)
        assert total == pytest.approx(result.costs[i])


def query_pairs(rng: random.Random, n: int, count: int = 40):
    # mix in-domain pairs with out-of-domain vertex ids (n, n+1, ...)
    sources = np.asarray(
        [rng.randrange(n + 2) for _ in range(count)], dtype=np.int64
    )
    dests = np.asarray([rng.randrange(n + 2) for _ in range(count)], dtype=np.int64)
    return sources, dests


# ---------------------------------------------------------------------------
# BFS (unweighted): CHEAPEST SUM(1) semantics
# ---------------------------------------------------------------------------
class TestUnweightedAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_bfs_costs_and_paths(self, seed):
        rng = random.Random(seed)
        n, edges = random_graph(rng, integral=True)
        hop_edges = [(u, v, 1) for u, v, _ in edges]
        library = build_library(edges, weighted=False)
        sources, dests = query_pairs(rng, n)
        result = library.solve(sources, dests, want_cost=True, want_path=True)
        for i in range(len(sources)):
            s, d = int(sources[i]), int(dests[i])
            # endpoints must be vertices (= appear in S ∪ D) to connect
            src_known = s < n and library.domain.encode(np.asarray([s]))[0] >= 0
            dst_known = d < n and library.domain.encode(np.asarray([d]))[0] >= 0
            if not (src_known and dst_known):
                assert not result.connected[i]
                continue
            reference = bellman_ford(n, hop_edges, s)[d]
            if reference is None:
                assert not result.connected[i]
            else:
                assert result.connected[i]
                assert result.costs[i] == reference
        check_paths(result, edges, sources, dests, costs_are_hops=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_bidirectional_matches_bfs(self, seed):
        rng = random.Random(100 + seed)
        n, edges = random_graph(rng, integral=True)
        library = build_library(edges, weighted=False)
        sources, dests = query_pairs(rng, n)
        src_ids, dst_ids, valid = library.encode_endpoints(sources, dests)
        plain = library.solve_encoded(src_ids, dst_ids, want_cost=True)
        for i in range(len(src_ids)):
            bidi = (
                bidirectional_distance(
                    library.csr, library.reverse, int(src_ids[i]), int(dst_ids[i])
                )[0]
                if valid[i]
                else None
            )
            assert plain.connected[i] == (bidi is not None)
            if bidi is not None:
                assert plain.costs[i] == bidi


# ---------------------------------------------------------------------------
# Dijkstra (weighted): the Δ-stepping kernel on integer and float weights
# ---------------------------------------------------------------------------
class TestWeightedAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("integral", [True, False])
    def test_dijkstra_costs_and_paths(self, seed, integral):
        rng = random.Random(1000 * (2 if integral else 3) + seed)
        n, edges = random_graph(rng, integral=integral)
        library = build_library(edges, weighted=True)
        sources, dests = query_pairs(rng, n)
        result = library.solve(sources, dests, want_cost=True, want_path=True)
        reference_cache: dict[int, list] = {}
        for i in range(len(sources)):
            s, d = int(sources[i]), int(dests[i])
            src_known = s < n and library.domain.encode(np.asarray([s]))[0] >= 0
            dst_known = d < n and library.domain.encode(np.asarray([d]))[0] >= 0
            if not (src_known and dst_known):
                assert not result.connected[i]
                continue
            if s not in reference_cache:
                reference_cache[s] = bellman_ford(n, edges, s)
            reference = reference_cache[s][d]
            if reference is None:
                assert not result.connected[i]
            else:
                assert result.connected[i]
                assert result.costs[i] == pytest.approx(reference, abs=1e-9)
        check_paths(result, edges, sources, dests, costs_are_hops=False)

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_integer_weights_match_reference(self, seed):
        # weights 1..10^6 spread the search over many Δ-stepping buckets
        rng = random.Random(7000 + seed)
        n, edges = random_graph(rng, integral=True)
        edges = [(u, v, rng.randint(1, 10**6)) for u, v, _ in edges]
        library = build_library(edges, weighted=True)
        sources, dests = query_pairs(rng, n)
        result = library.solve(sources, dests, want_cost=True, want_path=True)
        src_ids, dst_ids, valid = library.encode_endpoints(sources, dests)
        for i in np.flatnonzero(valid):
            reference = bellman_ford(n, edges, int(sources[i]))[int(dests[i])]
            assert result.connected[i] == (reference is not None)
            if reference is not None:
                assert result.costs[i] == reference
        check_paths(result, edges, sources, dests, costs_are_hops=False)


# ---------------------------------------------------------------------------
# the parallel partitioning must not change any answer
# ---------------------------------------------------------------------------
class TestWorkerInvariance:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_workers_do_not_change_results(self, seed, weighted):
        rng = random.Random(500 + seed)
        n, edges = random_graph(rng, integral=True)
        library = build_library(edges, weighted=weighted)
        sources, dests = query_pairs(rng, n, count=64)
        base = library.solve(sources, dests, want_cost=True, want_path=True)
        for workers in (2, 4):
            pool = ExecPool(workers)
            run = library.solve(
                sources, dests, want_cost=True, want_path=True, par=pool.context()
            )
            pool.shutdown(wait=True)
            stats = pool.stats.snapshot()  # one decision: pooled or serial
            assert {**stats["parallel_ops"], **stats["serial_ops"]} == {"paths": 1}
            assert np.array_equal(base.connected, run.connected)
            assert np.array_equal(base.costs, run.costs)
            for p1, p2 in zip(base.paths, run.paths):
                assert (p1 is None) == (p2 is None)
                if p1 is not None:
                    assert np.array_equal(p1, p2)


@pytest.mark.slow
class TestLargeRandomSweep:
    """Wider sweep kept out of tier-1 (`pytest -m slow` to run)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_sweep(self, seed):
        rng = random.Random(90_000 + seed)
        n, edges = random_graph(rng, integral=seed % 2 == 0)
        library = build_library(edges, weighted=True)
        sources, dests = query_pairs(rng, n, count=80)
        result = library.solve(sources, dests, want_cost=True, want_path=True)
        check_paths(result, edges, sources, dests, costs_are_hops=False)
