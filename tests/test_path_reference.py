"""Property-based correctness: BFS / Dijkstra / bidirectional search vs
a brute-force Bellman-Ford reference on random graphs.

Bidirectional BFS is checked through SQL on a table with a graph
index, the only place the engine runs it; bidirectional Δ-stepping on a
library marked indexed, against forward Δ-stepping; the lane kernel
against forward BFS pair by pair.  For each random graph the
suite checks, across algorithms and worker counts:

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
from repro.graph import (
    LANE_WIDTH,
    NOT_A_VERTEX,
    PARALLEL_MIN_PAIRS,
    GraphLibrary,
    bfs,
    bidirectional_dijkstra,
    build_csr,
    dijkstra,
    lane_distances,
)


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
        # an indexed table answers single-target pairs bidirectionally;
        # compare with forward BFS and Bellman-Ford through SQL, on the
        # clean index and on a live overlay, for 1 and 4 exec workers
        rng = random.Random(100 + seed)
        n, edges = random_graph(rng, integral=True)
        edges = [(u, v, row) for row, (u, v, _) in enumerate(edges)]
        edges.append((None, 0, len(edges)))  # a NULL endpoint is no edge
        pairs = index_pairs(rng, n, edges)
        databases = [indexed_database(edges, workers) for workers in (1, 4)]
        for phase in ("clean", "overlay"):
            if phase == "overlay":
                edges = churn(rng, n, edges, databases)
            answers = [sql_hop_answers(db, pairs) for db in databases]
            assert answers[0] == answers[1], "worker count changed a result"
            check_hop_answers(answers[0], pairs, n, edges)
        for db in databases:
            assert db.cache_stats()["graph_index_cache"]["bidirectional_pairs"] > 0
            db.close()


class TestLanesAgainstBFS:
    """The lane kernel answers exactly what forward BFS answers, pair by
    pair, for any worker count."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("degree", [(0.5, 3), (8, 16)])
    def test_lanes_match_forward_bfs(self, seed, degree):
        # sparse graphs leave pairs unreachable and take many rounds;
        # on dense ones most lanes meet within two
        rng = random.Random(3000 + seed)
        n = rng.randint(20, 60)
        low, high = degree
        edges = [
            (rng.randrange(n), rng.randrange(n), 1)
            for _ in range(rng.randint(int(low * n), high * n))
        ]
        library = build_library(edges, weighted=False)
        library.indexed = True  # as the graph-index cache marks it
        sources, dests = query_pairs(rng, n, count=200)
        # self pairs and duplicates of earlier pairs
        sources = np.concatenate([sources, sources[:10], sources[10:20]])
        dests = np.concatenate([dests, dests[:10], sources[10:20]])
        src_ids, dst_ids, valid = library.encode_endpoints(sources, dests)
        assert (src_ids == NOT_A_VERTEX).any() and (src_ids == dst_ids)[valid].any()
        runs = []
        for workers in (1, 4):
            pool = ExecPool(workers)
            runs.append(
                library.solve_encoded(
                    src_ids, dst_ids, want_cost=True, par=pool.context()
                )
            )
            pool.shutdown(wait=True)
        distinct = len(set(zip(src_ids[valid].tolist(), dst_ids[valid].tolist())))
        assert distinct > LANE_WIDTH  # several words
        for run in runs:
            assert run.lane_pairs == distinct
            assert run.bidirectional_pairs == run.forward_traversals == 0
        assert np.array_equal(runs[0].connected, runs[1].connected)
        assert np.array_equal(runs[0].costs, runs[1].costs)
        for i in range(len(src_ids)):
            if not valid[i]:
                assert not runs[0].connected[i] and runs[0].costs[i] == -1
                continue
            s, d = int(src_ids[i]), int(dst_ids[i])
            want = bfs(library.csr, s, np.asarray([d])).cost(d)
            assert runs[0].connected[i] == (want is not None)
            assert runs[0].costs[i] == (-1 if want is None else want)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_word_with_duplicate_lanes(self, seed):
        # a long chain with shortcuts needs many rounds per side; lanes
        # holding the same pair, or a self pair, answer alike
        rng = random.Random(4000 + seed)
        n = 80
        edges = [(v, v + 1, 1) for v in range(n - 1)]
        edges += [(rng.randrange(n), rng.randrange(n), 1) for _ in range(6)]
        library = build_library(edges, weighted=False)
        backward = library.reverse
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
        pairs += pairs[:12] + [(7, 7), (n - 1, 0)]
        ids = library.domain.encode(np.asarray(pairs, dtype=np.int64).ravel())
        sources, targets = ids[0::2], ids[1::2]
        found = lane_distances(library.csr, backward, sources, targets)
        for s, t, distance in zip(sources.tolist(), targets.tolist(), found.tolist()):
            want = bfs(library.csr, s, np.asarray([t])).cost(t)
            assert distance == (-1 if want is None else want)
        assert found[-2] == 0


HOPS_BATCH = (
    "SELECT p.i, CHEAPEST SUM(1) AS hops FROM pairs p "
    "WHERE p.a REACHES p.b OVER edges EDGE (s, d)"
)
HOPS_BATCH_PATH = (
    "SELECT p.i, CHEAPEST SUM(e: 1) AS (hops, path) FROM pairs p "
    "WHERE p.a REACHES p.b OVER edges e EDGE (s, d)"
)
HOPS_POINT = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER edges EDGE (s, d)"
HOPS_POINT_PATH = (
    "SELECT CHEAPEST SUM(e: 1) AS (hops, path) "
    "WHERE ? REACHES ? OVER edges e EDGE (s, d)"
)


def index_pairs(rng: random.Random, n: int, edges, count: int = 64):
    """Query pairs over ids 0..n+1 (n and n+1 are never vertices) plus
    self pairs, NULL endpoints and duplicates of earlier pairs."""
    pairs = [(rng.randrange(n + 2), rng.randrange(n + 2)) for _ in range(count)]
    pairs += [(edges[0][0], edges[0][0]), (n, n), (None, 0), (0, None)]
    pairs += rng.sample(pairs, 8)
    return pairs


def indexed_database(edges, workers: int):
    from repro import Database

    db = Database(exec_workers=workers)
    db.execute("CREATE TABLE edges (s INT, d INT, id INT)")
    db.execute("CREATE TABLE pairs (i INT, a INT, b INT)")
    db.appender("edges").append([list(column) for column in zip(*edges)])
    db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
    return db


def churn(rng: random.Random, n: int, edges, databases):
    """DELETE every copy of one edge and INSERT three, on each database;
    the index keeps serving them from its overlay (no compaction)."""
    start = len(edges)
    added = [(rng.randrange(n), rng.randrange(n), start + k) for k in range(3)]
    victim = next(edge for edge in edges if edge[0] is not None)
    for db in databases:
        db.execute("DELETE FROM edges WHERE s = ? AND d = ?", victim[:2])
        db.execute(
            "INSERT INTO edges VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?)",
            [value for edge in added for value in edge],
        )
        state = db.graph_overlay_info()["indices"]["gi"]
        assert state["overlay_edges"] + state["tombstones"] > 0
    return [edge for edge in edges if edge[:2] != victim[:2]] + added


def sql_hop_answers(db, pairs):
    """Every pair through the batch and point forms, with and without
    ``AS (cost, path)``; paths as edge rows, so answers compare exactly."""
    db.execute("DELETE FROM pairs")
    db.execute(
        "INSERT INTO pairs VALUES " + ", ".join(["(?, ?, ?)"] * len(pairs)),
        [value for i, (a, b) in enumerate(pairs) for value in (i, a, b)],
    )
    batch = dict(db.execute(HOPS_BATCH).rows())
    batch_path = {
        i: (hops, path.to_rows()) for i, hops, path in db.execute(HOPS_BATCH_PATH).rows()
    }
    point = [db.execute(HOPS_POINT, pair).rows() for pair in pairs]
    point_path = [
        [(hops, path.to_rows()) for hops, path in db.execute(HOPS_POINT_PATH, pair).rows()]
        for pair in pairs
    ]
    return batch, batch_path, point, point_path


def check_hop_answers(answers, pairs, n: int, edges):
    batch, batch_path, point, point_path = answers
    live = [(s, d) for s, d, _ in edges if s is not None and d is not None]
    vertices = {v for edge in live for v in edge}
    forward = build_csr(
        np.asarray([s for s, _ in live], dtype=np.int64),
        np.asarray([d for _, d in live], dtype=np.int64),
        n + 2,
    )
    hop_edges = [(s, d, 1) for s, d in live]
    by_row = {row: (s, d) for s, d, row in edges}
    for i, (a, b) in enumerate(pairs):
        want = None
        if a in vertices and b in vertices:
            want = bellman_ford(n + 2, hop_edges, a)[b]
            assert bfs(forward, a, np.asarray([b])).cost(b) == want
        assert batch.get(i) == want
        assert point[i] == ([] if want is None else [(want,)])
        paths = [batch_path.get(i)] + (point_path[i] or [None])
        for found in paths:
            if want is None:
                assert found is None
                continue
            hops, rows = found
            assert hops == want == len(rows)
            vertex = a
            for s, d, row in rows:
                assert by_row[row] == (s, d) and s == vertex
                vertex = d
            assert vertex == b


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


class TestWeightedBidirectional:
    """An indexed library answers single-target weighted groups by
    bidirectional Δ-stepping: its costs equal forward Δ-stepping's and
    Bellman-Ford's, its paths are shortest paths, and neither depends on
    the worker count."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("integral", [True, False])
    def test_indexed_search_matches_forward(self, seed, integral):
        rng = random.Random(6000 + 2 * seed + integral)
        n, edges = random_graph(rng, integral=integral)
        library = build_library(edges, weighted=True)
        library.indexed = True  # as the graph-index cache marks it
        # one target per source over ids 0..n+1 (n and n+1 are never
        # vertices), a self pair, a source with two targets, and every
        # pair repeated until the call is large enough to be dealt out
        vertex = edges[0][0]
        pairs = [(s, rng.randrange(n + 2)) for s in range(n + 2) if s != vertex]
        pairs += [(vertex, vertex), (edges[0][1], vertex), (edges[0][1], n)]
        sources = np.asarray([s for s, _ in pairs], dtype=np.int64)
        dests = np.asarray([d for _, d in pairs], dtype=np.int64)
        valid = library.encode_endpoints(sources, dests)[2]
        copies = -(-PARALLEL_MIN_PAIRS // int(valid.sum()))
        sources, dests = np.tile(sources, copies), np.tile(dests, copies)
        src_ids, dst_ids, valid = library.encode_endpoints(sources, dests)
        assert (src_ids == NOT_A_VERTEX).any() and (src_ids == dst_ids)[valid].any()
        runs = []
        for workers in (1, 4):
            pool = ExecPool(workers)
            runs.append(
                library.solve_encoded(
                    src_ids, dst_ids, want_cost=True, want_path=True,
                    par=pool.context(),
                )
            )
            pool.shutdown(wait=True)
        first, second = runs
        assert first.bidirectional_pairs > 0
        assert np.array_equal(first.connected, second.connected)
        assert np.array_equal(first.costs, second.costs)
        for p1, p2 in zip(first.paths, second.paths):
            assert (p1 is None) == (p2 is None)
            if p1 is not None:
                assert np.array_equal(p1, p2)
        references: dict[int, list] = {}
        for i in range(len(sources)):
            if not valid[i]:
                assert not first.connected[i] and first.costs[i] == -1
                continue
            s, d = int(src_ids[i]), int(dst_ids[i])
            want = dijkstra(library.csr, s, np.asarray([d])).cost(d)
            assert first.connected[i] == (want is not None)
            assert first.costs[i] == (-1 if want is None else want)
            source = int(sources[i])
            if source not in references:
                references[source] = bellman_ford(n, edges, source)
            reference = references[source][int(dests[i])]
            assert (reference is None) == (want is None)
            if reference is not None:
                assert first.costs[i] == pytest.approx(reference, abs=1e-9)
        check_paths(first, edges, sources, dests, costs_are_hops=False)

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_integer_weights_meet_in_the_middle(self, seed):
        # weights 1..10^6 spread both sides over many buckets
        rng = random.Random(8000 + seed)
        n, edges = random_graph(rng, integral=True)
        edges = [(u, v, rng.randint(1, 10**6)) for u, v, _ in edges]
        library = build_library(edges, weighted=True)
        backward = library.reverse
        for s in range(library.csr.num_vertices):
            for t in range(library.csr.num_vertices):
                want = dijkstra(library.csr, s, np.asarray([t])).cost(t)
                cost, path = bidirectional_dijkstra(library.csr, backward, s, t)
                assert cost == want
                assert (path is None) == (want is None)
                if path is not None:
                    assert sum(edges[row][2] for row in path.tolist()) == want


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
