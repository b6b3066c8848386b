"""Ablation A6: unidirectional vs bidirectional BFS on a prepared graph.

The paper expects "to significantly improve the BFS implementation"
(Section 4).  Bidirectional search is that improvement for the
single-pair case: with the CSR (and its transpose) already prepared — a
graph index — the per-query work drops from O(b^d) to O(b^(d/2))
explored vertices.  The engine makes this choice itself: outside the
lane kernel's batches, every unweighted source group with one distinct
target on an indexed library runs bidirectional search, everything else
forward BFS.  This ablation times the two kernels the choice is between,
on the same pairs.

Path-free batches of at least ``LANE_MIN_PAIRS`` distinct pairs on an
indexed library run the lane kernel, which answers up to 64 pairs per
bit-parallel bidirectional traversal.
:func:`test_lanes_against_per_pair_search` times it against one
bidirectional search per pair at 1–256 pairs and writes the table to
``BENCH_lanes.json`` (``REPRO_BENCH_LANES_OUT`` names the path); it is
the evidence for :data:`~repro.graph.LANE_MIN_PAIRS`.

Weighted single-target groups on an indexed library meet in the middle
too (:func:`~repro.graph.bidirectional_dijkstra`).
:func:`test_weighted_forward_against_bidirectional` times forward
against bidirectional Δ-stepping pair by pair on the bench graph with
Q14's integer weights, asserts equal costs and adds the table to
``BENCH_lanes.json`` under ``weighted``.  Tier-1 asserts no speed floor
on it.
"""

import json
import os
import statistics
import sys
import time

import numpy as np
import pytest

from repro.graph import (
    LANE_MIN_PAIRS,
    LANE_WIDTH,
    GraphLibrary,
    bfs,
    bidirectional_dijkstra,
    bidirectional_distance,
    dijkstra,
    lane_distances,
)

from conftest import SCALE_FACTORS, bench_out_path

LANES_OUT = bench_out_path("REPRO_BENCH_LANES_OUT", "BENCH_lanes.json")
BATCH_SIZES = (1, 2, 4, 8, 16, 64, 256)
#: timed batches per size; each point is the median
BATCH_REPEATS = 7
#: weighted pairs timed, each the median of BATCH_REPEATS runs per search
WEIGHTED_PAIRS = 16
#: what the tests of this module have measured, written out after each
REPORT: dict = {}


def _write_report(library, **tables) -> None:
    REPORT.update(tables)
    report = {
        "benchmark": "lanes_vs_per_pair",
        "graph": {
            "vertices": int(library.csr.num_vertices),
            "edges": int(library.csr.num_edges),
        },
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "repeats": BATCH_REPEATS,
        "lane_min_pairs": LANE_MIN_PAIRS,
        **REPORT,
    }
    LANES_OUT.write_text(json.dumps(report, indent=2) + "\n")


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


def _lanes(library, sources, targets):
    return np.concatenate(
        [
            lane_distances(
                library.csr,
                library.reverse,
                sources[i : i + LANE_WIDTH],
                targets[i : i + LANE_WIDTH],
            )
            for i in range(0, len(sources), LANE_WIDTH)
        ]
    )


def _per_pair(library, sources, targets):
    found = [
        bidirectional_distance(library.csr, library.reverse, int(s), int(t))[0]
        for s, t in zip(sources, targets)
    ]
    return np.asarray([-1 if d is None else d for d in found], dtype=np.int64)


def _timed(run, *args):
    start = time.perf_counter()
    result = run(*args)
    return time.perf_counter() - start, result


def test_lanes_against_per_pair_search(prepared, networks, capsys):
    library, _ = prepared
    network = networks[max(SCALE_FACTORS)]
    rng = np.random.default_rng(43)
    rows = []
    for size in BATCH_SIZES:
        lanes_s, pairs_s = [], []
        for repeat in range(BATCH_REPEATS):
            sources = library.domain.encode(rng.choice(network.person_ids, size=size))
            targets = library.domain.encode(rng.choice(network.person_ids, size=size))
            # alternate which kernel runs first, so neither always runs warm
            order = (_lanes, _per_pair) if repeat % 2 == 0 else (_per_pair, _lanes)
            timed = {run: _timed(run, library, sources, targets) for run in order}
            assert np.array_equal(timed[_lanes][1], timed[_per_pair][1])
            lanes_s.append(timed[_lanes][0])
            pairs_s.append(timed[_per_pair][0])
        lanes_ms = statistics.median(lanes_s) * 1e3
        pairs_ms = statistics.median(pairs_s) * 1e3
        rows.append(
            {
                "pairs": size,
                "lanes_ms": round(lanes_ms, 3),
                "per_pair_ms": round(pairs_ms, 3),
                "speedup": round(pairs_ms / lanes_ms, 2),
            }
        )
    _write_report(library, rows=rows)
    with capsys.disabled():
        table = ", ".join(
            f"{r['pairs']}: {r['lanes_ms']} / {r['per_pair_ms']}" for r in rows
        )
        print(f"\nlanes vs per-pair (median ms): {table}")
    # four words of lanes against 256 searches: a several-fold margin
    assert rows[-1]["lanes_ms"] < rows[-1]["per_pair_ms"]


def test_weighted_forward_against_bidirectional(networks, capsys):
    network = networks[max(SCALE_FACTORS)]
    src, dst, _, weights = network.directed_edges()
    # Q14's integer costs (CAST(weight * 10 AS bigint)): exact sums, so
    # the two searches must agree to the unit.  With DOUBLE weights two
    # paths may tie to within rounding and the searches sum different ones
    library = GraphLibrary(src, dst).with_weights(np.rint(weights * 10).astype(np.int64))
    backward = library.reverse  # built once, like a graph index's
    rng = np.random.default_rng(47)
    ids = library.domain.encode(rng.choice(network.person_ids, size=2 * WEIGHTED_PAIRS))
    rows = []
    for source, target in zip(ids[0::2].tolist(), ids[1::2].tolist()):
        forward_s, meeting_s = [], []
        for repeat in range(BATCH_REPEATS):
            runs = {
                "forward": lambda: dijkstra(
                    library.csr, source, np.asarray([target])
                ).cost(target),
                "bidirectional": lambda: bidirectional_dijkstra(
                    library.csr, backward, source, target
                )[0],
            }
            # alternate which search runs first, so neither always runs warm
            order = sorted(runs, reverse=repeat % 2 == 1)
            timed = {name: _timed(runs[name]) for name in order}
            assert timed["forward"][1] == timed["bidirectional"][1]
            forward_s.append(timed["forward"][0])
            meeting_s.append(timed["bidirectional"][0])
        forward_ms = statistics.median(forward_s) * 1e3
        meeting_ms = statistics.median(meeting_s) * 1e3
        rows.append(
            {
                "cost": timed["forward"][1],
                "forward_ms": round(forward_ms, 3),
                "bidirectional_ms": round(meeting_ms, 3),
                "speedup": round(forward_ms / meeting_ms, 2),
            }
        )
    _write_report(library, weighted=rows)
    with capsys.disabled():
        speedups = sorted(row["speedup"] for row in rows)
        print(
            f"\nweighted forward vs bidirectional Δ-stepping, {len(rows)} pairs: "
            f"median speedup {statistics.median(speedups)}x "
            f"(range {speedups[0]}–{speedups[-1]}x)"
        )
