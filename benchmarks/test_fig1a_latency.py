"""Experiment: Figure 1a — average latency per query vs scale factor.

The paper runs Q13 (unweighted, BFS) and the Q14 variant (weighted,
Dijkstra + radix queue) with uniformly random <source, destination>
parameters, 1000 repetitions per scale factor (100 at SF 100/300), and
reports:

* latency grows with the scale factor (graph construction dominates);
* the two queries differ by roughly 25% at SF 1 shrinking to ~10% at
  larger SFs (their BFS was unoptimized; our BFS is vectorized, so in
  this reproduction the *unweighted* side is the faster one — the gap
  still narrows with scale, which is the paper's structural claim that
  traversal differences wash out as graph-build cost dominates).
"""

import pytest

from repro.harness import fig1a, format_table
from repro.ldbc import random_pairs, run_q13, run_q14_variant

from conftest import BENCH_SCALE, SCALE_FACTORS


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_bench_q13_unweighted(benchmark, networks, databases, sf):
    """Figure 1a, 'Q13 / unweighted S.P.' series."""
    db = databases[sf]
    pairs = random_pairs(networks[sf], 64, seed=100 + sf)
    state = {"i": 0}

    def one_query():
        source, dest = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return run_q13(db, source, dest)

    benchmark(one_query)


@pytest.mark.parametrize("sf", SCALE_FACTORS)
def test_bench_q14_weighted(benchmark, networks, databases, sf):
    """Figure 1a, 'Q14 (variant) / weighted S.P.' series."""
    db = databases[sf]
    pairs = random_pairs(networks[sf], 64, seed=200 + sf)
    state = {"i": 0}

    def one_query():
        source, dest = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return run_q14_variant(db, source, dest)

    benchmark(one_query)


def test_fig1a_reproduction_report(databases, capsys):
    """Regenerate the Figure 1a series and check its shape."""
    rows = fig1a(
        scale_factors=SCALE_FACTORS,
        pairs_per_sf=12,
        scale=BENCH_SCALE,
        databases=databases,
    )
    for row in rows:
        row["avg_ms"] = round(row["avg_latency_s"] * 1000, 3)
    with capsys.disabled():
        print("\n=== Figure 1a (avg latency per query) ===")
        print(format_table(rows, columns=("scale_factor", "query", "avg_ms")))

    by_query = {}
    for row in rows:
        by_query.setdefault(row["query"], {})[row["scale_factor"]] = row[
            "avg_latency_s"
        ]
    # no graph index here: every search runs forward, no transpose is built
    for db in databases.values():
        traversals = db.cache_stats()["graph_index_cache"]
        assert traversals["forward_traversals"] > 0
        assert traversals["bidirectional_pairs"] == traversals["transpose_builds"] == 0
    ordered = sorted(SCALE_FACTORS)
    for series in by_query.values():
        # latency must grow with scale factor (graph build dominates);
        # compare the extremes to stay robust to noise
        assert series[ordered[-1]] > series[ordered[0]]
    # both queries are within an order of magnitude of each other at the
    # largest SF (the paper's 10-25% gap, loosened for a Python substrate)
    largest = ordered[-1]
    q13 = by_query["Q13 / unweighted S.P."][largest]
    q14 = by_query["Q14 (variant) / weighted S.P."][largest]
    assert 0.1 < q13 / q14 < 10
