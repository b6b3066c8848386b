"""Experiment: Figure 1b — latency per pair at varying batch sizes.

The paper: "The second experiment repeats the execution of Query 13, but
grouping together multiple pairs <source, destination> at varying batch
sizes ... the execution time decreases almost linearly and, for larger
batch sizes, it finally amortizes the cost of constructing the
underlying graph representation."

Batched Q13 here REACHES over a pairs parameter table, so one statement
builds the CSR once and answers the whole batch.
"""

import pytest

from repro.harness import fig1b, format_table
from repro.ldbc import random_pairs, run_q13_batch

from conftest import BENCH_SCALE, SCALE_FACTORS

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
#: Repeats per point; each point is the median of them, so one slow
#: repeat cannot reorder neighbouring batch sizes.
REPEATS = 7


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_bench_q13_batch(benchmark, networks, databases, batch_size):
    """One Figure 1b point per batch size, at the largest bench SF."""
    sf = max(SCALE_FACTORS)
    db = databases[sf]
    pairs = random_pairs(networks[sf], batch_size, seed=300 + batch_size)
    benchmark(lambda: run_q13_batch(db, pairs))


def test_fig1b_reproduction_report(databases, capsys):
    """Regenerate the Figure 1b series and check the amortization shape."""
    rows = fig1b(
        scale_factors=SCALE_FACTORS,
        batch_sizes=BATCH_SIZES,
        repeats=REPEATS,
        scale=BENCH_SCALE,
        databases=databases,
    )
    for row in rows:
        row["per_pair_ms"] = round(row["stats"].median * 1000, 3)
    with capsys.disabled():
        print("\n=== Figure 1b (avg time per pair vs batch size) ===")
        print(
            format_table(
                rows, columns=("scale_factor", "batch_size", "per_pair_ms")
            )
        )

    # no graph index here: every search runs forward, no transpose is built
    for db in databases.values():
        traversals = db.cache_stats()["graph_index_cache"]
        assert traversals["forward_traversals"] > 0
        assert traversals["bidirectional_pairs"] == traversals["transpose_builds"] == 0
    series: dict[int, dict[int, float]] = {}
    for row in rows:
        series.setdefault(row["scale_factor"], {})[row["batch_size"]] = row[
            "stats"
        ].median
    for sf, points in series.items():
        smallest, largest = min(BATCH_SIZES), max(BATCH_SIZES)
        # the paper's claim: near-linear decrease of per-pair time; even
        # allowing noise, 128-pair batches must beat singletons by >= 4x
        assert points[largest] < points[smallest] / 4, (
            f"SF {sf}: batching did not amortize ({points})"
        )
        # and the curve is (weakly) monotone between the extremes
        assert points[largest] == min(points.values())
