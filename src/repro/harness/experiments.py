"""Experiment drivers regenerating the paper's tables and figures.

Each function returns plain data rows (lists of dicts) so that the
pytest-benchmark modules, the examples and EXPERIMENTS.md all share one
implementation.  The experiment ids map to DESIGN.md's index:

* :func:`table1` — Table 1, graph sizes per scale factor;
* :func:`fig1a` — Figure 1a, average per-query latency of Q13
  (unweighted) and the Q14 variant (weighted) per scale factor;
* :func:`fig1b` — Figure 1b, average time *per pair* of batched Q13 at
  varying batch sizes.

The paper runs 1000 repetitions per scale factor (100 for SF 100/300);
these drivers default to far fewer so a pure-Python run finishes in
benchmark time budgets — pass ``pairs_per_sf`` to change that.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api import Database
from ..ldbc import (
    DEFAULT_SCALE,
    SocialNetwork,
    generate,
    make_database,
    random_pairs,
    run_q13,
    run_q13_batch,
    run_q14_variant,
)
from .network import NetworkModel
from .timing import LatencyStats, time_call

DEFAULT_SCALE_FACTORS: tuple[int, ...] = (1, 3, 10, 30)
FULL_SCALE_FACTORS: tuple[int, ...] = (1, 3, 10, 30, 100, 300)
DEFAULT_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


def build_networks(
    scale_factors: Sequence[int],
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
) -> dict[int, SocialNetwork]:
    return {sf: generate(sf, scale=scale, seed=seed) for sf in scale_factors}


def table1(
    scale_factors: Sequence[int] = FULL_SCALE_FACTORS,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
) -> list[dict]:
    """Regenerate Table 1: vertices/edges per scale factor.

    ``paper_vertices``/``paper_edges`` carry the original numbers so the
    output can assert that the scaled ratios match.
    """
    from ..ldbc import TABLE1_SIZES

    rows = []
    for sf in scale_factors:
        network = generate(sf, scale=scale, seed=seed)
        paper_vertices, paper_edges = TABLE1_SIZES[int(sf)]
        rows.append(
            {
                "scale_factor": sf,
                "vertices": network.num_persons,
                "edges": network.num_directed_edges,
                "paper_vertices": paper_vertices,
                "paper_edges": paper_edges,
                "scale": scale,
            }
        )
    return rows


def fig1a(
    scale_factors: Sequence[int] = DEFAULT_SCALE_FACTORS,
    *,
    pairs_per_sf: int = 20,
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
    network_model: Optional[NetworkModel] = None,
    databases: Optional[dict[int, Database]] = None,
) -> list[dict]:
    """Regenerate Figure 1a: average latency per query, per scale factor.

    One row per (scale factor, query) with the LatencyStats of
    ``pairs_per_sf`` single-pair executions, parameters uniform over the
    person ids — the paper's protocol, at reduced repetition count.
    """
    rows = []
    for sf in scale_factors:
        network = generate(sf, scale=scale, seed=seed)
        db = databases[sf] if databases else make_database(network)
        pairs = random_pairs(network, pairs_per_sf, seed=seed + sf)
        for query_name, runner in (
            ("Q13 / unweighted S.P.", lambda s, d: run_q13(db, s, d)),
            (
                "Q14 (variant) / weighted S.P.",
                lambda s, d: run_q14_variant(db, s, d),
            ),
        ):
            samples = []
            network_extra = 0.0
            for source, dest in pairs:
                elapsed, _ = time_call(lambda: runner(source, dest))
                samples.append(elapsed)
            stats = LatencyStats.from_samples(samples)
            row = {
                "scale_factor": sf,
                "query": query_name,
                "stats": stats,
                "avg_latency_s": stats.mean,
            }
            if network_model is not None:
                row["avg_latency_with_network_s"] = (
                    stats.mean + network_model.round_trip_seconds
                )
            rows.append(row)
    return rows


def fig1b(
    scale_factors: Sequence[int] = DEFAULT_SCALE_FACTORS,
    *,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    repeats: int = 3,
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
    databases: Optional[dict[int, Database]] = None,
) -> list[dict]:
    """Regenerate Figure 1b: average time per pair at varying batch sizes.

    For each scale factor and batch size k, runs batched Q13 over k
    uniform pairs and reports latency / k — the paper's amortization
    metric.  The decrease should be near-linear in k because one CSR
    build serves the whole batch.  Each repeat times every batch size in
    turn, so a slow spell of the machine lands on all points alike.
    """
    rows = []
    for sf in scale_factors:
        network = generate(sf, scale=scale, seed=seed)
        db = databases[sf] if databases else make_database(network)
        samples: dict[int, list[float]] = {b: [] for b in batch_sizes}
        for repeat in range(repeats):
            for batch_size in batch_sizes:
                pairs = random_pairs(
                    network, batch_size, seed=seed + sf * 1000 + repeat
                )
                elapsed, _ = time_call(lambda: run_q13_batch(db, pairs))
                samples[batch_size].append(elapsed / batch_size)
        for batch_size in batch_sizes:
            stats = LatencyStats.from_samples(samples[batch_size])
            rows.append(
                {
                    "scale_factor": sf,
                    "batch_size": batch_size,
                    "stats": stats,
                    "avg_latency_per_pair_s": stats.mean,
                }
            )
    return rows


def format_table(rows: list[dict], columns: Sequence[str]) -> str:
    """Plain-text table rendering for examples and EXPERIMENTS.md."""
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
