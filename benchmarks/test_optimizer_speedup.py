"""Experiment: cost-based optimizer wins on the LDBC workload.

Two measurements over one generated social network, each comparing
the engine's optimized plan against a baseline plan built by the test
tree's reference planner (``tests/reference_plan.py``: the bound plan,
lowered by the optimizer's lowering after only the named logical
passes):

* **graph pushdown** — the Figure-1b batch query wrapped in a derived
  table with a selective predicate on the *source* endpoints.  The
  optimizer pushes the predicate through the projection into the graph
  select's input, so the runtime solves shortest paths only for the
  qualifying pairs; the baseline (no logical pass) solves the whole
  batch and filters afterwards.
* **join reordering** — a three-relation join written in a bad
  syntactic order (``persons × persons`` first).  The baseline runs
  the pushdown pass only, so it measures the reorder pass alone:
  pushdown turns the predicates into join conditions, but the first
  join pairs ``persons`` with ``persons``, has no equi key and stays a
  cross product; the optimizer reorders so both joins are equi hash
  joins.

Correctness is asserted on every run (both plans must return identical
results); the speedup assertions require the optimized plan to beat the
unoptimized one.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro import Database
from repro.ldbc import load_into, random_pairs
from repro.plan.optimizer import pushdown

from conftest import SCALE_FACTORS

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from reference_plan import reference_plan, run_plan  # noqa: E402

#: Batch size for the pushdown experiment; only ~1/16 of the pairs
#: survive the source predicate.
BATCH_PAIRS = 128
SELECTIVE_FRACTION = 8
REPEATS = 3

PUSHDOWN_SQL = (
    "SELECT * FROM ("
    "SELECT p.src, p.dst, CHEAPEST SUM(1) AS hops "
    "FROM pairs p "
    "WHERE p.src REACHES p.dst OVER knows EDGE (person1, person2)"
    ") q WHERE q.src <= {cutoff}"
)

REORDER_SQL = (
    "SELECT count(*) FROM persons p1, persons p2, knows k "
    "WHERE p1.id = k.person1 AND k.person2 = p2.id AND p1.id <= {cutoff}"
)


@pytest.fixture(scope="module")
def engines(networks):
    """(network, database) over a mid-size bench network — large enough
    to measure, small enough that the baseline plans (a cross product,
    full-batch traversals) stay tractable."""
    sf = sorted(SCALE_FACTORS)[(len(SCALE_FACTORS) - 1) // 2]
    network = networks[sf]
    db = Database()
    load_into(db, network)
    db.execute("CREATE TABLE pairs (src BIGINT, dst BIGINT)")
    db.table("pairs").insert_rows(random_pairs(network, BATCH_PAIRS, seed=42))
    db.execute("ANALYZE")
    return network, db


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = None
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def _report(title: str, baseline_s: float, optimized_s: float) -> None:
    speedup = baseline_s / optimized_s if optimized_s else float("inf")
    print(f"\n{title}")
    print(f"  unoptimized: {baseline_s * 1000:9.2f} ms")
    print(f"  optimized:   {optimized_s * 1000:9.2f} ms")
    print(f"  speedup:     {speedup:9.2f}x")


class TestGraphPushdown:
    def test_pushed_down_cheapest_path_beats_unoptimized(self, engines, capsys):
        network, optimized = engines
        # cutoff keeping roughly 1/SELECTIVE_FRACTION of the batch
        srcs = sorted(
            row[0] for row in optimized.execute("SELECT src FROM pairs").rows()
        )
        cutoff = srcs[max(0, BATCH_PAIRS // SELECTIVE_FRACTION - 1)]
        sql = PUSHDOWN_SQL.format(cutoff=cutoff)

        # the optimizer must have pushed the predicate below the graph op
        plan = optimized.explain(sql)
        lines = plan.splitlines()
        graph_line = next(i for i, l in enumerate(lines) if "GraphSelect" in l)
        assert any("Filter" in l for l in lines[graph_line:]), plan

        baseline = reference_plan(optimized, sql)
        base_s, base_rows = _best_of(lambda: run_plan(optimized, baseline))
        opt_s, opt_rows = _best_of(lambda: optimized.execute(sql).rows())
        assert sorted(opt_rows) == sorted(base_rows)
        with capsys.disabled():
            _report("graph pushdown (Fig. 1b batch + source predicate)", base_s, opt_s)
        assert opt_s < base_s, (
            f"pushed-down plan ({opt_s * 1000:.2f} ms) must beat the "
            f"unoptimized plan ({base_s * 1000:.2f} ms)"
        )


class TestJoinReorder:
    def test_reordered_join_beats_syntactic_order(self, engines, capsys):
        network, optimized = engines
        ids = network.person_ids
        cutoff = int(ids[len(ids) // 4])
        sql = REORDER_SQL.format(cutoff=cutoff)

        # the optimizer must have eliminated the persons x persons cross
        plan = optimized.explain(sql)
        assert "CrossJoin" not in plan, plan

        baseline = reference_plan(optimized, sql, passes=(pushdown,))
        base_s, base_rows = _best_of(lambda: run_plan(optimized, baseline))
        opt_s, opt_rows = _best_of(lambda: optimized.execute(sql).rows())
        assert opt_rows == base_rows
        with capsys.disabled():
            _report("join reorder (persons x persons x knows)", base_s, opt_s)
        assert opt_s < base_s, (
            f"reordered plan ({opt_s * 1000:.2f} ms) must beat the "
            f"syntactic order ({base_s * 1000:.2f} ms)"
        )
