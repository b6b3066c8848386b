"""Reference planner for differential tests of the optimizer.

Binds the exact SQL text (no plan cache, no literal normalization) and
lowers the bound plan with the optimizer's own lowering, after running
only the logical passes the caller names:

* ``passes=()`` — the plan exactly as bound: no pushdown, no graph-join
  unfolding, no join reordering.  The equivalence suites compare the
  optimized engine against this.
* ``passes=(pushdown,)`` — filter pushdown and graph-join unfolding but
  no join reordering: the baseline that isolates the reorder pass.

Subquery plans inside expressions are lowered with the same passes.
"""

from __future__ import annotations

from repro.plan import Binder
from repro.plan.optimizer import Estimator, _Lowering, collect_origins
from repro.sql import parse_statement


class _ReferenceLowering(_Lowering):
    def __init__(self, catalog, stats, est, passes):
        super().__init__(catalog, stats, est)
        self.passes = passes

    def _subplan(self, plan):
        return lower(plan, self.catalog, self.stats, self.passes)


def lower(plan, catalog, stats=None, passes=()):
    """Lower a bound logical plan after running only ``passes``."""
    est = Estimator(catalog, stats, collect_origins(plan))
    for logical_pass in passes:
        plan = logical_pass(plan)
    return _ReferenceLowering(catalog, stats, est, tuple(passes)).positional(plan)


def reference_plan(db, sql: str, passes=()):
    """The reference physical plan of one query against ``db``."""
    bound = Binder(db.catalog).bind_statement(parse_statement(sql))
    return lower(bound.plan, db.catalog, db.stats, passes)


def run_plan(db, plan, params=()) -> list[tuple]:
    """Execute a physical plan against ``db`` and return its rows."""
    return db._execute_query_plan(plan, tuple(params)).rows()


def reference_rows(db, sql: str, params=(), passes=()) -> list[tuple]:
    """Plan ``sql`` with the reference planner and run it on ``db``."""
    return run_plan(db, reference_plan(db, sql, passes), params)
