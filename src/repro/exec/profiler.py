"""Per-operator execution profiling.

``Database.profile(sql)`` runs a query with timing instrumentation and
renders the physical plan annotated with inclusive/exclusive wall time
and output cardinality per operator — plus the optimizer's *estimated*
cardinality next to the actual one, so estimation errors are visible at
operator granularity.  This is the tool behind the paper's central
observation that graph construction dominates query time (our A2
ablation, at operator granularity).

Operators whose actual output cardinality deviates from the optimizer's
estimate by :data:`MISESTIMATE_FACTOR` (10x) or more in either direction
are flagged ``MISESTIMATE`` in the report and collected in
:attr:`Profiler.misestimates` — the hook adaptive re-optimization will
build on (a flagged plan is a re-planning candidate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..plan import physical as pp

#: Estimated-vs-actual cardinality ratio (either direction) at which an
#: operator is flagged as misestimated.
MISESTIMATE_FACTOR = 10.0


def misestimate_ratio(estimated: float, actual: float) -> float:
    """How far off an estimate was, as a symmetric >=1 factor.

    Both sides are floored at one row so empty results compare against
    "one row", not zero — an estimate of 3 rows that produced 0 is fine,
    an estimate of 5000 that produced 0 is a 5000x miss.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated, actual) / min(estimated, actual)


def _per_op(counts: dict) -> str:
    """`` (group_by=3 join=1)`` detail for the kernel-counter line."""
    if not counts:
        return ""
    body = " ".join(f"{op}={counts[op]}" for op in sorted(counts))
    return f" ({body})"




@dataclass
class NodeStats:
    """Timing record of one plan-node execution."""

    inclusive: float = 0.0
    children: float = 0.0
    rows: int = 0
    calls: int = 0

    @property
    def exclusive(self) -> float:
        return max(self.inclusive - self.children, 0.0)


class Profiler:
    """Collects per-node stats during one statement execution."""

    def __init__(self) -> None:
        self.stats: dict[int, NodeStats] = {}
        self._stack: list[int] = []
        #: Set by Database.profile(): whether this statement's plan came
        #: from the plan cache, and the cache counters to report.
        self.plan_cache_hit: bool | None = None
        self.cache_stats: dict | None = None
        #: Vectorized-kernel hit counters (cumulative, like the
        #: cache counters) — set by Database.profile().
        self.kernel_stats: dict | None = None
        #: Morsel-parallel execution counters (worker pool config,
        #: parallel/serial op decisions, per-morsel timings) — set by
        #: Database.profile().
        self.parallel_stats: dict | None = None
        #: Compressed-storage counters (zone-map morsel skipping,
        #: factorize resting-code hits) — set by Database.profile().
        self.storage_stats: dict | None = None
        #: Memory-budget counters (budget, spill decisions, streamed
        #: morsels, external-sort runs) — set by Database.profile().
        self.memory_stats: dict | None = None
        #: ``(operator name, estimated rows, actual rows-per-call)`` for
        #: every operator flagged by :func:`misestimate_ratio` — filled
        #: by :meth:`render`; groundwork for adaptive re-optimization.
        self.misestimates: list[tuple[str, float, float]] = []

    def run(self, plan: pp.PhysicalNode, handler, ctx):
        """Execute ``handler(plan, ctx)`` under timing instrumentation."""
        key = id(plan)
        self._stack.append(key)
        start = time.perf_counter()
        try:
            batch = handler(plan, ctx)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
        stats = self.stats.setdefault(key, NodeStats())
        stats.inclusive += elapsed
        stats.calls += 1
        stats.rows += batch.num_rows
        if self._stack:
            parent = self.stats.setdefault(self._stack[-1], NodeStats())
            parent.children += elapsed
        return batch

    # ------------------------------------------------------------------
    def render(self, plan: pp.PhysicalNode) -> str:
        """The plan tree annotated with times and cardinalities, plus a
        cache footer when the statement ran through the plan cache."""
        lines: list[str] = []
        self.misestimates = []
        self._render_node(plan, 0, lines)
        if self.plan_cache_hit is not None:
            lines.append(
                "plan cache: " + ("HIT" if self.plan_cache_hit else "MISS")
            )
        if self.cache_stats is not None:
            plan_stats = self.cache_stats.get("plan_cache", {})
            graph_stats = self.cache_stats.get("graph_index_cache", {})
            lines.append(
                f"plan cache counters: hits={plan_stats.get('hits', 0)} "
                f"misses={plan_stats.get('misses', 0)}"
            )
            lines.append(
                f"graph index cache counters: hits={graph_stats.get('hits', 0)} "
                f"misses={graph_stats.get('misses', 0)}"
            )
        if self.kernel_stats is not None:
            lines.append(
                "vectorized kernels: "
                f"hits={self.kernel_stats.get('hit_total', 0)}"
                f"{_per_op(self.kernel_stats.get('hits', {}))}"
            )
        if self.parallel_stats is not None:
            stats = self.parallel_stats
            morsels = stats.get("morsel_total", 0)
            seconds = stats.get("morsel_seconds_total", 0.0)
            avg_ms = (seconds / morsels * 1000) if morsels else 0.0
            max_ms = max(stats.get("morsel_max_ms", {}).values(), default=0.0)
            lines.append(
                f"parallel kernels: workers={stats.get('workers', 1)} "
                f"parallel_ops={stats.get('parallel_op_total', 0)}"
                f"{_per_op(stats.get('parallel_ops', {}))} "
                f"serial_ops={stats.get('serial_op_total', 0)} "
                f"morsels={morsels}{_per_op(stats.get('morsels', {}))} "
                f"avg_morsel={avg_ms:.2f}ms max_morsel={max_ms:.2f}ms"
            )
        if self.storage_stats is not None:
            stats = self.storage_stats
            fact = stats.get("factorize", {})
            lines.append(
                "storage: "
                f"zone_scans={stats.get('zone_scans', 0)} "
                f"morsels_skipped={stats.get('morsels_skipped', 0)}/"
                f"{stats.get('morsels_total', 0)} "
                f"factorize_encodes={fact.get('encodes', 0)} "
                f"resting_hits={fact.get('resting_hits', 0)}"
            )
        if self.memory_stats is not None:
            stats = self.memory_stats
            budget = stats.get("memory_budget")
            decisions = stats.get("decisions", ())
            spilled = sum(1 for d in decisions if d.get("spill"))
            lines.append(
                "memory: "
                f"budget={'unlimited' if budget is None else budget} "
                f"query_decisions={len(decisions)} query_spills={spilled} "
                f"spills={stats.get('spills', 0)} "
                f"partitions={stats.get('partitions', 0)} "
                f"streams={stats.get('streams', 0)} "
                f"stream_morsels={stats.get('stream_morsels', 0)} "
                f"sort_runs={stats.get('sort_runs', 0)} "
                f"spill_bytes={stats.get('bytes_written', 0)}"
            )
        return "\n".join(lines)

    def _render_node(self, node: pp.PhysicalNode, depth: int, lines: list[str]):
        name = pp.node_name(node)
        detail = pp.node_detail(node)  # one format shared with EXPLAIN
        stats = self.stats.get(id(node))
        if stats is None:
            annotation = "(not executed)"
        else:
            # estimated vs actual cardinality, per operator
            annotation = (
                f"self={stats.exclusive * 1000:.2f}ms "
                f"total={stats.inclusive * 1000:.2f}ms "
                f"rows={stats.rows} est_rows={node.est_rows:.0f}"
                + (f" calls={stats.calls}" if stats.calls > 1 else "")
            )
            actual = stats.rows / stats.calls  # per-call, like est_rows
            ratio = misestimate_ratio(node.est_rows, actual)
            if ratio >= MISESTIMATE_FACTOR:
                annotation += f" MISESTIMATE({ratio:.0f}x)"
                self.misestimates.append((name, node.est_rows, actual))
        lines.append(f"{'  ' * depth}{name}{detail}  {annotation}")
        for child in node.children:
            self._render_node(child, depth + 1, lines)
