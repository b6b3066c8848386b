"""Per-operator profiling instrumentation."""

import pytest

from repro import Database
from repro.errors import ExecutionError


class TestProfile:
    def test_returns_result_and_report(self, chain_db):
        result, report = chain_db.profile("SELECT * FROM edges WHERE w = 1")
        assert result.rows() and "Scan edges" in report
        assert "self=" in report and "rows=" in report

    def test_graph_select_annotated(self, chain_db):
        result, report = chain_db.profile(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        )
        assert result.scalar() == 1
        assert "GraphSelect [cheapest=1]" in report

    def test_row_counts_reported(self, chain_db):
        _, report = chain_db.profile("SELECT * FROM edges")
        assert "rows=5" in report

    def test_recursive_cte_call_counts(self):
        db = Database()
        _, report = db.profile(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
            "WHERE n < 4) SELECT count(*) FROM r"
        )
        # the recursive branch executes once per iteration
        assert "calls=" in report

    def test_graph_select_dominates_single_pair(self, chain_db):
        # the paper's headline observation, visible per-operator: the
        # graph operator's self time exceeds the scan's
        import re

        _, report = chain_db.profile(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER edges EDGE (s, d)"
        )
        times = {
            line.strip().split()[0]: float(
                re.search(r"self=([0-9.]+)ms", line).group(1)
            )
            for line in report.splitlines()
            if "self=" in line
        }
        assert times["GraphSelect"] >= times["Scan"]

    def test_profile_rejects_ddl(self, chain_db):
        with pytest.raises(ExecutionError):
            chain_db.profile("CREATE TABLE t (x INT)")

    def test_profile_with_params(self, chain_db):
        result, _ = chain_db.profile(
            "SELECT count(*) FROM edges WHERE s = ?", (1,)
        )
        assert result.scalar() == 2

    def test_plain_execute_unaffected(self, chain_db):
        # no profiler attached by default
        result = chain_db.execute("SELECT count(*) FROM edges")
        assert result.scalar() == 5


class TestMisestimateFlag:
    """Operators whose actual cardinality is >=10x off the estimate are
    flagged — the hook adaptive re-optimization builds on."""

    def test_ratio_is_symmetric_and_floored(self):
        from repro.exec.profiler import misestimate_ratio

        assert misestimate_ratio(100, 10) == pytest.approx(10.0)
        assert misestimate_ratio(10, 100) == pytest.approx(10.0)
        assert misestimate_ratio(0, 0) == pytest.approx(1.0)
        assert misestimate_ratio(5000, 0) == pytest.approx(5000.0)
        assert misestimate_ratio(3, 0) == pytest.approx(3.0)

    def test_underestimate_is_flagged(self):
        # 1000 identical keys, no ANALYZE: the heuristic equality
        # selectivity estimates a handful of rows, the filter returns 1000
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES " + ", ".join("(5)" for _ in range(1000)))
        _, report = db.profile("SELECT * FROM t WHERE x = 5")
        assert "MISESTIMATE(" in report

    def test_accurate_estimate_not_flagged(self, chain_db):
        chain_db.execute("ANALYZE edges")
        _, report = chain_db.profile("SELECT * FROM edges")
        assert "MISESTIMATE" not in report

    def test_misestimates_collected_programmatically(self):
        from repro.exec.operators import ExecContext, execute_plan
        from repro.exec.profiler import Profiler

        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES " + ", ".join("(7)" for _ in range(500)))
        entry = db.prepare_plan("SELECT * FROM t WHERE x = 7")
        profiler = Profiler()
        ctx = ExecContext(db, (), profiler=profiler)
        execute_plan(entry.plan, ctx)
        profiler.render(entry.plan)
        assert profiler.misestimates
        name, estimated, actual = profiler.misestimates[0]
        assert actual / max(estimated, 1.0) >= 10


class TestFallbackReasonBreakdown:
    """The shapes that once fell back to a row-at-a-time body (NaN sort
    keys, DISTINCT aggregates, an all-NULL key of another type) run on
    their kernels, and the footer counts kernel hits only."""

    def test_nan_sort_key_reason(self):
        db = Database()
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.execute(
            "INSERT INTO t VALUES (1.0), (?), (0.5)", (float("nan"),)
        )
        result, report = db.profile("SELECT v FROM t ORDER BY v")
        assert repr(result.rows()) == repr([(0.5,), (1.0,), (float("nan"),)])
        assert "vectorized kernels: hits=1 (sort=1)" in report
        assert "fallback" not in report
        assert db.kernel_stats() == {"hits": {"sort": 1}, "hit_total": 1}

    def test_kernel_less_aggregate_reason(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (1), (2);"
        )
        result, report = db.profile("SELECT count(DISTINCT a) FROM t")
        assert result.rows() == [(2,)]
        assert "vectorized kernels: hits=1 (group_by=1)" in report
        assert "fallback" not in report

    def test_uncodifiable_type_reason(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t2 (a INT, d INT);"
            "INSERT INTO t2 VALUES (1, 10), (2, 20);"
        )
        # a NULL parameter makes the VALUES column all-NULL, its type a
        # guess (VARCHAR): the join kernel reads it as NULLs of t2.a's
        # type, which match nothing
        sql = "SELECT * FROM (VALUES (?)) a(x) {} JOIN t2 ON a.x = t2.a"
        assert db.execute(sql.format(""), (None,)).rows() == []
        assert db.execute(sql.format("LEFT"), (None,)).rows() == [
            (None, None, None)
        ]
        assert db.kernel_stats() == {"hits": {"join": 2}, "hit_total": 2}

    def test_reasons_accumulate_per_op(self):
        db = Database()
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1.0), (?)", (float("nan"),))
        assert repr(db.execute("SELECT v FROM t ORDER BY v").rows()) == repr(
            [(1.0,), (float("nan"),)]
        )
        assert repr(db.execute("SELECT v FROM t ORDER BY v DESC").rows()) == repr(
            [(float("nan"),), (1.0,)]
        )
        assert db.kernel_stats() == {"hits": {"sort": 2}, "hit_total": 2}
