"""Tests for the interactive shell (driven programmatically)."""

import io

import pytest

from repro import Database
from repro.cli import Shell, render_result, render_value


def run_lines(lines, db=None):
    out = io.StringIO()
    shell = Shell(db=db, out=out)
    for line in lines:
        shell.feed_line(line)
        if shell.done:
            break
    return shell, out.getvalue()


class TestRenderValue:
    def test_null(self):
        assert render_value(None) == "NULL"

    def test_float_compact(self):
        assert render_value(2.5) == "2.5"
        assert render_value(2.0) == "2"

    def test_nested_table(self, chain_db):
        result = chain_db.execute(
            "SELECT CHEAPEST SUM(e: w) AS (c, p) "
            "WHERE 1 REACHES 5 OVER edges e EDGE (s, d)"
        )
        _, path = result.rows()[0]
        assert render_value(path) == "<path: 4 edges>"


class TestRenderResult:
    def test_query_table(self):
        db = Database()
        text = render_result(db.execute("SELECT 1 AS a, 'x' AS b"))
        assert "a" in text and "x" in text and "(1 row(s))" in text

    def test_ddl_message(self):
        db = Database()
        text = render_result(db.execute("CREATE TABLE t (x INT)"))
        assert "affected" in text

    def test_truncation_notice(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.table("t").insert_rows([(i,) for i in range(300)])
        text = render_result(db.execute("SELECT x FROM t"), max_rows=10)
        assert "showing first 10" in text


class TestShell:
    def test_statement_execution(self):
        _, output = run_lines(
            ["CREATE TABLE t (x INT);", "INSERT INTO t VALUES (1);", "SELECT * FROM t;"]
        )
        assert "1 row(s)" in output

    def test_multiline_statement(self):
        shell, output = run_lines(["SELECT", "1 AS a", ";"])
        assert "a" in output
        assert shell.prompt.startswith("sql")

    def test_continuation_prompt(self):
        shell, _ = run_lines(["SELECT"])
        assert shell.prompt.startswith("...")

    def test_error_reported_not_raised(self):
        _, output = run_lines(["SELECT * FROM missing;"])
        assert "error:" in output

    def test_meta_dt(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        _, output = run_lines(["\\dt"], db=db)
        assert "t  (0 rows)" in output

    def test_meta_dt_empty(self):
        _, output = run_lines(["\\dt"])
        assert "no tables" in output

    def test_meta_describe(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT, s VARCHAR)")
        _, output = run_lines(["\\d t"], db=db)
        assert "x  integer" in output and "s  varchar" in output

    def test_meta_describe_unknown(self):
        _, output = run_lines(["\\d nope"])
        assert "error:" in output

    def test_meta_timing_toggle(self):
        _, output = run_lines(["\\timing", "SELECT 1;"])
        assert "timing on" in output and "time:" in output

    def test_meta_quit(self):
        shell, _ = run_lines(["\\q", "SELECT 1;"])
        assert shell.done

    def test_unknown_meta(self):
        _, output = run_lines(["\\wat"])
        assert "unknown meta command" in output

    def test_save_and_open(self, tmp_path):
        target = str(tmp_path / "db")
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (9)")
        _, output = run_lines([f"\\save {target}"], db=db)
        assert "saved" in output
        shell, output = run_lines([f"\\open {target}", "SELECT x FROM t;"])
        assert "9" in output

    def test_graph_query_via_shell(self, chain_db):
        _, output = run_lines(
            ["SELECT CHEAPEST SUM(1) AS hops WHERE 1 REACHES 4 OVER edges EDGE (s, d);"],
            db=chain_db,
        )
        assert "hops" in output and "3" in output


class TestCacheAndWorkerMetaCommands:
    def test_meta_cache_counters(self, chain_db):
        _, output = run_lines(
            [
                "SELECT count(*) FROM edges;",
                "SELECT count(*) FROM edges;",
                "\\cache",
            ],
            db=chain_db,
        )
        assert "plan_cache:" in output and "hits=1" in output
        assert "graph_index_cache:" in output

    def test_meta_workers_show_and_set(self):
        shell, output = run_lines(["\\workers 3", "\\workers"])
        assert "exec workers: 3" in output
        assert shell.db.exec_pool.workers == 3

    def test_meta_workers_auto(self):
        from repro.exec.parallel import resolve_exec_workers

        shell, output = run_lines(["\\workers auto"])
        assert f"exec workers: {resolve_exec_workers('auto')} " in output

    def test_meta_graph_shows_threshold_and_counters(self, chain_db):
        chain_db.execute("CREATE GRAPH INDEX gi ON edges EDGE (s, d)")
        _, output = run_lines(
            [
                "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER edges EDGE (s, d);",
                "\\graph",
            ],
            db=chain_db,
        )
        assert "compact threshold: 8192" in output
        assert "counters: overlay_hits=" in output
        assert (
            "traversals: bidirectional_pairs=1 forward=0 transpose_builds=1"
            in output
        )
        assert "gi: base_edges=" in output
        assert "overlay: on" not in output and "mode" not in output

    def test_meta_workers_rejects_garbage(self):
        shell, output = run_lines(["\\workers banana", "SELECT 1;"])
        assert "error: expected a number or 'auto'" in output
        assert "1" in output  # the shell survived

    def test_repeated_statement_hits_plan_cache(self, chain_db):
        run_lines(
            ["SELECT s FROM edges WHERE w = 1;"] * 3,
            db=chain_db,
        )
        assert chain_db.plan_cache.stats()["hits"] == 2
