"""Cost-based optimizer: statistics, physical plans, pushdown shapes,
join reordering, plan-cache parameterization and materialization guards.
"""

import io
from dataclasses import replace

import numpy as np
import pytest

from reference_plan import reference_plan, reference_rows, run_plan
from repro import Database
from repro.plan import physical as pp
from repro.cli import Shell
from repro.errors import CatalogError, ExecutionError, ResourceLimitError
from repro.storage import Column, DataType


@pytest.fixture
def social():
    db = Database()
    db.executescript(
        """
        CREATE TABLE persons (id INT, name VARCHAR);
        CREATE TABLE knows (p1 INT, p2 INT, w DOUBLE);
        INSERT INTO persons VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d');
        INSERT INTO knows VALUES (1,2,1.0),(2,3,1.0),(3,4,2.0);
        """
    )
    return db


# ---------------------------------------------------------------------------
# ANALYZE and statistics
# ---------------------------------------------------------------------------
class TestAnalyze:
    def test_analyze_all_tables(self, social):
        result = social.execute("ANALYZE")
        assert result.rowcount == 2
        stats = social.table_stats()
        assert stats["persons"].row_count == 4
        assert stats["knows"].columns["w"].distinct == 2

    def test_analyze_single_table(self, social):
        assert social.execute("ANALYZE persons").rowcount == 1
        assert "knows" not in social.table_stats()

    def test_analyze_unknown_table_raises(self, social):
        with pytest.raises(CatalogError):
            social.execute("ANALYZE nope")

    def test_column_stats_contents(self, social):
        social.execute("INSERT INTO persons VALUES (9, NULL)")
        social.execute("ANALYZE persons")
        col = social.table_stats()["persons"].columns
        assert col["id"].min_value == 1 and col["id"].max_value == 9
        assert col["id"].distinct == 5
        assert col["name"].null_count == 1

    def test_write_refreshes_row_count_and_marks_stale(self, social):
        social.execute("ANALYZE")
        social.execute("INSERT INTO persons VALUES (5, 'e')")
        stats = social.table_stats()["persons"]
        assert stats.row_count == 5
        assert stats.stale

    def test_drop_table_drops_stats(self, social):
        social.execute("ANALYZE")
        social.execute("DROP TABLE persons")
        assert "persons" not in social.table_stats()

    def test_python_analyze_helper(self, social):
        assert sorted(social.analyze()) == ["knows", "persons"]

    def test_analyze_unrelated_table_keeps_plans(self, social):
        sql = "SELECT id FROM persons WHERE id > 2"
        social.execute(sql)
        social.execute("ANALYZE knows")
        social.execute(sql)  # stats marker of persons unchanged: still hot
        assert social.plan_cache.stats()["hits"] >= 1

    def test_analyze_bumps_marker_and_invalidates_plans(self, social):
        sql = "SELECT id FROM persons WHERE id > 2"
        social.execute(sql)
        assert social.plan_cache.contains(sql)
        social.execute("ANALYZE")
        social.execute(sql)  # revalidation fails -> re-optimized
        stats = social.plan_cache.stats()
        assert stats["invalidations"] >= 1


def _stats_table():
    """``(name, type, values, mask)`` per column of a 3,000-row table
    whose columns take every branch of the statistics pass."""
    rng = np.random.default_rng(29)
    n = 3000
    nulls = rng.random(n) < 0.1
    doubles = rng.choice([-0.0, 0.0, 1.5, -2.25, 7.0, np.nan], n)
    words = np.array(["", "a", "a\x00", "\u00e4", "\U0001f600", "zz"], dtype=object)
    return [
        ("dense", DataType.BIGINT, rng.integers(-50, 400, n), nulls),
        ("sparse", DataType.BIGINT, rng.integers(-(2**62), 2**62, n), None),
        ("dbl", DataType.DOUBLE, doubles, nulls),
        ("zeros", DataType.DOUBLE, rng.choice([-0.0, 0.0, 3.0], n), None),
        ("day", DataType.DATE, rng.integers(14000, 14400, n), nulls),
        ("flag", DataType.BOOLEAN, rng.random(n) < 0.3, None),
        ("word", DataType.VARCHAR, words[rng.integers(0, len(words), n)], nulls),
        ("nothing", DataType.BIGINT, np.zeros(n, dtype=np.int64), np.ones(n, bool)),
    ]


def _reference_column_stats(type_, values, mask):
    """Statistics computed one column at a time by ``np.unique`` (or a
    ``set`` for VARCHAR), with the range taken over non-NaN values."""
    valid = values if mask is None else values[~mask]
    null_count = 0 if mask is None else int(mask.sum())
    if len(valid) == 0:
        return (null_count, 0, None, None)
    if valid.dtype == np.dtype(object):
        return (null_count, len(set(valid.tolist())), None, None)
    uniques = np.unique(valid)  # one NaN, as equal_nan=True
    ranged = uniques[~np.isnan(uniques)] if uniques.dtype.kind == "f" else uniques
    if not (type_.is_numeric or type_ == DataType.DATE) or len(ranged) == 0:
        return (null_count, len(uniques), None, None)
    return (null_count, len(uniques), ranged[0].item(), ranged[-1].item())


class TestAnalyzeOnePass:
    """ANALYZE reads its statistics off the encoding pass's dictionary;
    they must equal a per-column ``np.unique`` reference."""

    def _assert_matches_reference(self, db, columns):
        stats = db.table_stats()["t"]
        for name, type_, values, mask in columns:
            got = stats.column(name)
            want = _reference_column_stats(type_, values, mask)
            assert (got.null_count, got.distinct, got.min_value, got.max_value) == want, name
            for bound in (got.min_value, got.max_value):
                assert bound is None or type(bound) is type(want[2]), name

    def test_statistics_equal_the_reference(self, tmp_path):
        columns = _stats_table()
        db = Database()
        db.execute(
            "CREATE TABLE t ("
            + ", ".join(f"{name} {type_.value}" for name, type_, _, _ in columns)
            + ")"
        )
        db.table("t").insert_columns(
            [Column(type_, values, mask) for _, type_, values, mask in columns]
        )
        db.execute("ANALYZE")
        self._assert_matches_reference(db, columns)
        kinds = [c.resting_info()[0] for c in db.table("t").current().columns]
        assert "dict" in kinds  # the resting-dictionary path ran
        # re-analyzing a loaded image reads the resting encodings' codes
        db.save(str(tmp_path / "db"))
        loaded = Database.load(str(tmp_path / "db"))
        loaded.execute("ANALYZE")
        self._assert_matches_reference(loaded, columns)

    def test_empty_table(self):
        db = Database()
        db.execute("CREATE TABLE t (x BIGINT, s VARCHAR, d DOUBLE)")
        db.execute("ANALYZE")
        stats = db.table_stats()["t"]
        assert stats.row_count == 0
        for name in ("x", "s", "d"):
            col = stats.column(name)
            assert (col.null_count, col.distinct, col.min_value, col.max_value) == (
                0, 0, None, None
            )

    @pytest.mark.parametrize("extra", [float("nan"), 1000.0])
    def test_nan_leaves_range_estimates_alone(self, extra):
        db = Database()
        db.execute("CREATE TABLE t (x DOUBLE)")
        values = np.append(np.arange(1000, dtype=np.float64), extra)
        db.table("t").insert_columns([Column(DataType.DOUBLE, values)])
        db.execute("ANALYZE")
        col = db.table_stats()["t"].column("x")
        assert col.distinct == 1001  # NaN counts as one distinct value
        assert col.min_value == 0.0
        assert col.max_value == (999.0 if np.isnan(extra) else extra)
        text = db.explain("SELECT * FROM t WHERE x < 100")
        filter_line = next(l for l in text.splitlines() if "Filter" in l)
        assert "est_rows=100 " in filter_line


# ---------------------------------------------------------------------------
# EXPLAIN / physical plans
# ---------------------------------------------------------------------------
class TestPhysicalExplain:
    def test_estimated_rows_rendered(self, social):
        text = social.explain("SELECT id FROM persons WHERE id > 2")
        assert "est_rows=" in text and "cost=" in text
        assert "Scan persons" in text

    def test_hash_join_shows_build_side(self, social):
        text = social.explain(
            "SELECT p.name FROM persons p JOIN knows k ON p.id = k.p1"
        )
        assert "HashJoin" in text and "build=" in text

    def test_filter_pushed_below_join(self, social):
        text = social.explain(
            "SELECT p.name FROM persons p JOIN knows k ON p.id = k.p1 "
            "WHERE p.id > 2"
        )
        join_line = next(i for i, l in enumerate(text.splitlines()) if "HashJoin" in l)
        filter_line = next(i for i, l in enumerate(text.splitlines()) if "Filter" in l)
        assert filter_line > join_line  # filter sits under the join

    def test_three_way_reorder_avoids_cross_product(self, social):
        # syntactic order starts with persons x persons; the optimizer
        # reorders so every join is an equi hash join
        text = social.explain(
            "SELECT a.name, b.name FROM persons a, persons b, knows k "
            "WHERE a.id = k.p1 AND k.p2 = b.id"
        )
        assert "CrossJoin" not in text
        assert text.count("HashJoin") == 2

    def test_projection_pruning_narrows_scan(self, social):
        text = social.explain("SELECT p1 FROM knows")
        scan_line = next(l for l in text.splitlines() if "Scan knows" in l)
        assert "w" not in scan_line.split("->")[1]

    def test_filter_pushed_into_graph_select_input(self, social):
        text = social.explain(
            "SELECT * FROM (SELECT p.id, CHEAPEST SUM(1) AS hops FROM persons p "
            "WHERE p.id REACHES 4 OVER knows EDGE (p1, p2)) q WHERE q.id < 3"
        )
        lines = text.splitlines()
        graph_line = next(i for i, l in enumerate(lines) if "GraphSelect" in l)
        filter_lines = [i for i, l in enumerate(lines) if "Filter" in l]
        assert any(i > graph_line for i in filter_lines)

    def test_profile_reports_estimated_vs_actual(self, social):
        _, report = social.profile("SELECT id FROM persons WHERE id > 2")
        assert "rows=" in report and "est_rows=" in report

    def test_no_pushdown_below_scalar_aggregate(self, social):
        # a scalar aggregate emits one row even over empty input, so a
        # constant-false predicate above it must NOT move below it
        sql = "SELECT * FROM (SELECT count(*) AS c FROM persons) x WHERE 1 = 0"
        assert social.execute(sql).rows() == []
        sql = "SELECT * FROM (SELECT max(id) AS m FROM persons) x WHERE 1 = 0"
        assert social.execute(sql).rows() == []
        # grouped aggregates still allow group-key pushdown
        sql = (
            "SELECT * FROM (SELECT id, count(*) AS n FROM persons "
            "GROUP BY id) x WHERE x.id = 2"
        )
        assert social.execute(sql).rows() == [(2, 1)]


# ---------------------------------------------------------------------------
# plan-cache parameterization
# ---------------------------------------------------------------------------
class TestParameterization:
    # The normalized plan is built lazily, once a *second* distinct text
    # maps onto the same key, so statement three is the first shared hit.
    def test_literal_values_still_correct(self, social):
        assert social.execute("SELECT id FROM persons WHERE id = 2").rows() == [(2,)]
        assert social.execute("SELECT id FROM persons WHERE id = 3").rows() == [(3,)]
        assert social.execute("SELECT id FROM persons WHERE id = 4").rows() == [(4,)]
        assert social.plan_cache.stats()["normalized_hits"] >= 1

    def test_one_off_statements_build_no_normalized_plan(self, social):
        social.execute("SELECT id FROM persons WHERE id = 2")
        assert social.plan_cache.stats()["normalized_entries"] == 0

    def test_string_literals_normalize(self, social):
        for name, id_ in (("'b'", 2), ("'c'", 3), ("'d'", 4)):
            assert social.execute(
                f"SELECT id FROM persons WHERE name = {name}"
            ).rows() == [(id_,)]
        assert social.plan_cache.stats()["normalized_hits"] >= 1

    def test_mixed_params_and_literals(self, social):
        rows = social.execute(
            "SELECT id FROM persons WHERE id = ? OR id = 4", (1,)
        ).rows()
        assert sorted(rows) == [(1,), (4,)]
        rows = social.execute(
            "SELECT id FROM persons WHERE id = ? OR id = 3", (2,)
        ).rows()
        assert sorted(rows) == [(2,), (3,)]

    def test_missing_param_error_counts_user_params_only(self, social):
        # populate the normalized index with two shape-identical texts
        social.execute("SELECT id FROM persons WHERE id = 1 AND id > ?", (0,))
        social.execute("SELECT id FROM persons WHERE id = 2 AND id > ?", (0,))
        with pytest.raises(ExecutionError, match="at least 1 parameter"):
            social.execute("SELECT id FROM persons WHERE id = 3 AND id > ?")

    def test_insert_mixed_numeric_literals_promote(self):
        db = Database()
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1), (2.5)")  # INT then DOUBLE
        assert db.execute("SELECT v FROM t ORDER BY 1").rows() == [(1.0,), (2.5,)]

    def test_insert_values_share_plan(self, social):
        social.execute("INSERT INTO persons VALUES (7, 'g')")
        social.execute("INSERT INTO persons VALUES (8, 'h')")
        social.execute("INSERT INTO persons VALUES (9, 'i')")
        assert social.execute("SELECT count(*) FROM persons").scalar() == 7
        assert social.plan_cache.stats()["normalized_hits"] >= 1

    def test_trailing_ordinal_after_expression_kept(self):
        # ORDER BY a, 2 — the ordinal after a non-integer sort key must
        # keep its value even when another literal is normalized away
        db = Database()
        db.execute("CREATE TABLE s (a INT, b INT)")
        db.execute(
            "INSERT INTO s VALUES (1, 9), (1, 1), (2, 8), (2, 3), (3, 5), (3, 4)"
        )
        template = "SELECT a, b FROM s WHERE a = {} ORDER BY a, 2 LIMIT 1"
        assert db.execute(template.format(1)).rows() == [(1, 1)]
        assert db.execute(template.format(2)).rows() == [(2, 3)]
        # third distinct literal: served from the shared normalized plan
        assert db.execute(template.format(3)).rows() == [(3, 4)]
        assert db.plan_cache.stats()["normalized_hits"] >= 1

    def test_normalize_ordinal_token_rules(self):
        from repro.sql.normalize import normalize_statement

        key, slots = normalize_statement(
            "SELECT a FROM t WHERE a = 5 ORDER BY a, 2"
        )
        assert "ORDER BY a , 2 --" in key
        assert slots == [("lit", 5)]
        # commas inside function calls do not create ordinal positions
        key, slots = normalize_statement(
            "SELECT a FROM t WHERE a = 5 ORDER BY coalesce(b, 0), 2"
        )
        assert ", 2 --" in key
        assert ("lit", 0) in slots and ("lit", 2) not in slots
        # a subquery's ORDER BY scope ends at its closing parenthesis
        key, slots = normalize_statement(
            "SELECT * FROM (SELECT a FROM t ORDER BY 1) x WHERE a = 7"
        )
        assert "ORDER BY 1" in key
        assert slots == [("lit", 7)]

    def test_limit_and_ordinals_not_normalized(self, social):
        two = social.execute("SELECT id FROM persons ORDER BY 1 LIMIT 2").rows()
        three = social.execute("SELECT id FROM persons ORDER BY 1 LIMIT 3").rows()
        assert len(two) == 2 and len(three) == 3
        assert two == [(1,), (2,)]

    def test_literal_types_never_share_a_plan(self, social):
        from repro.sql.normalize import normalize_statement

        int_key, _ = normalize_statement("SELECT id FROM persons WHERE id = 1")
        str_key, _ = normalize_statement("SELECT id FROM persons WHERE id = 'x'")
        assert int_key != str_key

    def test_cheapest_sum_constant_not_normalized(self, social):
        hops = social.execute(
            "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER knows EDGE (p1, p2)"
        ).scalar()
        assert hops == 3

    def test_normalized_entries_invalidated_by_dml(self, social):
        social.execute("SELECT id FROM persons WHERE id = 1")
        social.execute("SELECT id FROM persons WHERE id = 2")
        social.execute("SELECT id FROM persons WHERE id = 3")
        before = social.plan_cache.stats()["normalized_entries"]
        assert before >= 1
        social.execute("INSERT INTO persons VALUES (10, 'j')")
        assert social.execute(
            "SELECT id FROM persons WHERE id = 10"
        ).rows() == [(10,)]


# ---------------------------------------------------------------------------
# materialization guards (MAX_CROSS_ROWS on every fallback path)
# ---------------------------------------------------------------------------
class TestResourceLimits:
    @pytest.fixture
    def big(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        db.table("a").insert_rows([(i,) for i in range(6000)])
        db.table("b").insert_rows([(i,) for i in range(6000)])
        return db

    def test_cross_product_guard(self, big):
        with pytest.raises(ResourceLimitError, match="safety limit"):
            big.execute("SELECT * FROM a, b")

    def test_nested_loop_guard(self, big):
        # non-equi condition: no hash keys, so the nested-loop fallback
        # path must hit the same typed guard
        with pytest.raises(ResourceLimitError, match="safety limit"):
            big.execute("SELECT * FROM a JOIN b ON a.x < b.y")

    def test_guard_is_typed_execution_error(self, big):
        with pytest.raises(ExecutionError):
            big.execute("SELECT * FROM a, b")

    def test_degenerate_hash_join_guard(self):
        # every key identical: the equi-join is a cross product in
        # disguise and must hit the same typed guard
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        db.table("a").insert_rows([(1,)] * 6000)
        db.table("b").insert_rows([(1,)] * 6000)
        with pytest.raises(ResourceLimitError, match="safety limit"):
            db.execute("SELECT * FROM a JOIN b ON a.x = b.y")

    def test_small_cross_product_still_works(self, social):
        rows = social.execute("SELECT count(*) FROM persons a, persons b").scalar()
        assert rows == 16


# ---------------------------------------------------------------------------
# shell surfaces
# ---------------------------------------------------------------------------
class TestShellStats:
    def _shell(self, db):
        out = io.StringIO()
        shell = Shell(db, out=out)
        return shell, out

    def test_stats_before_analyze(self, social):
        shell, out = self._shell(social)
        shell.feed_line("\\stats")
        assert "no statistics recorded" in out.getvalue()

    def test_stats_after_analyze(self, social):
        shell, out = self._shell(social)
        shell.feed_line("ANALYZE;")
        shell.feed_line("\\stats")
        text = out.getvalue()
        assert "persons: rows=4" in text
        assert "distinct=" in text and "min=" in text

    def test_cache_shows_normalized_counters(self, social):
        shell, out = self._shell(social)
        shell.feed_line("\\cache")
        assert "normalized_hits=" in out.getvalue()

    def test_stats_single_table_filter(self, social):
        shell, out = self._shell(social)
        shell.feed_line("ANALYZE;")
        shell.feed_line("\\stats knows")
        text = out.getvalue()
        assert "knows: rows=3" in text and "persons" not in text


# ---------------------------------------------------------------------------
# optimized plans vs the pass-free reference plan on hand-picked cases
# ---------------------------------------------------------------------------
def _with_build_side(plan, build_left):
    """``plan`` with every hash join's build side forced to one side (and
    its probe-side zone marks, which name the other side's columns after
    the flip, dropped: they are a skipping hint only)."""
    updates = {
        name: _with_build_side(getattr(plan, name), build_left)
        for name in ("input", "left", "right")
        if isinstance(getattr(plan, name, None), pp.PhysicalNode)
    }
    if isinstance(plan, pp.PHashJoin):
        updates.update(build_left=build_left, probe_zone=())
    return replace(plan, **updates) if updates else plan


class TestOptimizerToggle:
    def test_left_join_results_match(self, social):
        sql = (
            "SELECT p.id, k.p2 FROM persons p LEFT JOIN knows k "
            "ON p.id = k.p1 WHERE p.id > 1 ORDER BY 1, 2"
        )
        assert social.execute(sql).rows() == reference_rows(social, sql)

    def test_build_side_does_not_change_row_order(self, social):
        # knows (3 rows) joined with persons (4 rows): the output order
        # must not depend on which side the hash join builds on
        sql = "SELECT k.p1, p.name FROM knows k JOIN persons p ON k.p1 = p.id"
        plan = reference_plan(social, sql)
        probe_left = run_plan(social, _with_build_side(plan, False))
        assert run_plan(social, _with_build_side(plan, True)) == probe_left
        assert social.execute(sql).rows() == probe_left
