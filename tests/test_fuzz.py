"""Grammar fuzzing: randomly generated valid queries must never crash the
engine with anything but a declared ReproError, and structural
invariants (LIMIT bounds, DISTINCT uniqueness, filter subsetting) hold.
"""

import random

import pytest

from repro import Database, ReproError


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.executescript(
        """
        CREATE TABLE t1 (a INT, b VARCHAR, c DOUBLE);
        CREATE TABLE t2 (a INT, d INT);
        CREATE TABLE e (s INT, d INT, w INT);
        INSERT INTO t1 VALUES
            (1, 'x', 0.5), (2, 'y', 1.5), (3, NULL, 2.5), (NULL, 'z', NULL);
        INSERT INTO t2 VALUES (1, 10), (2, 20), (5, 50);
        INSERT INTO e VALUES (1, 2, 1), (2, 3, 2), (3, 1, 3), (2, 5, 1);
        """
    )
    return database


def random_scalar(rng):
    return rng.choice(
        ["a", "c", "a + 1", "c * 2", "abs(a)", "coalesce(a, 0)", "length(b)",
         "a % 2", "-a", "CASE WHEN a > 1 THEN a ELSE 0 END"]
    )


def random_predicate(rng):
    return rng.choice(
        ["a > 1", "a = 2", "b IS NOT NULL", "c BETWEEN 0.0 AND 2.0",
         "a IN (1, 3)", "b LIKE '%y%'", "a > 1 AND c < 3.0",
         "a = 1 OR a = 3", "NOT a = 2", "a IN (SELECT a FROM t2)"]
    )


def random_endpoint(rng):
    return rng.choice(["0", "1", "2", "3", "5", "6", "NULL", "a", "t1.a"])


def random_cheapest(rng):
    """A CHEAPEST SUM item and the matching OVER clause binding."""
    return rng.choice(
        [
            ("CHEAPEST SUM(1)", "OVER e EDGE (s, d)"),
            ("CHEAPEST SUM(k: w)", "OVER e k EDGE (s, d)"),
            ("CHEAPEST SUM(k: w + 1)", "OVER e k EDGE (s, d)"),
            ("CHEAPEST SUM(k: 1)", "OVER e k EDGE (s, d)"),
        ]
    )


def random_graph_query(rng) -> str:
    """A REACHES/CHEAPEST SUM query in one of the engine's shapes."""
    shape = rng.random()
    src, dst = random_endpoint(rng), random_endpoint(rng)
    cheapest, over = random_cheapest(rng)
    if shape < 0.35:
        # constant-pair form (FROM-less graph select)
        src, dst = rng.randint(0, 6), rng.randint(0, 6)
        return f"SELECT {cheapest} WHERE {src} REACHES {dst} {over}"
    if shape < 0.6:
        # graph select over a base-table input
        query = f"SELECT a, {cheapest} FROM t1 WHERE {src} REACHES {dst} {over}"
        if rng.random() < 0.4:
            query += " ORDER BY 1"
        return query
    if shape < 0.8:
        # batch form: VALUES-driven pairs (the Fig. 1b pattern)
        pairs = ", ".join(
            f"({rng.randint(0, 6)}, {rng.randint(0, 6)})" for _ in range(rng.randint(1, 6))
        )
        return (
            f"SELECT p.src, p.dst, {cheapest} FROM (VALUES {pairs}) p (src, dst) "
            f"WHERE p.src REACHES p.dst {over}"
        )
    # path-producing form flattened by UNNEST
    src, dst = rng.randint(0, 6), rng.randint(0, 6)
    ordinality = " WITH ORDINALITY" if rng.random() < 0.5 else ""
    return (
        f"SELECT T.c, R.s, R.d FROM ("
        f"SELECT CHEAPEST SUM(k: w) AS (c, p) "
        f"WHERE {src} REACHES {dst} OVER e k EDGE (s, d)) T, "
        f"UNNEST(T.p){ordinality} AS R"
    )


def random_query(rng) -> str:
    parts = [f"SELECT {random_scalar(rng)} AS v1, {random_scalar(rng)} AS v2"]
    parts.append("FROM t1")
    if rng.random() < 0.3:
        # t2's key renamed, so an unqualified ``a`` still names t1.a
        parts.append("JOIN (SELECT a AS k, d FROM t2) u ON t1.a = u.k")
    if rng.random() < 0.7:
        parts.append(f"WHERE {random_predicate(rng)}")
    if rng.random() < 0.3:
        parts.append("ORDER BY 1")
    if rng.random() < 0.3:
        parts.append(f"LIMIT {rng.randint(0, 5)}")
    return " ".join(parts)


class TestFuzz:
    def test_random_queries_do_not_crash(self, db):
        rng = random.Random(1234)
        executed = 0
        for _ in range(300):
            sql = random_query(rng)
            try:
                db.execute(sql)
            except ReproError:
                pass  # declared failure modes are fine
            executed += 1
        assert executed == 300

    def test_limit_always_respected(self, db):
        rng = random.Random(99)
        for _ in range(50):
            limit = rng.randint(0, 4)
            sql = f"SELECT a FROM t1 WHERE {random_predicate(rng)} LIMIT {limit}"
            try:
                rows = db.execute(sql).rows()
            except ReproError:
                continue
            assert len(rows) <= limit

    def test_distinct_yields_unique_rows(self, db):
        rng = random.Random(7)
        for _ in range(50):
            sql = f"SELECT DISTINCT {random_scalar(rng)} FROM t1"
            rows = db.execute(sql).rows()
            assert len(rows) == len(set(rows))

    def test_where_results_subset_unfiltered(self, db):
        rng = random.Random(5)
        everything = set(db.execute("SELECT a, b FROM t1").rows())
        for _ in range(40):
            sql = f"SELECT a, b FROM t1 WHERE {random_predicate(rng)}"
            try:
                rows = db.execute(sql).rows()
            except ReproError:
                continue
            assert set(rows) <= everything

    def test_random_graph_queries(self, db):
        rng = random.Random(11)
        for _ in range(60):
            source = rng.randint(0, 6)
            dest = rng.randint(0, 6)
            cost = db.execute(
                "SELECT CHEAPEST SUM(k: w) "
                "WHERE ? REACHES ? OVER e k EDGE (s, d)",
                (source, dest),
            ).rows()
            hops = db.execute(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                (source, dest),
            ).rows()
            # weighted and unweighted agree on *connectivity*
            assert bool(cost) == bool(hops)
            if cost:
                assert cost[0][0] >= hops[0][0]  # weights are >= 1

    def test_union_of_random_queries(self, db):
        rng = random.Random(3)
        for _ in range(30):
            q1 = f"SELECT a FROM t1 WHERE {random_predicate(rng)}"
            q2 = f"SELECT a FROM t2"
            try:
                rows = db.execute(f"{q1} UNION {q2}").rows()
            except ReproError:
                continue
            assert len(rows) == len(set(rows))


class TestGraphGrammarFuzz:
    """REACHES / CHEAPEST SUM / UNNEST clauses generated, not hand-picked."""

    def test_random_graph_grammar_does_not_crash(self, db):
        rng = random.Random(4242)
        executed = 0
        for _ in range(200):
            sql = random_graph_query(rng)
            try:
                db.execute(sql)
            except ReproError:
                pass  # declared failure modes are fine
            executed += 1
        assert executed == 200

    def test_weighted_cost_dominates_hop_count(self, db):
        # for any generated pair, SUM(k: w) >= SUM(1) when both connect
        # (all weights in `e` are >= 1)
        rng = random.Random(77)
        for _ in range(60):
            source, dest = rng.randint(0, 6), rng.randint(0, 6)
            weighted = db.execute(
                "SELECT CHEAPEST SUM(k: w) WHERE ? REACHES ? OVER e k EDGE (s, d)",
                (source, dest),
            ).rows()
            hops = db.execute(
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)",
                (source, dest),
            ).rows()
            assert bool(weighted) == bool(hops)
            if weighted:
                assert weighted[0][0] >= hops[0][0]

    def test_unnest_path_chains_and_matches_cost(self, db):
        # every UNNESTed path is a valid edge chain whose length is the
        # reported hop count
        rng = random.Random(55)
        for _ in range(40):
            source, dest = rng.randint(0, 6), rng.randint(0, 6)
            header = db.execute(
                "SELECT CHEAPEST SUM(1) AS (c, p) "
                "WHERE ? REACHES ? OVER e EDGE (s, d)",
                (source, dest),
            ).rows()
            flattened = db.execute(
                "SELECT R.s, R.d FROM ("
                "SELECT CHEAPEST SUM(1) AS (c, p) "
                "WHERE ? REACHES ? OVER e EDGE (s, d)) T, "
                "UNNEST(T.p) AS R",
                (source, dest),
            ).rows()
            if not header:
                assert flattened == []
                continue
            hops = header[0][0]
            assert len(flattened) == hops
            if flattened:
                assert flattened[0][0] == source
                assert flattened[-1][1] == dest
                for (_, mid), (nxt, _) in zip(flattened, flattened[1:]):
                    assert mid == nxt

    def test_graph_batch_results_subset_input_pairs(self, db):
        rng = random.Random(21)
        for _ in range(30):
            pairs = [
                (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 5))
            ]
            values = ", ".join(f"({a}, {b})" for a, b in pairs)
            rows = db.execute(
                f"SELECT p.src, p.dst FROM (VALUES {values}) p (src, dst) "
                f"WHERE p.src REACHES p.dst OVER e EDGE (s, d)"
            ).rows()
            assert set(rows) <= set(pairs)
