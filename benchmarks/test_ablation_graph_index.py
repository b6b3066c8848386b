"""Ablation A4: graph indices (the paper's Section 6 future work).

"To mitigate this scenario, we are investigating how to expand our
system with the option of creating special 'graph' indices.  These
indices will store the full graph, ready to be used when a query matches
the edge table that generated the graph."

We implemented them (CREATE GRAPH INDEX); this ablation measures the
effect on single-pair Q13 — the scenario the paper says suffers most
from per-query graph construction — and on the weighted Q14 variant,
whose indexed library also keeps the weights it gathered into CSR order
per table version.
"""

import pytest

from repro.ldbc import (
    generate,
    make_database,
    random_pairs,
    run_q13,
    run_q14_variant,
)

from conftest import BENCH_SCALE, SCALE_FACTORS

INDEX_SF = max(SCALE_FACTORS)


def _fresh_db():
    network = generate(INDEX_SF, scale=BENCH_SCALE)
    return network, make_database(network)


@pytest.fixture(scope="module")
def without_index():
    return _fresh_db()


@pytest.fixture(scope="module")
def with_index():
    network, db = _fresh_db()
    db.execute("CREATE GRAPH INDEX knows_idx ON knows EDGE (person1, person2)")
    return network, db


def _runner(network, db, seed, query=run_q13):
    pairs = random_pairs(network, 32, seed=seed)
    state = {"i": 0}

    def one_query():
        source, dest = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        return query(db, source, dest)

    return one_query


def _q14(db, source, dest):
    """Q14's (cost, path edge rows), or None."""
    row = run_q14_variant(db, source, dest)
    return None if row is None else (row[0], row[1].to_rows())


def test_bench_q13_without_index(benchmark, without_index):
    network, db = without_index
    benchmark(_runner(network, db, seed=71))


def test_bench_q13_with_index(benchmark, with_index):
    network, db = with_index
    benchmark(_runner(network, db, seed=71))


def test_bench_q14_without_index(benchmark, without_index):
    network, db = without_index
    benchmark(_runner(network, db, seed=74, query=_q14))


def test_bench_q14_with_index(benchmark, with_index):
    network, db = with_index
    benchmark(_runner(network, db, seed=74, query=_q14))


def _weight_counts(db):
    stats = db.graph_indices.stats()
    return stats["weight_builds"], stats["weight_hits"]


def test_index_gives_same_weighted_answers(without_index, with_index):
    plain_network, plain_db = without_index
    _, indexed_db = with_index
    pairs = random_pairs(plain_network, 12, seed=75)
    builds, hits = _weight_counts(indexed_db)
    answers = [_q14(indexed_db, source, dest) for source, dest in pairs]
    plain = [_q14(plain_db, source, dest) for source, dest in pairs]
    # the index meets in the middle where the plain run searches forward:
    # equal costs, and each indexed path is a chain of knows rows whose
    # costs sum to the answer (it may be another shortest path)
    assert [a and a[0] for a in answers] == [a and a[0] for a in plain]
    edges = set(
        plain_db.execute("SELECT person1, person2, weight FROM knows").rows()
    )
    for (source, dest), answer in zip(pairs, answers):
        if answer is None:
            continue
        cost, path = answer
        vertex = source
        for person1, person2, _, weight in path:
            assert (person1, person2, weight) in edges and person1 == vertex
            vertex = person2
        assert vertex == dest
        assert sum(int(row[3] * 10) for row in path) == cost
    assert any(answer and answer[1] for answer in answers)  # paths checked
    # one table version: at most the first statement builds the weights,
    # every later one is served the cached view
    new_builds = _weight_counts(indexed_db)[0] - builds
    assert new_builds <= 1
    assert _weight_counts(indexed_db)[1] - hits == len(pairs) - new_builds
    assert _weight_counts(plain_db) == (0, 0)


def test_index_gives_same_answers(without_index, with_index):
    plain_network, plain_db = without_index
    _, indexed_db = with_index
    for source, dest in random_pairs(plain_network, 12, seed=72):
        assert run_q13(plain_db, source, dest) == run_q13(indexed_db, source, dest)


def test_index_speeds_up_single_pair(without_index, with_index, capsys):
    import time

    def average(network, db, seed, repeats=10):
        run = _runner(network, db, seed)
        start = time.perf_counter()
        for _ in range(repeats):
            run()
        return (time.perf_counter() - start) / repeats

    plain = average(*without_index, seed=73)
    indexed = average(*with_index, seed=73)
    with capsys.disabled():
        print(
            f"\n=== A4 graph index (SF {INDEX_SF}) === "
            f"plain {plain * 1000:.2f} ms vs indexed {indexed * 1000:.2f} ms "
            f"({plain / max(indexed, 1e-9):.1f}x)"
        )
    # skipping the per-query CSR build must help substantially
    assert indexed < plain
