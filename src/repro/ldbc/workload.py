"""The LDBC SNB Interactive workload slice used by the paper (Section 4).

Two queries over the friendship graph:

* **Q13** — "determines the cost of the unweighted shortest paths between
  two given persons": ``CHEAPEST SUM(1)`` over the knows edge table;
* **Q14 (variant)** — the paper cannot run full Q14 (all shortest paths),
  so it returns *one* weighted shortest path using the precomputed
  affinity weights; here ``CHEAPEST SUM(k: CAST(weight * 10 AS bigint))``
  keeps costs integral, exactly like the prototype.
  (``q14_variant_float`` runs the same Dijkstra on float costs.)

Besides the per-pair form, :func:`q13_batch_sql` evaluates a whole batch
of pairs in one statement — the Figure 1b experiment — by REACHES-ing
over a parameter table so the underlying CSR is built once per query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..api import Database
from .datagen import SocialNetwork

Q13_SQL = (
    "SELECT CHEAPEST SUM(1) "
    "WHERE ? REACHES ? OVER knows EDGE (person1, person2)"
)

Q14_VARIANT_SQL = (
    "SELECT CHEAPEST SUM(k: CAST(weight * 10 AS bigint)) AS (cost, path) "
    "WHERE ? REACHES ? OVER knows k EDGE (person1, person2)"
)

Q14_VARIANT_FLOAT_SQL = (
    "SELECT CHEAPEST SUM(k: weight) AS (cost, path) "
    "WHERE ? REACHES ? OVER knows k EDGE (person1, person2)"
)

Q13_BATCH_SQL = (
    "SELECT p.src, p.dst, CHEAPEST SUM(1) AS hops "
    "FROM pairs p "
    "WHERE p.src REACHES p.dst OVER knows EDGE (person1, person2)"
)


def load_into(db: Database, network: SocialNetwork, *, bulk: bool = True) -> None:
    """Create and populate the persons / knows tables.

    ``bulk=True`` (default) ingests each table as one columnar batch
    through :meth:`Database.appender` — the fast path.  ``bulk=False``
    funnels every tuple through row INSERTs instead, the A/B baseline
    for ``benchmarks/test_ingest.py``; both load bit-identical tables.
    """
    db.executescript(
        """
        CREATE TABLE persons (
            id BIGINT, firstName VARCHAR, lastName VARCHAR, gender VARCHAR
        );
        CREATE TABLE knows (
            person1 BIGINT, person2 BIGINT, creationDate DATE, weight DOUBLE
        );
        """
    )
    src, dst, days, weights = network.directed_edges()
    if bulk:
        db.appender("persons").append(
            [
                network.person_ids.astype(np.int64),
                list(network.first_names),
                list(network.last_names),
                list(network.genders),
            ]
        )
        db.appender("knows").append(
            [
                src.astype(np.int64),
                dst.astype(np.int64),
                days.astype(np.int64),
                weights.astype(np.float64),
            ]
        )
        return
    with db.connect() as session:
        session.executemany(
            "INSERT INTO persons VALUES (?, ?, ?, ?)",
            [
                (int(pid), first, last, gender)
                for pid, first, last, gender in zip(
                    network.person_ids,
                    network.first_names,
                    network.last_names,
                    network.genders,
                )
            ],
        )
        session.executemany(
            "INSERT INTO knows VALUES (?, ?, ?, ?)",
            [
                (int(a), int(b), int(day), float(w))
                for a, b, day, w in zip(src, dst, days, weights)
            ],
        )


def make_database(network: SocialNetwork, *, bulk: bool = True) -> Database:
    db = Database()
    load_into(db, network, bulk=bulk)
    return db


def random_pairs(
    network: SocialNetwork, count: int, *, seed: int = 7
) -> list[tuple[int, int]]:
    """Uniformly random <source, destination> person-id pairs (the paper:
    "randomly generated out of the set of the generated persons and
    according to a uniform distribution")."""
    rng = np.random.default_rng(seed)
    ids = network.person_ids
    src = rng.choice(ids, size=count)
    dst = rng.choice(ids, size=count)
    return [(int(a), int(b)) for a, b in zip(src, dst)]


def run_q13(db: Database, source: int, dest: int):
    """Cost of the unweighted shortest path (None when unreachable)."""
    rows = db.execute(Q13_SQL, (source, dest)).rows()
    return rows[0][0] if rows else None


def run_q14_variant(db: Database, source: int, dest: int, *, float_weights: bool = False):
    """(cost, path) of one weighted shortest path, or None."""
    sql = Q14_VARIANT_FLOAT_SQL if float_weights else Q14_VARIANT_SQL
    rows = db.execute(sql, (source, dest)).rows()
    return rows[0] if rows else None


def ensure_pairs_table(db: Database) -> None:
    if not db.catalog.has("pairs"):
        db.execute("CREATE TABLE pairs (src BIGINT, dst BIGINT)")


def run_q13_batch(db: Database, pairs: Sequence[tuple[int, int]]):
    """Evaluate Q13 for a whole batch of pairs in one statement.

    This is the Figure 1b experiment: "grouping together multiple pairs
    <source, destination> at varying batch sizes" amortizes the graph
    construction over the batch.
    """
    ensure_pairs_table(db)
    table = db.table("pairs")
    table.truncate()
    table.insert_rows([(int(a), int(b)) for a, b in pairs])
    return db.execute(Q13_BATCH_SQL).rows()
