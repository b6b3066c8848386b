"""Seeded input generators for the end-to-end benchmark.

They mirror the shape of the engine's LDBC-like generator (Table 1 sizes
shrunk by 0.01, sparse person ids, Zipf-skewed endpoint popularity,
friendships stored in both directions, affinity weights quantized to 0.1)
without importing it, so moving or changing that module never changes the
benchmark's inputs.  Every generator is a pure function of its seed and
returns plain numpy arrays; :func:`write_inputs` turns them into the raw
``.npy`` files the engine is fed from.
"""

from __future__ import annotations

import os

import numpy as np

#: Table 1 of the paper (scale factor -> persons, directed edges) x 0.01.
GRAPH_SIZES = {10: (650, 38_940), 100: (4_480, 399_980)}

DAY0 = 14_610  # 2010-01-01 in days since the epoch
CATEGORIES = [f"cat{i:02d}" for i in range(40)]
REGIONS = ["north", "south", "east", "west", "centre", "coast", "alps",
           "plains", "delta", "islands", "highlands", "metro"]
BRANCHES = [f"branch{i:02d}" for i in range(24)]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def social_graph(seed: int, scale_factor: int, scale: float = 1.0) -> dict:
    """Persons and directed ``knows`` edges of one friendship graph."""
    persons, directed = GRAPH_SIZES[scale_factor]
    n = max(16, int(persons * scale))
    m = min(max(32, int(directed * scale) // 2), n * (n - 1) // 4)
    rng = _rng(seed, scale_factor)
    ids = np.cumsum(rng.integers(1, 20, size=n)).astype(np.int64) + 100
    popularity = (rng.permutation(n) + 1.0) ** -0.6
    popularity /= popularity.sum()
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < m:
        a = rng.choice(n, size=2 * m, p=popularity)
        b = rng.choice(n, size=2 * m, p=popularity)
        keep = a != b
        key = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
        _, first = np.unique(np.concatenate([chosen, key]), return_index=True)
        chosen = np.concatenate([chosen, key])[np.sort(first)]
    chosen = chosen[:m]
    u, v = chosen // n, chosen % n
    weight = np.round(np.clip(rng.exponential(1.2, size=m) + 0.1, 0.1, 10.0) * 10) / 10
    day = rng.integers(DAY0, DAY0 + 1095, size=m).astype(np.int64)
    return {
        "persons": {
            "id": ids,
            "firstName": np.array([f"p{i % 97}" for i in range(n)]),
        },
        "knows": {
            "person1": np.concatenate([ids[u], ids[v]]),
            "person2": np.concatenate([ids[v], ids[u]]),
            "creationDate": np.concatenate([day, day]),
            "weight": np.concatenate([weight, weight]),
        },
    }


def fact_rows(rng: np.random.Generator, first_id: int, count: int,
              first_day: int, days: int, stores: int) -> dict:
    """``count`` fact rows with ids from ``first_id`` and ``day`` sorted
    over ``[first_day, first_day + days)``."""
    return {
        "id": np.arange(first_id, first_id + count, dtype=np.int64),
        "day": np.sort(rng.integers(first_day, first_day + days, size=count)).astype(np.int64),
        "store": rng.integers(0, stores, size=count).astype(np.int64),
        "category": np.array(CATEGORIES)[rng.integers(0, len(CATEGORIES), size=count)],
        "qty": rng.integers(1, 100, size=count).astype(np.int64),
        "amount": np.round(rng.lognormal(3.0, 1.0, size=count), 2),
    }


def analytics(seed: int, scale: float = 1.0) -> dict:
    """A compressed fact table (sorted ``day``, 40-value ``category``)
    and its 50k-row store dimension."""
    rows = max(2_000, int(500_000 * scale))
    stores = max(100, int(50_000 * scale))
    rng = _rng(seed, 1)
    dim = {
        "store": np.arange(stores, dtype=np.int64),
        "region": np.array(REGIONS)[rng.integers(0, len(REGIONS), size=stores)],
        "sqft": rng.integers(50, 5_000, size=stores).astype(np.int64),
    }
    return {"fact": fact_rows(rng, 0, rows, 0, 1_000, stores), "dim": dim}


def accounts(seed: int, scale: float = 1.0) -> dict:
    """The served workload's accounts table plus an SF-10-shaped graph."""
    rows = max(1_000, int(200_000 * scale))
    rng = _rng(seed, 2)
    data = social_graph(seed, 10, scale)
    data["accounts"] = {
        # keys are handed out in order, as a sequence would
        "id": np.arange(rows, dtype=np.int64) * 3 + 7,
        "branch": np.array(BRANCHES)[rng.integers(0, len(BRANCHES), size=rows)],
        "balance": np.round(rng.normal(1_000.0, 300.0, size=rows), 2),
    }
    return data


def user_bytes(tables: dict) -> int:
    """Raw bytes of the generated user data: fixed-width values at their
    width, strings at their UTF-8 length."""
    total = 0
    for columns in tables.values():
        for array in columns.values():
            if array.dtype.kind == "U":
                total += sum(len(s.encode()) for s in array.tolist())
            else:
                total += array.nbytes
    return total


def write_inputs(tables: dict, directory: str) -> None:
    """One ``<table>.<column>.npy`` file per generated column."""
    os.makedirs(directory, exist_ok=True)
    for table, columns in tables.items():
        for column, array in columns.items():
            np.save(os.path.join(directory, f"{table}.{column}.npy"), array)


def read_inputs(directory: str, table: str, columns) -> list:
    """The raw column files of one table, in ``columns`` order."""
    return [np.load(os.path.join(directory, f"{table}.{c}.npy")) for c in columns]
