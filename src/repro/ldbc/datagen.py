"""Synthetic LDBC-SNB-like social network generator.

The paper's evaluation (Section 4) uses the LDBC DATAGEN friendship
graph: "the vertices are the users of the social network while the edges
are their friendship relationships", generated at scale factors 1-300,
with directed edge counts twice the undirected friendship counts
(Table 1).  DATAGEN itself is a large Hadoop-based generator we cannot
run offline, so this module synthesizes graphs with the same *shape*:

* per-scale-factor vertex/edge counts proportional to Table 1 (a global
  ``scale`` knob shrinks them to laptop size while preserving the ratios
  between scale factors and the average degree per scale factor);
* a right-skewed degree distribution (LDBC persons have power-law-ish
  friend counts) obtained by sampling endpoints with Zipf-like
  probabilities;
* undirected friendships emitted as two directed edges with equal
  properties, exactly like the paper's load;
* per-friendship ``creationDate`` (2010-2012) and a strictly positive
  ``weight`` — the Q14 "affinity" between the two friends, which LDBC
  derives from forum interactions and we draw from a matching skewed
  distribution quantized to 0.1 steps (so ``weight * 10`` is an exact
  integer, letting Dijkstra run on exact integer costs).

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Table 1 of the paper: scale factor -> (vertices, directed edges).
TABLE1_SIZES: dict[int, tuple[int, int]] = {
    1: (9_892, 362_000),
    3: (24_000, 1_132_000),
    10: (65_000, 3_894_000),
    30: (165_000, 12_115_000),
    100: (448_000, 39_998_000),
    300: (1_128_000, 119_225_000),
}

SCALE_FACTORS: tuple[int, ...] = tuple(sorted(TABLE1_SIZES))

#: Default shrink factor: SF 300 becomes ~11k vertices / ~1.2M directed
#: edges, which a pure-Python engine handles in benchmark time budgets.
DEFAULT_SCALE = 0.01

_FIRST_NAMES = (
    "Mahinda Carmen Chen Otto Jan Eva Wei Ali Fritz Ken Hans Jun Anna "
    "Bryn Ivan Lei Abdul Yang Mirza Priya Jack Lin Rahul Sara Amin Mia"
).split()

_LAST_NAMES = (
    "Perera Lepland Wang Richter Zoltan Bauer Li Khan Engel Akiyama "
    "Kovacs Sato Novak Jones Petrov Chen Aziz Liu Hadzic Sharma Reddy"
).split()


@dataclass
class SocialNetwork:
    """One generated dataset (directed edges, both directions present)."""

    scale_factor: float
    person_ids: np.ndarray  # int64, sorted unique
    first_names: list[str]
    last_names: list[str]
    genders: list[str]
    #: undirected friendship endpoints (one row per friendship)
    friend_src: np.ndarray
    friend_dst: np.ndarray
    creation_days: np.ndarray  # days since epoch
    weights: np.ndarray  # affinity, multiples of 0.1, > 0

    @property
    def num_persons(self) -> int:
        return len(self.person_ids)

    @property
    def num_friendships(self) -> int:
        return len(self.friend_src)

    @property
    def num_directed_edges(self) -> int:
        return 2 * self.num_friendships

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, creation_days, weights) with both directions."""
        src = np.concatenate([self.friend_src, self.friend_dst])
        dst = np.concatenate([self.friend_dst, self.friend_src])
        days = np.concatenate([self.creation_days, self.creation_days])
        weights = np.concatenate([self.weights, self.weights])
        return src, dst, days, weights


def target_sizes(scale_factor: float, scale: float = DEFAULT_SCALE) -> tuple[int, int]:
    """(vertices, undirected friendships) for a scale factor.

    Known scale factors use Table 1 (scaled by ``scale``); intermediate
    values interpolate on the log-log line through Table 1.
    """
    if scale_factor in TABLE1_SIZES:
        vertices, directed = TABLE1_SIZES[int(scale_factor)]
    else:
        xs = np.log(np.array(SCALE_FACTORS, dtype=np.float64))
        vs = np.log(np.array([TABLE1_SIZES[s][0] for s in SCALE_FACTORS], float))
        es = np.log(np.array([TABLE1_SIZES[s][1] for s in SCALE_FACTORS], float))
        x = np.log(float(scale_factor))
        vertices = float(np.exp(np.interp(x, xs, vs)))
        directed = float(np.exp(np.interp(x, xs, es)))
    n_vertices = max(8, int(round(vertices * scale)))
    n_friendships = max(8, int(round(directed * scale / 2)))
    return n_vertices, n_friendships


def generate(
    scale_factor: float,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
    skew: float = 0.6,
) -> SocialNetwork:
    """Generate one social network.

    ``skew`` controls the Zipf exponent of endpoint popularity (0 =
    uniform; LDBC-like graphs are noticeably skewed).
    """
    n_vertices, n_friendships = target_sizes(scale_factor, scale)
    rng = np.random.default_rng(seed + int(scale_factor * 1000))

    # LDBC person ids are sparse; emulate with strided ids + jitter so the
    # engine's dictionary encoding is actually exercised.
    ids = np.cumsum(rng.integers(1, 20, size=n_vertices).astype(np.int64)) + 100
    person_ids = ids

    # skewed endpoint popularity (Zipf-ish over a random permutation)
    ranks = rng.permutation(n_vertices).astype(np.float64) + 1.0
    popularity = ranks ** (-skew)
    popularity /= popularity.sum()

    # sample friendships, dropping self-loops and duplicates, until the
    # target count is met (a small oversample keeps this to ~2 rounds)
    chosen: set[tuple[int, int]] = set()
    src_list: list[np.ndarray] = []
    dst_list: list[np.ndarray] = []
    needed = n_friendships
    while needed > 0:
        take = max(64, int(needed * 1.3))
        a = rng.choice(n_vertices, size=take, p=popularity)
        b = rng.choice(n_vertices, size=take, p=popularity)
        keep_src = []
        keep_dst = []
        for x, y in zip(a.tolist(), b.tolist()):
            if x == y:
                continue
            key = (x, y) if x < y else (y, x)
            if key in chosen:
                continue
            chosen.add(key)
            keep_src.append(key[0])
            keep_dst.append(key[1])
            if len(keep_src) == needed:
                break
        if keep_src:
            src_list.append(np.asarray(keep_src, dtype=np.int64))
            dst_list.append(np.asarray(keep_dst, dtype=np.int64))
            needed -= len(keep_src)
        # guard against pathological tiny graphs where the pair space is
        # exhausted before reaching the target
        max_pairs = n_vertices * (n_vertices - 1) // 2
        if len(chosen) >= max_pairs:
            break
    friend_src = person_ids[np.concatenate(src_list)] if src_list else np.empty(0, np.int64)
    friend_dst = person_ids[np.concatenate(dst_list)] if dst_list else np.empty(0, np.int64)
    count = len(friend_src)

    # friendship creation dates: 2010-01-01 .. 2012-12-31
    day0 = 14_610  # 2010-01-01 in days since epoch
    creation_days = rng.integers(day0, day0 + 1095, size=count).astype(np.int64)

    # Q14 affinity: LDBC derives it from common forum interactions; we
    # draw from a geometric-like skew (most friendships weak, few strong),
    # quantized to 0.1 and strictly positive.
    raw = rng.exponential(scale=1.2, size=count) + 0.1
    weights = np.round(np.clip(raw, 0.1, 10.0) * 10.0) / 10.0

    first_names = [_FIRST_NAMES[i % len(_FIRST_NAMES)] for i in range(n_vertices)]
    last_names = [_LAST_NAMES[(i * 7) % len(_LAST_NAMES)] for i in range(n_vertices)]
    genders = ["male" if i % 2 == 0 else "female" for i in range(n_vertices)]

    return SocialNetwork(
        scale_factor=scale_factor,
        person_ids=person_ids,
        first_names=first_names,
        last_names=last_names,
        genders=genders,
        friend_src=friend_src,
        friend_dst=friend_dst,
        creation_days=creation_days,
        weights=weights,
    )


def table1_row(network: SocialNetwork) -> dict:
    """Vertices/edges of a generated network, Table-1 style."""
    return {
        "scale_factor": network.scale_factor,
        "vertices": network.num_persons,
        "edges": network.num_directed_edges,
    }
