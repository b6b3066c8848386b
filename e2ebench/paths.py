"""``paths_indexed`` and ``paths_churn``: the paper's path queries (Q13,
the weighted Q14 variant, batched Q13) over an SF-100-shaped friendship
graph that is saved with its graph index and reopened.  ``paths_churn``
runs the same reads beside edge INSERTs and DELETEs."""

from __future__ import annotations

import itertools
import os
import shutil

import numpy as np

import gen
from common import now
from refs import GraphMirror
from spans import engine_counters

Q13 = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (person1, person2)"
Q14 = (
    "SELECT CHEAPEST SUM(k: CAST(weight * 10 AS bigint)) AS (cost, path) "
    "WHERE ? REACHES ? OVER knows k EDGE (person1, person2)"
)
Q13_BATCH = (
    "SELECT p.src, p.dst, CHEAPEST SUM(1) AS hops FROM pairs p "
    "WHERE p.src REACHES p.dst OVER knows EDGE (person1, person2)"
)
BATCH_PAIRS = 256
#: each churn INSERT adds one friendship (two directed rows) per this many
#: existing edges: 350 friendships, 700 rows, on the full-size graph
EDGES_PER_CHURN_FRIENDSHIP = 1143
HEAVY_PAIRS = 48
KNOWS_COLUMNS = ["person1", "person2", "creationDate", "weight"]
DELETE_KNOWS = "DELETE FROM knows WHERE person1 = ? AND person2 = ?"

READS = ["point"] * 8


class PathsWorkload:
    flush_policy = "durability=off"

    def __init__(self, cfg, churn: bool):
        from repro import Database

        self.Database = Database
        self.cfg = cfg
        # nothing derived from the generated graph but the person ids, the
        # heavy pairs and the churn edge keys stays alive during the run:
        # the reference mirror is built from the input files in verify(),
        # after peak_rss_mb is read
        data = gen.social_graph(cfg.seed, 100, cfg.scale)
        self.inputs = os.path.join(cfg.workdir, "inputs")
        gen.write_inputs(data, self.inputs)
        self.user_bytes = gen.user_bytes(data)
        knows = data["knows"]
        self.ids = data["persons"]["id"]
        self.friendships = max(1, round(len(knows["person1"]) / EDGES_PER_CHURN_FRIENDSHIP))
        self.insert_knows = "INSERT INTO knows VALUES " + ", ".join(
            ["(?, ?, ?, ?)"] * (2 * self.friendships))
        self.rng = np.random.default_rng([cfg.seed, 7])
        # Q14 from a random person to the one at the median weighted
        # distance from it: the cost of a typical uniform pair, without
        # the spread of near and far destinations (Dijkstra stops when the
        # destination settles, so its work follows the destination's rank)
        mirror = GraphMirror(self.ids, knows["person1"], knows["person2"], knows["weight"])
        sources = self.rng.choice(self.ids, size=HEAVY_PAIRS)
        self.heavy_pairs = [(int(s), mirror.target_at_rank(s, 0.5)) for s in sources]
        self.db = None
        self.image = None
        self.records: list = []
        self.writes: list = []  # churn edge writes, in commit order
        self.pairs = None
        self.heavy_done = 0
        if churn:
            #: person1 * key_base + person2 of every edge the table ever
            #: held, sorted; new friendships avoid all of them, so every
            #: known key not in ``deleted`` is a live edge
            self.key_base = int(self.ids[-1]) + 1
            self.edge_keys = np.sort(knows["person1"] * self.key_base + knows["person2"])
            self.deleted: set = set()
            self.ops = {"reload": self.reload, "bulk": self.bulk, "write": self.write,
                        "point": self.point, "heavy": self.heavy}
            self.cycle = (["reload", "bulk", "write"] + READS + ["heavy", "write"]
                          + READS + ["heavy", "write"] + READS)
        else:
            self.ops = {"write": self.reload, "bulk": self.bulk,
                        "point": self.point, "heavy": self.heavy}
            self.cycle = (["write", "bulk"] + READS + ["heavy"] + READS
                          + ["heavy"] + READS)

    # -- lifecycle ---------------------------------------------------
    def setup(self, rep: int) -> tuple:
        """Raw files -> ingest -> graph index + ANALYZE -> save -> close
        -> load -> first correct answer.  Returns (seconds, first-answer
        seconds)."""
        self.close()
        image = os.path.join(self.cfg.workdir, f"image{rep}")
        start = now()
        db = self.Database()
        db.execute("CREATE TABLE persons (id BIGINT, firstName VARCHAR)")
        db.execute("CREATE TABLE knows (person1 BIGINT, person2 BIGINT, "
                   "creationDate DATE, weight DOUBLE)")
        db.execute("CREATE TABLE pairs (src BIGINT, dst BIGINT)")
        db.appender("persons").append(gen.read_inputs(self.inputs, "persons", ["id", "firstName"]))
        db.appender("knows").append(gen.read_inputs(self.inputs, "knows", KNOWS_COLUMNS))
        db.execute("CREATE GRAPH INDEX knows_index ON knows EDGE (person1, person2)")
        db.analyze()
        db.save(image)
        db.close()
        self.db = self.Database.load(image)
        touch = now()
        s, d = self._pair()
        rows = self.db.execute(Q13, (s, d)).rows()
        end = now()
        self.records.append(("point", 0, s, d, rows))
        self.image = image
        return end - start, end - touch

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self.image is not None:
            shutil.rmtree(self.image, ignore_errors=True)
            self.image = None

    def stored_bytes(self) -> dict:
        from common import dir_bytes, image_parts

        return {"image": dir_bytes(self.image), "wal": 0,
                "parts": image_parts(self.image), "user": self.user_bytes}

    # -- ops: each returns (statements, latency seconds) ----------------
    def _pair(self) -> tuple:
        s, d = self.rng.choice(self.ids, size=2, replace=False)
        return int(s), int(d)

    def point(self):
        s, d = self._pair()
        t0 = now()
        rows = self.db.execute(Q13, (s, d)).rows()
        latency = now() - t0
        self.records.append(("point", len(self.writes), s, d, rows))
        return 1, latency

    def heavy(self):
        s, d = self.heavy_pairs[self.heavy_done % len(self.heavy_pairs)]
        self.heavy_done += 1
        t0 = now()
        rows = self.db.execute(Q14, (s, d)).rows()
        latency = now() - t0
        self.records.append(("heavy", len(self.writes), s, d,
                             [(cost, path.to_rows()) for cost, path in rows]))
        return 1, latency

    def reload(self):
        src = self.rng.choice(self.ids, size=BATCH_PAIRS)
        dst = self.rng.choice(self.ids, size=BATCH_PAIRS)
        same = src == dst
        dst[same] = self.ids[(np.searchsorted(self.ids, src[same]) + 1) % len(self.ids)]
        t0 = now()
        self.db.execute("DELETE FROM pairs")
        self.db.appender("pairs").append([src, dst])
        latency = now() - t0
        self.pairs = (src, dst)
        return 2, latency

    def bulk(self):
        t0 = now()
        rows = self.db.execute(Q13_BATCH).rows()
        latency = now() - t0
        self.records.append(("bulk", len(self.writes), self.pairs, None, rows))
        return 1, latency

    def _known(self, keys: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
        return self.edge_keys[at] == keys

    def _new_friendships(self) -> tuple:
        """Person pairs that were never an edge in either direction."""
        rng, base, count = self.rng, self.key_base, self.friendships
        chosen = np.empty(0, dtype=np.int64)
        while len(chosen) < count:
            a = rng.choice(self.ids, size=2 * count)
            b = rng.choice(self.ids, size=2 * count)
            fresh = (a != b) & ~self._known(a * base + b) & ~self._known(b * base + a)
            both = np.concatenate(
                [chosen, np.minimum(a, b)[fresh] * base + np.maximum(a, b)[fresh]])
            _, first = np.unique(both, return_index=True)
            chosen = both[np.sort(first)]
        chosen = chosen[:count]
        return chosen // base, chosen % base

    def write(self):
        """One multi-row INSERT of new friendships (both directions) plus
        one single-row DELETE of an existing directed edge."""
        rng, base = self.rng, self.key_base
        a, b = self._new_friendships()
        weight = rng.integers(1, 60, size=len(a)) / 10
        day = int(rng.integers(gen.DAY0, gen.DAY0 + 1095))
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        w = np.concatenate([weight, weight])
        params = []
        for row in zip(src.tolist(), dst.tolist(), [day] * len(src), w.tolist()):
            params.extend(row)
        while True:
            victim = int(self.edge_keys[int(rng.integers(len(self.edge_keys)))])
            if victim not in self.deleted:
                break
        t0 = now()
        self.db.execute(self.insert_knows, params)
        self.db.execute(DELETE_KNOWS, (victim // base, victim % base))
        latency = now() - t0
        added = np.sort(src * base + dst)
        self.edge_keys = np.insert(self.edge_keys, np.searchsorted(self.edge_keys, added), added)
        self.deleted.add(victim)
        self.writes.append((src, dst, w, (victim // base, victim % base)))
        return 2, latency

    # -- checking ----------------------------------------------------
    def verify(self, checker) -> None:
        """Check every recorded answer against scipy on the edge set the
        statement saw (the initial graph plus the writes before it)."""
        knows = gen.read_inputs(self.inputs, "knows", ["person1", "person2", "weight"])
        mirror = self.mirror = GraphMirror(self.ids, *knows)
        applied = 0
        for epoch, group in itertools.groupby(self.records, key=lambda r: r[1]):
            while applied < epoch:
                src, dst, w, victim = self.writes[applied]
                mirror.insert(src, dst, w)
                mirror.delete(*victim)
                applied += 1
            group = list(group)
            pairs = [((a,), (b,)) if kind == "point" else a
                     for kind, _, a, b, _ in group if kind != "heavy"]
            hops = iter(mirror.hops([s for p in pairs for s in p[0]],
                                    [d for p in pairs for d in p[1]]))
            heavy = [(a, b) for kind, _, a, b, _ in group if kind == "heavy"]
            costs = iter(mirror.costs([a for a, _ in heavy], [b for _, b in heavy]))
            for kind, _, a, b, rows in group:
                if kind == "point":
                    checker.expect(f"Q13 {a}->{b}", rows[0][0] if rows else None, next(hops))
                elif kind == "heavy":
                    checker.expect(f"Q14 {a}->{b}", self._check_path(a, b, rows),
                                   (next(costs), True))
                else:
                    src, dst = a
                    want = sorted((int(s), int(d), h) for s, d, h
                                  in zip(src, dst, (next(hops) for _ in src)) if h is not None)
                    got = sorted((int(s), int(d), int(h)) for s, d, h in rows)
                    checker.expect("batched Q13", got, want)

    def _check_path(self, source, dest, rows) -> tuple:
        """(returned cost, whether the path is a chain of current edges
        from source to dest whose weights sum to that cost)."""
        if not rows:
            return None, True
        cost, edges = rows[0]
        chain = [source] + [e[1] for e in edges]
        valid = (
            len(edges) > 0
            and all(e[0] == p for e, p in zip(edges, chain))
            and chain[-1] == dest
            and self.mirror.path_cost(chain) == cost
        )
        return cost, valid

    # -- traced-run counters -----------------------------------------
    def counters(self) -> dict:
        return engine_counters(self.db)

    def delta_ratio(self) -> float:
        indices = self.db.graph_overlay_info()["indices"].values()
        return max(
            ((i["overlay_edges"] + i["tombstones"]) / max(1, i["base_edges"])
             for i in indices if i),
            default=0.0,
        )
