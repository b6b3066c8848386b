"""``analytics_scan``: a compressed fact table opened from its mmap image.
Point statements are literal SQL from more distinct shapes than the plan
cache holds; heavy is a top-k sort, bulk a fact-dimension join with
GROUP BY, write an appender batch of new fact rows."""

from __future__ import annotations

import itertools
import os
import shutil

import numpy as np

import gen
from common import now
from refs import FactMirror
from spans import engine_counters

FACT_COLUMNS = ["id", "day", "store", "category", "qty", "amount"]
DIM_COLUMNS = ["store", "region", "sqft"]
AGGREGATES = ["count(*)", "sum(qty)", "sum(amount)", "min(amount)", "max(amount)"]
#: 31 non-empty aggregate lists x 5 predicate forms = 155 statement shapes,
#: more than the plan cache's 128 entries.
OUTPUT_LISTS = [
    list(c) for r in range(1, len(AGGREGATES) + 1)
    for c in itertools.combinations(AGGREGATES, r)
]
PREDICATES = ["day", "day_range", "day_category", "day_range_qty", "day_store"]
TOP_K = 10
HEAVY = f"SELECT id, amount FROM fact ORDER BY amount DESC LIMIT {TOP_K}"
BULK = (
    "SELECT d.region, count(*), sum(f.amount) FROM fact f "
    "JOIN dim d ON f.store = d.store GROUP BY d.region"
)
APPEND_ROWS = 2_000


class AnalyticsWorkload:
    flush_policy = "durability=off"

    def __init__(self, cfg):
        from repro import Database

        self.Database = Database
        self.cfg = cfg
        # no reference state stays alive during the run: verify() rebuilds
        # the mirror from the input files and the appended batches from
        # their seeds, after peak_rss_mb is read
        data = gen.analytics(cfg.seed, cfg.scale)
        self.inputs = os.path.join(cfg.workdir, "inputs")
        gen.write_inputs(data, self.inputs)
        self.user_bytes = gen.user_bytes(data)
        self.stores = len(data["dim"]["store"])
        self.rng = np.random.default_rng([cfg.seed, 11])
        self.base_rows = self.rows = len(data["fact"]["id"])
        self.base_day = int(data["fact"]["day"][-1])
        self.batches = 0
        self.db = None
        self.image = None
        self.records: list = []
        self.ops = {"write": self.write, "bulk": self.bulk,
                    "point": self.point, "heavy": self.heavy}
        points = ["point"] * 20
        self.cycle = ["write", "bulk"] + (points + ["heavy"]) * 3 + points

    def setup(self, rep: int) -> tuple:
        """Raw files -> ingest -> ANALYZE (encodings, zone maps) -> save
        -> close -> mmap load -> first correct answer."""
        self.close()
        image = os.path.join(self.cfg.workdir, f"image{rep}")
        start = now()
        db = self.Database()
        db.execute("CREATE TABLE fact (id BIGINT, day INTEGER, store BIGINT, "
                   "category VARCHAR, qty INTEGER, amount DOUBLE)")
        db.execute("CREATE TABLE dim (store BIGINT, region VARCHAR, sqft INTEGER)")
        db.appender("fact").append(gen.read_inputs(self.inputs, "fact", FACT_COLUMNS))
        db.appender("dim").append(gen.read_inputs(self.inputs, "dim", DIM_COLUMNS))
        db.analyze()
        db.save(image)
        db.close()
        self.db = self.Database.load(image)
        touch = now()
        self.point()
        end = now()
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

    # -- ops ----------------------------------------------------------
    def _predicate(self) -> tuple:
        rng = self.rng
        form = PREDICATES[int(rng.integers(len(PREDICATES)))]
        day = int(rng.integers(0, self.base_day + self.batches - 1))
        if form == "day":
            return f"day = {day}", {"day_lo": day, "day_hi": day}
        if form == "day_range":
            return (f"day BETWEEN {day} AND {day + 1}",
                    {"day_lo": day, "day_hi": day + 1})
        if form == "day_category":
            category = gen.CATEGORIES[int(rng.integers(len(gen.CATEGORIES)))]
            return (f"day = {day} AND category = '{category}'",
                    {"day_lo": day, "day_hi": day, "category": category})
        if form == "day_range_qty":
            qty = int(rng.integers(1, 100))
            return (f"day BETWEEN {day} AND {day + 2} AND qty > {qty}",
                    {"day_lo": day, "day_hi": day + 2, "qty_gt": qty})
        store = int(rng.integers(0, self.stores))
        return (f"day = {day} AND store < {store}",
                {"day_lo": day, "day_hi": day, "store_lt": store})

    def point(self):
        outputs = OUTPUT_LISTS[int(self.rng.integers(len(OUTPUT_LISTS)))]
        where, predicate = self._predicate()
        sql = f"SELECT {', '.join(outputs)} FROM fact WHERE {where}"
        t0 = now()
        rows = self.db.execute(sql).rows()
        latency = now() - t0
        self.records.append(("point", self.rows, (predicate, outputs), rows))
        return 1, latency

    def heavy(self):
        t0 = now()
        rows = self.db.execute(HEAVY).rows()
        latency = now() - t0
        self.records.append(("heavy", self.rows, None, rows))
        return 1, latency

    def bulk(self):
        t0 = now()
        rows = self.db.execute(BULK).rows()
        latency = now() - t0
        self.records.append(("bulk", self.rows, None, rows))
        return 1, latency

    def _batch(self, index: int) -> dict:
        """The ``index``-th appended batch: one new day of fact rows."""
        return gen.fact_rows(np.random.default_rng([self.cfg.seed, 12, index]),
                             self.base_rows + index * APPEND_ROWS, APPEND_ROWS,
                             self.base_day + 1 + index, 1, self.stores)

    def write(self):
        batch = self._batch(self.batches)
        columns = [batch[c] for c in FACT_COLUMNS]
        t0 = now()
        self.db.appender("fact").append(columns)
        latency = now() - t0
        self.batches += 1
        self.rows += APPEND_ROWS
        return 1, latency

    # -- checking -----------------------------------------------------
    def verify(self, checker) -> None:
        fact = dict(zip(FACT_COLUMNS, gen.read_inputs(self.inputs, "fact", FACT_COLUMNS)))
        dim = dict(zip(DIM_COLUMNS, gen.read_inputs(self.inputs, "dim", DIM_COLUMNS)))
        mirror = FactMirror(fact, dim)
        for index in range(self.batches):
            mirror.append(self._batch(index))
        for kind, visible, args, rows in self.records:
            if kind == "point":
                predicate, outputs = args
                checker.expect(f"point {predicate} {outputs}", rows[0] if rows else None,
                               mirror.aggregates(visible, predicate, outputs))
            elif kind == "heavy":
                amounts = [float(a) for _, a in rows]
                ids_match = mirror.amount_of([i for i, _ in rows]) == amounts
                checker.expect("top-k", (amounts, ids_match),
                               (mirror.top_amounts(visible, TOP_K), True))
            else:
                got = {str(r): (int(c), float(s)) for r, c, s in rows}
                checker.expect("join group-by", got, mirror.region_totals(visible))

    def counters(self) -> dict:
        return engine_counters(self.db)

    def delta_ratio(self) -> float:
        return 0.0
