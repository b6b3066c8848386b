"""Reference answers computed without the engine: shortest paths with
``scipy.sparse.csgraph``, analytics with numpy.  Nothing here imports
``repro``."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path


class GraphMirror:
    """The benchmark's own copy of a directed edge table (person ids plus
    integer weights ``weight * 10``), updated alongside every write the
    benchmark sends, so each answer can be checked against the edge set
    the statement saw."""

    def __init__(self, person_ids, src, dst, weight):
        self.ids = np.asarray(person_ids)
        self.n = len(self.ids)
        self.rows = np.searchsorted(self.ids, src)
        self.cols = np.searchsorted(self.ids, dst)
        self.w10 = _w10(weight)
        self.alive = np.ones(len(self.rows), dtype=bool)
        self._row_of = None
        self._matrix = None

    def row_of(self) -> dict:
        """(person1, person2) -> row of its live edge, built on first use."""
        if self._row_of is None:
            live = np.flatnonzero(self.alive)
            pairs = zip(self.ids[self.rows[live]].tolist(), self.ids[self.cols[live]].tolist())
            self._row_of = dict(zip(pairs, live.tolist()))
        return self._row_of

    def insert(self, src, dst, weight) -> None:
        if self._row_of is not None:
            base = len(self.rows)
            for offset, pair in enumerate(zip(src, dst)):
                self._row_of[(int(pair[0]), int(pair[1]))] = base + offset
        self.rows = np.concatenate([self.rows, self.index(src)])
        self.cols = np.concatenate([self.cols, self.index(dst)])
        self.w10 = np.concatenate([self.w10, _w10(weight)])
        self.alive = np.concatenate([self.alive, np.ones(len(src), dtype=bool)])
        self._matrix = None

    def delete(self, a: int, b: int) -> None:
        row = self.row_of().pop((a, b), None)
        if row is not None:
            self.alive[row] = False
            self._matrix = None

    def matrix(self) -> csr_matrix:
        if self._matrix is None:
            live = self.alive
            self._matrix = csr_matrix(
                (self.w10[live].astype(np.float64), (self.rows[live], self.cols[live])),
                shape=(self.n, self.n),
            )
        return self._matrix

    def index(self, person) -> np.ndarray:
        return np.searchsorted(self.ids, np.asarray(person))

    def hops(self, sources, dests) -> list:
        """Unweighted shortest-path length per pair (None: unreachable).

        Pairs at most three hops apart (nearly all, in a social graph) are
        settled by meeting in the middle on the sparse adjacency: out-
        neighbours of the source against in-neighbours of the destination.
        The rest fall back to one breadth-first search per source."""
        s, d = self.index(sources), self.index(dests)
        if not len(s):
            return []
        unit = self.matrix().astype(bool).astype(np.int32)
        out = np.full(len(s), -1, dtype=np.int64)
        out[s == d] = 0
        forward = unit[s]
        backward = unit.T.tocsr()[d]
        out[(out < 0) & (np.asarray(unit[s, d]).ravel() > 0)] = 1
        meet2 = np.asarray(forward.multiply(backward).sum(axis=1)).ravel() > 0
        out[(out < 0) & meet2] = 2
        todo = np.flatnonzero(out < 0)
        if len(todo):
            meet3 = np.asarray((forward[todo] @ unit).multiply(backward[todo]).sum(axis=1)).ravel() > 0
            out[todo[meet3]] = 3
            todo = todo[~meet3]
        if len(todo):
            far = self._per_pair(np.asarray(sources)[todo], np.asarray(dests)[todo], True)
            out[todo] = [-1 if h is None else h for h in far]
        return [None if h < 0 else int(h) for h in out]

    def costs(self, sources, dests) -> list:
        """Weighted (``weight * 10``) shortest-path cost per pair."""
        return self._per_pair(sources, dests, unweighted=False)

    def _per_pair(self, sources, dests, unweighted: bool) -> list:
        # one search per distinct source, all in one call
        sources, dests = np.asarray(sources), np.asarray(dests)
        if not len(sources):
            return []
        unique, inverse = np.unique(sources, return_inverse=True)
        dist = shortest_path(self.matrix(), method="D", unweighted=unweighted,
                             indices=self.index(unique))
        dist = np.atleast_2d(dist)[inverse, self.index(dests)]
        return [None if np.isinf(d) else int(d) for d in dist]

    def path_cost(self, path) -> "int | None":
        """Sum of the edge weights along ``path`` (person ids), or None
        when some hop is not an edge of the current table."""
        total, row_of = 0, self.row_of()
        for a, b in zip(path, path[1:]):
            row = row_of.get((int(a), int(b)))
            if row is None:
                return None
            total += int(self.w10[row])
        return total

    def target_at_rank(self, source, quantile: float):
        """The reachable person whose weighted distance from ``source``
        has the given rank quantile."""
        dist = dijkstra(self.matrix(), indices=int(self.index(source)))
        order = np.argsort(dist, kind="stable")
        reachable = order[np.isfinite(dist[order])][1:]
        return int(self.ids[reachable[min(len(reachable) - 1, int(quantile * len(reachable)))]])


def _w10(weight) -> np.ndarray:
    # weights are multiples of 0.1; the Q14 variant costs weight * 10
    return np.rint(np.asarray(weight, dtype=np.float64) * 10).astype(np.int64)


class FactMirror:
    """Column arrays of the analytics fact table, grown by every
    appended batch; ``rows`` bounds what a statement could see."""

    def __init__(self, fact: dict, dim: dict):
        self.columns = {k: [v] for k, v in fact.items()}
        self.region_names = np.unique(dim["region"])
        self.store_region = np.searchsorted(self.region_names, dim["region"])
        self._flat: dict = {}
        self.rows = len(fact["id"])

    def append(self, batch: dict) -> None:
        for k, v in batch.items():
            self.columns[k].append(v)
        self.rows += len(batch["id"])
        self._flat = {}

    def col(self, name: str, rows: int) -> np.ndarray:
        if name not in self._flat:
            self._flat[name] = np.concatenate(self.columns[name])
        return self._flat[name][:rows]

    def aggregates(self, rows: int, predicate: dict, outputs: list) -> tuple:
        """Answer of ``SELECT <outputs> FROM fact WHERE <predicate>``."""
        day = self.col("day", rows)
        lo = np.searchsorted(day, predicate["day_lo"], side="left")
        hi = np.searchsorted(day, predicate["day_hi"], side="right")
        mask = np.ones(hi - lo, dtype=bool)
        if "category" in predicate:
            mask &= self.col("category", rows)[lo:hi] == predicate["category"]
        if "qty_gt" in predicate:
            mask &= self.col("qty", rows)[lo:hi] > predicate["qty_gt"]
        if "store_lt" in predicate:
            mask &= self.col("store", rows)[lo:hi] < predicate["store_lt"]
        qty = self.col("qty", rows)[lo:hi][mask]
        amount = self.col("amount", rows)[lo:hi][mask]
        answer = []
        for name in outputs:
            if name == "count(*)":
                answer.append(int(mask.sum()))
            elif not len(qty):
                answer.append(None)
            elif name == "sum(qty)":
                answer.append(int(qty.sum()))
            elif name == "sum(amount)":
                answer.append(float(amount.sum()))
            elif name == "min(amount)":
                answer.append(float(amount.min()))
            elif name == "max(amount)":
                answer.append(float(amount.max()))
        return tuple(answer)

    def top_amounts(self, rows: int, k: int) -> list:
        amount = self.col("amount", rows)
        top = np.partition(amount, len(amount) - k)[len(amount) - k:]
        return sorted(top.tolist(), reverse=True)

    def amount_of(self, ids) -> list:
        # fact ids are dense row numbers
        return self.col("amount", self.rows)[np.asarray(ids, dtype=np.int64)].tolist()

    def region_totals(self, rows: int) -> dict:
        """``region -> (count, sum(amount))`` of the fact-dim join."""
        region = self.store_region[self.col("store", rows)]
        counts = np.bincount(region, minlength=len(self.region_names))
        sums = np.bincount(region, weights=self.col("amount", rows),
                           minlength=len(self.region_names))
        return {
            str(name): (int(c), float(s))
            for name, c, s in zip(self.region_names, counts, sums)
            if c
        }
