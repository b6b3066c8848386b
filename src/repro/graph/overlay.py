"""Incremental graph-index maintenance: CSR delta overlays.

Before this module, any committed DML on an edge table dropped the
cached :class:`~repro.graph.library.GraphLibrary` and the next path
query rebuilt domain + CSR from scratch (``np.unique`` over every
endpoint plus a full stable sort).  For a live, continuously-updated
graph that is fatal: a single appended edge costs a full rebuild.

:class:`GraphOverlayState` instead tracks the *delta* between the base
CSR's build version and the table's current committed version, keyed to
the ``TableVersion`` chain through the table write listeners:

* **appends** land in an append-side adjacency overlay — encoded edge
  arrays whose endpoints extend the base vertex domain on demand
  (:class:`OverlayDomain`);
* **deletes** become tombstones on base CSR slots plus a row remap, so
  the ``edge_rows`` contract (each CSR slot names the edge's position in
  the *current* filtered edge batch — what weighted queries and nested
  path reconstruction rely on) stays intact across row compaction;
* **updates** that do not touch the endpoint columns are free — the
  topology is unchanged, and the library's weighted views are keyed by
  table version, so the next weighted query builds its view afresh.

Queries are served a **merged** library: base CSR minus tombstones plus
the overlay, stitched in ``O(E + k log k)`` (``k`` = overlay edges)
without re-sorting the base — surviving base edges keep their relative
order and overlay edges append per vertex, which is exactly the order a
full rebuild's stable sort would produce.  The merged CSR is a plain
:class:`~repro.graph.csr.CSRGraph`, so BFS, Dijkstra and bidirectional
search run on it unchanged; each merged library builds its own
transpose on its first single-target query.

The overlay is the only index-maintenance path.  The first lookup after
the delta reaches ``Database(graph_compact_threshold=)`` operations
**compacts** it into a fresh canonically-built library (sorted domain,
zero tombstones); a threshold of 1 therefore rebuilds after every write,
which is the full-rebuild oracle the overlay is tested against.  Writes
the overlay cannot interpret drop the state, and the next lookup
rebuilds from scratch.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

import numpy as np

from .csr import CSRGraph, stable_argsort
from .domain import NOT_A_VERTEX
from .library import GraphLibrary


class OverlayDomain:
    """A base :class:`~repro.graph.domain.VertexDomain` extended with
    append-side vertices and delete-side liveness.

    Extra vertices (keys first seen in appended edges) take dense ids
    past ``base.num_vertices`` in first-seen order.  ``alive`` marks ids
    that still participate in at least one live edge: a fresh rebuild
    derives its domain from the current edge set, so a vertex whose
    every edge was deleted must encode to :data:`NOT_A_VERTEX` here too
    (otherwise ``X REACHES X`` would claim a cost-0 path through a
    vertex the oracle no longer knows).

    Instances snapshot their inputs — later writes to the overlay state
    never mutate a domain already handed to a query.
    """

    __slots__ = ("base", "extra_values", "_extra_lookup", "_alive")

    def __init__(
        self,
        base_domain,
        extra_values: Sequence[Any],
        ref_counts: np.ndarray,
    ):
        self.base = base_domain
        self.extra_values = list(extra_values)
        offset = base_domain.num_vertices
        self._extra_lookup = {
            key: offset + i for i, key in enumerate(self.extra_values)
        }
        self._alive = ref_counts > 0  # fresh bool array: a snapshot copy

    def __len__(self) -> int:
        return self.num_vertices

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices + len(self.extra_values)

    @property
    def values(self) -> np.ndarray:
        extras = np.empty(len(self.extra_values), dtype=object)
        for i, key in enumerate(self.extra_values):
            extras[i] = key
        return np.concatenate([self.base.values.astype(object), extras])

    def encode(self, keys: np.ndarray) -> np.ndarray:
        ids = self.base.encode(keys)
        if self._extra_lookup:
            misses = np.flatnonzero(ids == NOT_A_VERTEX)
            if len(misses):
                lookup = self._extra_lookup
                for i in misses:
                    ids[i] = lookup.get(keys[i], NOT_A_VERTEX)
        hits = ids != NOT_A_VERTEX
        if hits.any():
            found = ids[hits]
            dead = ~self._alive[found]
            if dead.any():
                found[dead] = NOT_A_VERTEX
                ids[hits] = found
        return ids

    def decode(self, ids: Sequence[int]) -> list[Any]:
        offset = self.base.num_vertices
        return [
            self.extra_values[i - offset] if i >= offset else self.base.values[i]
            for i in ids
        ]


class GraphOverlayState:
    """The mutable delta of one graph index between its base build and
    the table's current committed version.

    All mutation and merged-library construction happen under
    ``self.lock`` (per-index: two indices never contend).  The base
    library, every served merged library, and every
    :class:`OverlayDomain` are immutable snapshots — in-flight queries
    keep consistent structures while later writes accumulate here.
    """

    __slots__ = (
        "lock",
        "base",
        "base_version",
        "applied_version",
        "valid_mask",
        "filtered_count",
        "base_rows",
        "live_base",
        "extra_values",
        "extra_lookup",
        "ref_counts",
        "add_src",
        "add_dst",
        "add_rows",
        "overlay_edges",
        "tombstones",
        "merged",
    )

    def __init__(
        self,
        base_library: GraphLibrary,
        version_id: int,
        valid_mask: np.ndarray,
    ):
        self.lock = threading.Lock()
        self.base = base_library
        self.base_version = version_id
        self.applied_version = version_id
        #: Per table row: True when the row is an edge (both endpoints
        #: non-NULL).  Tracks the current applied version's row space.
        self.valid_mask = np.asarray(valid_mask, dtype=np.bool_)
        self.filtered_count = int(self.valid_mask.sum())
        #: Current filtered position per base CSR slot (None = identity,
        #: i.e. ``base.csr.edge_rows`` — no delete ever shifted rows).
        self.base_rows: Optional[np.ndarray] = None
        #: Liveness per base CSR slot (None = all live).
        self.live_base: Optional[np.ndarray] = None
        self.extra_values: list[Any] = []
        self.extra_lookup: dict[Any, int] = {}
        #: Live (in+out) degree per vertex id, built lazily on the first
        #: delta — the liveness source for :class:`OverlayDomain`.
        self.ref_counts: Optional[np.ndarray] = None
        self.add_src = np.empty(0, dtype=np.int64)
        self.add_dst = np.empty(0, dtype=np.int64)
        self.add_rows = np.empty(0, dtype=np.int64)
        self.overlay_edges = 0
        self.tombstones = 0
        #: Cached merged library for ``applied_version`` (invalidated by
        #: every topology-changing delta).
        self.merged: Optional[GraphLibrary] = None

    # ------------------------------------------------------------------
    @property
    def delta_size(self) -> int:
        """Applied delta operations: overlay edges plus tombstones (the
        compaction-threshold measure)."""
        return self.overlay_edges + self.tombstones

    def _ensure_refs(self) -> None:
        if self.ref_counts is None:
            csr = self.base.csr
            nv = self.base.domain.num_vertices
            self.ref_counts = np.bincount(
                csr.src, minlength=nv
            ) + np.bincount(csr.dst, minlength=nv)

    def _encode_extend(self, keys: np.ndarray) -> np.ndarray:
        """Encode appended endpoint keys, assigning fresh ids past the
        base domain to keys the base has never seen."""
        ids = self.base.domain.encode(keys)
        misses = np.flatnonzero(ids == NOT_A_VERTEX)
        if len(misses):
            offset = self.base.domain.num_vertices
            lookup = self.extra_lookup
            values = self.extra_values
            for i in misses:
                key = keys[i]
                code = lookup.get(key)
                if code is None:
                    code = offset + len(values)
                    lookup[key] = code
                    values.append(key)
                ids[i] = code
        return ids

    def _grow_refs(self) -> None:
        total = self.base.domain.num_vertices + len(self.extra_values)
        if len(self.ref_counts) < total:
            grown = np.zeros(total, dtype=self.ref_counts.dtype)
            grown[: len(self.ref_counts)] = self.ref_counts
            self.ref_counts = grown

    # ------------------------------------------------------------------
    # delta application (write-listener side; self.lock held by caller)
    # ------------------------------------------------------------------
    def apply_append(self, version, src_col, dst_col, appended: int) -> bool:
        """Fold ``appended`` tail rows of ``version`` into the overlay.
        Returns False when the state lost sync (caller invalidates)."""
        start = version.num_rows - appended
        if start < 0 or len(self.valid_mask) != start:
            return False
        src_mask = src_col.mask
        dst_mask = dst_col.mask
        valid = np.ones(appended, dtype=np.bool_)
        if src_mask is not None:
            valid &= ~src_mask[start:]
        if dst_mask is not None:
            valid &= ~dst_mask[start:]
        count = int(valid.sum())
        if count:
            self._ensure_refs()
            src_keys = src_col.data[start:][valid]
            dst_keys = dst_col.data[start:][valid]
            src_ids = self._encode_extend(src_keys)
            dst_ids = self._encode_extend(dst_keys)
            self._grow_refs()
            np.add.at(self.ref_counts, src_ids, 1)
            np.add.at(self.ref_counts, dst_ids, 1)
            rows = self.filtered_count + np.arange(count, dtype=np.int64)
            self.add_src = np.concatenate([self.add_src, src_ids])
            self.add_dst = np.concatenate([self.add_dst, dst_ids])
            self.add_rows = np.concatenate([self.add_rows, rows])
            self.overlay_edges += count
            self.merged = None  # topology changed
        self.valid_mask = np.concatenate([self.valid_mask, valid])
        self.filtered_count += count
        self.applied_version = version.version_id
        return True

    def apply_delete(self, version, dropped: np.ndarray) -> bool:
        """Tombstone the edges living on ``dropped`` (pre-delete row
        positions) and remap every surviving edge's current row id."""
        dropped = np.asarray(dropped, dtype=np.int64)
        if len(self.valid_mask) != version.num_rows + len(dropped):
            return False
        if len(dropped) == 0:
            self.applied_version = version.version_id
            return True
        mask = self.valid_mask
        dropped_valid = dropped[mask[dropped]]
        keep_rows = np.ones(len(mask), dtype=np.bool_)
        keep_rows[dropped] = False
        self.valid_mask = mask[keep_rows]
        if len(dropped_valid) == 0:
            # only non-edge rows vanished: filtered positions unchanged
            self.applied_version = version.version_id
            return True
        filtered_index = np.cumsum(mask) - 1
        dropped_filt = np.sort(filtered_index[dropped_valid])
        self._ensure_refs()
        csr = self.base.csr
        if self.base_rows is None:
            self.base_rows = csr.edge_rows.copy()
        if self.live_base is None:
            self.live_base = np.ones(len(self.base_rows), dtype=np.bool_)
        # base CSR slots: tombstone hits, shift survivors down
        live_idx = np.flatnonzero(self.live_base)
        if len(live_idx):
            pos = self.base_rows[live_idx]
            loc = np.searchsorted(dropped_filt, pos)
            hit = np.zeros(len(pos), dtype=np.bool_)
            in_range = loc < len(dropped_filt)
            hit[in_range] = dropped_filt[loc[in_range]] == pos[in_range]
            dead_slots = live_idx[hit]
            if len(dead_slots):
                self.live_base[dead_slots] = False
                np.subtract.at(self.ref_counts, csr.src[dead_slots], 1)
                np.subtract.at(self.ref_counts, csr.dst[dead_slots], 1)
                self.tombstones += len(dead_slots)
            surviving = ~hit
            self.base_rows[live_idx[surviving]] = (
                pos[surviving] - loc[surviving]
            )
        # overlay edges: drop hits, shift survivors down
        if len(self.add_rows):
            pos = self.add_rows
            loc = np.searchsorted(dropped_filt, pos)
            hit = np.zeros(len(pos), dtype=np.bool_)
            in_range = loc < len(dropped_filt)
            hit[in_range] = dropped_filt[loc[in_range]] == pos[in_range]
            if hit.any():
                np.subtract.at(self.ref_counts, self.add_src[hit], 1)
                np.subtract.at(self.ref_counts, self.add_dst[hit], 1)
                self.overlay_edges -= int(hit.sum())
            keep = ~hit
            self.add_src = self.add_src[keep]
            self.add_dst = self.add_dst[keep]
            self.add_rows = pos[keep] - loc[keep]
        self.filtered_count -= len(dropped_filt)
        self.merged = None
        self.applied_version = version.version_id
        return True

    def apply_update(self, version, touched: tuple, spec_cols: tuple) -> bool:
        """An in-place UPDATE: free unless an endpoint column changed
        (then the edge set itself may differ — caller invalidates)."""
        touched = {c.lower() for c in touched}
        if touched & set(spec_cols):
            return False
        # topology and row positions untouched: the cached merged
        # library (and the base) stay valid as-is
        self.applied_version = version.version_id
        return True

    # ------------------------------------------------------------------
    # read side (self.lock held by caller)
    # ------------------------------------------------------------------
    def library_for(self, version_id: int) -> Optional[GraphLibrary]:
        """The library answering queries at ``version_id``, or None when
        this state does not track that version (caller rebuilds)."""
        if version_id != self.applied_version:
            return None
        if self.delta_size == 0:
            return self.base
        if self.merged is None:
            self.merged = self._build_merged()
        return self.merged

    def _build_merged(self) -> GraphLibrary:
        """Stitch base-minus-tombstones plus the overlay into one plain
        CSR in O(E + k log k) — no re-sort of the base edge list.

        Surviving base edges keep their relative order and overlay
        edges follow per source vertex: exactly the adjacency order a
        canonical rebuild's stable sort would produce over the current
        row order, so path tie-breaking stays deterministic.
        """
        base_csr = self.base.csr
        num_vertices = self.base.domain.num_vertices + len(self.extra_values)
        rows_cur = (
            self.base_rows if self.base_rows is not None else base_csr.edge_rows
        )
        if self.live_base is not None:
            live_idx = np.flatnonzero(self.live_base)
            kept_src = base_csr.src[live_idx]
            kept_dst = base_csr.dst[live_idx]
            kept_rows = rows_cur[live_idx]
        else:
            kept_src = base_csr.src
            kept_dst = base_csr.dst
            kept_rows = rows_cur
        order = stable_argsort(self.add_src, num_vertices)
        over_src = self.add_src[order]
        over_dst = self.add_dst[order]
        over_rows = self.add_rows[order]
        kept_counts = np.bincount(kept_src, minlength=num_vertices).astype(
            np.int64
        )
        over_counts = np.bincount(over_src, minlength=num_vertices).astype(
            np.int64
        )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(kept_counts + over_counts, out=indptr[1:])
        # scatter: each group's base edges first (original order), then
        # its overlay edges (append order)
        kept_first = np.concatenate(([0], np.cumsum(kept_counts)[:-1]))
        pos_kept = indptr[kept_src] + (
            np.arange(len(kept_src), dtype=np.int64) - kept_first[kept_src]
        )
        over_first = np.concatenate(([0], np.cumsum(over_counts)[:-1]))
        pos_over = (
            indptr[over_src]
            + kept_counts[over_src]
            + (np.arange(len(over_src), dtype=np.int64) - over_first[over_src])
        )
        total = len(kept_src) + len(over_src)
        dst = np.empty(total, dtype=np.int64)
        src = np.empty(total, dtype=np.int64)
        edge_rows = np.empty(total, dtype=np.int64)
        dst[pos_kept] = kept_dst
        dst[pos_over] = over_dst
        src[pos_kept] = kept_src
        src[pos_over] = over_src
        edge_rows[pos_kept] = kept_rows
        edge_rows[pos_over] = over_rows
        self._ensure_refs()
        library = GraphLibrary.from_csr(
            OverlayDomain(self.base.domain, self.extra_values, self.ref_counts),
            CSRGraph(
                num_vertices=num_vertices,
                indptr=indptr,
                dst=dst,
                src=src,
                weights=None,
                edge_rows=edge_rows,
            ),
        )
        # served only through the index that owns this state
        library.indexed = True
        return library

    def describe(self) -> dict:
        """Introspection snapshot for ``\\graph`` / ``EXPLAIN`` footers."""
        return {
            "base_edges": int(self.base.csr.num_edges),
            "overlay_edges": int(self.overlay_edges),
            "tombstones": int(self.tombstones),
            "extra_vertices": len(self.extra_values),
            "base_version": int(self.base_version),
            "applied_version": int(self.applied_version),
            "merged_cached": self.merged is not None,
        }


__all__ = ["GraphOverlayState", "OverlayDomain"]
