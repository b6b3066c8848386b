"""Per-layer metrics of the traced run, computed from the recorded spans
and from deltas of the engine's own counters over the traced phase.

Time metrics named ``*_ms`` are a layer's self time per statement of the
traced phase (so the layers of one statement add up to its mean
latency); ``graph.solve_ms`` is per path statement.  Lifecycle metrics
(``*_s``, ``graph.csr_build_ms``) are the mean duration of one call."""

from __future__ import annotations

from spans import self_times

PER_LAYER_UNITS = {
    "sql.parse_ms": "ms",
    "sql.normalize_ms": "ms",
    "plan.bind_ms": "ms",
    "plan.optimize_ms": "ms",
    "session.plan_cache_hit_ratio": "ratio",
    "exec.self_ms": "ms",
    "exec.kernel_fallback_ratio": "ratio",
    "exec.parallel_share": "ratio",
    "graph.solve_ms": "ms",
    "graph.csr_build_ms": "ms",
    "graph.overlay_ms": "ms",
    "graph.overlay_delta_ratio": "ratio",
    "graph.compactions": "count",
    "storage.append_rows_per_s": "rows/s",
    "storage.analyze_s": "s",
    "storage.zone_skip_ratio": "ratio",
    "storage.table_write_ms": "ms",
    "storage.wal_sync_ms": "ms",
    "storage.wal_fsyncs_per_commit": "ratio",
    "storage.wal_bytes_per_user_byte": "ratio",
    "persist.save_s": "s",
    "persist.open_s": "s",
    "persist.first_touch_ms": "ms",
    "persist.image_columns_bytes": "bytes",
    "persist.image_graph_bytes": "bytes",
    "persist.image_stats_bytes": "bytes",
    "server.decode_ms": "ms",
    "server.encode_ms": "ms",
    "server.hop_ms": "ms",
    "client.wire_ms": "ms",
    "server.admission_rejects": "count",
    "trace.point_p50_overhead_ms": "ms",
    "trace.ops_per_s_overhead": "1/s",
}


def _delta(before: dict, after: dict, *path) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return float((after or 0) - (before or 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_call(spans: list, name: str, window: tuple) -> float:
    lo, hi = window
    times = [e - s for n, s, e, *_ in spans if n == name and lo <= s <= hi]
    return sum(times) / len(times) if times else 0.0


def per_layer(spans, phase: tuple, statements: int, lifecycle: tuple,
              before: dict, after: dict, extra: dict) -> dict:
    """``phase``/``lifecycle``: (start, end) perf-counter windows of the
    traced timed phase and of the whole run; ``extra`` carries the
    measurements that are not spans or counters."""
    own = self_times(spans, phase)

    def per_statement(*names) -> float:
        return 1e3 * sum(own.get(n, (0.0,))[0] for n in names) / max(1, statements)

    lo, hi = phase
    path_statements = {st for n, s, _, _, st, *_ in spans
                       if n == "graph.solve" and lo <= s <= hi}
    appends = [(e - s, v or 0) for n, s, e, _, _, _, v in spans
               if n == "storage.append" and lifecycle[0] <= s <= lifecycle[1]]
    d = lambda *path: _delta(before, after, *path)  # noqa: E731
    values = {
        "sql.parse_ms": per_statement("sql.parse"),
        "sql.normalize_ms": per_statement("sql.normalize"),
        "plan.bind_ms": per_statement("plan.bind"),
        "plan.optimize_ms": per_statement("plan.optimize"),
        "session.plan_cache_hit_ratio": _ratio(
            d("plan_cache", "hits") + d("plan_cache", "normalized_hits"),
            d("plan_cache", "hits") + d("plan_cache", "misses")),
        "exec.self_ms": per_statement("exec.execute"),
        "exec.kernel_fallback_ratio": _ratio(
            d("kernel", "fallback_total"),
            d("kernel", "hit_total") + d("kernel", "fallback_total")),
        "exec.parallel_share": _ratio(
            d("parallel", "parallel_op_total"),
            d("parallel", "parallel_op_total") + d("parallel", "serial_op_total")),
        "graph.solve_ms": 1e3 * own.get("graph.solve", (0.0,))[0] / max(1, len(path_statements)),
        "graph.csr_build_ms": 1e3 * _mean_call(spans, "graph.csr_build", lifecycle),
        "graph.overlay_ms": per_statement("graph.overlay"),
        "graph.overlay_delta_ratio": extra.get("delta_ratio", 0.0),
        "graph.compactions": d("graph", "overlay_merges"),
        "storage.append_rows_per_s": _ratio(sum(v for _, v in appends),
                                            sum(t for t, _ in appends)),
        "storage.analyze_s": _mean_call(spans, "storage.analyze", lifecycle),
        "storage.zone_skip_ratio": _ratio(d("storage", "morsels_skipped"),
                                          d("storage", "morsels_total")),
        "storage.table_write_ms": per_statement("storage.table_write"),
        "storage.wal_sync_ms": per_statement("storage.wal_sync"),
        "storage.wal_fsyncs_per_commit": _ratio(d("wal", "syncs"), d("wal", "sync_requests")),
        "storage.wal_bytes_per_user_byte": extra.get("wal_bytes_per_user_byte", 0.0),
        "persist.save_s": _mean_call(spans, "persist.save", lifecycle),
        "persist.open_s": _mean_call(spans, "persist.open", lifecycle),
        "persist.first_touch_ms": extra["first_touch_ms"],
        "persist.image_columns_bytes": extra["image_parts"]["columns"],
        "persist.image_graph_bytes": extra["image_parts"]["graph"],
        "persist.image_stats_bytes": extra["image_parts"]["stats"],
        "server.decode_ms": per_statement("server.decode"),
        "server.encode_ms": per_statement("server.encode"),
        "server.hop_ms": per_statement("server.request"),
        "client.wire_ms": extra.get("wire_ms", 0.0),
        "server.admission_rejects": extra.get("admission_rejects", 0),
        "trace.point_p50_overhead_ms": extra["point_p50_overhead_ms"],
        "trace.ops_per_s_overhead": extra["ops_per_s_overhead"],
    }
    return {name: float(values[name]) for name in PER_LAYER_UNITS}
