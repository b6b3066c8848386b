"""The traced run's span recorder.

It wraps public functions of each engine layer from the outside (module
and class attributes are swapped for timing wrappers and restored
afterwards); nothing inside the engine is instrumented.  A span is
``(name, start, end, parent, statement, span_id, value)``; parent and
statement flow through a context variable, so they follow a statement
from the server's event loop onto its executor thread too.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter
#: (current parent span id, current statement id)
_current = contextvars.ContextVar("e2ebench_span", default=(None, None))

#: layer span name -> (module, attribute path) of the wrapped function
ENGINE_TARGETS = {
    "sql.parse": [("repro.api", "parse_statement")],
    "sql.normalize": [("repro.api", "normalize_statement")],
    "plan.bind": [("repro.plan.binder", "Binder.bind_statement")],
    "plan.optimize": [("repro.api", "optimize")],
    "exec.execute": [("repro.api", "execute_plan")],
    "graph.solve": [("repro.graph.library", "GraphLibrary.solve_encoded")],
    "graph.csr_build": [("repro.graph.library", "build_csr")],
    "graph.overlay": [("repro.graph.overlay", "GraphOverlayState.library_for")],
    "storage.append": [("repro.api", "Appender.append")],
    "storage.analyze": [("repro.api", "Database.analyze")],
    "storage.table_write": [
        ("repro.storage.table", "Table.insert_rows"),
        ("repro.storage.table", "Table.insert_columns"),
        ("repro.storage.table", "Table.replace_columns"),
    ],
    "storage.wal_sync": [("repro.storage.wal", "WriteAheadLog.sync")],
    "persist.save": [("repro.persist", "save_database")],
    "persist.open": [
        ("repro.persist", "open_database"),
        ("repro.persist", "load_database"),
    ],
}

SERVER_TARGETS = {
    "server.request": [("repro.server.server", "ReproServer._dispatch")],
    "server.execute": [
        ("repro.session", "Session.execute"),
        ("repro.session", "PreparedStatement.execute"),
    ],
    "server.decode": [("repro.server.protocol", "decode_payload")],
    "server.encode": [
        ("repro.server.server", "result_payload"),
        ("repro.server.server", "encode_frame"),
    ],
}

CLIENT_TARGETS = {"client.request": [("repro.client", "Client._request")]}

#: where a traced run leaves its spans, in its work directory
SPANS_FILE = "spans.jsonl.gz"


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each submitted call inside a copy of the submitter's context,
    so a statement's spans keep their parent across the executor hop."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------
    def _wrap(self, name: str, original):
        spans, ids = self.spans, self._ids

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                parent, statement = _current.get()
                span_id = next(ids)
                if statement is None:
                    statement = span_id
                token = _current.set((span_id, statement))
                start = _now()
                try:
                    return await original(*args, **kwargs)
                finally:
                    spans.append((name, start, _now(), parent, statement, span_id, None))
                    _current.reset(token)

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent, statement = _current.get()
            span_id = next(ids)
            token = _current.set((span_id, statement))
            start = _now()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = _now()
                _current.reset(token)
                value = result if type(result) is int else None
                spans.append((name, start, end, parent, statement, span_id, value))

        return wrapper

    def rooted(self, name: str, op):
        """``op`` run under a root span: its engine spans share one
        statement id."""
        def run():
            with _Root(self, name):
                return op()

        return run

    # -- installing --------------------------------------------------
    def install(self, targets: dict) -> "Recorder":
        import importlib

        for name, places in targets.items():
            for module_name, path in places:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._patches.append((owner, attr, original))
        return self

    def install_server_executor(self) -> None:
        import repro.server.server as server

        self._patches.append((server, "ThreadPoolExecutor", server.ThreadPoolExecutor))
        server.ThreadPoolExecutor = _ContextExecutor

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        with open(path + ".tmp", "w") as handle:
            json.dump({"spans": list(self.spans), **extra}, handle, default=str)
        os.replace(path + ".tmp", path)


def write_spans(path: str, spans: list) -> None:
    """All spans of a traced run, one JSON list per line, gzipped."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def engine_counters(db) -> dict:
    """The engine's own counters, snapshotted around a traced phase."""
    return {
        "plan_cache": db.cache_stats()["plan_cache"],
        "kernel": db.kernel_stats(),
        "parallel": db.parallel_stats(),
        "storage": db.storage_stats(),
        "wal": db.wal_stats(),
        "graph": db.graph_overlay_info(),
    }


class _Root:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.span_id = next(self.recorder._ids)
        self.token = _current.set((self.span_id, self.span_id))
        self.start = _now()

    def __exit__(self, *exc):
        end = _now()
        _current.reset(self.token)
        self.recorder.spans.append(
            (self.name, self.start, end, None, self.span_id, self.span_id, None)
        )


def self_times(spans: list, window: tuple) -> dict:
    """Per span name: (total self seconds, span count, summed int values)
    over spans that started inside ``window``.  Self time is a span's
    duration minus that of its direct children."""
    lo, hi = window
    child_time: dict = {}
    for name, start, end, parent, _, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict = {}
    for name, start, end, _, _, span_id, value in spans:
        if not lo <= start <= hi:
            continue
        total, count, values = totals.get(name, (0.0, 0, 0))
        totals[name] = (
            total + (end - start) - child_time.get(span_id, 0.0),
            count + 1,
            values + (value or 0),
        )
    return totals
