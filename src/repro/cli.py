"""Interactive SQL shell — and the ``--serve`` server launcher.

Run with ``python -m repro [database-dir]`` for the shell, or
``python -m repro --serve HOST:PORT [database-dir]`` to run the TCP
database server (see :mod:`repro.server`; ``--queue-depth``,
``--statement-timeout`` and ``--exec-workers`` tune admission control
and the worker pool).  Statements end with ``;`` and may span lines.
Meta commands:

* ``\\dt`` — list tables (and graph indices)
* ``\\d <table>`` — describe a table
* ``\\timing`` — toggle per-statement timing
* ``\\cache`` — plan-cache / graph-index-cache counters
* ``\\kernels`` — vectorized-kernel hit/fallback counters
* ``\\stats [table]`` — optimizer statistics recorded by ``ANALYZE``
* ``\\storage [table]`` — per-column resting encodings and bytes, plus
  zone-map morsel-skip and factorize counters
* ``\\memory`` — memory budget and spill/stream counters (budgeted
  execution: streaming scans, partitioned spills, external sorts)
* ``\\graph [index]`` — graph-overlay state per index (base/overlay edge
  counts, tombstones), the compaction threshold, overlay hit/merge
  counters and which searches served path statements (bidirectional
  pairs, forward traversals, transposes built)
* ``\\workers [n|auto]`` — show / resize the one worker pool shared by
  the morsel kernels and shortest-path batches, plus its counters
* ``\\save <dir>`` / ``\\open <dir>`` — persist / load the database
* ``\\q`` — quit

The shell runs one :class:`~repro.session.Session`, so ``BEGIN`` /
``COMMIT`` / ``ROLLBACK`` work as in any client: inside a transaction
the prompt changes from ``sql>`` to ``sql*>`` (psql-style) and every
statement reads the transaction's pinned snapshot until COMMIT
publishes the buffered writes or ROLLBACK discards them.

Paths (nested tables) are rendered inline as ``<path: n edges>``; use
UNNEST to flatten them into rows.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, Optional, TextIO

from .api import Database, Result
from .errors import ReproError
from .nested import NestedTableValue

PROMPT = "sql> "
TXN_PROMPT = "sql*> "  # an explicit transaction is open
CONTINUATION = "...> "


def render_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, NestedTableValue):
        return f"<path: {len(value)} edges>"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_result(result: Result, *, max_rows: int = 200) -> str:
    """Render a Result as an aligned text table."""
    if not result.is_query:
        return f"OK, {result.rowcount} row(s) affected"
    names = result.column_names
    rows = result.rows()
    shown = rows[:max_rows]
    cells = [[render_value(v) for v in row] for row in shown]
    widths = [
        max(len(names[i]), *(len(row[i]) for row in cells)) if cells else len(names[i])
        for i in range(len(names))
    ]
    lines = [
        " | ".join(name.ljust(widths[i]) for i, name in enumerate(names)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(names))))
    suffix = f"({len(rows)} row(s))"
    if len(rows) > max_rows:
        suffix = f"({len(rows)} row(s), showing first {max_rows})"
    lines.append(suffix)
    return "\n".join(lines)


class Shell:
    """Stateful REPL; separated from I/O so tests can drive it.

    Statements run through a :class:`~repro.session.Session`, so repeat
    executions of the same text are plan-cache hits (visible with
    ``\\timing`` and ``\\cache``).
    """

    def __init__(self, db: Optional[Database] = None, out: TextIO = sys.stdout):
        self.db = db or Database()
        self.session = self.db.connect()
        self.out = out
        self.timing = False
        self.buffer: list[str] = []
        self.done = False

    def write(self, text: str) -> None:
        self.out.write(text + "\n")

    # ------------------------------------------------------------------
    def feed_line(self, line: str) -> None:
        """Process one input line (meta command or statement fragment)."""
        stripped = line.strip()
        if not self.buffer and stripped.startswith("\\"):
            self._meta(stripped)
            return
        if not stripped and not self.buffer:
            return
        self.buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self.buffer)
            self.buffer = []
            self._run(statement)

    @property
    def prompt(self) -> str:
        if self.buffer:
            return CONTINUATION
        return TXN_PROMPT if self.session.in_transaction else PROMPT

    # ------------------------------------------------------------------
    def _run(self, sql: str) -> None:
        start = time.perf_counter()
        try:
            result = self.session.execute(sql)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.write(render_result(result))
        if self.timing:
            self.write(f"time: {elapsed * 1000:.2f} ms")

    def _meta(self, command: str) -> None:
        parts = command.split()
        name, args = parts[0], parts[1:]
        if name in ("\\q", "\\quit"):
            self.done = True
        elif name == "\\dt":
            for table_name in self.db.catalog.table_names():
                table = self.db.table(table_name)
                self.write(f"{table_name}  ({table.num_rows} rows)")
            for index_name in self.db.graph_indices.names():
                self.write(f"{index_name}  (graph index)")
            if not self.db.catalog.table_names():
                self.write("no tables")
        elif name == "\\d" and args:
            try:
                table = self.db.table(args[0])
            except ReproError as exc:
                self.write(f"error: {exc}")
                return
            for column in table.schema:
                self.write(f"{column.name}  {column.type}")
        elif name == "\\timing":
            self.timing = not self.timing
            self.write(f"timing {'on' if self.timing else 'off'}")
        elif name == "\\cache":
            for cache_name, stats in self.db.cache_stats().items():
                body = " ".join(f"{k}={v}" for k, v in stats.items())
                self.write(f"{cache_name}: {body}")
        elif name == "\\kernels":
            stats = self.db.kernel_stats()
            mode = "on" if self.db.vectorized else "off"
            self.write(
                f"vectorized: {mode}  hits={stats['hit_total']} "
                f"fallbacks={stats['fallback_total']}"
            )
            for op in sorted(set(stats["hits"]) | set(stats["fallbacks"])):
                self.write(
                    f"  {op}: hits={stats['hits'].get(op, 0)} "
                    f"fallbacks={stats['fallbacks'].get(op, 0)}"
                )
        elif name == "\\stats":
            recorded = self.db.table_stats()
            if args:
                recorded = {k: v for k, v in recorded.items() if k == args[0].lower()}
            if not recorded:
                self.write("no statistics recorded (run ANALYZE)")
                return
            for table_name in sorted(recorded):
                stats = recorded[table_name]
                suffix = " (stale)" if stats.stale else ""
                self.write(f"{table_name}: rows={stats.row_count}{suffix}")
                for col_name, col in stats.columns.items():
                    parts = [f"nulls={col.null_count}", f"distinct={col.distinct}"]
                    if col.has_range:
                        parts.append(f"min={col.min_value}")
                        parts.append(f"max={col.max_value}")
                    self.write(f"  {col_name}: {' '.join(parts)}")
        elif name == "\\storage":
            stats = self.db.storage_stats()
            self.write(
                f"compression: {'on' if stats['compression'] else 'off'}"
            )
            table_names = self.db.catalog.table_names()
            if args:
                table_names = [n for n in table_names if n == args[0].lower()]
            for table_name in sorted(table_names):
                version = self.db.table(table_name).current()
                self.write(f"{table_name}: rows={version.num_rows}")
                for col_name, (kind, nbytes) in version.resting_info().items():
                    self.write(f"  {col_name}: encoding={kind} bytes={nbytes}")
            self.write(
                f"zone maps: scans={stats['zone_scans']} "
                f"morsels_skipped={stats['morsels_skipped']}/"
                f"{stats['morsels_total']}"
            )
            fact = stats["factorize"]
            self.write(
                f"factorize: encodes={fact['encodes']} "
                f"resting_hits={fact['resting_hits']} "
                f"memo_hits={fact['memo_hits']} "
                f"shared_dict_joins={fact['shared_dict_joins']}"
            )
            wal = self.db.wal_stats()
            if wal.get("enabled"):
                self.write(
                    f"wal: durability={wal['durability']} "
                    f"lsn={wal['last_lsn']} synced={wal['synced_lsn']} "
                    f"appends={wal['appends']} syncs={wal['syncs']}/"
                    f"{wal['sync_requests']} "
                    f"bytes={wal['bytes_written']} "
                    f"checkpoints={wal['checkpoints']}"
                )
            else:
                self.write("wal: durability=off")
        elif name == "\\memory":
            stats = self.db.memory_stats()
            budget = stats["memory_budget"]
            self.write(
                "memory budget: "
                + ("unlimited" if budget is None else f"{budget} bytes")
            )
            self.write(
                f"spills: decisions={stats['spills']} "
                f"partitions={stats['partitions']} "
                f"files={stats['files']} "
                f"bytes_written={stats['bytes_written']} "
                f"bytes_read={stats['bytes_read']}"
            )
            self.write(
                f"streaming: pipelines={stats['streams']} "
                f"morsels={stats['stream_morsels']} "
                f"sort_runs={stats['sort_runs']} merges={stats['merges']}"
            )
        elif name == "\\graph":
            info = self.db.graph_overlay_info()
            self.write(f"compact threshold: {info['compact_threshold']}")
            self.write(
                f"counters: overlay_hits={info['overlay_hits']} "
                f"applied={info['overlay_applied']} "
                f"merges={info['overlay_merges']}"
            )
            cache = self.db.cache_stats()["graph_index_cache"]
            self.write(
                f"traversals: bidirectional_pairs={cache['bidirectional_pairs']} "
                f"forward={cache['forward_traversals']} "
                f"transpose_builds={cache['transpose_builds']}"
            )
            names = self.db.graph_indices.names()
            if args:
                names = [n for n in names if n == args[0].lower()]
            for index_name in sorted(names):
                state = info["indices"].get(index_name)
                if state is None:
                    self.write(f"{index_name}: no overlay state (not built)")
                    continue
                self.write(
                    f"{index_name}: base_edges={state['base_edges']} "
                    f"overlay_edges={state['overlay_edges']} "
                    f"tombstones={state['tombstones']} "
                    f"extra_vertices={state['extra_vertices']} "
                    f"versions={state['base_version']}->"
                    f"{state['applied_version']} "
                    f"merged_cached={'yes' if state['merged_cached'] else 'no'}"
                )
            if not names:
                self.write("no graph indices")
        elif name == "\\workers":
            if args:
                if len(args) > 1 or not (args[0] == "auto" or args[0].isdigit()):
                    self.write(
                        f"error: expected a number or 'auto', got "
                        f"{' '.join(args)!r} (usage: \\workers [N|auto])"
                    )
                    return
                self.db.set_exec_workers(args[0])
            stats = self.db.parallel_stats()
            self.write(
                f"exec workers: {stats['workers']} "
                f"(morsel rows {stats['morsel_rows']}, "
                f"serial below {stats['parallel_min_rows']} rows)"
            )
            morsels = stats["morsel_total"]
            self.write(
                f"parallel kernels: parallel_ops={stats['parallel_op_total']} "
                f"serial_ops={stats['serial_op_total']} morsels={morsels}"
            )
            for op in sorted(stats["morsels"]):
                total_ms = stats["morsel_seconds"].get(op, 0.0) * 1000
                self.write(
                    f"  {op}: morsels={stats['morsels'][op]} "
                    f"total={total_ms:.2f}ms "
                    f"max={stats['morsel_max_ms'].get(op, 0.0):.2f}ms"
                )
        elif name == "\\save" and args:
            try:
                self.db.save(args[0])
                self.write(f"saved to {args[0]}")
            except ReproError as exc:
                self.write(f"error: {exc}")
        elif name == "\\open" and args:
            try:
                db = Database.load(args[0])
            except ReproError as exc:
                self.write(f"error: {exc}")
                return
            self.session.close()  # rolls back any open transaction
            self.db = db
            self.session = self.db.connect()
            self.write(f"loaded {args[0]}")
        else:
            self.write(f"unknown meta command: {command}")


def serve_main(argv: list[str]) -> int:
    """``python -m repro --serve HOST:PORT [database-dir]`` — run the
    TCP database server (:mod:`repro.server`) until SIGTERM/SIGINT,
    then drain in-flight statements and shut down gracefully.

    Options: ``--queue-depth N`` (admission high-water mark),
    ``--statement-timeout S`` (per-statement ceiling, seconds),
    ``--exec-workers N`` (kernel + statement worker threads),
    ``--durability off|commit|batch`` (write-ahead logging policy; with
    a database directory the server recovers it — checkpoint image plus
    WAL replay — *before* accepting connections).
    """
    from .server import serve

    address: Optional[str] = None
    directory: Optional[str] = None
    durability: Optional[str] = None
    options: dict = {}
    try:
        index = 0
        while index < len(argv):
            arg = argv[index]
            if arg == "--serve":
                index += 1
                address = argv[index]
            elif arg == "--queue-depth":
                index += 1
                options["max_queue"] = int(argv[index])
            elif arg == "--statement-timeout":
                index += 1
                options["statement_timeout"] = float(argv[index])
            elif arg == "--exec-workers":
                index += 1
                options["exec_workers"] = int(argv[index])
            elif arg == "--durability":
                index += 1
                durability = argv[index]
                if durability not in ("off", "commit", "batch"):
                    print(
                        f"error: --durability expects off|commit|batch, "
                        f"got {durability!r}",
                        file=sys.stderr,
                    )
                    return 2
            elif arg.startswith("--"):
                print(f"error: unknown option {arg}", file=sys.stderr)
                return 2
            elif directory is None:
                directory = arg
            else:
                print(f"error: unexpected argument {arg!r}", file=sys.stderr)
                return 2
            index += 1
    except (IndexError, ValueError):
        print(
            "usage: python -m repro --serve HOST:PORT [database-dir] "
            "[--queue-depth N] [--statement-timeout S] [--exec-workers N] "
            "[--durability off|commit|batch]",
            file=sys.stderr,
        )
        return 2
    host, _, port_text = (address or "").rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"error: --serve expects HOST:PORT, got {address!r}", file=sys.stderr
        )
        return 2
    exec_workers = options.pop("exec_workers", None)
    try:
        if directory is not None and durability is not None:
            # recovery runs here, before the listening socket opens: no
            # client ever observes a partially replayed database
            db = Database.open(directory, durability=durability)
            if exec_workers is not None:
                db.set_exec_workers(exec_workers)
            info = db.recovery_info or {}
            torn = (
                f", torn tail truncated ({info.get('truncate_reason')}, "
                f"{info.get('truncated_bytes')} bytes)"
                if info.get("truncate_reason")
                else ""
            )
            print(
                f"recovered {directory}: checkpoint lsn "
                f"{info.get('checkpoint_lsn', 0)}, "
                f"{info.get('replayed', 0)} wal record(s) replayed{torn}; "
                f"durability={durability}"
            )
        elif directory is not None:
            db = Database.load(directory)
            if exec_workers is not None:
                db.set_exec_workers(exec_workers)
        elif durability is not None:
            print(
                "error: --durability requires a database directory",
                file=sys.stderr,
            )
            return 2
        elif exec_workers is not None:
            db = Database(exec_workers=exec_workers)
        else:
            db = Database()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    serve(db, host or "127.0.0.1", port, **options)
    return 0


def main(argv: Optional[Iterable[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--serve" in argv:
        return serve_main(argv)
    shell = Shell()
    if argv:
        shell.db = Database.load(argv[0])
        shell.session = shell.db.connect()
    interactive = sys.stdin.isatty()
    if interactive:
        shell.write("repro SQL shell — REACHES / CHEAPEST SUM / UNNEST available")
        shell.write("end statements with ';', \\q quits, \\dt lists tables")
    while not shell.done:
        try:
            if interactive:
                line = input(shell.prompt)
            else:
                line = sys.stdin.readline()
                if not line:
                    break
                line = line.rstrip("\n")
        except (EOFError, KeyboardInterrupt):
            break
        shell.feed_line(line)
    return 0
