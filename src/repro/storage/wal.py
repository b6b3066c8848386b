"""Write-ahead log: logical commit records, group commit, recovery.

Layout — a sibling directory next to the checkpoint image (by default
``<dbdir>.wal/``; the image directory itself is atomically swapped by
``save()``, so the log must live outside it)::

    <dbdir>.wal/
        seg-00000001.wal      # 16-byte segment header, then records
        seg-00000002.wal      # rotated at each checkpoint

Segment header: ``b"RWAL"`` magic, ``u32`` format version, ``u64``
segment sequence number.  Each record is length-prefixed and
CRC32-checksummed::

    [u32 payload_len][u32 crc32(payload)][payload]
    payload = [u32 header_len][header JSON]
              [u32 blob_len][.npy bytes] * header["nb"]

The JSON header carries the record's monotonic LSN, its kind, and the
kind-specific fields; bulk column payloads ride as raw ``np.save``
blobs after it.  Records are *logical*: recovery replays them through
the same write paths the live engine uses (``insert`` rows through
``Table.insert_rows``, which builds them into columns with
``bulk_columns`` as every append is built; other records through
``insert_columns`` or ``replace_columns`` with the original
:class:`~repro.storage.table.WriteInfo`), so statistics, zone maps and
graph-index overlays come back exactly as a live run would have left
them.

Sync policies (``Database(durability=...)``):

* ``"off"`` — no WAL object exists at all; every write path is
  byte-for-byte the pre-WAL code.
* ``"commit"`` — every commit appends, flushes and runs its own
  ``fsync`` before acknowledging.
* ``"batch"`` — group commit: appends flush to the OS immediately, but
  the ``fsync`` is performed by one *leader* on behalf of every
  committer that arrived while the previous fsync was in flight
  (leader/follower on a condition variable over the ``_synced_lsn``
  watermark).  Same durability guarantee per acknowledged commit, a
  fraction of the fsyncs under concurrency.

Torn tails: :func:`scan_wal` accepts every record up to the first
structural problem — a short header, a zero/oversized length, a CRC
mismatch, a payload that runs past EOF, or an LSN gap — physically
truncates the file there, and drops any later segments (they can only
hold post-gap records).  A record whose LSN is ≤ the last one seen is
a *duplicate* (a retried append that crashed between write and ack)
and is skipped, not fatal.
"""

from __future__ import annotations

import datetime
import io
import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import WalError
from .column import Column
from .schema import Schema
from .table import Table, WriteInfo
from .types import DataType

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector

_MAGIC = b"RWAL"
_WAL_VERSION = 1
_SEGMENT_HEADER = struct.Struct("<4sIQ")
_RECORD_HEADER = struct.Struct("<II")  # payload_len, crc32
_U32 = struct.Struct("<I")
#: Structural sanity bound: a single logical record larger than this is
#: treated as corruption, not an allocation request.
_MAX_RECORD = 1 << 31
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.wal$")


def default_wal_directory(database_dir: str) -> str:
    """The log directory paired with a checkpoint image directory."""
    return os.path.abspath(database_dir) + ".wal"


def _segment_name(seq: int) -> str:
    return f"seg-{seq:08d}.wal"


def _fsync_dir(path: str) -> None:
    """Make a directory entry durable (rename/create visibility)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# value + column serialization
# ---------------------------------------------------------------------------
# ``insert`` records hold plain JSON values built from the appended
# columns (DATE as its day number).  Records written before that hold
# the statement's own values, dates tagged the way the wire protocol
# tags them ({"$": "date", "v": "..."}); replay decodes both.
def _decode_value(value):
    if isinstance(value, dict) and value.get("$") == "date":
        return datetime.date.fromisoformat(value["v"])
    return value


def _strify(values) -> np.ndarray:
    """Object payload → fixed-width unicode; NULL slots store ""
    (NULLs are carried by the mask blob)."""
    return np.array(["" if v is None else v for v in values], dtype=np.str_)


def _column_parts(column: Column) -> "tuple[dict, list[np.ndarray]]":
    """One column → (descriptor, payload blobs)."""
    is_str = column.type.numpy_dtype == np.dtype(object)
    mask = column.mask
    desc = {"t": column.type.value, "s": is_str, "m": mask is not None}
    data = _strify(column.data) if is_str else np.asarray(column.data)
    blobs = [data]
    if mask is not None:
        blobs.append(np.asarray(mask))
    return desc, blobs


def _column_from_parts(desc: dict, blobs: "list[np.ndarray]", at: int) -> "tuple[Column, int]":
    type_ = DataType(desc["t"])
    data = blobs[at]
    at += 1
    mask = None
    if desc["m"]:
        mask = np.ascontiguousarray(blobs[at]).astype(bool, copy=False)
        at += 1
    if desc["s"]:
        out = np.empty(len(data), dtype=object)
        for i, value in enumerate(data):
            out[i] = None if mask is not None and mask[i] else str(value)
        data = out
    else:
        data = np.ascontiguousarray(data).astype(type_.numpy_dtype, copy=False)
    return Column(type_, data, mask if mask is not None and mask.any() else None), at


def _pack_record(header: dict, blobs: "list[np.ndarray]") -> bytes:
    header = dict(header, nb=len(blobs))
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_U32.pack(len(head)), head]
    for array in blobs:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        raw = buffer.getvalue()
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    payload = b"".join(parts)
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _unpack_payload(payload: bytes) -> "tuple[dict, list[np.ndarray]]":
    (head_len,) = _U32.unpack_from(payload, 0)
    at = _U32.size
    header = json.loads(payload[at : at + head_len].decode("utf-8"))
    at += head_len
    blobs = []
    for _ in range(int(header.get("nb", 0))):
        (blob_len,) = _U32.unpack_from(payload, at)
        at += _U32.size
        blobs.append(
            np.load(io.BytesIO(payload[at : at + blob_len]), allow_pickle=False)
        )
        at += blob_len
    return header, blobs


# ---------------------------------------------------------------------------
# scanning / recovery
# ---------------------------------------------------------------------------
@dataclass
class WalRecord:
    lsn: int
    kind: str
    header: dict
    blobs: "list[np.ndarray]" = field(default_factory=list)


@dataclass
class WalScan:
    """Everything recovery needs to know about an on-disk log."""

    records: "list[WalRecord]" = field(default_factory=list)
    last_lsn: int = 0
    next_seq: int = 1
    segments: int = 0
    duplicates: int = 0
    truncated_bytes: int = 0
    truncated_segment: "Optional[str]" = None
    truncate_reason: "Optional[str]" = None
    dropped_segments: int = 0


def wal_exists(directory: str) -> bool:
    """True when ``directory`` holds any WAL segment files."""
    try:
        entries = os.listdir(directory)
    except OSError:
        return False
    return any(_SEGMENT_RE.match(entry) for entry in entries)


def scan_wal(directory: str, repair: bool = True) -> WalScan:
    """Read every decodable record in commit (LSN) order.

    With ``repair`` (the recovery default) the first structural
    problem physically truncates its segment at the record boundary
    and deletes any later segments; with ``repair=False`` the scan is
    read-only and merely stops there.
    """
    scan = WalScan()
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return scan
    segments = []
    for entry in entries:
        match = _SEGMENT_RE.match(entry)
        if match:
            segments.append((int(match.group(1)), os.path.join(directory, entry)))
    segments.sort()
    stopped_at = None  # index into segments of the segment that stopped the scan
    for index, (seq, path) in enumerate(segments):
        scan.segments += 1
        scan.next_seq = max(scan.next_seq, seq + 1)
        with open(path, "rb") as handle:
            raw = handle.read()
        if (
            len(raw) < _SEGMENT_HEADER.size
            or _SEGMENT_HEADER.unpack_from(raw, 0)[:2] != (_MAGIC, _WAL_VERSION)
        ):
            _record_stop(scan, path, 0, "bad segment header", repair)
            stopped_at = index
            break
        offset = _SEGMENT_HEADER.size
        stop = None
        while offset < len(raw):
            remaining = len(raw) - offset
            if remaining < _RECORD_HEADER.size:
                stop = "torn record header"
                break
            length, crc = _RECORD_HEADER.unpack_from(raw, offset)
            if length == 0 or length > _MAX_RECORD:
                stop = "bad record length"
                break
            if remaining - _RECORD_HEADER.size < length:
                stop = "torn record payload"
                break
            payload = raw[offset + _RECORD_HEADER.size : offset + _RECORD_HEADER.size + length]
            if zlib.crc32(payload) != crc:
                stop = "checksum mismatch"
                break
            header, blobs = _unpack_payload(payload)
            lsn = int(header["lsn"])
            if lsn <= scan.last_lsn:
                # a re-appended record (crash between write and ack):
                # the first copy already counted — skip, don't fail
                scan.duplicates += 1
            elif scan.last_lsn and lsn != scan.last_lsn + 1:
                stop = f"lsn gap ({scan.last_lsn} -> {lsn})"
                break
            else:
                scan.records.append(
                    WalRecord(lsn, str(header["kind"]), header, blobs)
                )
                scan.last_lsn = lsn
            offset += _RECORD_HEADER.size + length
        if stop is not None:
            _record_stop(scan, path, offset, stop, repair)
            stopped_at = index
            break
    if stopped_at is not None:
        # anything after the truncation point can only hold records
        # from beyond the gap; recovery keeps the longest valid prefix
        for seq, path in segments[stopped_at + 1 :]:
            scan.dropped_segments += 1
            if repair:
                os.unlink(path)
    return scan


def _record_stop(scan: WalScan, path: str, offset: int, reason: str, repair: bool) -> None:
    scan.truncated_segment = os.path.basename(path)
    scan.truncate_reason = reason
    scan.truncated_bytes += os.path.getsize(path) - offset
    if repair:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())


def apply_record(db, record: WalRecord) -> None:
    """Replay one logical record through the live write paths, so every
    side channel (stats refresh, zone-map extension, graph overlays,
    plan-cache invalidation) fires exactly as it did at commit time."""
    header = record.header
    kind = record.kind
    if kind == "insert":
        rows = [
            tuple(_decode_value(value) for value in row) for row in header["rows"]
        ]
        db.catalog.get(header["table"]).insert_rows(rows)
    elif kind == "append":
        columns, at = [], 0
        for desc in header["cols"]:
            column, at = _column_from_parts(desc, record.blobs, at)
            columns.append(column)
        db.catalog.get(header["table"]).insert_columns(columns)
    elif kind == "delete":
        table = db.catalog.get(header["table"])
        version = table.current()
        dropped = np.ascontiguousarray(record.blobs[0]).astype(np.int64, copy=False)
        keep = np.ones(version.num_rows, dtype=bool)
        keep[dropped] = False
        table.replace_columns(
            [column.filter(keep) for column in version.columns],
            WriteInfo("delete", dropped_rows=dropped),
        )
    elif kind == "update":
        table = db.catalog.get(header["table"])
        version = table.current()
        columns = list(version.columns)
        at = 0
        for name, desc in zip(header["touched"], header["cols"]):
            column, at = _column_from_parts(desc, record.blobs, at)
            columns[version.schema.index_of(name)] = column
        table.replace_columns(
            columns, WriteInfo("update", columns=tuple(header["touched"]))
        )
    elif kind == "txn":
        at = 0
        for entry in header["tables"]:
            columns = []
            for desc in entry["cols"]:
                column, at = _column_from_parts(desc, record.blobs, at)
                columns.append(column)
            db.catalog.get(entry["table"]).replace_columns(columns)
    elif kind == "create_table":
        db.catalog.create_table(
            header["table"],
            Schema([(name, DataType(type_)) for name, type_ in header["columns"]]),
        )
    elif kind == "drop_table":
        db.catalog.drop_table(header["table"])
        db.plan_cache.invalidate_table(header["table"])
        db.graph_indices.drop_for_table(header["table"])
        db.stats.drop(header["table"])
    elif kind == "ctas":
        table = Table(
            header["table"],
            Schema([(name, DataType(type_)) for name, type_ in header["columns"]]),
        )
        columns, at = [], 0
        for desc in header["cols"]:
            column, at = _column_from_parts(desc, record.blobs, at)
            columns.append(column)
        if columns and len(columns[0]):
            table.insert_columns(columns)
        db.catalog.publish_table(table)
    elif kind == "create_graph_index":
        db.graph_indices.create(
            header["name"], header["table"], header["src"], header["dst"]
        )
    elif kind == "drop_graph_index":
        db.graph_indices.drop(header["name"])
    else:  # pragma: no cover - a newer writer's record kind
        raise WalError(f"unknown WAL record kind {kind!r} at lsn {record.lsn}")


# ---------------------------------------------------------------------------
# the log itself
# ---------------------------------------------------------------------------
class WriteAheadLog:
    """Append-only logical log with group commit and checkpoints.

    Concurrency contract: :attr:`mutex` serializes *append + version
    install* — the database holds it across both, so the LSN order in
    the log is exactly the order table versions became visible.
    :meth:`sync` runs outside it (appends flush to the OS buffer cache
    inside the mutex; only the fsync — the slow part — happens after
    release), which is what lets group commit coalesce committers
    without serializing them behind the disk.
    """

    def __init__(
        self,
        directory: str,
        *,
        durability: str = "commit",
        faults: "Optional[FaultInjector]" = None,
        start_lsn: int = 0,
        start_seq: int = 1,
    ):
        if durability not in ("commit", "batch"):
            raise WalError(
                f"invalid WAL durability {durability!r} "
                "(expected 'commit' or 'batch')"
            )
        self.directory = os.path.abspath(directory)
        self.durability = durability
        self.faults = faults
        #: The checkpoint image directory this log is paired with —
        #: only a ``save()`` to this exact target may rotate and prune
        #: (a backup save elsewhere must never steal the log's tail).
        #: ``None`` until recovery/first save establishes it.
        self.paired_target: "Optional[str]" = None
        self.mutex = threading.RLock()
        self._sync_mutex = threading.Lock()
        self._batch_cond = threading.Condition()
        self._batch_leader = False
        self._last_lsn = int(start_lsn)
        self._synced_lsn = int(start_lsn)
        self._handle = None
        self.seq = 0
        # counters (reads are approximate under concurrency; fine for \storage)
        self.appends = 0
        self.bytes_written = 0
        self.sync_requests = 0
        self.syncs = 0
        self.checkpoints = 0
        os.makedirs(self.directory, exist_ok=True)
        self._open_segment(int(start_seq))

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, directory: str, **kwargs) -> "WriteAheadLog":
        """A log for a *fresh* database: refuses a directory that
        already holds segments (their records would be silently
        shadowed — recover them with ``Database.open`` instead)."""
        if wal_exists(directory):
            raise WalError(
                f"write-ahead log directory {directory!r} already holds "
                "segments; use Database.open() to recover it"
            )
        return cls(directory, **kwargs)

    def _open_segment(self, seq: int) -> None:
        path = os.path.join(self.directory, _segment_name(seq))
        handle = open(path, "xb")
        handle.write(_SEGMENT_HEADER.pack(_MAGIC, _WAL_VERSION, seq))
        handle.flush()
        os.fsync(handle.fileno())
        _fsync_dir(self.directory)
        self._handle = handle
        self.seq = seq

    # -- appending ------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def synced_lsn(self) -> int:
        return self._synced_lsn

    def _append(self, kind: str, header: dict, blobs: "list[np.ndarray]") -> int:
        """Write one record; caller holds :attr:`mutex`.  The bytes are
        flushed to the OS before returning (so a later group-commit
        fsync from any thread covers them); they are *durable* only
        after :meth:`sync`."""
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        lsn = self._last_lsn + 1
        record = _pack_record(dict(header, lsn=lsn, kind=kind), blobs)
        if self.faults is not None:
            self.faults.fire("wal.append.before")
            self.faults.fire("wal.append.write", data=record, handle=self._handle)
        self._handle.write(record)
        self._handle.flush()
        self._last_lsn = lsn
        self.appends += 1
        self.bytes_written += len(record)
        if self.faults is not None:
            self.faults.fire("wal.append.after")
        return lsn

    def sync(self, lsn: "Optional[int]") -> None:
        """Make every record up to ``lsn`` durable before the commit is
        acknowledged.  ``commit``: one fsync per call.  ``batch``: the
        leader fsyncs once for every waiter that arrived meanwhile."""
        if lsn is None:
            return
        self.sync_requests += 1
        if self.faults is not None:
            self.faults.fire("wal.sync.before")
        if self.durability == "commit":
            with self._sync_mutex:
                handle = self._handle
                if handle is not None:
                    end = self._last_lsn
                    os.fsync(handle.fileno())
                    self.syncs += 1
                    self._advance_synced(end)
        else:
            self._sync_batch(lsn)
        if self.faults is not None:
            self.faults.fire("wal.sync.after")

    def _sync_batch(self, lsn: int) -> None:
        with self._batch_cond:
            while True:
                if self._synced_lsn >= lsn:
                    return
                if not self._batch_leader:
                    self._batch_leader = True
                    break
                self._batch_cond.wait()
        # leader: fsync once on behalf of every committer whose append
        # (and OS-buffer flush) happened before this point
        end = self._synced_lsn
        try:
            with self._sync_mutex:
                handle = self._handle
                if handle is not None:
                    end = self._last_lsn
                    os.fsync(handle.fileno())
                    self.syncs += 1
        finally:
            with self._batch_cond:
                self._batch_leader = False
                if self._synced_lsn < end:
                    self._synced_lsn = end
                self._batch_cond.notify_all()

    def _advance_synced(self, lsn: int) -> None:
        with self._batch_cond:
            if self._synced_lsn < lsn:
                self._synced_lsn = lsn
            self._batch_cond.notify_all()

    # -- record builders (caller holds mutex) ---------------------------
    def log_insert(self, table: str, columns) -> int:
        """An appended batch as JSON rows: a one-row record is a sixth
        the size of the npy form of :meth:`log_append`, which matters
        for single-row INSERTs."""
        rows = list(zip(*(column.to_pylist() for column in columns)))
        return self._append("insert", {"table": table, "rows": rows}, [])

    def log_append(self, table: str, columns) -> int:
        """An appended batch as npy column blobs (compact for bulk
        batches)."""
        descs, blobs = [], []
        for column in columns:
            desc, parts = _column_parts(column)
            descs.append(desc)
            blobs.extend(parts)
        return self._append("append", {"table": table, "cols": descs}, blobs)

    def log_delete(self, table: str, dropped: np.ndarray) -> int:
        return self._append(
            "delete",
            {"table": table, "count": int(len(dropped))},
            [np.ascontiguousarray(dropped, dtype=np.int64)],
        )

    def log_update(self, table: str, touched, columns) -> int:
        descs, blobs = [], []
        for column in columns:
            desc, parts = _column_parts(column)
            descs.append(desc)
            blobs.extend(parts)
        return self._append(
            "update",
            {"table": table, "touched": list(touched), "cols": descs},
            blobs,
        )

    def log_txn(self, items) -> int:
        """``items``: ordered ``(table_name, columns)`` pairs — the full
        column set of every table the transaction wrote, in the install
        order of ``commit_transaction``."""
        entries, blobs = [], []
        for table, columns in items:
            descs = []
            for column in columns:
                desc, parts = _column_parts(column)
                descs.append(desc)
                blobs.extend(parts)
            entries.append({"table": table, "cols": descs})
        return self._append("txn", {"tables": entries}, blobs)

    def log_create_table(self, table: str, schema: Schema) -> int:
        columns = [[c.name, c.type.value] for c in schema]
        return self._append("create_table", {"table": table, "columns": columns}, [])

    def log_ctas(self, table: str, schema: Schema, columns) -> int:
        descs, blobs = [], []
        for column in columns:
            desc, parts = _column_parts(column)
            descs.append(desc)
            blobs.extend(parts)
        return self._append(
            "ctas",
            {
                "table": table,
                "columns": [[c.name, c.type.value] for c in schema],
                "cols": descs,
            },
            blobs,
        )

    def log_simple(self, kind: str, **fields) -> int:
        return self._append(kind, fields, [])

    # -- checkpoints ----------------------------------------------------
    def begin_checkpoint(self) -> "tuple[int, int]":
        """Roll to a fresh segment; caller holds :attr:`mutex` and has
        just pinned the snapshot the image will serialize.  Returns
        ``(checkpoint_lsn, old_seq)``; pass ``old_seq`` to
        :meth:`finish_checkpoint` once the image swap succeeded."""
        with self._sync_mutex:
            if self._handle is None:
                raise WalError("write-ahead log is closed")
            old_seq = self.seq
            checkpoint_lsn = self._last_lsn
            # records up to here become durable with the checkpoint
            # regardless of sync policy — the image depends on them
            os.fsync(self._handle.fileno())
            self.syncs += 1
            self._handle.close()
            self._open_segment(old_seq + 1)
        self._advance_synced(checkpoint_lsn)
        self.checkpoints += 1
        return checkpoint_lsn, old_seq

    def finish_checkpoint(self, upto_seq: int) -> int:
        """Prune segments fully covered by a successfully-swapped
        image.  Returns the number of files removed."""
        removed = 0
        with self.mutex:
            try:
                entries = sorted(os.listdir(self.directory))
            except OSError:
                return 0
            for entry in entries:
                match = _SEGMENT_RE.match(entry)
                if match and int(match.group(1)) <= upto_seq:
                    os.unlink(os.path.join(self.directory, entry))
                    removed += 1
            if removed:
                _fsync_dir(self.directory)
        return removed

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Final flush+fsync (clean shutdown loses nothing even under
        ``batch``), then release the handle."""
        with self.mutex:
            with self._sync_mutex:
                handle = self._handle
                if handle is None:
                    return
                end = self._last_lsn
                handle.flush()
                os.fsync(handle.fileno())
                handle.close()
                self._handle = None
            self._advance_synced(end)

    def stats(self) -> dict:
        return {
            "durability": self.durability,
            "last_lsn": self._last_lsn,
            "synced_lsn": self._synced_lsn,
            "segment_seq": self.seq,
            "appends": self.appends,
            "bytes_written": self.bytes_written,
            "sync_requests": self.sync_requests,
            "syncs": self.syncs,
            "checkpoints": self.checkpoints,
        }


__all__ = [
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "apply_record",
    "default_wal_directory",
    "scan_wal",
    "wal_exists",
]
