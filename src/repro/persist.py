"""Database persistence: save/load a catalog to a directory.

Format-v4 layout::

    <dir>/catalog.json        # table schemas + storage descriptors +
                              # graph index specs + stats
    <dir>/<table>.tbl/        # one directory per table
        col<i>.npy            #   plain data  (+ col<i>.mask.npy)
        col<i>.codes.npy      #   dictionary codes + col<i>.dict.npy
        col<i>.rvals.npy      #   RLE runs (+ .rlens.npy / .rmask.npy)
        col<i>.packed.npy     #   subtract-min packed ints (+ mask)
        col<i>.zones.npz      #   persisted per-morsel zone map

Columns are written in their *resting* encoding
(:mod:`repro.storage.encoding`) as raw ``.npy`` files, which —
unlike ``npz`` members — ``np.load(mmap_mode="r")`` can memory-map:
``load()`` installs zero-arg loader thunks in the encodings, so a
reopened database materializes columns lazily on first touch.
A column ANALYZE left plain (no encoding pays off) is written as a
plain ``.npy`` array and loads the same lazy way.
Persisted zone maps are discarded on load when their recorded row
count disagrees with the column (the stale case).

Numeric payloads are stored as their numpy arrays; VARCHAR payloads
as fixed-width unicode arrays (NULLs carried by the mask, their slots
store empty strings).  Nested-table columns never occur in base
tables (the engine rejects storing them), so every column is
serializable without pickle.

Two properties ride on the MVCC refactor:

* **Snapshot-consistent**: ``save_database`` pins one
  :class:`~repro.storage.snapshot.Snapshot` up front and serializes the
  pinned table versions, so the saved image is a point-in-time view even
  while writers keep committing — and the save takes no locks at all.
* **Crash-safe**: everything is written into a temporary sibling
  directory first and atomically swapped over the target, so a crash
  mid-save leaves either the complete old image or the complete new one,
  never a half-written mix.

Optimizer statistics recorded by ``ANALYZE`` are persisted alongside the
schemas and restored on load, so a reloaded database plans with real
selectivities instead of magic-number fallbacks until the next ANALYZE.

Graph indices are persisted as *definitions* only (the
``graph_indices`` block): the first path query after ``load()``
rebuilds each index from the memory-mapped edge columns through the
ordinary cache-miss path, which costs about as much as reading a saved
CSR back would.  Format-v3 and older v4 images also carry a
``graph_index_files`` block and ``graphindex-<name>.npz`` CSR archives;
readers ignore both, so those indices rebuild lazily too.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ReproError, WalError
from .storage import (
    Column,
    ColumnStats,
    DataType,
    DictEncoding,
    PackedEncoding,
    PlainEncoding,
    RLEEncoding,
    Schema,
    Snapshot,
    TableStats,
    encode_columns,
)
from .storage.zonemap import ZONE_ROWS, ColumnZoneMap

if TYPE_CHECKING:  # pragma: no cover
    from .api import Database

#: Version 2 added the ``stats`` block; version 3 added persisted graph
#: index CSRs (``graphindex-<name>.npz``); version 4 replaced the
#: per-table npz archive with a ``<table>.tbl/`` directory of raw,
#: mmap-able per-column ``.npy`` files in their resting encodings, plus
#: persisted zone maps.  Images no longer carry CSRs and readers skip
#: any they find: indices rebuild from the columns on first use.  Every
#: older layout still loads (v1/v2/v3 keep the eager npz reader; missing
#: blocks degrade gracefully).
_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)


def save_database(
    db: "Database", directory: str, snapshot: Optional[Snapshot] = None
) -> None:
    """Write all tables, graph-index definitions and optimizer stats
    under ``directory``, atomically.

    ``snapshot`` pins the state to serialize; by default a fresh
    whole-catalog snapshot is pinned, so the image is point-in-time
    consistent and concurrent writers are never blocked.
    """
    target = os.path.abspath(directory)
    wal = getattr(db, "wal", None)
    faults = getattr(db, "faults", None)
    checkpoint = None  # (checkpoint_lsn, rotated-out segment seq)
    checkpoint_lsn = None
    if snapshot is None:
        if wal is not None:
            # pin + rotate under the WAL mutex: no commit can slip
            # between the snapshot and its recorded log position
            with wal.mutex:
                snapshot = db.pin_snapshot()
                if wal.paired_target is None:
                    # the first save establishes the image this log
                    # checkpoints against; saves elsewhere are backups
                    # and must never rotate/prune a log they don't own
                    wal.paired_target = target
                if wal.paired_target == target:
                    checkpoint = wal.begin_checkpoint()
                    checkpoint_lsn = checkpoint[0]
                else:
                    checkpoint_lsn = wal.last_lsn
        else:
            snapshot = db.pin_snapshot()
    elif wal is not None:
        raise WalError(
            "cannot checkpoint a durable database from an externally "
            "pinned snapshot: its position in the log is unknown"
        )
    parent = os.path.dirname(target) or os.curdir
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(
        prefix=os.path.basename(target) + ".saving-", dir=parent
    )
    # mkdtemp creates 0700; restore the umask-derived mode a plain
    # makedirs would have given, so saved images stay as readable as
    # they were before saving became atomic
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(staging, 0o777 & ~umask)
    try:
        if faults is not None:
            faults.fire("save.image.before")
        _write_image(db, snapshot, staging, checkpoint_lsn=checkpoint_lsn)
        # fsync every data file and directory *before* the rename: a
        # crash right after the swap must never leave a renamed-in
        # image whose contents are still unwritten page cache
        _fsync_tree(staging)
        if faults is not None:
            faults.fire("save.swap.before")
        _swap_into_place(staging, target, faults=faults)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    if checkpoint is not None:
        # only after the image swap succeeded are the covered segments
        # disposable
        wal.finish_checkpoint(checkpoint[1])


def _fsync_tree(root: str) -> None:
    """fsync every file, then every directory, under ``root`` — the
    staged image is fully on disk before the atomic rename publishes
    it (rename metadata can otherwise be reordered past data writes)."""
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), "rb") as handle:
                os.fsync(handle.fileno())
        _fsync_dir_entry(dirpath)


def _fsync_dir_entry(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_image(
    db: "Database",
    snapshot: Snapshot,
    directory: str,
    checkpoint_lsn: "Optional[int]" = None,
) -> None:
    tables_meta = {}
    for name in snapshot.table_names():
        version = snapshot.table_version(name)
        # make encoded storage the resting format of the image: any
        # column ANALYZE has not visited yet gets its encoding (and zone
        # maps) here, at write time.  A version ANALYZE has read keeps
        # its verdicts: re-choosing would re-factorize its plain columns
        analyzed = db.stats.get(name)
        if analyzed is None or analyzed.version != version.version_id:
            encode_columns(version)
        version.build_zone_maps()
        tables_meta[name] = {
            "columns": [[c.name, c.type.value] for c in version.schema],
            "storage": _write_table(
                version, os.path.join(directory, f"{name}.tbl")
            ),
        }
    meta = {
        "format_version": _FORMAT_VERSION,
        "tables": tables_meta,
        "graph_indices": {
            index_name: list(spec)
            for index_name, spec in db.graph_indices.specs().items()
        },
        "stats": _dump_stats(db, snapshot),
    }
    if checkpoint_lsn is not None:
        # recovery skips WAL records at or below this LSN: the image
        # already contains their effects
        meta["wal"] = {"checkpoint_lsn": int(checkpoint_lsn)}
    with open(os.path.join(directory, "catalog.json"), "w") as handle:
        json.dump(meta, handle, indent=2)


# ---------------------------------------------------------------------------
# format-v4 per-column files
# ---------------------------------------------------------------------------
def _strify(values) -> np.ndarray:
    """Object payload → fixed-width unicode; NULL slots store ""."""
    return np.array(["" if v is None else v for v in values], dtype=np.str_)


def _write_table(version, table_dir: str) -> list:
    """Write every column of ``version`` as per-column ``.npy`` files in
    its resting encoding (a plain array when it has none) and its zone
    map when one is built; returns the per-column storage descriptors
    recorded in ``catalog.json`` (the layout the loader rebuilds from).
    """
    os.makedirs(table_dir, exist_ok=True)
    descriptors = []
    for i, column in enumerate(version.columns):
        if column.type == DataType.NESTED_TABLE:  # pragma: no cover
            raise ReproError("nested tables cannot be persisted")
        base = os.path.join(table_dir, f"col{i}")
        is_str = column.type.numpy_dtype == np.dtype(object)
        n = len(column)
        enc = column.encoding
        if isinstance(enc, DictEncoding):
            np.save(base + ".codes.npy", enc.codes, allow_pickle=False)
            uniques = _strify(enc.uniques) if is_str else enc.uniques
            np.save(base + ".dict.npy", uniques, allow_pickle=False)
            desc = {
                "kind": "dict", "n": n,
                "has_null": enc.has_null, "str": is_str,
            }
        elif isinstance(enc, RLEEncoding):
            values = _strify(enc.values) if is_str else enc.values
            np.save(base + ".rvals.npy", values, allow_pickle=False)
            np.save(base + ".rlens.npy", enc.lengths, allow_pickle=False)
            if enc.run_mask is not None:
                np.save(base + ".rmask.npy", enc.run_mask, allow_pickle=False)
            desc = {
                "kind": "rle", "n": n,
                "mask": enc.run_mask is not None, "str": is_str,
            }
        elif isinstance(enc, PackedEncoding):
            np.save(base + ".packed.npy", enc.packed, allow_pickle=False)
            mask = enc.null_mask()
            if mask is not None:
                np.save(base + ".mask.npy", mask, allow_pickle=False)
            desc = {
                "kind": "pack", "n": n, "mask": mask is not None,
                "lo": 0 if enc.zone_rows else enc.lo, "span": enc.span,
            }
            if enc.zone_rows:
                # per-zone frame-of-reference minima ride as their own file
                np.save(base + ".lo.npy", np.asarray(enc.lo), allow_pickle=False)
                desc["zone_rows"] = enc.zone_rows
        else:
            data = _strify(column.data) if is_str else column.data
            np.save(base + ".npy", data, allow_pickle=False)
            mask = column.mask
            if mask is not None:
                np.save(base + ".mask.npy", mask, allow_pickle=False)
            desc = {
                "kind": "plain", "n": n,
                "mask": mask is not None, "str": is_str,
            }
        zone_map = (column._zones or {}).get(ZONE_ROWS)
        if zone_map is not None:
            np.savez(
                base + ".zones.npz",
                mins=zone_map.mins,
                maxs=zone_map.maxs,
                null_counts=zone_map.null_counts,
                has_values=zone_map.has_values,
                meta=np.array(
                    [zone_map.granularity, zone_map.n_rows], dtype=np.int64
                ),
            )
            desc["zones"] = True
        descriptors.append(desc)
    return descriptors


def _lazy(path: str):
    """Zero-arg mmap loader thunk for one ``.npy`` payload."""
    return lambda: np.load(path, mmap_mode="r")


def _lazy_str(path: str, mask_path: "str | None" = None):
    """Loader thunk decoding a fixed-width unicode file back to the
    engine's object arrays (None restored from ``mask_path`` slots)."""

    def thunk():
        raw = np.load(path, mmap_mode="r")
        mask = np.load(mask_path) if mask_path is not None else None
        out = np.empty(len(raw), dtype=object)
        for j, value in enumerate(raw):
            out[j] = None if mask is not None and mask[j] else str(value)
        return out

    return thunk


def _load_column_v4(type_: DataType, desc: dict, base: str) -> Column:
    """Rebuild one column from its storage descriptor, lazily.

    Every payload slot holds an ``np.load(mmap_mode="r")`` thunk, so
    nothing is read until the column is first touched.
    """
    n = int(desc["n"])
    kind = desc["kind"]
    is_str = bool(desc.get("str"))
    has_mask = bool(desc.get("mask"))
    if kind == "dict":
        uniques = (
            _lazy_str(base + ".dict.npy") if is_str else _lazy(base + ".dict.npy")
        )
        enc = DictEncoding(
            n, _lazy(base + ".codes.npy"), uniques,
            bool(desc.get("has_null")), type_.numpy_dtype,
        )
    elif kind == "rle":
        mask_path = base + ".rmask.npy" if has_mask else None
        values = (
            _lazy_str(base + ".rvals.npy", mask_path)
            if is_str
            else _lazy(base + ".rvals.npy")
        )
        enc = RLEEncoding(
            n, values, _lazy(base + ".rlens.npy"),
            _lazy(mask_path) if mask_path else None, type_,
        )
    elif kind == "pack":
        zone_rows = int(desc.get("zone_rows", 0))
        lo = _lazy(base + ".lo.npy") if zone_rows else int(desc["lo"])
        enc = PackedEncoding(
            n, _lazy(base + ".packed.npy"),
            _lazy(base + ".mask.npy") if has_mask else None,
            lo, int(desc["span"]), type_.numpy_dtype, zone_rows,
        )
    else:
        mask_path = base + ".mask.npy" if has_mask else None
        data = (
            _lazy_str(base + ".npy", mask_path) if is_str else _lazy(base + ".npy")
        )
        enc = PlainEncoding(n, data, _lazy(mask_path) if mask_path else None)
    column = Column.from_encoding(type_, enc)
    if desc.get("zones") and os.path.exists(base + ".zones.npz"):
        archive = np.load(base + ".zones.npz")
        granularity, n_rows = (int(v) for v in archive["meta"])
        # stale guard: a zone map recorded against a different version's
        # row count is silently dropped (it rebuilds lazily at scan time)
        if n_rows == n:
            column._zones = {
                granularity: ColumnZoneMap(
                    granularity, n_rows,
                    archive["mins"], archive["maxs"],
                    archive["null_counts"], archive["has_values"],
                )
            }
    return column


def _swap_into_place(staging: str, target: str, faults=None) -> None:
    """Move the fully-written ``staging`` directory over ``target``.

    POSIX ``rename`` cannot replace a non-empty directory, so an
    existing target is renamed aside first and removed only after the
    new image is in place — at every instant at least one complete
    image exists under some name.  The parent directory is fsynced
    after the renames so the swap itself is durable, and
    :func:`_recover_interrupted_save` can put things right if the
    process dies between the two renames.
    """
    parent = os.path.dirname(target) or os.curdir
    displaced = None
    if os.path.exists(target):
        holding = tempfile.mkdtemp(
            prefix=os.path.basename(target) + ".replaced-", dir=parent
        )
        displaced = os.path.join(holding, "old")
        os.rename(target, displaced)
        if faults is not None:
            faults.fire("save.swap.mid")
    try:
        os.rename(staging, target)
    except OSError:
        if displaced is not None:  # restore the old image, best effort
            os.rename(displaced, target)
            shutil.rmtree(os.path.dirname(displaced), ignore_errors=True)
        _fsync_dir_entry(parent)
        raise
    _fsync_dir_entry(parent)
    if faults is not None:
        faults.fire("save.swap.after")
    if displaced is not None:
        shutil.rmtree(os.path.dirname(displaced), ignore_errors=True)
        _fsync_dir_entry(parent)


def _recover_interrupted_save(target: str) -> None:
    """Clean up the debris of a save that was killed mid-flight.

    ``<base>.saving-*`` staging directories are incomplete by
    construction and are removed.  A ``<base>.replaced-*/old`` entry is
    the previous complete image renamed aside during the swap: if the
    crash landed between the two renames the target itself is missing,
    so the old image is restored; otherwise the holding directory is
    leftover garbage and is dropped.
    """
    parent = os.path.dirname(target) or os.curdir
    base = os.path.basename(target)
    if not os.path.isdir(parent):
        return
    for entry in sorted(os.listdir(parent)):
        path = os.path.join(parent, entry)
        if not os.path.isdir(path):
            continue
        if entry.startswith(base + ".saving-"):
            shutil.rmtree(path, ignore_errors=True)
        elif entry.startswith(base + ".replaced-"):
            displaced = os.path.join(path, "old")
            if not os.path.exists(target) and os.path.isdir(displaced):
                os.rename(displaced, target)
            shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# optimizer statistics
# ---------------------------------------------------------------------------
def _dump_stats(db: "Database", snapshot: Snapshot) -> dict:
    """Statistics to persist, made consistent with the *pinned* image:
    row counts come from the snapshot versions being saved (the live
    StatsManager may already describe newer commits), and column stats
    recorded against a different version than the saved one are flagged
    stale so the reloaded database knows to re-ANALYZE."""
    pinned = set(snapshot.table_names())
    dumped = {}
    for name, stats in db.stats.describe().items():
        if name not in pinned:
            continue
        version = snapshot.table_version(name)
        dumped[name] = {
            "row_count": version.num_rows,
            "stale": stats.stale or stats.version != version.version_id,
            "columns": {
                column_name: {
                    "null_count": column.null_count,
                    "distinct": column.distinct,
                    "min_value": column.min_value,
                    "max_value": column.max_value,
                }
                for column_name, column in stats.columns.items()
            },
        }
    return dumped


def _restore_stats(db: "Database", dumped: dict) -> None:
    for name, entry in dumped.items():
        if not db.catalog.has(name):  # pragma: no cover - defensive
            continue
        stats = TableStats(
            table=name,
            row_count=int(entry["row_count"]),
            # rebind to the freshly-loaded table's version so the stats
            # are not spuriously flagged stale by the next write
            version=db.catalog.get(name).version,
            stale=bool(entry.get("stale", False)),
        )
        for column_name, column in entry["columns"].items():
            stats.columns[column_name] = ColumnStats(
                null_count=int(column["null_count"]),
                distinct=int(column["distinct"]),
                min_value=column.get("min_value"),
                max_value=column.get("max_value"),
            )
        db.stats.restore(stats)


def load_database(directory: str, **options) -> "Database":
    """Recreate a Database previously written by :func:`save_database`.

    Keyword ``options`` are forwarded to the :class:`Database`
    constructor.  Format-v4 images load lazily — per-column
    ``np.load(mmap_mode="r")`` thunks materialize on first touch.
    v1–v3 npz images load eagerly, as always.

    If a write-ahead log sits next to the image (or at ``wal_dir``),
    records past the image's checkpoint are replayed, so the reloaded
    database contains every change the log made durable — including
    commits a crash prevented from ever being checkpointed.  Pass
    ``durability="commit"``/``"batch"`` to keep logging after the load
    (:meth:`Database.open` defaults to that); the default here is
    ``durability="off"``: recover, then run in-memory.
    """
    durability = options.pop("durability", "off")
    wal_dir = options.pop("wal_dir", None)
    return _open_database(
        directory,
        durability=durability,
        wal_dir=wal_dir,
        create_missing=False,
        options=options,
    )


def open_database(
    directory: str,
    *,
    durability: str = "commit",
    wal_dir: Optional[str] = None,
    **options,
) -> "Database":
    """Open ``directory`` as a durable database.

    The recovery entry point behind :meth:`Database.open`:

    1. leftover temp directories from a save killed mid-swap are
       cleaned up (the previous complete image is restored if the kill
       landed between the two renames);
    2. the newest checkpoint image — if any — is loaded;
    3. the write-ahead log is scanned, a torn tail (from a crash during
       an append) is truncated, and every intact record past the
       image's checkpoint LSN is replayed through the live write paths,
       in commit order;
    4. a :class:`~repro.storage.wal.WriteAheadLog` continuing at the
       recovered LSN is attached (unless ``durability="off"``), so new
       commits keep being logged.

    Unlike :func:`load_database`, a directory with neither an image nor
    a log is not an error: a fresh empty database is created and its
    log started — ``open`` is idempotent "create or recover".
    ``db.recovery_info`` describes what recovery did.
    """
    return _open_database(
        directory,
        durability=durability,
        wal_dir=wal_dir,
        create_missing=True,
        options=options,
    )


def _open_database(
    directory: str,
    *,
    durability: str,
    wal_dir: Optional[str],
    create_missing: bool,
    options: dict,
) -> "Database":
    from .api import Database
    from .storage.wal import (
        WriteAheadLog,
        apply_record,
        default_wal_directory,
        scan_wal,
        wal_exists,
    )

    if durability not in ("off", "commit", "batch"):
        raise ValueError(
            f"durability must be 'off', 'commit' or 'batch', "
            f"not {durability!r}"
        )
    target = os.path.abspath(directory)
    _recover_interrupted_save(target)
    wal_path = (
        os.path.abspath(wal_dir) if wal_dir else default_wal_directory(target)
    )
    has_image = os.path.exists(os.path.join(target, "catalog.json"))
    has_wal = wal_exists(wal_path)
    if not has_image and not has_wal and not create_missing:
        raise ReproError(f"not a saved database: {directory!r}")
    if has_image:
        db, checkpoint_lsn = _load_image(target, options)
    else:
        db = Database(**options)
        checkpoint_lsn = 0
    scan = scan_wal(wal_path) if has_wal else None
    replayed = skipped = 0
    if scan is not None:
        live = [r for r in scan.records if r.lsn > checkpoint_lsn]
        skipped = len(scan.records) - len(live)
        if live and live[0].lsn > checkpoint_lsn + 1:
            raise WalError(
                f"write-ahead log at {wal_path!r} is missing records: the "
                f"image checkpoints at lsn {checkpoint_lsn} but the first "
                f"surviving log record is lsn {live[0].lsn}"
            )
        # db.wal is still None here, so replay installs versions
        # without re-logging the records it is reading
        for record in live:
            apply_record(db, record)
            replayed += 1
    last_lsn = max(checkpoint_lsn, scan.last_lsn if scan is not None else 0)
    # leftover spill files from a crashed budgeted run are garbage by
    # construction (spills never outlive their query) — sweep them and
    # root this database's spill manager under its own directory
    from .storage.spill import SpillManager

    swept_spill = SpillManager.sweep(target)
    db.spill_manager.close()
    db.spill_manager = SpillManager(
        directory=os.path.join(target, SpillManager.DIR_NAME),
        counters=db.spill_counters,
    )
    db.recovery_info = {
        "directory": target,
        "wal_directory": wal_path,
        "had_image": has_image,
        "had_wal": has_wal,
        "checkpoint_lsn": checkpoint_lsn,
        "last_lsn": last_lsn,
        "replayed": replayed,
        "skipped": skipped,
        "duplicates": scan.duplicates if scan is not None else 0,
        "segments": scan.segments if scan is not None else 0,
        "truncated_bytes": scan.truncated_bytes if scan is not None else 0,
        "truncate_reason": scan.truncate_reason if scan is not None else None,
        "dropped_segments": scan.dropped_segments if scan is not None else 0,
        "swept_spill_files": swept_spill,
    }
    if durability != "off":
        wal = WriteAheadLog(
            wal_path,
            durability=durability,
            faults=db.faults,
            start_lsn=last_lsn,
            start_seq=scan.next_seq if scan is not None else 1,
        )
        wal.paired_target = target
        db.durability = durability
        db.wal = wal
    return db


def _load_image(directory: str, options: dict) -> "tuple[Database, int]":
    """Load one checkpoint image; returns the database plus the
    checkpoint LSN its WAL block recorded (0 for images saved without
    an active log — every log record is then past the checkpoint)."""
    from .api import Database

    meta_path = os.path.join(directory, "catalog.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise ReproError(
            f"unsupported database format {meta.get('format_version')!r}"
        )
    db = Database(**options)
    v4 = meta.get("format_version", 1) >= 4
    for name, table_meta in meta["tables"].items():
        columns_spec = [
            (column_name, DataType(type_name))
            for column_name, type_name in table_meta["columns"]
        ]
        table = db.catalog.create_table(name, Schema(columns_spec))
        if v4:
            table_dir = os.path.join(directory, f"{name}.tbl")
            storage = table_meta.get("storage", [])
            columns = [
                _load_column_v4(
                    type_, storage[i], os.path.join(table_dir, f"col{i}")
                )
                for i, (_, type_) in enumerate(columns_spec)
            ]
        else:
            archive = np.load(os.path.join(directory, f"{name}.npz"))
            columns = []
            for i, (_, type_) in enumerate(columns_spec):
                data = archive[f"col{i}_data"]
                mask = archive[f"col{i}_mask"]
                if type_.numpy_dtype == np.dtype(object):
                    decoded = np.empty(len(data), dtype=object)
                    for j, value in enumerate(data):
                        decoded[j] = None if mask[j] else str(value)
                    data = decoded
                else:
                    data = data.astype(type_.numpy_dtype)
                columns.append(Column(type_, data, mask if mask.any() else None))
        if columns and len(columns[0]):
            table.insert_columns(columns)
    for index_name, spec in meta.get("graph_indices", {}).items():
        db.graph_indices.create(index_name, *spec)
    _restore_stats(db, meta.get("stats", {}))
    return db, int(meta.get("wal", {}).get("checkpoint_lsn", 0))
