"""Reference executors for differential tests of the kernels and storage.

Two contexts, beside ``reference_plan``'s reference planner:

* :func:`row_at_a_time` makes every kernel entry point the executor
  calls raise :class:`~repro.exec.kernels.KernelFallback`, so each
  key-driven operator (DISTINCT, GROUP BY, joins, set operations,
  ORDER BY, recursive-CTE dedup) runs the row-at-a-time body that
  production reaches on a fallback.  The oracle is that fallback code
  itself, not a copy of it.
* :func:`plain_storage` keeps every column plain — ANALYZE and ``save``
  attach no resting encoding and build no zone map — and makes scans
  consult no zone map, so nothing is pruned.  ``save`` then writes the
  plain layout (every descriptor ``plain``, no ``.zones.npz``).

Both patch module attributes for the duration of the ``with`` block,
for every database in the process; :class:`PlainDatabase` scopes
:func:`plain_storage` to the calls made on one database instead.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.exec import kernels
from repro.exec.kernels import KernelFallback
from repro.storage import encoding, zonemap

#: The kernel entry points ``repro.exec.operators`` calls; every other
#: kernel is reached only through one of these.
KERNEL_ENTRY_POINTS = (
    "distinct_mask",
    "group_ids",
    "join_indices",
    "JoinKeyDictionary",
    "setop_mask",
    "new_rows_mask",
    "sort_order",
    "composite_sort_rank",
)


def _decline(*args, **kwargs):
    raise KernelFallback("row-at-a-time reference")


@contextmanager
def row_at_a_time():
    """Run every key-driven operator on its row-at-a-time fallback."""
    with ExitStack() as stack:
        for name in KERNEL_ENTRY_POINTS:
            stack.enter_context(mock.patch.object(kernels, name, _decline))
        yield


@contextmanager
def plain_storage():
    """No resting encodings, no zone maps, no zone pruning."""
    with mock.patch.object(
        encoding, "choose_encoding", lambda column: None
    ), mock.patch.object(
        zonemap, "zone_map_for", lambda column, granularity=None: None
    ):
        yield


class PlainDatabase:
    """A :class:`~repro.Database` whose every method call runs under
    :func:`plain_storage`: the plain-storage side of a differential
    test, next to an ordinary database holding the same data."""

    def __init__(self, db):
        self._db = db

    def __getattr__(self, name):
        attr = getattr(self._db, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            with plain_storage():
                return attr(*args, **kwargs)

        return call


def reference_rows(db, sql: str, params=()) -> list[tuple]:
    """Rows of ``sql`` on ``db`` with every kernel declining."""
    with row_at_a_time():
        return db.execute(sql, params).rows()
