"""Writer locking for concurrent statement execution.

Readers take no lock: a statement pins immutable table versions (see
:mod:`repro.storage.table`).  Writers (INSERT/DELETE/UPDATE/TRUNCATE,
COMMIT installs) serialize per table through the table's reentrant
``lock`` (a :class:`threading.RLock`), so ``Table`` mutators can lock
themselves defensively even when the statement layer already holds the
statement-scoped lock.
"""

from __future__ import annotations

import threading


class LockSet:
    """Statement-scoped acquisition of many table locks without deadlock.

    Locks are always taken in sorted table-name order.  Use as a context
    manager around one statement execution.
    """

    __slots__ = ("_locks",)

    def __init__(self, tables: dict[str, threading.RLock]):
        # ordered by name for a global order
        self._locks = [tables[name] for name in sorted(tables)]

    def __enter__(self) -> "LockSet":
        acquired = []
        try:
            for lock in self._locks:
                lock.acquire()
                acquired.append(lock)
        except BaseException:
            for lock in reversed(acquired):
                lock.release()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for lock in reversed(self._locks):
            lock.release()
