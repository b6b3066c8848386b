"""Materialized intermediate results.

A :class:`Batch` is the executor's unit of data flow: an ordered set of
physical :class:`~repro.storage.Column` vectors labelled by the logical
:class:`~repro.plan.logical.PlanColumn` ids of the operator that produced
it.  Every physical operator consumes whole batches and produces whole
batches — the fully-materialized, column-at-a-time model of MonetDB that
the paper's nested tables rely on (Section 3.3).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ExecutionError
from ..plan.logical import PlanColumn
from ..storage import Column


class Batch:
    """Columns + schema with col_id -> position lookup."""

    __slots__ = ("schema", "columns", "_by_id")

    def __init__(self, schema: tuple[PlanColumn, ...], columns: list[Column]):
        if len(schema) != len(columns):
            raise ExecutionError(
                f"batch schema width {len(schema)} != column count {len(columns)}"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = columns
        self._by_id = {col.col_id: i for i, col in enumerate(schema)}

    # ------------------------------------------------------------------
    @staticmethod
    def empty(schema: tuple[PlanColumn, ...]) -> "Batch":
        from ..storage import DataType

        return Batch(
            schema,
            [Column.empty(c.type or DataType.VARCHAR) for c in schema],
        )

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else getattr(self, "_rows", 0)

    @property
    def num_rows(self) -> int:
        if self.columns:
            return len(self.columns[0])
        return getattr(self, "_rows", 0)

    def column_by_id(self, col_id: int) -> Column:
        try:
            return self.columns[self._by_id[col_id]]
        except KeyError:
            raise ExecutionError(f"column id {col_id} not present in batch") from None

    def has_column(self, col_id: int) -> bool:
        return col_id in self._by_id

    # ------------------------------------------------------------------
    def filter(self, keep: np.ndarray) -> "Batch":
        return Batch(self.schema, [c.filter(keep) for c in self.columns])

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch(self.schema, [c.take(indices) for c in self.columns])

    def append_columns(
        self, schema: Iterable[PlanColumn], columns: Iterable[Column]
    ) -> "Batch":
        return Batch(self.schema + tuple(schema), self.columns + list(columns))

    def relabel(self, schema: tuple[PlanColumn, ...]) -> "Batch":
        """Same data under new PlanColumn ids (CTE refs, set ops)."""
        if len(schema) != len(self.schema):
            raise ExecutionError("relabel arity mismatch")
        return Batch(schema, self.columns)


class ZeroColumnBatch(Batch):
    """A batch with no columns but a definite row count.

    Needed for FROM-less selects (one row, zero columns) and for
    ``SELECT 1 FROM t``-style inputs after projection pruning.
    """

    def __init__(self, rows: int):
        super().__init__((), [])
        self._rows = rows

    __slots__ = ("_rows",)

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self._rows

    @property
    def num_rows(self) -> int:
        return self._rows

    def filter(self, keep: np.ndarray) -> "Batch":
        return ZeroColumnBatch(int(np.count_nonzero(keep)))

    def take(self, indices: np.ndarray) -> "Batch":
        return ZeroColumnBatch(len(indices))
