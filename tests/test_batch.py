"""Unit tests for the executor's Batch container."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec import Batch, ZeroColumnBatch
from repro.plan.logical import PlanColumn
from repro.storage import Column, DataType


def rows(batch):
    return list(zip(*(column.to_pylist() for column in batch.columns)))


def make_batch():
    schema = (
        PlanColumn(1, "a", DataType.INTEGER),
        PlanColumn(2, "b", DataType.VARCHAR),
    )
    columns = [
        Column.from_values(DataType.INTEGER, [1, 2, 3]),
        Column.from_values(DataType.VARCHAR, ["x", "y", "z"]),
    ]
    return Batch(schema, columns)


class TestBatch:
    def test_lookup_by_id(self):
        batch = make_batch()
        assert batch.column_by_id(2).to_pylist() == ["x", "y", "z"]

    def test_unknown_id_raises(self):
        with pytest.raises(ExecutionError, match="not present"):
            make_batch().column_by_id(99)

    def test_has_column(self):
        batch = make_batch()
        assert batch.has_column(1) and not batch.has_column(3)

    def test_width_mismatch_raises(self):
        schema = (PlanColumn(1, "a", DataType.INTEGER),)
        with pytest.raises(ExecutionError, match="width"):
            Batch(schema, [])

    def test_ragged_columns_raise(self):
        schema = (
            PlanColumn(1, "a", DataType.INTEGER),
            PlanColumn(2, "b", DataType.INTEGER),
        )
        with pytest.raises(ExecutionError, match="ragged"):
            Batch(
                schema,
                [
                    Column.from_values(DataType.INTEGER, [1]),
                    Column.from_values(DataType.INTEGER, [1, 2]),
                ],
            )

    def test_filter(self):
        batch = make_batch().filter(np.array([True, False, True]))
        assert rows(batch) == [(1, "x"), (3, "z")]

    def test_take_with_repeats(self):
        batch = make_batch().take(np.array([0, 0, 2]))
        assert rows(batch) == [(1, "x"), (1, "x"), (3, "z")]

    def test_append_columns(self):
        batch = make_batch()
        extra = Column.from_values(DataType.DOUBLE, [0.5, 1.5, 2.5])
        widened = batch.append_columns(
            (PlanColumn(3, "c", DataType.DOUBLE),), [extra]
        )
        assert widened.column_by_id(3).to_pylist() == [0.5, 1.5, 2.5]
        assert len(widened.schema) == 3

    def test_relabel(self):
        batch = make_batch()
        new_schema = (
            PlanColumn(10, "p", DataType.INTEGER),
            PlanColumn(11, "q", DataType.VARCHAR),
        )
        relabeled = batch.relabel(new_schema)
        assert relabeled.column_by_id(10).to_pylist() == [1, 2, 3]
        assert not relabeled.has_column(1)

    def test_relabel_arity_mismatch(self):
        with pytest.raises(ExecutionError):
            make_batch().relabel((PlanColumn(10, "p", DataType.INTEGER),))

    def test_empty_factory(self):
        schema = (PlanColumn(1, "a", DataType.INTEGER),)
        assert Batch.empty(schema).num_rows == 0


class TestZeroColumnBatch:
    def test_row_count_without_columns(self):
        batch = ZeroColumnBatch(5)
        assert batch.num_rows == 5 and batch.columns == []

    def test_filter(self):
        batch = ZeroColumnBatch(4).filter(np.array([True, False, True, False]))
        assert batch.num_rows == 2

    def test_take(self):
        assert ZeroColumnBatch(3).take(np.array([0, 0])).num_rows == 2

    def test_append_columns_turns_regular(self):
        batch = ZeroColumnBatch(2).append_columns(
            (PlanColumn(1, "a", DataType.INTEGER),),
            [Column.from_values(DataType.INTEGER, [7, 8])],
        )
        assert rows(batch) == [(7,), (8,)]
