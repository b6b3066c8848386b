"""Unit tests for the physical Column vector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeError_
from repro.storage import Column, DataType
from repro.storage.column import factorize_objects


class TestConstruction:
    def test_from_values(self):
        col = Column.from_values(DataType.INTEGER, [1, 2, 3])
        assert col.to_pylist() == [1, 2, 3]
        assert not col.has_nulls

    def test_from_values_with_nulls(self):
        col = Column.from_values(DataType.INTEGER, [1, None, 3])
        assert col.to_pylist() == [1, None, 3]
        assert col.has_nulls

    def test_constant(self):
        col = Column.constant(DataType.VARCHAR, "x", 3)
        assert col.to_pylist() == ["x", "x", "x"]

    def test_constant_null(self):
        col = Column.constant(DataType.INTEGER, None, 2)
        assert col.to_pylist() == [None, None]

    def test_nulls(self):
        col = Column.nulls(DataType.DOUBLE, 4)
        assert col.to_pylist() == [None] * 4

    def test_empty(self):
        assert len(Column.empty(DataType.BIGINT)) == 0

    def test_mask_length_mismatch_raises(self):
        with pytest.raises(TypeError_):
            Column(DataType.INTEGER, np.zeros(3, np.int32), np.zeros(2, np.bool_))

    def test_all_false_mask_dropped(self):
        col = Column(DataType.INTEGER, np.zeros(3, np.int32), np.zeros(3, np.bool_))
        assert col.mask is None


class TestPositional:
    def test_take(self):
        col = Column.from_values(DataType.INTEGER, [10, 20, 30])
        taken = col.take(np.array([2, 0, 2]))
        assert taken.to_pylist() == [30, 10, 30]

    def test_take_preserves_nulls(self):
        col = Column.from_values(DataType.INTEGER, [1, None, 3])
        assert col.take(np.array([1, 1])).to_pylist() == [None, None]

    def test_filter(self):
        col = Column.from_values(DataType.VARCHAR, ["a", "b", "c"])
        kept = col.filter(np.array([True, False, True]))
        assert kept.to_pylist() == ["a", "c"]

    def test_slice(self):
        col = Column.from_values(DataType.INTEGER, [1, 2, 3, 4])
        assert col.slice(1, 3).to_pylist() == [2, 3]

    def test_concat(self):
        a = Column.from_values(DataType.INTEGER, [1])
        b = Column.from_values(DataType.INTEGER, [None, 3])
        assert Column.concat([a, b]).to_pylist() == [1, None, 3]

    def test_concat_type_mismatch_raises(self):
        a = Column.from_values(DataType.INTEGER, [1])
        b = Column.from_values(DataType.DOUBLE, [1.0])
        with pytest.raises(TypeError_):
            Column.concat([a, b])

    def test_concat_empty_list_raises(self):
        with pytest.raises(TypeError_):
            Column.concat([])


class TestCast:
    def test_int_to_double(self):
        col = Column.from_values(DataType.INTEGER, [1, 2]).cast(DataType.DOUBLE)
        assert col.type == DataType.DOUBLE
        assert col.to_pylist() == [1.0, 2.0]

    def test_double_to_int_truncates(self):
        col = Column.from_values(DataType.DOUBLE, [1.9, -1.9]).cast(DataType.INTEGER)
        assert col.to_pylist() == [1, -1]

    def test_int_to_varchar(self):
        col = Column.from_values(DataType.INTEGER, [42]).cast(DataType.VARCHAR)
        assert col.to_pylist() == ["42"]

    def test_varchar_to_int(self):
        col = Column.from_values(DataType.VARCHAR, [" 7 "]).cast(DataType.INTEGER)
        assert col.to_pylist() == [7]

    def test_varchar_to_int_invalid_raises(self):
        col = Column.from_values(DataType.VARCHAR, ["x"])
        with pytest.raises(TypeError_):
            col.cast(DataType.INTEGER)

    def test_varchar_to_double(self):
        col = Column.from_values(DataType.VARCHAR, ["2.5"]).cast(DataType.DOUBLE)
        assert col.to_pylist() == [2.5]

    def test_date_to_varchar(self):
        col = Column.from_values(DataType.DATE, ["2010-03-24"]).cast(DataType.VARCHAR)
        assert col.to_pylist() == ["2010-03-24"]

    def test_varchar_to_date(self):
        col = Column.from_values(DataType.VARCHAR, ["1970-01-02"]).cast(DataType.DATE)
        assert col.to_pylist() == [1]

    def test_bool_to_varchar(self):
        col = Column.from_values(DataType.BOOLEAN, [True, False]).cast(DataType.VARCHAR)
        assert col.to_pylist() == ["true", "false"]

    def test_null_passes_through_cast(self):
        col = Column.from_values(DataType.INTEGER, [None, 2]).cast(DataType.DOUBLE)
        assert col.to_pylist() == [None, 2.0]

    def test_same_type_is_identity(self):
        col = Column.from_values(DataType.INTEGER, [1])
        assert col.cast(DataType.INTEGER) is col

    def test_decode_dates(self):
        import datetime as dt

        col = Column.from_values(DataType.DATE, ["2010-03-24"])
        assert col.to_pylist(decode_dates=True) == [dt.date(2010, 3, 24)]


def _varchar_by_row_loop(column: Column) -> list:
    """CAST to VARCHAR one row at a time: the definition the vectorized
    cast must reproduce."""
    from repro.storage.types import days_to_date

    out = []
    for i in range(len(column)):
        v = column.value(i)
        if v is None:
            out.append("")
        elif column.type == DataType.DATE:
            out.append(days_to_date(v).isoformat())
        elif column.type == DataType.BOOLEAN:
            out.append("true" if v else "false")
        else:
            out.append(str(v))
    return out


@pytest.mark.parametrize(
    "type_, values",
    [
        (DataType.INTEGER, [0, -7, None, 2**31 - 1, -(2**31), 42, None]),
        (DataType.BIGINT, [2**63 - 1, -(2**63), None, 10**15, 0]),
        (
            DataType.DOUBLE,
            [1.5, -0.0, 0.0, float("nan"), None, 1e16, 1e-7, float("inf"),
             -float("inf"), 0.1 + 0.2, 123456789.0],
        ),
        (DataType.BOOLEAN, [True, None, False, True]),
        (DataType.DATE, ["2010-03-24", None, "1970-01-01", "2010-03-24", "1969-12-31"]),
        (DataType.INTEGER, []),
    ],
)
def test_cast_to_varchar_matches_row_loop(type_, values):
    column = Column.from_values(type_, values)
    cast = column.cast(DataType.VARCHAR)
    assert cast.type == DataType.VARCHAR
    assert cast.data.dtype == np.dtype(object)
    assert list(cast.data) == _varchar_by_row_loop(column)
    assert cast.to_pylist() == [
        None if v is None else s
        for v, s in zip(values, _varchar_by_row_loop(column))
    ]


def test_cast_date_to_varchar_ignores_null_slot_payload():
    column = Column(
        DataType.DATE,
        np.array([14692, np.iinfo(np.int64).min], dtype=np.int64),
        np.array([False, True]),
    )
    assert column.cast(DataType.VARCHAR).to_pylist() == ["2010-03-24", None]


#: Strings that sort or hash unusually: empty, NUL-terminated (numpy's
#: fixed-width ``U`` dtype would strip the NUL), non-ASCII and astral.
_ODD_TEXT = st.sampled_from(
    ["", "\x00", "a", "a\x00", "a\x00\x00", "\u00e4", "\u00e4\x00",
     "\U0001f600", "z\U00010348", "\uffff", "A"]
)
_TEXT = st.one_of(_ODD_TEXT, st.text(max_size=6))


@st.composite
def _varchar_rows(draw):
    """Rows over 1..n distinct values, some of them NULL."""
    pool = draw(st.lists(_TEXT, min_size=1, max_size=12, unique=True))
    return draw(
        st.lists(st.one_of(st.none(), st.sampled_from(pool)), max_size=80)
    )


class TestFactorizeObjects:
    @settings(max_examples=150, deadline=None)
    @given(_varchar_rows())
    def test_varchar_factorize_matches_np_unique(self, values):
        codes, cardinality, uniques = Column.from_values(
            DataType.VARCHAR, values
        ).factorize()
        valid = np.array([v for v in values if v is not None], dtype=object)
        ref_uniques, ref_inverse = np.unique(valid, return_inverse=True)
        has_null = None in values
        assert uniques.dtype == np.dtype(object)
        assert list(uniques) == list(ref_uniques)
        assert cardinality == max(len(ref_uniques) + has_null, 1)
        assert codes.dtype == np.int64
        want = np.full(len(values), len(ref_uniques), dtype=np.int64)
        want[[v is not None for v in values]] = ref_inverse.reshape(-1)
        assert np.array_equal(codes, want)

    def test_unorderable_hashable_keys_keep_insertion_order(self):
        values = np.empty(6, dtype=object)
        values[:] = [3, "a", (1, 2), 3, (1, 2), "a"]
        codes, cardinality, uniques = factorize_objects(values)
        assert uniques is None
        assert cardinality == 3
        assert codes.tolist() == [0, 1, 2, 0, 2, 1]

    def test_unhashable_keys_raise(self):
        values = np.empty(2, dtype=object)
        values[0], values[1] = [1], [2]
        with pytest.raises(TypeError):
            factorize_objects(values)
