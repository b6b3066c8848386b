"""Logical data types of the column store.

The engine supports a compact but complete set of primitive SQL types plus
the special nested-table type introduced by the paper for shortest paths
(Section 3.3).  Each logical type maps to a numpy dtype used by the
physical column representation; strings and nested tables are stored in
``object`` arrays.

Type coercion follows the usual SQL numeric ladder::

    BOOLEAN < INTEGER < BIGINT < DOUBLE

DATE values are stored as days since the Unix epoch (an integer), which
keeps comparisons vectorizable.
"""

from __future__ import annotations

import datetime as _dt
import enum
import re
from typing import Any

import numpy as np

from ..errors import TypeError_


class DataType(enum.Enum):
    """Logical SQL type of a column or expression."""

    BOOLEAN = "boolean"
    INTEGER = "integer"
    BIGINT = "bigint"
    DOUBLE = "double"
    VARCHAR = "varchar"
    DATE = "date"
    #: The paper's path type: a bag of edge-table rows (Section 3.3).
    NESTED_TABLE = "nested table"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC

    @property
    def is_integral(self) -> bool:
        return self in (DataType.INTEGER, DataType.BIGINT)

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY_DTYPES[self]


_NUMERIC = frozenset(
    {DataType.BOOLEAN, DataType.INTEGER, DataType.BIGINT, DataType.DOUBLE}
)

_NUMPY_DTYPES = {
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.INTEGER: np.dtype(np.int32),
    DataType.BIGINT: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.VARCHAR: np.dtype(object),
    DataType.DATE: np.dtype(np.int64),
    DataType.NESTED_TABLE: np.dtype(object),
}

#: Position in the numeric promotion ladder.
_NUMERIC_RANK = {
    DataType.BOOLEAN: 0,
    DataType.INTEGER: 1,
    DataType.BIGINT: 2,
    DataType.DOUBLE: 3,
}

_TYPE_NAMES = {
    "bool": DataType.BOOLEAN,
    "boolean": DataType.BOOLEAN,
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "bigint": DataType.BIGINT,
    "double": DataType.DOUBLE,
    "float": DataType.DOUBLE,
    "real": DataType.DOUBLE,
    "decimal": DataType.DOUBLE,
    "numeric": DataType.DOUBLE,
    "varchar": DataType.VARCHAR,
    "char": DataType.VARCHAR,
    "text": DataType.VARCHAR,
    "string": DataType.VARCHAR,
    "date": DataType.DATE,
}


def parse_type_name(name: str) -> DataType:
    """Resolve a SQL type name (as written in DDL or CAST) to a DataType."""
    try:
        return _TYPE_NAMES[name.strip().lower()]
    except KeyError:
        raise TypeError_(f"unknown type name: {name!r}") from None


def promote(left: DataType, right: DataType) -> DataType:
    """Return the common numeric supertype of two types.

    Non-numeric operands must already be equal; otherwise the combination
    is a type error.
    """
    if left == right:
        return left
    if left.is_numeric and right.is_numeric:
        rank = max(_NUMERIC_RANK[left], _NUMERIC_RANK[right])
        for type_, type_rank in _NUMERIC_RANK.items():
            if type_rank == rank:
                return type_
    raise TypeError_(f"incompatible types: {left} and {right}")


def comparable(left: DataType, right: DataType) -> bool:
    """True when values of the two types may be compared with =, <, ..."""
    if left == right:
        return left != DataType.NESTED_TABLE
    return left.is_numeric and right.is_numeric


def date_to_days(value: _dt.date) -> int:
    """Encode a date as days since the Unix epoch."""
    return (value - _dt.date(1970, 1, 1)).days


def days_to_date(days: int) -> _dt.date:
    """Decode a days-since-epoch integer back into a date."""
    return _dt.date(1970, 1, 1) + _dt.timedelta(days=int(days))


def parse_date_literal(text: str) -> int:
    """Parse ``'YYYY-MM-DD'``, surrounding blanks stripped, into the
    internal day count.  Comparisons, INSERT and CAST all read dates
    here, so they accept the same strings on every Python version
    (``date.fromisoformat`` takes more forms from 3.11 on)."""
    match = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", text.strip(), re.ASCII)
    try:
        if match is None:
            raise ValueError("expected YYYY-MM-DD")
        return date_to_days(_dt.date(*map(int, match.groups())))
    except ValueError as exc:
        raise TypeError_(f"invalid date literal {text!r}: {exc}") from None


def infer_literal_type(value: Any) -> DataType:
    """Infer the logical type of a Python literal."""
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, (int, np.integer)):
        if -(2**31) <= int(value) < 2**31:
            return DataType.INTEGER
        return DataType.BIGINT
    if isinstance(value, (float, np.floating)):
        return DataType.DOUBLE
    if isinstance(value, str):
        return DataType.VARCHAR
    if isinstance(value, _dt.date):
        return DataType.DATE
    raise TypeError_(f"cannot infer SQL type for {value!r}")


#: Inclusive bounds of the integral storage types, checked per value so
#: an out-of-range integer is a typed error rather than numpy's
#: OverflowError when the column array is built.
INTEGRAL_RANGES = {
    DataType.INTEGER: (-(2**31), 2**31 - 1),
    DataType.BIGINT: (-(2**63), 2**63 - 1),
    DataType.DATE: (-(2**63), 2**63 - 1),
}


def _in_range(value: int, type_: DataType) -> int:
    low, high = INTEGRAL_RANGES[type_]
    if low <= value <= high:
        return value
    raise TypeError_(f"integer value out of {type_.name} range")


def coerce_python_value(value: Any, type_: DataType) -> Any:
    """Convert a Python value to the internal representation of ``type_``.

    ``None`` always passes through (SQL NULL).  Dates are accepted either
    as :class:`datetime.date`, ISO strings, or pre-encoded integers.
    """
    if value is None:
        return None
    if type_ == DataType.BOOLEAN:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise TypeError_(f"expected boolean, got {value!r}")
    if type_ == DataType.INTEGER or type_ == DataType.BIGINT:
        if isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (int, np.integer)):
            return _in_range(int(value), type_)
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return _in_range(int(value), type_)
        raise TypeError_(f"expected {type_}, got {value!r}")
    if type_ == DataType.DOUBLE:
        if isinstance(value, (bool, np.bool_)):
            return float(value)
        if isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
        raise TypeError_(f"expected double, got {value!r}")
    if type_ == DataType.VARCHAR:
        if isinstance(value, str):
            return value
        raise TypeError_(f"expected varchar, got {value!r}")
    if type_ == DataType.DATE:
        if isinstance(value, _dt.datetime):
            return date_to_days(value.date())
        if isinstance(value, _dt.date):
            return date_to_days(value)
        if isinstance(value, str):
            return parse_date_literal(value)
        if isinstance(value, (int, np.integer)):
            return _in_range(int(value), type_)
        raise TypeError_(f"expected date, got {value!r}")
    raise TypeError_(f"cannot store Python value into {type_}")
