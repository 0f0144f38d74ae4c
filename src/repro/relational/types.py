"""Column data types for the columnar relational substrate.

The engines in this package are columnar and numpy-backed.  Each logical
column type maps to one numpy dtype and a fixed byte width; byte widths feed
the GPU simulator's memory model (tile sizes, channel packet counts, and
materialized-intermediate accounting are all expressed in bytes).

Dates are stored as ``int32`` days since 1970-01-01, mirroring how columnar
engines (including the OmniDB code base GPL builds on) store dates as
integers for predicate evaluation on the GPU.  Strings are dictionary-encoded
at load time (see :mod:`repro.tpch.dbgen`), so string columns are ``int32``
codes plus a Python-side dictionary; this mirrors Ocelot's restriction to
4-byte values that the paper discusses in Section 5.1.
"""

from __future__ import annotations

import datetime as _dt
import enum

import numpy as np

__all__ = ["DataType", "date_to_days", "days_to_date", "EPOCH"]

EPOCH = _dt.date(1970, 1, 1)


class DataType(enum.Enum):
    """Logical column types supported by the engines."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    DATE = "date"
    DICT = "dict"  # dictionary-encoded string, stored as int32 codes

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for the physical column."""
        return _NUMPY_DTYPES[self]

    @property
    def width(self) -> int:
        """Byte width of one value; drives all size accounting."""
        return self.numpy_dtype.itemsize

    @property
    def is_numeric(self) -> bool:
        """Whether arithmetic (not just comparison) is meaningful."""
        return self in (
            DataType.INT32,
            DataType.INT64,
            DataType.FLOAT32,
            DataType.FLOAT64,
        )


_NUMPY_DTYPES = {
    DataType.INT32: np.dtype(np.int32),
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT32: np.dtype(np.float32),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.DATE: np.dtype(np.int32),
    DataType.DICT: np.dtype(np.int32),
}


def date_to_days(value: "str | _dt.date") -> int:
    """Convert an ISO date string or :class:`datetime.date` to epoch days.

    >>> date_to_days("1970-01-02")
    1
    """
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_days`."""
    return EPOCH + _dt.timedelta(days=int(days))
