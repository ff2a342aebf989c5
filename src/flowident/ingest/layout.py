"""NumPy record types laid out like ``struct`` formats, so that one format
string describes a binary header to both the readers and the writers."""

from __future__ import annotations

import struct

import numpy as np


def struct_dtype(layout: struct.Struct) -> np.dtype:
    """A packed record type with one field per code of ``layout``, which
    needs an explicit byte order and no repeat counts."""
    order = {"!": ">", ">": ">", "<": "<", "=": "="}[layout.format[0]]
    return np.dtype(",".join(order + code for code in layout.format[1:]))


def unpack_rows(layout: struct.Struct, rows: np.ndarray) -> list[np.ndarray]:
    """Every field of ``layout`` in each ``layout.size`` bytes of ``rows``,
    as int64 columns."""
    rows = np.ascontiguousarray(rows).reshape(-1).view(struct_dtype(layout))
    return [rows[name].astype(np.int64) for name in rows.dtype.names]


def pack_rows(layout: struct.Struct, n: int, *values) -> np.ndarray:
    """``n`` records of ``layout`` as an ``(n, layout.size)`` byte matrix;
    ``values`` give its fields in order, each a scalar or an ``n``-array."""
    rows = np.zeros(n, struct_dtype(layout))
    for name, value in zip(rows.dtype.names, values):
        rows[name] = value
    return rows.view(np.uint8).reshape(n, layout.size)
