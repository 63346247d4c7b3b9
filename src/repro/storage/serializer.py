"""Binary (de)serialization helpers for page payloads.

Index nodes are serialized with :mod:`struct` into little-endian binary
records.  The sequential :class:`StructWriter` / :class:`StructReader`
pair keeps the node codec in :mod:`repro.index.codec` short and
symmetric, and makes the *bytes-per-entry* arithmetic (which determines
node capacity for a 4 KiB page) explicit and testable.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["StructWriter", "StructReader"]

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U8 = struct.Struct("<B")


class StructWriter:
    """Appends primitive values to a growing byte buffer.

    >>> w = StructWriter()
    >>> w.write_i64(-5); w.write_f64(2.5)
    >>> r = StructReader(w.getvalue())
    >>> r.read_i64(), r.read_f64()
    (-5, 2.5)
    """

    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def write_f64(self, value: float) -> None:
        self._chunks.append(_F64.pack(value))

    def write_i64(self, value: int) -> None:
        self._chunks.append(_I64.pack(value))

    def write_u8(self, value: int) -> None:
        self._chunks.append(_U8.pack(value))

    def write_f64s(self, values: Sequence[float]) -> None:
        self._chunks.append(struct.pack(f"<{len(values)}d", *values))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)


class StructReader:
    """Sequentially decodes values written by :class:`StructWriter`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read_f64(self) -> float:
        value = _F64.unpack_from(self._data, self._pos)[0]
        self._pos += _F64.size
        return value

    def read_i64(self) -> int:
        value = _I64.unpack_from(self._data, self._pos)[0]
        self._pos += _I64.size
        return value

    def read_u8(self) -> int:
        value = _U8.unpack_from(self._data, self._pos)[0]
        self._pos += _U8.size
        return value

    def read_f64s(self, count: int) -> List[float]:
        values = list(struct.unpack_from(f"<{count}d", self._data, self._pos))
        self._pos += 8 * count
        return values

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos
