"""Columnar dataset persistence: column arrays on chained pages.

The columnar engine's single source of truth is the contiguous
:class:`~repro.core.columns.ColumnStore`.  This module gives those
columns the same durability the trees get from the page substrate: the
six live arrays are serialized into one checksummed image and spread
across a chain of fixed-size pages in any disk manager that
speaks the ``allocate / read_page / write_page`` protocol (the
in-memory :class:`~repro.storage.disk.DiskManager` for counted
experiments, :class:`~repro.storage.file_disk.FileDiskManager` for real
files).  Page I/O is counted by the manager's tracker like every other
page touch, so persisting a dataset shows up honestly in the cost
model.

Layout: :func:`save_columns_file` writes one flat ``RPROCOL3`` image —
a fixed header (magic, version, row count, dimensions), a per-slab
CRC32 table and the header's own CRC32, padded to 8 bytes, then the raw
little-endian column slabs in a fixed order (``oid``, ``tref``, then
each bound plane dimension-major), each 8-byte aligned — so a round
trip is byte-exact and a truncated image or a flipped bit raises
:class:`~repro.storage.disk.CorruptPageError` instead of decoding
garbage.  A page chain carries the same image: every page payload
starts with an 8-byte little-endian *next* page id (``-1`` ends the
chain) followed by the next slice of it.  :func:`read_column_stream`
decodes the image from bytes, refusing any other magic.

:func:`map_columns` opens an image file as :class:`MappedColumns`:
zero-copy ``np.memmap`` views per column, slab CRCs verified lazily on
first touch, and the derived ``slo``/``shi`` shift planes recomputed
lazily per mapped slab.  This is how a 1M-object dataset reloads
without full deserialization: opening validates only the fixed header,
and a probe that touches two columns faults in two slabs, not the whole
file.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

import numpy as np

from ..geometry.box import NDIMS
from ..geometry.kernels import KineticBatch
from .disk import CorruptPageError

__all__ = [
    "save_columns",
    "load_columns",
    "free_columns",
    "save_column_store",
    "load_column_store",
    "read_column_stream",
    "save_columns_file",
    "map_columns",
    "MappedColumns",
]

_MAGIC_V3 = b"RPROCOL3"
_HEAD_V3 = struct.Struct("<8sBqq")  # magic, version, n, ndims
_VERSION_V3 = 3
_NEXT = struct.Struct("<q")
_END = -1

#: Slab order: ``oid``, ``tref``, then each bound plane dimension-major
#: (``mlo[0], mlo[1], mhi[0], …``).
_N_SLABS = 2 + 4 * NDIMS
_SLAB_NAMES = tuple(
    ["oid", "tref"]
    + [f"{name}{dim}" for name in ("mlo", "mhi", "vlo", "vhi") for dim in range(NDIMS)]
)
_CRC_TABLE = struct.Struct(f"<{_N_SLABS}I")
_HEAD_CRC = struct.Struct("<I")
#: Full v3 header: fixed fields + slab CRC table + header CRC, padded
#: so the first slab starts 8-byte aligned (zero-copy float64 views).
_V3_HEADER_SIZE = -(-(_HEAD_V3.size + _CRC_TABLE.size + _HEAD_CRC.size) // 8) * 8


def _encode(cols) -> List[bytes]:
    """The column batch as an ``RPROCOL3`` image: the padded header,
    then one little-endian slab per column row, in slab order."""
    slabs: List[bytes] = [
        np.ascontiguousarray(cols.oid, dtype="<i8").tobytes(),
        np.ascontiguousarray(cols.tref, dtype="<f8").tobytes(),
    ]
    for column in (cols.mlo, cols.mhi, cols.vlo, cols.vhi):
        for dim in range(NDIMS):
            slabs.append(np.ascontiguousarray(column[dim], dtype="<f8").tobytes())
    head = _HEAD_V3.pack(_MAGIC_V3, _VERSION_V3, len(cols), NDIMS)
    head += _CRC_TABLE.pack(*(zlib.crc32(slab) for slab in slabs))
    head += _HEAD_CRC.pack(zlib.crc32(head))
    return [head.ljust(_V3_HEADER_SIZE, b"\0")] + slabs


def read_column_stream(stream: bytes):
    """Decode an ``RPROCOL3`` image into ``UpdateColumns``.

    The reader the page chains load through; the header and every slab
    are CRC-checked before a column is built.
    """
    from ..core.columns import UpdateColumns

    n, ndims, crcs = _parse_v3_header(stream)
    if ndims != NDIMS:
        raise ValueError(f"stream has {ndims} dimensions, library has {NDIMS}")
    pos = _V3_HEADER_SIZE
    if len(stream) - pos < _N_SLABS * 8 * n:
        raise CorruptPageError(
            f"column slab image truncated: expected {_N_SLABS * 8 * n} "
            f"slab bytes, found {len(stream) - pos}"
        )
    slabs = []
    for i, name in enumerate(_SLAB_NAMES):
        slab = stream[pos + i * 8 * n : pos + (i + 1) * 8 * n]
        if zlib.crc32(slab) != crcs[i]:
            raise CorruptPageError(f"column slab {name!r} failed its CRC32 check")
        slabs.append(np.frombuffer(slab, dtype="<i8" if i == 0 else "<f8"))
    oid, tref = slabs[0].astype(np.int64), slabs[1].astype(float)
    mlo, mhi, vlo, vhi = (
        np.array(slabs[2 + k * NDIMS : 2 + (k + 1) * NDIMS], dtype=float)
        for k in range(4)
    )
    return UpdateColumns(oid=oid, mlo=mlo, mhi=mhi, vlo=vlo, vhi=vhi, tref=tref)


def save_columns(disk, cols) -> int:
    """Persist one column batch; returns the root page id of the chain."""
    stream = b"".join(_encode(cols))
    usable = getattr(disk, "usable_page_size", disk.page_size - 4)
    chunk = min(disk.page_size - 4, usable) - _NEXT.size
    if chunk <= 0:
        raise ValueError("page size too small for column pages")
    n_pages = max(1, -(-len(stream) // chunk))
    pages = [disk.allocate() for _ in range(n_pages)]
    for k, pid in enumerate(pages):
        nxt = pages[k + 1] if k + 1 < n_pages else _END
        disk.write_page(
            pid, _NEXT.pack(nxt) + stream[k * chunk : (k + 1) * chunk]
        )
    return pages[0]


def load_columns(disk, root: int):
    """Read a column chain back as ``UpdateColumns`` (byte-exact)."""
    parts: List[bytes] = []
    pid = root
    while pid != _END:
        payload = disk.read_page(pid)
        pid = _NEXT.unpack_from(payload, 0)[0]
        parts.append(payload[_NEXT.size :])
    return read_column_stream(b"".join(parts))


def free_columns(disk, root: int) -> int:
    """Deallocate a column chain; returns the number of pages freed."""
    freed = 0
    pid = root
    while pid != _END:
        payload = disk.read_page(pid)
        nxt = _NEXT.unpack_from(payload, 0)[0]
        disk.deallocate(pid)
        pid = nxt
        freed += 1
    return freed


def save_column_store(disk, store) -> int:
    """Persist the live prefix of a ``ColumnStore``.

    The derived ``slo``/``shi`` planes are not written — they are
    recomputed on load by the store's own insert path, which keeps the
    on-page format minimal and the recomputation bit-exact by
    construction.
    """
    return save_columns(disk, store.columns())


def load_column_store(disk, root: int):
    """Rebuild a ``ColumnStore`` from a persisted chain."""
    from ..core.columns import ColumnStore

    store = ColumnStore()
    cols = load_columns(disk, root)
    if len(cols):
        store.add(cols)
    return store


# ----------------------------------------------------------------------
# Flat slab images (memory-mapped reads)
# ----------------------------------------------------------------------
def _parse_v3_header(buf) -> tuple:
    """Validate a v3 header; returns ``(n, ndims, slab_crcs)``.

    Any other magic is refused with ``ValueError``.  The header carries
    its own CRC32, so a flipped bit in the bookkeeping (row count, slab
    table) is caught *before* any slab is trusted.
    """
    if bytes(buf[:8]) != _MAGIC_V3:
        raise ValueError("not a column-page stream")
    if len(buf) < _V3_HEADER_SIZE:
        raise CorruptPageError("column slab header truncated")
    _, version, n, ndims = _HEAD_V3.unpack_from(buf, 0)
    if version != _VERSION_V3:
        raise ValueError(f"unsupported column-slab version {version}")
    crcs = _CRC_TABLE.unpack_from(buf, _HEAD_V3.size)
    declared = _HEAD_CRC.unpack_from(buf, _HEAD_V3.size + _CRC_TABLE.size)[0]
    actual = zlib.crc32(bytes(buf[: _HEAD_V3.size + _CRC_TABLE.size]))
    if actual != declared:
        raise CorruptPageError("column slab header failed its CRC32 check")
    if n < 0:
        raise CorruptPageError(f"column slab header declares {n} rows")
    return n, ndims, crcs


def save_columns_file(path, cols) -> int:
    """Write one column batch as a flat ``RPROCOL3`` slab image.

    The image a page chain carries, each slab 8 bytes per element and
    8-byte aligned, so :func:`map_columns` can hand out zero-copy views.
    Returns the number of bytes written.
    """
    parts = _encode(cols)
    with open(path, "wb") as fh:
        fh.writelines(parts)
    return sum(len(part) for part in parts)


class MappedColumns:
    """Read-only column access over a memory-mapped ``RPROCOL3`` file.

    Opening validates the header (magic, version, CRC) and the file
    size against the declared row count — nothing else is read, so a
    1M-row dataset opens in microseconds.  Column properties are
    zero-copy ``np.memmap`` views into the slabs; each slab's CRC32 is
    verified once, lazily, the first time it is touched, so integrity
    still holds end to end without an upfront full-file scan.  The
    derived shift planes (``slo = mlo - vlo·tref``) are not stored in
    the file; they are recomputed lazily from the mapped slabs and
    cached, exactly like a fresh :class:`~repro.core.columns.
    ColumnStore` pack would produce them.

    Duck-compatible with the read side of ``ColumnStore``: ``batch()``
    yields the same :class:`~repro.geometry.kernels.KineticBatch` the
    engine sweeps, so a mapped dataset drops straight into
    :class:`~repro.core.columnar.ColumnarJoinEngine` via
    ``UpdateColumns``-style consumption or the kernels directly.
    """

    __slots__ = ("path", "n", "_raw", "_crcs", "_verified", "_slo", "_shi")

    def __init__(self, path):
        self.path = path
        raw = np.memmap(path, dtype=np.uint8, mode="r")
        n, ndims, crcs = _parse_v3_header(raw[: _V3_HEADER_SIZE])
        if ndims != NDIMS:
            raise ValueError(
                f"slab image has {ndims} dimensions, library has {NDIMS}"
            )
        expected = _V3_HEADER_SIZE + _N_SLABS * 8 * n
        if raw.size < expected:
            raise CorruptPageError(
                f"column slab image truncated: expected {expected} bytes, "
                f"found {raw.size}"
            )
        self.n = n
        self._raw = raw
        self._crcs = crcs
        self._verified = [False] * _N_SLABS
        self._slo = None
        self._shi = None

    def _slab_bytes(self, index: int, count: int = 1):
        """Raw view over ``count`` adjacent slabs starting at ``index``,
        CRC-verifying each on first touch."""
        n = self.n
        for i in range(index, index + count):
            if not self._verified[i]:
                off = _V3_HEADER_SIZE + i * 8 * n
                if zlib.crc32(self._raw[off : off + 8 * n]) != self._crcs[i]:
                    raise CorruptPageError(
                        f"column slab {_SLAB_NAMES[i]!r} failed its CRC32 check"
                    )
                self._verified[i] = True
        off = _V3_HEADER_SIZE + index * 8 * n
        return self._raw[off : off + count * 8 * n]

    @property
    def oid(self) -> np.ndarray:
        return self._slab_bytes(0).view("<i8")

    @property
    def tref(self) -> np.ndarray:
        return self._slab_bytes(1).view("<f8")

    def _plane(self, first_slab: int) -> np.ndarray:
        """One ``(NDIMS, n)`` bound plane: adjacent dim slabs, one view."""
        return self._slab_bytes(first_slab, NDIMS).view("<f8").reshape(NDIMS, self.n)

    @property
    def mlo(self) -> np.ndarray:
        return self._plane(2)

    @property
    def mhi(self) -> np.ndarray:
        return self._plane(2 + NDIMS)

    @property
    def vlo(self) -> np.ndarray:
        return self._plane(2 + 2 * NDIMS)

    @property
    def vhi(self) -> np.ndarray:
        return self._plane(2 + 3 * NDIMS)

    @property
    def slo(self) -> np.ndarray:
        """Lazily recomputed pre-shifted lower bounds (cached)."""
        if self._slo is None:
            self._slo = self.mlo - self.vlo * self.tref
        return self._slo

    @property
    def shi(self) -> np.ndarray:
        """Lazily recomputed pre-shifted upper bounds (cached)."""
        if self._shi is None:
            self._shi = self.mhi - self.vhi * self.tref
        return self._shi

    def batch(self) -> KineticBatch:
        """The mapped dataset as one sweep-ready kinetic batch."""
        return KineticBatch(
            self.mlo, self.mhi, self.vlo, self.vhi,
            np.asarray(self.tref), self.slo, self.shi,
        )

    def columns(self):
        """Materialize into ``UpdateColumns`` (full deserialization)."""
        from ..core.columns import UpdateColumns

        return UpdateColumns(
            oid=np.array(self.oid, dtype=np.int64),
            mlo=np.array(self.mlo, dtype=float),
            mhi=np.array(self.mhi, dtype=float),
            vlo=np.array(self.vlo, dtype=float),
            vhi=np.array(self.vhi, dtype=float),
            tref=np.array(self.tref, dtype=float),
        )

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        touched = sum(self._verified)
        return (
            f"MappedColumns(n={self.n}, slabs={_N_SLABS}, "
            f"verified={touched}/{_N_SLABS})"
        )


def map_columns(path) -> MappedColumns:
    """Open an ``RPROCOL3`` file written by :func:`save_columns_file` as
    :class:`MappedColumns` (zero-copy, lazily verified); any other magic
    is refused with ``ValueError``."""
    return MappedColumns(path)
