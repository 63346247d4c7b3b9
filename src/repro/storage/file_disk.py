"""A file-backed disk manager: pages persisted to a real file.

The in-memory :class:`~repro.storage.disk.DiskManager` is the default
substrate for experiments (its I/O *counts* are what the paper reports).
:class:`FileDiskManager` stores the same fixed-size pages in an actual
file on the operating system's disk, giving the library true
persistence: an index built in one process can be reopened in another.

File layout: a small header page (magic, page size, page count,
free-list head) followed by data pages at offset
``HEADER + page_id * page_size``.  Freed pages are chained through
their first 8 bytes.

Page framing
------------
Files carry the magic ``RPRODSK2`` and frame every data page as
``length, crc32, payload``; the checksum is verified on each
:meth:`~FileDiskManager.read_page`, raising
:class:`~repro.storage.disk.CorruptPageError` on a flipped bit or a
truncated page.  Any other magic is refused on open.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from ..metrics import CostTracker
from .disk import DEFAULT_PAGE_SIZE, CorruptPageError, PageError

__all__ = ["FileDiskManager"]

_MAGIC = b"RPRODSK2"
_HEADER = struct.Struct("<8sqqq")  # magic, page_size, next_id, free_head
_PAGE = struct.Struct("<iI")  # payload length, crc32(payload)
_FREE_LINK = struct.Struct("<q")
_NO_FREE = -1


class FileDiskManager:
    """Drop-in replacement for :class:`DiskManager` backed by a file.

    Supports the same ``allocate / deallocate / read_page / write_page``
    protocol, so :class:`~repro.storage.buffer.BufferPool` and the trees
    run unchanged on top of it.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "pages.db")
    >>> disk = FileDiskManager(path)
    >>> pid = disk.allocate()
    >>> disk.write_page(pid, b"durable")
    >>> disk.close()
    >>> FileDiskManager(path).read_page(pid)
    b'durable'
    """

    #: The one on-disk format this class reads and writes.
    format_version = 2

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        tracker: Optional[CostTracker] = None,
    ):
        if page_size <= _PAGE.size:
            raise ValueError("page_size too small")
        self.path = path
        self.tracker = tracker if tracker is not None else CostTracker()
        exists = os.path.exists(path) and os.path.getsize(path) >= _HEADER.size
        self._file = open(path, "r+b" if exists else "w+b")
        if exists:
            self._load_header()
            if self.page_size != page_size and page_size != DEFAULT_PAGE_SIZE:
                raise PageError(
                    f"file has page size {self.page_size}, asked for {page_size}"
                )
        else:
            self.page_size = page_size
            self._next_id = 0
            self._free_head = _NO_FREE
            self._store_header()
        # Allocation bitmap is kept in memory; pages on the free chain
        # are not allocated.
        self._allocated = set(range(self._next_id))
        head = self._free_head
        while head != _NO_FREE:
            self._allocated.discard(head)
            head = _FREE_LINK.unpack(self._read_raw(head)[: _FREE_LINK.size])[0]

    # ------------------------------------------------------------------
    # DiskManager protocol
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        if self._free_head != _NO_FREE:
            pid = self._free_head
            self._free_head = _FREE_LINK.unpack(
                self._read_raw(pid)[: _FREE_LINK.size]
            )[0]
        else:
            pid = self._next_id
            self._next_id += 1
        # Clear the page so a recycled slot never exposes a stale free
        # link as its framing header (all-zero framing decodes as the
        # empty payload: crc32(b"") == 0).
        self._write_raw(pid, b"")
        self._allocated.add(pid)
        self._store_header()
        return pid

    def deallocate(self, page_id: int) -> None:
        self._check(page_id)
        self._allocated.discard(page_id)
        self._write_raw(page_id, _FREE_LINK.pack(self._free_head))
        self._free_head = page_id
        self._store_header()

    def read_page(self, page_id: int) -> bytes:
        self._check(page_id)
        self.tracker.count_read()
        data = self._read_raw(page_id)
        length, crc = _PAGE.unpack_from(data, 0)
        if length < 0 or length > self.usable_page_size:
            raise CorruptPageError(
                f"{self.path}: page {page_id} has invalid payload "
                f"length {length}"
            )
        payload = bytes(data[_PAGE.size : _PAGE.size + length])
        if zlib.crc32(payload) != crc:
            raise CorruptPageError(
                f"{self.path}: page {page_id} failed its CRC32 check"
            )
        return payload

    def write_page(self, page_id: int, data: bytes) -> None:
        self._check(page_id)
        if len(data) > self.usable_page_size:
            raise PageError(
                f"payload of {len(data)} bytes exceeds usable page size "
                f"{self.usable_page_size}"
            )
        self.tracker.count_write()
        self._write_raw(page_id, _PAGE.pack(len(data), zlib.crc32(data)) + data)

    @property
    def num_pages(self) -> int:
        return len(self._allocated)

    @property
    def usable_page_size(self) -> int:
        """Payload bytes one page can hold after framing overhead."""
        return self.page_size - _PAGE.size

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._allocated

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush OS buffers to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._store_header()
        self._file.flush()
        self._file.close()

    def __enter__(self) -> "FileDiskManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _offset(self, page_id: int) -> int:
        return _HEADER.size + page_id * self.page_size

    def _read_raw(self, page_id: int) -> bytes:
        self._file.seek(self._offset(page_id))
        data = self._file.read(self.page_size)
        return data.ljust(self.page_size, b"\x00")

    def _write_raw(self, page_id: int, data: bytes) -> None:
        self._file.seek(self._offset(page_id))
        self._file.write(data.ljust(self.page_size, b"\x00"))

    def _check(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise PageError(f"page {page_id} is not allocated")

    def _store_header(self) -> None:
        self._file.seek(0)
        self._file.write(
            _HEADER.pack(_MAGIC, self.page_size, self._next_id, self._free_head)
        )

    def _load_header(self) -> None:
        self._file.seek(0)
        magic, page_size, next_id, free_head = _HEADER.unpack(
            self._file.read(_HEADER.size)
        )
        if magic != _MAGIC:
            raise PageError(f"{self.path} is not a repro page file")
        self.page_size = page_size
        self._next_id = next_id
        self._free_head = free_head

    def __repr__(self) -> str:
        return (
            f"FileDiskManager(path={self.path!r}, pages={self.num_pages}, "
            f"page_size={self.page_size}, v{self.format_version})"
        )
