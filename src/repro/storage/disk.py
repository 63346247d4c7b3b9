"""A simulated page-oriented disk.

The paper evaluates disk-resident indexes with a 4 KiB page size and
reports the number of disk I/Os.  :class:`DiskManager` models exactly
that: a flat space of fixed-size pages addressed by page id.  Every
physical read/write increments the shared :class:`~repro.metrics.
CostTracker`; the buffer pool above it (:mod:`repro.storage.buffer`)
absorbs repeated accesses so that only buffer *misses* reach here — the
same accounting the paper uses.

Pages hold arbitrary ``bytes`` up to ``page_size``.  Contents are copied
on the way in and out, so callers can never mutate "disk" state by
aliasing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..metrics import CostTracker

__all__ = ["DEFAULT_PAGE_SIZE", "DiskManager", "PageError"]

DEFAULT_PAGE_SIZE = 4096


class PageError(Exception):
    """Raised on invalid page ids or oversized payloads."""


class DiskManager:
    """Fixed-size-page storage with allocation and I/O accounting.

    >>> disk = DiskManager()
    >>> pid = disk.allocate()
    >>> disk.write_page(pid, b"hello")
    >>> disk.read_page(pid)
    b'hello'
    >>> disk.tracker.page_reads, disk.tracker.page_writes
    (1, 1)
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        tracker: Optional[CostTracker] = None,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.tracker = tracker if tracker is not None else CostTracker()
        self._pages: Dict[int, bytes] = {}
        self._free: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a fresh (or recycled) page id."""
        if self._free:
            pid = self._free.pop()
        else:
            pid = self._next_id
            self._next_id += 1
        self._pages[pid] = b""
        return pid

    def deallocate(self, page_id: int) -> None:
        """Release a page for reuse.  The contents are discarded."""
        self._check_id(page_id)
        del self._pages[page_id]
        self._free.append(page_id)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> bytes:
        """Physically read a page (counted as one I/O)."""
        self._check_id(page_id)
        self.tracker.count_read()
        return self._pages[page_id]

    def write_page(self, page_id: int, data: bytes) -> None:
        """Physically write a page (counted as one I/O)."""
        self._check_id(page_id)
        if len(data) > self.page_size:
            raise PageError(
                f"payload of {len(data)} bytes exceeds page size {self.page_size}"
            )
        self.tracker.count_write()
        self._pages[page_id] = bytes(data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Number of currently allocated pages."""
        return len(self._pages)

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._pages

    def _check_id(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise PageError(f"page {page_id} is not allocated")

    def __repr__(self) -> str:
        return (
            f"DiskManager(pages={self.num_pages}, page_size={self.page_size}, "
            f"reads={self.tracker.page_reads}, writes={self.tracker.page_writes})"
        )
