"""Simulated disk substrate: pages, I/O accounting, LRU buffering.

The paper's experiments assume disk-resident data: 4 KiB pages behind a
50-page LRU buffer, with cost reported in physical page I/Os.  This
package reproduces that environment in memory so the I/O *counts* are
exact while the experiments stay laptop-fast.
"""

from .buffer import DEFAULT_BUFFER_PAGES, BufferPool, PageCodec
from .disk import DEFAULT_PAGE_SIZE, DiskManager, PageError

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_BUFFER_PAGES",
    "DiskManager",
    "PageError",
    "BufferPool",
    "PageCodec",
]
