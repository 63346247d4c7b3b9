"""An LRU buffer pool over the simulated disk.

The paper's experiments run every algorithm behind an LRU buffer of 50
pages (§VI-A, following the TP-query paper's suggestion).  This module
reproduces that: page accesses that hit the buffer are free; misses cost
one physical read, and evicting a dirty frame costs one physical write.

The pool caches *decoded* objects, not raw bytes, via a pluggable
:class:`PageCodec`; encoding/decoding only happens at the disk boundary,
exactly where a real system would (de)serialize.  This keeps the I/O
accounting honest while avoiding pointless re-parsing on every logical
access.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Protocol, TypeVar

from .disk import DiskManager

__all__ = ["PageCodec", "BufferPool", "DEFAULT_BUFFER_PAGES"]

DEFAULT_BUFFER_PAGES = 50

T = TypeVar("T")


class PageCodec(Protocol[T]):
    """Translates between in-memory page objects and page bytes."""

    def encode(self, obj: T) -> bytes:  # pragma: no cover - protocol
        ...

    def decode(self, data: bytes) -> T:  # pragma: no cover - protocol
        ...


class _Frame(Generic[T]):
    __slots__ = ("obj", "dirty")

    def __init__(self, obj: T, dirty: bool):
        self.obj = obj
        self.dirty = dirty


class BufferPool(Generic[T]):
    """LRU cache of decoded pages with write-back eviction.

    >>> class Raw:  # pages whose objects already are bytes
    ...     def encode(self, obj): return bytes(obj)
    ...     def decode(self, data): return bytes(data)
    >>> disk = DiskManager()
    >>> pool = BufferPool(disk, Raw(), capacity=2)
    >>> pid = disk.allocate()
    >>> pool.put(pid, b"x")         # dirty in buffer, no I/O yet
    >>> pool.get(pid)               # hit, still no read I/O
    b'x'
    >>> disk.tracker.page_reads
    0
    """

    def __init__(self, disk: DiskManager, codec: PageCodec[T], capacity: int = DEFAULT_BUFFER_PAGES):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.disk = disk
        self.codec = codec
        self.capacity = capacity
        self._frames: "OrderedDict[int, _Frame[T]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Logical page access
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> T:
        """Fetch a page object, reading from disk on a buffer miss."""
        frame = self._frames.get(page_id)
        obs = self.disk.tracker.obs
        if frame is not None:
            self.hits += 1
            if obs is not None:
                obs.count("buffer_hits")
            self._frames.move_to_end(page_id)
            return frame.obj
        self.misses += 1
        if obs is not None:
            obs.count("buffer_misses")
        obj = self.codec.decode(self.disk.read_page(page_id))
        self._admit(page_id, _Frame(obj, dirty=False))
        return obj

    def put(self, page_id: int, obj: T) -> None:
        """Install/overwrite a page object and mark it dirty.

        The physical write is deferred until eviction or :meth:`flush`,
        mirroring a write-back buffer.
        """
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.obj = obj
            frame.dirty = True
            self._frames.move_to_end(page_id)
            return
        self._admit(page_id, _Frame(obj, dirty=True))

    def discard(self, page_id: int) -> None:
        """Drop a page from the buffer without writing it back.

        Used when the page itself is being deallocated.
        """
        self._frames.pop(page_id, None)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write back every dirty frame; returns the number written."""
        written = 0
        for page_id, frame in self._frames.items():
            if frame.dirty:
                self.disk.write_page(page_id, self.codec.encode(frame.obj))
                frame.dirty = False
                written += 1
        return written

    def clear(self) -> None:
        """Flush then empty the buffer (e.g. between experiments)."""
        self.flush()
        self._frames.clear()

    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def _admit(self, page_id: int, frame: _Frame[T]) -> None:
        self._frames[page_id] = frame
        self._frames.move_to_end(page_id)
        while len(self._frames) > self.capacity:
            victim_id, victim = self._frames.popitem(last=False)
            obs = self.disk.tracker.obs
            if obs is not None:
                obs.count("buffer_evictions")
            if victim.dirty and self.disk.is_allocated(victim_id):
                self.disk.write_page(victim_id, self.codec.encode(victim.obj))

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self.capacity}, resident={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
