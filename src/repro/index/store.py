"""Shared storage binding for trees: disk + buffer + cost tracker.

Several trees can share one :class:`TreeStorage` — the MTB-tree's bucket
trees all live on the same simulated disk behind the same LRU buffer, as
do the two datasets' trees in the paper's experiments (one 50-page buffer
for the whole system, §VI-A).
"""

from __future__ import annotations

from ..metrics import CostTracker
from ..storage import (
    DEFAULT_BUFFER_PAGES,
    DEFAULT_PAGE_SIZE,
    BufferPool,
    DiskManager,
)
from .codec import NodeCodec, max_entries_for_page
from .node import Node

__all__ = ["TreeStorage"]


class TreeStorage:
    """One simulated disk of 4 KiB pages + LRU buffer + cost tracker for
    node pages."""

    def __init__(self, buffer_pages: int = DEFAULT_BUFFER_PAGES):
        self.tracker = CostTracker()
        self.disk = DiskManager(DEFAULT_PAGE_SIZE, self.tracker)
        self.buffer: BufferPool[Node] = BufferPool(
            self.disk, NodeCodec(), buffer_pages
        )

    def max_node_capacity(self) -> int:
        """Largest node fan-out that still fits one page."""
        return max_entries_for_page(self.disk.page_size)

    def read_node(self, page_id: int) -> Node:
        """Fetch a node (through the buffer) and count the visit."""
        self.tracker.count_node_visit()
        return self.buffer.get(page_id)

    def write_node(self, node: Node) -> None:
        """Install a (new or mutated) node into the buffer, dirty."""
        self.buffer.put(node.page_id, node)

    def new_node(self, level: int) -> Node:
        """Allocate a page and return an empty node for it."""
        node = Node(self.disk.allocate(), level)
        self.write_node(node)
        return node

    def free_node(self, node: Node) -> None:
        """Drop a node from buffer and disk."""
        self.buffer.discard(node.page_id)
        self.disk.deallocate(node.page_id)

    def __repr__(self) -> str:
        return f"TreeStorage(disk={self.disk!r}, buffer={self.buffer!r})"
