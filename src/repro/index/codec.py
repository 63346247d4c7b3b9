"""Binary page codec for tree nodes.

Layout (little endian, no padding)::

    u8   level
    i64  page_id
    i64  entry count
    per entry:
        i64  ref (object id or child page id)
        9×f64 kinetic-box parameters (MBR bounds, VBR bounds, t_ref)

One entry is ``8 + 72 = 80`` bytes; the 17-byte header leaves room for
``(4096 - 17) // 80 = 50`` entries in a standard 4 KiB page.  The tree's
node capacity must not exceed :func:`max_entries_for_page`, which the
tree constructor checks.
"""

from __future__ import annotations

import struct

from ..geometry import KineticBox
from .entry import Entry
from .node import Node

__all__ = ["NodeCodec", "ENTRY_BYTES", "HEADER_BYTES", "max_entries_for_page"]

_HEADER = struct.Struct("<Bqq")
_ENTRY = struct.Struct("<q9d")
ENTRY_BYTES = _ENTRY.size
HEADER_BYTES = _HEADER.size


def max_entries_for_page(page_size: int) -> int:
    """Largest node capacity that fits a page of ``page_size`` bytes."""
    return (page_size - HEADER_BYTES) // ENTRY_BYTES


class NodeCodec:
    """Serializes :class:`~repro.index.node.Node` objects to page bytes."""

    def encode(self, node: Node) -> bytes:
        parts = [_HEADER.pack(node.level, node.page_id, len(node.entries))]
        parts.extend(
            _ENTRY.pack(entry.ref, *entry.kbox.params()) for entry in node.entries
        )
        return b"".join(parts)

    def decode(self, data: bytes) -> Node:
        level, page_id, count = _HEADER.unpack_from(data)
        body = memoryview(data)[HEADER_BYTES : HEADER_BYTES + count * ENTRY_BYTES]
        entries = [
            Entry(KineticBox.from_params(record[1:]), record[0])
            for record in _ENTRY.iter_unpack(body)
        ]
        return Node(page_id, level, entries)
