"""Whole-tree persistence: save/load a TPR(*)-tree to a page file.

Builds on :class:`~repro.storage.FileDiskManager`: all node pages are
copied out verbatim, followed by a metadata chain holding the tree
descriptor (root page, height, capacity, horizon) and the object table.
The loaded tree is fully operational — searches, updates, joins — and
is verified by round-trip tests including invariant validation.

File layout::

    page 0:            descriptor (magic, root id, height, capacity,
                       horizon, object count, first object page)
    object pages:      chained pages of object-table rows
    node pages:        nodes in post-order, child refs remapped

Nodes are copied bottom-up so children receive their file page ids
before their parents' entries are serialized — no fix-up pass needed.
"""

from __future__ import annotations

import os
from typing import Optional, Type

from ..geometry import KineticBox
from ..objects import MovingObject
from ..storage import BufferPool, FileDiskManager, StructReader, StructWriter
from .codec import NodeCodec
from .store import TreeStorage
from .tpr import TPRTree
from .tprstar import TPRStarTree

__all__ = ["save_tree", "load_tree", "save_forest", "load_forest"]

_MAGIC = 0x54505254  # "TPRT"
_NO_PAGE = -1


def save_tree(tree: TPRTree, path: str) -> None:
    """Persist ``tree`` (nodes + object table + descriptor) to ``path``.

    Overwrites any existing file.

    >>> import tempfile, os
    >>> from repro.workloads import uniform_workload
    >>> t = TPRStarTree()
    >>> for obj in uniform_workload(30, seed=1).set_a:
    ...     t.insert(obj, 0.0)
    >>> p = os.path.join(tempfile.mkdtemp(), "tree.db")
    >>> save_tree(t, p)
    >>> len(load_tree(p))
    30
    """
    if os.path.exists(path):
        os.remove(path)
    disk = FileDiskManager(path, page_size=tree.storage.page_size)
    codec = NodeCodec()
    try:
        descriptor_page = disk.allocate()
        assert descriptor_page == 0

        # Object-table chain.
        first_object_page = _write_object_chain(disk, tree)

        # Nodes, bottom-up, remapping child refs to file page ids.
        from .entry import Entry
        from .node import Node

        def copy_subtree(page_id: int) -> int:
            node = tree.read_node(page_id)
            if node.is_leaf:
                entries = list(node.entries)
            else:
                entries = [
                    Entry(entry.kbox, copy_subtree(entry.ref))
                    for entry in node.entries
                ]
            new_id = disk.allocate()
            disk.write_page(new_id, codec.encode(Node(new_id, node.level, entries)))
            return new_id

        new_root = copy_subtree(tree.root_id)
        _write_descriptor(disk, tree, first_object_page, new_root)
        disk.sync()
    finally:
        disk.close()


def load_tree(
    path: str,
    tree_class: Type[TPRTree] = TPRStarTree,
    buffer_pages: Optional[int] = None,
) -> TPRTree:
    """Reconstruct a tree previously stored with :func:`save_tree`.

    The returned tree owns a fresh :class:`TreeStorage` whose disk *is*
    the file — subsequent updates write back to it (call
    ``tree.storage.buffer.flush()`` and close the program normally, or
    re-save, to persist them).  The minimum-fill threshold is restored
    from the default 40% ratio; a non-default ``min_fill_ratio`` is not
    carried through the file format.
    """
    disk = FileDiskManager(path)
    reader = StructReader(disk.read_page(0))
    magic = reader.read_i64()
    if magic != _MAGIC:
        disk.close()
        raise ValueError(f"{path} is not a saved tree file")
    root_id = reader.read_i64()
    height = reader.read_i64()
    capacity = reader.read_i64()
    horizon = reader.read_f64()
    n_objects = reader.read_i64()
    object_page = reader.read_i64()

    storage = TreeStorage.__new__(TreeStorage)
    storage.tracker = disk.tracker
    storage.disk = disk
    storage.buffer = BufferPool(
        disk, NodeCodec(),
        buffer_pages if buffer_pages is not None else 50,
    )

    tree = tree_class.__new__(tree_class)
    tree.storage = storage
    tree.node_capacity = capacity
    tree.horizon = horizon
    tree.min_fill = max(1, int(capacity * 0.4))
    from .object_table import ObjectTable

    tree.objects = ObjectTable()
    tree.root_id = root_id
    tree.height = height
    tree.guided_delete_misses = 0

    loaded = 0
    while object_page != _NO_PAGE:
        object_page, rows = _read_object_page(disk, object_page)
        for obj in rows:
            tree.objects.put(obj)
            loaded += 1
    if loaded != n_objects:
        raise ValueError(
            f"corrupt tree file: expected {n_objects} objects, found {loaded}"
        )
    return tree


def save_forest(forest, directory: str) -> None:
    """Persist an MTB forest: one tree file per bucket plus a manifest.

    ``directory`` is created if needed; existing bucket files in it are
    replaced.
    """
    import json

    os.makedirs(directory, exist_ok=True)
    manifest = {
        "t_m": forest.t_m,
        "bucket_length": forest.bucket_length,
        "node_capacity": forest.node_capacity,
        "buckets": [],
    }
    for key, _end, tree in forest.trees():
        filename = f"bucket_{key}.db"
        save_tree(tree, os.path.join(directory, filename))
        manifest["buckets"].append({"key": key, "file": filename})
    with open(os.path.join(directory, "forest.json"), "w") as f:
        json.dump(manifest, f)


def load_forest(directory: str, tree_class: Type[TPRTree] = TPRStarTree):
    """Reconstruct an MTB forest saved by :func:`save_forest`."""
    import json

    from .mtb import MTBTree

    with open(os.path.join(directory, "forest.json")) as f:
        manifest = json.load(f)
    buckets_per_tm = max(1, round(manifest["t_m"] / manifest["bucket_length"]))
    forest = MTBTree(
        t_m=manifest["t_m"],
        buckets_per_tm=buckets_per_tm,
        node_capacity=manifest["node_capacity"],
    )
    for entry in manifest["buckets"]:
        tree = load_tree(os.path.join(directory, entry["file"]), tree_class)
        key = entry["key"]
        forest._trees[key] = tree
        for obj in tree.all_objects():
            forest.objects.put(obj, key)
    return forest


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
_OBJECT_BYTES = 8 + 9 * 8  # oid + kinetic parameters
_CHAIN_HEADER = 8 + 8      # next page id + row count


def _rows_per_page(page_size: int) -> int:
    return (page_size - 4 - _CHAIN_HEADER) // _OBJECT_BYTES


def _write_object_chain(disk: FileDiskManager, tree: TPRTree) -> int:
    objects = list(tree.objects.objects())
    if not objects:
        return _NO_PAGE
    per_page = _rows_per_page(disk.page_size)
    chunks = [objects[i : i + per_page] for i in range(0, len(objects), per_page)]
    page_ids = [disk.allocate() for _ in chunks]
    for idx, chunk in enumerate(chunks):
        writer = StructWriter()
        next_page = page_ids[idx + 1] if idx + 1 < len(page_ids) else _NO_PAGE
        writer.write_i64(next_page)
        writer.write_i64(len(chunk))
        for obj in chunk:
            writer.write_i64(obj.oid)
            writer.write_f64s(obj.kbox.params())
        disk.write_page(page_ids[idx], writer.getvalue())
    return page_ids[0]


def _read_object_page(disk: FileDiskManager, page_id: int):
    reader = StructReader(disk.read_page(page_id))
    next_page = reader.read_i64()
    count = reader.read_i64()
    rows = []
    for _ in range(count):
        oid = reader.read_i64()
        kbox = KineticBox.from_params(tuple(reader.read_f64s(9)))
        rows.append(
            MovingObject(
                oid, kbox.mbr, kbox.vbr.x_lo, kbox.vbr.y_lo, kbox.t_ref
            )
        )
    return next_page, rows


def _write_descriptor(
    disk: FileDiskManager,
    tree: TPRTree,
    first_object_page: int,
    root_id: int,
) -> None:
    writer = StructWriter()
    writer.write_i64(_MAGIC)
    writer.write_i64(root_id)
    writer.write_i64(tree.height)
    writer.write_i64(tree.node_capacity)
    writer.write_f64(tree.horizon)
    writer.write_i64(len(tree.objects))
    writer.write_i64(first_object_page)
    disk.write_page(0, writer.getvalue())
