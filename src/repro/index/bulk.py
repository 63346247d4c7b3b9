"""Bulk loading of TPR*-trees: sort-tile-recursive (STR) packing.

Building a tree by one-at-a-time insertion costs O(n log n) node
touches with large constants (choose-subtree integrates areas at every
level).  For the experiment harness — which builds fresh trees for
every parameter cell — bulk loading cuts construction time by an order
of magnitude and produces well-packed leaves.

The classic STR recipe is adapted to moving objects: objects are tiled
by their *mid-horizon* positions (position at ``t0 + H/2``), which
spreads velocity through the tiling the same way the TPR insertion
heuristics spread it through integrated areas.  Nodes are packed to
82% of their capacity, leaving headroom for the first updates,
standard bulk-load practice.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..objects import MovingObject
from .entry import Entry
from .store import TreeStorage
from .tpr import TPRStarTree

__all__ = ["bulk_load"]

# Share of a node's capacity that packing fills.
_FILL_FACTOR = 0.82


def bulk_load(
    objects: Sequence[MovingObject],
    t0: float,
    storage: Optional[TreeStorage] = None,
    node_capacity: int = 30,
    horizon: float = 60.0,
) -> TPRStarTree:
    """Build a packed TPR*-tree over ``objects`` as of time ``t0``.

    Returns a tree indistinguishable (API- and invariant-wise) from one
    built by repeated insertion.

    >>> from repro.workloads import uniform_workload
    >>> scenario = uniform_workload(100, seed=1)
    >>> tree = bulk_load(scenario.set_a, t0=0.0)
    >>> len(tree)
    100
    """
    tree = TPRStarTree(storage=storage, node_capacity=node_capacity, horizon=horizon)
    if not objects:
        return tree
    seen = set()
    for obj in objects:
        if obj.oid in seen:
            raise ValueError(f"duplicate object id {obj.oid}")
        seen.add(obj.oid)

    per_node = max(2, int(node_capacity * _FILL_FACTOR))
    t_mid = t0 + horizon / 2

    entries = [Entry(obj.kbox, obj.oid) for obj in objects]
    level = 0
    while len(entries) > per_node:
        entries = _pack_level(tree, entries, level, per_node, t0, t_mid)
        level += 1

    # Remaining entries become the root's children (or the root itself
    # when a single packed node is left over).
    root = tree.read_node(tree.root_id)
    if level == 0:
        root.entries = entries
        tree.storage.write_node(root)
    else:
        if len(entries) == 1:
            # The single top node *is* the root.
            top = tree.read_node(entries[0].ref)
            tree.storage.free_node(root)
            tree.root_id = top.page_id
            tree.height = level
        else:
            root.level = level
            root.entries = entries
            tree.storage.write_node(root)
            tree.height = level + 1

    for obj in objects:
        tree.objects.put(obj)
    return tree


def _pack_level(
    tree: TPRStarTree,
    entries: List[Entry],
    level: int,
    per_node: int,
    t0: float,
    t_mid: float,
) -> List[Entry]:
    """Pack ``entries`` into nodes at ``level``; returns parent entries."""
    n = len(entries)
    n_nodes = math.ceil(n / per_node)
    n_slices = max(1, round(math.sqrt(n_nodes)))
    per_slice = math.ceil(n / n_slices)

    # STR: sort by x at mid-horizon, slice, then sort slices by y.
    entries = sorted(entries, key=lambda e: e.kbox.at(t_mid).center[0])
    groups: List[List[Entry]] = []
    for s in range(0, n, per_slice):
        chunk = sorted(
            entries[s : s + per_slice], key=lambda e: e.kbox.at(t_mid).center[1]
        )
        groups.extend(
            chunk[k : k + per_node] for k in range(0, len(chunk), per_node)
        )
    # Short groups (slice/packing remainders) would violate the
    # min-fill invariant; rebalance each against its predecessor.
    for i in range(len(groups) - 1, 0, -1):
        if len(groups[i]) < tree.min_fill:
            merged = groups[i - 1] + groups[i]
            half = len(merged) // 2
            groups[i - 1 : i + 1] = [merged[:half], merged[half:]]
    parents: List[Entry] = []
    for group in groups:
        node = tree.storage.new_node(level)
        node.entries = group
        tree.storage.write_node(node)
        parents.append(Entry(node.bound_at(t0), node.page_id))
    return parents
