"""Index introspection: occupancy, overlap and quality statistics.

Used by the ablation benches and handy when tuning node capacity or
bucket granularity on a new workload.  All metrics are computed from a
full traversal, so collecting them costs I/O — call on diagnostics
paths only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .mtb import MTBTree
from .tpr import TPRStarTree

__all__ = ["TreeStats", "collect_tree_stats", "collect_forest_stats"]


@dataclass(frozen=True)
class TreeStats:
    """Aggregate structural statistics of one tree."""

    height: int
    node_count: int
    leaf_count: int
    entry_count: int
    object_count: int
    avg_leaf_fill: float
    avg_internal_fill: float
    #: Total pairwise overlap area between sibling bounds at ``t_eval``,
    #: the classic R-tree quality metric (lower is better).
    sibling_overlap_area: float
    #: Sum of bound areas per level at ``t_eval``.
    area_by_level: Dict[int, float]


def collect_tree_stats(tree: TPRStarTree, t_eval: float) -> TreeStats:
    """Walk ``tree`` and compute :class:`TreeStats` at time ``t_eval``.

    >>> from repro.workloads import uniform_workload
    >>> from repro.index import TPRStarTree
    >>> tree = TPRStarTree()
    >>> for obj in uniform_workload(60, seed=0).set_a:
    ...     tree.insert(obj, 0.0)
    >>> stats = collect_tree_stats(tree, 0.0)
    >>> stats.object_count
    60
    """
    node_count = 0
    leaf_count = 0
    entry_count = 0
    leaf_fills: List[float] = []
    internal_fills: List[float] = []
    overlap = 0.0
    area_by_level: Dict[int, float] = {}

    for node in tree.iter_nodes():
        node_count += 1
        entry_count += len(node.entries)
        fill = len(node.entries) / tree.node_capacity
        if node.is_leaf:
            leaf_count += 1
            leaf_fills.append(fill)
        else:
            internal_fills.append(fill)
        boxes = [entry.kbox.at(t_eval) for entry in node.entries]
        area_by_level[node.level] = area_by_level.get(node.level, 0.0) + sum(
            b.area for b in boxes
        )
        if not node.is_leaf:
            for i, bi in enumerate(boxes):
                for bj in boxes[i + 1 :]:
                    overlap += bi.overlap_area(bj)

    return TreeStats(
        height=tree.height,
        node_count=node_count,
        leaf_count=leaf_count,
        entry_count=entry_count,
        object_count=len(tree),
        avg_leaf_fill=sum(leaf_fills) / len(leaf_fills) if leaf_fills else 0.0,
        avg_internal_fill=(
            sum(internal_fills) / len(internal_fills) if internal_fills else 0.0
        ),
        sibling_overlap_area=overlap,
        area_by_level=area_by_level,
    )


def collect_forest_stats(forest: MTBTree, t_eval: float) -> Dict[int, TreeStats]:
    """Per-bucket statistics of an MTB forest."""
    return {
        key: collect_tree_stats(tree, t_eval)
        for key, _end, tree in forest.trees()
    }
