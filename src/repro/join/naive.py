"""NaiveJoin: synchronous tree traversal over an explicit time window.

This is the paper's Figure 2 algorithm.  Two TPR-trees are traversed
top-down in lockstep; a pair of entries is pursued iff their kinetic
boxes intersect at some time in the processing window.  With the window
``[t_c, ∞)`` this *is* NaiveJoin; the TC-Join of §IV-B is the identical
traversal with the window cut to ``[t_u, t_u + T_M]`` (see
:mod:`repro.join.tc`).

The traversal handles trees of different heights (bucket trees in an
MTB forest routinely differ): when one side reaches its leaves first,
only the taller side keeps descending, with the leaf side's *node bound*
used for pruning.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry import INF, intersection_interval
from ..index import TPRStarTree
from ..index.node import Node
from ..metrics import CostTracker
from ..obs import tracker_span
from .types import JoinTriple

__all__ = ["naive_join"]


def naive_join(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    t_start: float,
    t_end: float = INF,
    tracker: Optional[CostTracker] = None,
) -> List[JoinTriple]:
    """All intersecting pairs between two trees during ``[t_start, t_end]``.

    Returns triples whose intervals are clipped to the window.  Pair
    tests are counted on ``tracker`` (defaults to ``tree_a``'s tracker).
    """
    if tracker is None:
        tracker = tree_a.storage.tracker
    results: List[JoinTriple] = []
    with tracker_span(tracker, "join.naive"):
        root_a = tree_a.root_node()
        root_b = tree_b.root_node()
        if not root_a.entries or not root_b.entries:
            return results
        _join_nodes(tree_a, tree_b, root_a, root_b, t_start, t_end, tracker, results)
    return results


def _join_nodes(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    node_a: Node,
    node_b: Node,
    t0: float,
    t1: float,
    tracker: CostTracker,
    out: List[JoinTriple],
) -> None:
    if node_a.is_leaf and node_b.is_leaf:
        for ea in node_a.entries:
            for eb in node_b.entries:
                tracker.count_pair_tests()
                interval = intersection_interval(ea.kbox, eb.kbox, t0, t1)
                if interval is not None:
                    out.append(JoinTriple(ea.ref, eb.ref, interval))
        return
    if not node_a.is_leaf and not node_b.is_leaf:
        for ea in node_a.entries:
            for eb in node_b.entries:
                tracker.count_pair_tests()
                if intersection_interval(ea.kbox, eb.kbox, t0, t1) is not None:
                    child_a = tree_a.read_node(ea.ref)
                    child_b = tree_b.read_node(eb.ref)
                    _join_nodes(
                        tree_a, tree_b, child_a, child_b, t0, t1, tracker, out
                    )
        return
    # Height mismatch: descend only the non-leaf side, pruning against
    # the leaf side's node bound.
    if node_a.is_leaf:
        bound_a = node_a.bound_at(t0)
        for eb in node_b.entries:
            tracker.count_pair_tests()
            if intersection_interval(bound_a, eb.kbox, t0, t1) is not None:
                child_b = tree_b.read_node(eb.ref)
                _join_nodes(tree_a, tree_b, node_a, child_b, t0, t1, tracker, out)
        return
    bound_b = node_b.bound_at(t0)
    for ea in node_a.entries:
        tracker.count_pair_tests()
        if intersection_interval(ea.kbox, bound_b, t0, t1) is not None:
            child_a = tree_a.read_node(ea.ref)
            _join_nodes(tree_a, tree_b, child_a, node_b, t0, t1, tracker, out)
