"""TC-Join: time-constrained processing of the intersection join (§IV-B).

Theorem 1 (paper): the join result of object ``O`` (updated at ``t_u``)
with the other dataset only needs to be valid during ``[t_u, t_u+T_M]``,
because ``O`` is guaranteed to update again within the maximum update
interval ``T_M`` — and its next update recomputes its pairs.  The union
of all such constrained runs answers the continuous query at all times.

TC-Join is therefore NaiveJoin with the processing window cut from
``[t_u, ∞)`` to ``[t_u, t_u + T_M]``.  With the improvement techniques
of §IV-D switched on it becomes the paper's ImprovedJoin over the same
window.
"""

from __future__ import annotations

from typing import List, Optional

from ..index import TPRStarTree
from ..metrics import CostTracker
from ..obs import tracker_span
from .improved import JoinTechniques, improved_join
from .naive import naive_join
from .types import JoinTriple

__all__ = ["tc_join"]


def tc_join(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    t_now: float,
    t_m: float,
    techniques: Optional[JoinTechniques] = None,
    tracker: Optional[CostTracker] = None,
) -> List[JoinTriple]:
    """Join two trees over the Theorem-1 window ``[t_now, t_now + T_M]``.

    ``techniques=None`` runs the plain (NaiveJoin-style) traversal — the
    configuration of the Figure 7 experiment; pass
    :meth:`JoinTechniques.all` for the full ImprovedJoin.
    """
    if t_m <= 0:
        raise ValueError("t_m must be positive")
    t_end = t_now + t_m
    if tracker is None:
        tracker = tree_a.storage.tracker
    with tracker_span(tracker, "join.tc"):
        if techniques is None:
            return naive_join(tree_a, tree_b, t_now, t_end, tracker)
        return improved_join(tree_a, tree_b, t_now, t_end, techniques, tracker)
