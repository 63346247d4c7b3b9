"""MTB-Join: time-bucketed joins with per-bucket time constraints (§IV-C).

Theorem 2 tightens Theorem 1: an updated object ``O`` only needs joining
with set ``B`` until ``lut(B) + T_M``, where ``lut(B)`` is the latest
update timestamp of ``B``.  The MTB-tree groups ``B`` by last-update
bucket, so the join of ``O`` against bucket tree ``Tr_i`` (bucket ending
at ``t_eb``) uses the window ``[t_c, t_eb + T_M]`` — every object in
that bucket *must* update again by ``t_eb + T_M``, at which point the
pair is recomputed from the other side.

Two entry points:

* :func:`mtb_join_object` — the maintenance primitive: one updated
  object against a forest;
* :func:`mtb_join` — forest × forest, used when both datasets are
  bucketed (each bucket-tree pair gets the window
  ``[t_c, min(t_eb_a, t_eb_b) + T_M]``).
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry import KineticBox
from ..index import MTBTree
from ..metrics import CostTracker
from ..obs import tracker_span
from .improved import JoinTechniques, improved_join
from .naive import naive_join
from .types import JoinTriple

__all__ = ["mtb_join_object", "mtb_join"]


def mtb_join_object(
    forest: MTBTree,
    kbox: KineticBox,
    oid: int,
    t_now: float,
    tracker: Optional[CostTracker] = None,
) -> List[JoinTriple]:
    """Join one (just-updated) object against an MTB forest.

    Returns triples with ``a_oid = oid`` and the forest object in
    ``b_oid``; callers joining "a B-object against forest A" swap the
    roles afterwards.  Each bucket tree is probed over its own window
    ``[t_now, t_eb + T_M]``.
    """
    if tracker is None:
        tracker = forest.storage.tracker
    triples: List[JoinTriple] = []
    with tracker_span(tracker, "join.mtb.object"):
        for _key, t_eb, tree in forest.trees():
            horizon_end = t_eb + forest.t_m
            if horizon_end <= t_now:
                # Bucket fully drained by the T_M guarantee; nothing to do.
                continue
            for other_oid, interval in tree.search(kbox, t_now, horizon_end):
                triples.append(JoinTriple(oid, other_oid, interval))
    return triples


def mtb_join(
    forest_a: MTBTree,
    forest_b: MTBTree,
    t_now: float,
    techniques: Optional[JoinTechniques] = None,
    tracker: Optional[CostTracker] = None,
) -> List[JoinTriple]:
    """Forest × forest join with per-bucket-pair time constraints.

    A pair drawn from buckets ending at ``t_a`` and ``t_b`` stays valid
    until whichever side updates first — bounded by
    ``min(t_a, t_b) + T_M`` — so that is the window used for the pair of
    bucket trees.  ``techniques=None`` uses the plain traversal;
    otherwise ImprovedJoin runs per tree pair.
    """
    if forest_a.t_m != forest_b.t_m:
        raise ValueError("forests must share the same maximum update interval")
    if tracker is None:
        tracker = forest_a.storage.tracker
    t_m = forest_a.t_m
    triples: List[JoinTriple] = []
    with tracker_span(tracker, "join.mtb"):
        for _ka, end_a, tree_a in forest_a.trees():
            for _kb, end_b, tree_b in forest_b.trees():
                horizon_end = min(end_a, end_b) + t_m
                if horizon_end <= t_now:
                    continue
                with tracker_span(
                    tracker, "join.mtb.bucket", bucket_a=_ka, bucket_b=_kb
                ):
                    if techniques is None:
                        found = naive_join(
                            tree_a, tree_b, t_now, horizon_end, tracker
                        )
                    else:
                        found = improved_join(
                            tree_a, tree_b, t_now, horizon_end, techniques, tracker
                        )
                triples.extend(found)
    return triples
