"""Continuous k-nearest-neighbour queries with TC processing (paper §V).

The paper notes the continuous kNN algorithms of Benetis et al. compute
candidates for a time interval ``[t_s, t_e]`` while traversing a
TPR-tree, and that TC processing applies directly: "if ``t_e > t_s +
T_M``, we can … reduce the time interval to ``[t_s, t_s + T_M]``".

This module implements that filter-and-refine scheme:

* :func:`knn_at` — exact k nearest neighbours of a moving query point at
  one timestamp, best-first over the TPR-tree with node min-distance
  bounds;
* :class:`ContinuousKNNEngine` — maintains, per Theorem-1 window
  ``[t, t + T_M]``, a *candidate set* guaranteed to contain the kNN at
  every timestamp in the window.  The candidate radius uses the exact
  kth distance at the window endpoints plus a Lipschitz safety margin:
  every object–query distance changes at most ``v_obj + v_query`` per
  time unit, so the kth-NN distance over the window is bounded by
  ``max(d_k(t_0), d_k(t_1)) + L·(t_1 − t_0)/2``.  Snapshots then refine
  within the candidates only.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from ..core.columns import (
    check_deadlines,
    check_ingest,
    check_planes,
    columns_from_boxes,
    columns_from_objects,
    deadline_planes,
    registry_find,
)
from ..core.config import JoinConfig
from ..geometry import Box, KineticBox
from ..geometry.interval import INF, check_clock
from ..index import MTBTree, TPRStarTree, TreeStorage
from ..objects import MovingObject

__all__ = ["knn_at", "ContinuousKNNEngine"]


def knn_at(
    tree: TPRStarTree, qx: float, qy: float, k: int, t: float
) -> List[Tuple[float, int]]:
    """Exact ``k`` nearest objects to point ``(qx, qy)`` at time ``t``.

    Best-first search: nodes are expanded in order of the minimum
    distance from the query point to their bound evaluated at ``t``.
    Returns ascending ``(distance, oid)`` pairs (fewer than ``k`` when
    the tree is smaller).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    point = Box.point(qx, qy)
    heap: List[Tuple[float, int, bool, int]] = []
    counter = 0
    root = tree.root_node()
    heap.append((0.0, counter, False, tree.root_id))
    results: List[Tuple[float, int]] = []
    del root
    while heap:
        dist, _, is_object, ref = heapq.heappop(heap)
        if is_object:
            results.append((dist, ref))
            if len(results) == k:
                return results
            continue
        node = tree.read_node(ref)
        for entry in node.entries:
            entry_dist = entry.kbox.at(t).min_distance(point)
            counter += 1
            heapq.heappush(heap, (entry_dist, counter, node.is_leaf, entry.ref))
    return results


class ContinuousKNNEngine:
    """TC-processed continuous kNN over one MTB-indexed dataset.

    The query point moves linearly (``KineticBox`` of zero extent).  On
    every object update — and whenever the Theorem-1 window expires —
    the candidate set is rebuilt for the next ``[t, t + T_M]`` window;
    snapshots only ever touch candidates.
    """

    def __init__(
        self,
        objects: List[MovingObject],
        query: KineticBox,
        k: int,
        config: Optional[JoinConfig] = None,
        max_speed: float = 5.0,
        start_time: float = 0.0,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        check_planes(columns_from_boxes([0], [query]))
        # A moving point: zero width and height, one velocity per axis.
        if any(query.mbr.side(d) or query.vbr.side(d) for d in (0, 1)):
            raise ValueError("query must be a moving point (zero extent, one velocity)")
        self.config = config if config is not None else JoinConfig()
        self.k = k
        self.query = query
        self.max_speed = float(max_speed)
        check_clock(-INF, start_time)
        self.now = float(start_time)
        check_ingest(self.now, admit=(columns_from_objects(objects),))
        self.storage = TreeStorage(buffer_pages=self.config.buffer_pages)
        self.forest = MTBTree(
            t_m=self.config.t_m,
            storage=self.storage,
            buckets_per_tm=self.config.buckets_per_tm,
            node_capacity=self.config.node_capacity,
        )
        self.objects: Dict[int, MovingObject] = {obj.oid: obj for obj in objects}
        for obj in objects:
            self.forest.insert(obj, self.now)
        self._candidates: Set[int] = set()
        self._window_end = self.now
        self._refresh_candidates(self.now)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def tick(self, t: float) -> None:
        """Advance the clock, renewing the candidate window if expired.

        A tick past some object's deadline ``t_ref + T_M`` raises
        :class:`~repro.core.columns.LateObjectError` and changes
        nothing, as on the join engines.
        """
        check_clock(self.now, t)
        check_deadlines(t, self.config.t_m, deadline_planes(self.objects))
        self.now = t
        if t >= self._window_end:
            self._refresh_candidates(t)

    def apply_update(self, obj: MovingObject) -> None:
        """Process an object update at the current timestamp.

        The ingest gate (:func:`~repro.core.columns.check_ingest`)
        refuses it before anything is written.
        """
        check_ingest(self.now, (registry_find(self.objects),), (columns_from_objects([obj]),))
        self.objects[obj.oid] = obj
        self.forest.update(obj, self.now)
        # Cheap incremental repair: the updated object may enter or
        # leave the candidate set; everything else is untouched.
        if self._in_candidate_region(obj, self.now):
            self._candidates.add(obj.oid)
        else:
            self._candidates.discard(obj.oid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(self, t: Optional[float] = None) -> List[Tuple[float, int]]:
        """The exact kNN at time ``t`` (ascending ``(distance, oid)``)."""
        if t is None:
            t = self.now
        if not self.now <= t < self._window_end:
            check_clock(self.now, t)
            self._refresh_candidates(t)
        qx, qy = self.query.at(t).center
        point = Box.point(qx, qy)
        scored = sorted(
            (self.objects[oid].mbr_at(t).min_distance(point), oid)
            for oid in self._candidates
        )
        return scored[: self.k]

    @property
    def candidate_count(self) -> int:
        """Current filter-set size (diagnostics)."""
        return len(self._candidates)

    # ------------------------------------------------------------------
    def _refresh_candidates(self, t: float) -> None:
        """Rebuild the candidate set for the window ``[t, t + T_M]``."""
        t_end = t + self.config.t_m
        radius = self._safe_radius(t, t_end)
        self._candidates = set()
        region = self._query_region(radius)
        for _key, t_eb, tree in self.forest.trees():
            horizon_end = min(t_end, t_eb + self.config.t_m)
            if horizon_end <= t:
                continue
            for oid, _interval in tree.search(region, t, horizon_end):
                self._candidates.add(oid)
        self._window_end = t_end

    def _safe_radius(self, t0: float, t1: float) -> float:
        """Radius guaranteed to cover the kNN throughout ``[t0, t1]``."""
        d0 = self._exact_kth_distance(t0)
        d1 = self._exact_kth_distance(t1)
        lipschitz = self.max_speed + self._query_speed()
        return max(d0, d1) + lipschitz * (t1 - t0) / 2.0

    def _exact_kth_distance(self, t: float) -> float:
        """kth-NN distance at ``t`` via best-first search per bucket tree.

        Each bucket tree yields its own k best candidates; the global
        kth distance is the kth smallest of the merged lists.
        """
        qx, qy = self.query.at(t).center
        merged = []
        for _key, _end, tree in self.forest.trees():
            merged.extend(knn_at(tree, qx, qy, self.k, t))
        if not merged:
            return 0.0
        merged.sort()
        return merged[min(self.k, len(merged)) - 1][0]

    def _query_speed(self) -> float:
        vx, vy = self.query.vbr.x_lo, self.query.vbr.y_lo
        return math.hypot(vx, vy)

    def _query_region(self, radius: float) -> KineticBox:
        """The query point dilated by ``radius``, moving with the query."""
        qx, qy = self.query.at(self.now).center
        return KineticBox.rigid(
            Box(qx - radius, qx + radius, qy - radius, qy + radius),
            self.query.vbr.x_lo,
            self.query.vbr.y_lo,
            self.now,
        )

    def _in_candidate_region(self, obj: MovingObject, t: float) -> bool:
        radius = self._safe_radius(t, self._window_end)
        region = self._query_region(radius)
        from ..geometry import intersection_interval

        return (
            intersection_interval(region, obj.kbox, t, self._window_end) is not None
        )
