"""Continuous window queries with TC processing (paper §V).

A continuous window query reports, at every timestamp, the objects whose
MBRs intersect a (possibly moving) query window.  The paper points out
this "is essentially computing the intersection between objects and
query windows", so the whole TC machinery transfers:

* a naive engine would compute each object–window intersection for
  ``[t_c, ∞)``;
* Theorem 1 cuts the window to ``[t_c, t_c + T_M]`` — the object updates
  again before that, and the query–object pair is then recomputed;
* indexing the objects in an MTB-tree gives the Theorem-2 per-bucket
  horizon ``[t_c, t_eb + T_M]`` for the initial evaluation, exactly as
  in MTB-Join.

Query windows are *queries*, not data: they never "update", so only
object updates invalidate results.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..core.columns import (
    UpdateColumns,
    check_deadlines,
    check_ingest,
    columns_from_boxes,
    columns_from_objects,
    deadline_planes,
    registry_find,
)
from ..core.config import JoinConfig
from ..core.result import ColumnResultStore
from ..geometry import INF, KineticBox, intersection_interval
from ..geometry.interval import check_clock, check_read
from ..index import MTBTree, TreeStorage
from ..join import JoinTriple
from ..metrics import CostTracker
from ..objects import MovingObject

__all__ = ["ContinuousWindowEngine"]


class ContinuousWindowEngine:
    """Maintains the answers of many continuous window queries at once.

    ``windows`` maps query id → kinetic box (static windows are kinetic
    boxes with zero velocity).  The windows are the engine's second
    dataset: they pass the ingest gate as the objects do, so a query id
    equal to an object id, or a non-finite, inverted or after-the-clock
    window, is refused.  Results are ``(query_id, oid)`` pairs.
    """

    def __init__(
        self,
        objects: Iterable[MovingObject],
        windows: Mapping[int, KineticBox],
        config: Optional[JoinConfig] = None,
        start_time: float = 0.0,
        time_constrained: bool = True,
    ):
        self.config = config if config is not None else JoinConfig()
        check_clock(-INF, start_time)
        self.now = float(start_time)
        #: ``False`` evaluates over ``[t, ∞)`` — the naive §V baseline
        #: used by the extension benchmark; answers are identical, cost
        #: is not.
        self.time_constrained = time_constrained
        objects, windows = list(objects), dict(windows)
        queries = columns_from_boxes(list(windows), list(windows.values()))
        check_ingest(self.now, admit=(columns_from_objects(objects), queries))
        self.windows: Dict[int, KineticBox] = windows
        self.objects: Dict[int, MovingObject] = {o.oid: o for o in objects}
        self.storage = TreeStorage(buffer_pages=self.config.buffer_pages)
        self.tracker: CostTracker = self.storage.tracker
        self.forest = MTBTree(
            t_m=self.config.t_m,
            storage=self.storage,
            buckets_per_tm=self.config.buckets_per_tm,
            node_capacity=self.config.node_capacity,
        )
        for obj in self.objects.values():
            self.forest.insert(obj, self.now)
        self.store = ColumnResultStore()
        self._evaluated = False

    # ------------------------------------------------------------------
    def evaluate_initial(self) -> None:
        """Compute the initial answers (Theorem-2 windows per bucket)."""
        for qid, window in self.windows.items():
            for _key, t_eb, tree in self.forest.trees():
                if self.time_constrained:
                    horizon_end = t_eb + self.config.t_m
                else:
                    horizon_end = INF
                for oid, interval in tree.search(window, self.now, horizon_end):
                    self.store.add(JoinTriple(qid, oid, interval))
        self._evaluated = True

    def tick(self, t: float) -> None:
        """Advance the engine clock (monotone).

        A tick past some object's deadline ``t_ref + T_M`` raises
        :class:`~repro.core.columns.LateObjectError` and changes
        nothing, as on the join engines.
        """
        check_clock(self.now, t)
        check_deadlines(t, self.config.t_m, deadline_planes(self.objects))
        self.now = t

    def apply_update(self, obj: MovingObject) -> None:
        """Process one object update at the current timestamp.

        Theorem 1: re-evaluate the object against every window over
        ``[t, t + T_M]`` only.  The ingest gate
        (:func:`~repro.core.columns.check_ingest`) refuses it before
        anything is written.
        """
        check_ingest(self.now, (registry_find(self.objects),), (columns_from_objects([obj]),))
        self.objects[obj.oid] = obj
        t = self.now
        self.forest.update(obj, t)
        self.store.remove_object(obj.oid)
        t_end = t + self.config.t_m if self.time_constrained else INF
        for qid, window in self.windows.items():
            self.tracker.count_pair_tests()
            interval = intersection_interval(window, obj.kbox, t, t_end)
            if interval is not None:
                self.store.add(JoinTriple(qid, obj.oid, interval))

    def add_window(self, qid: int, window: KineticBox) -> None:
        """Register a new continuous window query at the current time:
        admitted to the windows through the ingest gate."""
        finds = (registry_find(self.objects), registry_find(self.windows))
        query = columns_from_boxes([qid], [window])
        check_ingest(self.now, finds, admit=(UpdateColumns.empty(), query))
        self.windows[qid] = window
        if self._evaluated:
            for _key, t_eb, tree in self.forest.trees():
                horizon_end = t_eb + self.config.t_m
                for oid, interval in tree.search(window, self.now, horizon_end):
                    self.store.add(JoinTriple(qid, oid, interval))

    def remove_window(self, qid: int) -> None:
        """Drop a continuous window query and its stored answers."""
        del self.windows[qid]
        self.store.remove_object(qid)

    # ------------------------------------------------------------------
    def result_at(self, t: Optional[float] = None) -> Set[Tuple[int, int]]:
        """All ``(query_id, oid)`` pairs intersecting at time ``t``."""
        if t is None:
            t = self.now
        check_read(self.now, t)
        return self.store.pairs_at(t)

    def result_for(self, qid: int, t: Optional[float] = None) -> Set[int]:
        """Objects currently inside one query window."""
        return {b for (a, b) in self.result_at(t) if a == qid}
