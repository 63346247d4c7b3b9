"""Continuous self-join: one moving-object set joined with itself.

The paper's interest-management motivation (distributed simulations,
massively multiplayer games) is really a *self*-join: every entity must
know which other entities' interest ranges it intersects.  This engine
applies the same TC/MTB machinery to a single dataset:

* the set is indexed in one MTB forest;
* pairs are canonicalized as ``(min_oid, max_oid)``;
* an update re-joins the updated object against the forest over the
  Theorem-2 per-bucket windows, exactly as in the two-set engine.

The trivial reflexive pair ``(o, o)`` is excluded.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..geometry.interval import INF, check_clock, check_read
from ..index import MTBTree, TreeStorage
from ..join import JoinTriple, mtb_join_object, naive_join
from ..metrics import CostSnapshot, CostTracker
from ..obs import tracker_span
from ..objects import MovingObject
from .columns import (
    check_deadlines,
    check_ingest,
    columns_from_objects,
    deadline_planes,
    registry_find,
)
from .config import JoinConfig
from .result import ColumnResultStore

__all__ = ["ContinuousSelfJoinEngine"]

PairKey = Tuple[int, int]


class ContinuousSelfJoinEngine:
    """Continuously maintained intersection pairs within one dataset."""

    def __init__(
        self,
        objects: Iterable[MovingObject],
        config: Optional[JoinConfig] = None,
        start_time: float = 0.0,
    ):
        self.config = config if config is not None else JoinConfig()
        check_clock(-INF, start_time)
        self.now = float(start_time)
        self.start_time = float(start_time)
        objects = list(objects)
        check_ingest(self.now, admit=(columns_from_objects(objects),))
        self.objects: Dict[int, MovingObject] = {obj.oid: obj for obj in objects}
        self.storage = TreeStorage(buffer_pages=self.config.buffer_pages)
        self.tracker: CostTracker = self.storage.tracker
        self.forest = MTBTree(
            t_m=self.config.t_m,
            storage=self.storage,
            buckets_per_tm=self.config.buckets_per_tm,
            node_capacity=self.config.node_capacity,
        )
        for obj in objects:
            self.forest.insert(obj, self.now)
        self.store = ColumnResultStore()
        self.initial_join_cost: Optional[CostSnapshot] = None

    # ------------------------------------------------------------------
    def run_initial_join(self) -> CostSnapshot:
        """Compute all intra-set pairs valid over the Theorem-2 windows."""
        before = self.tracker.snapshot()
        with self.tracker.timed(), tracker_span(self.tracker, "engine.initial_join"):
            t_m = self.config.t_m
            buckets = list(self.forest.trees())
            for i, (_ka, end_a, tree_a) in enumerate(buckets):
                for _kb, end_b, tree_b in buckets[i:]:
                    horizon_end = min(end_a, end_b) + t_m
                    if horizon_end <= self.now:
                        continue
                    for triple in naive_join(
                        tree_a, tree_b, self.now, horizon_end, self.tracker
                    ):
                        self._add(triple.a_oid, triple.b_oid, triple)
        self.initial_join_cost = self.tracker.snapshot() - before
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance the engine clock (monotone).

        A tick past some object's deadline ``t_ref + T_M`` raises
        :class:`~repro.core.columns.LateObjectError` and changes
        nothing, as on the two-set engines.
        """
        check_clock(self.now, t)
        check_deadlines(t, self.config.t_m, deadline_planes(self.objects))
        self.now = t

    def apply_update(self, obj: MovingObject) -> None:
        """Replace one object's motion and repair the answer.

        The ingest gate (:func:`~repro.core.columns.check_ingest`)
        refuses it before anything is written, as on the tree engine.
        """
        check_ingest(self.now, (registry_find(self.objects),), (columns_from_objects([obj]),))
        self.objects[obj.oid] = obj
        t = self.now
        with self.tracker.timed(), tracker_span(self.tracker, "engine.update", t=t):
            self.forest.update(obj, t)
            self.store.remove_object(obj.oid)
            for triple in mtb_join_object(self.forest, obj.kbox, obj.oid, t):
                self._add(obj.oid, triple.b_oid, triple)

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """All intersecting unordered pairs ``(lo_oid, hi_oid)`` at ``t``."""
        if t is None:
            t = self.now
        check_read(self.now, t)
        return self.store.pairs_at(t)

    def partners_of(self, oid: int, t: Optional[float] = None) -> Set[int]:
        """The objects currently intersecting ``oid`` — its interest set."""
        pairs = self.result_at(t)
        return {b if a == oid else a for a, b in pairs if oid in (a, b)}

    # ------------------------------------------------------------------
    def _add(self, a_oid: int, b_oid: int, triple: JoinTriple) -> None:
        if a_oid == b_oid:
            return
        lo, hi = (a_oid, b_oid) if a_oid < b_oid else (b_oid, a_oid)
        self.store.add(JoinTriple(lo, hi, triple.interval))

    def __repr__(self) -> str:
        return (
            f"ContinuousSelfJoinEngine(n={len(self.objects)}, now={self.now:g})"
        )
