"""The continuous-join engine: initial join plus maintenance.

:class:`ContinuousJoinEngine` owns the two datasets, the indexes, the
maintained answer, and the cost accounting, and delegates the actual
query processing to one of four interchangeable strategies:

========  ==========================================================
``naive``  NaiveJoin: per-update joins over ``[t, ∞)`` (paper §II-C)
``etp``    ETP-Join: TP-join re-run on every result change (§III)
``tc``     TC-Join: Theorem-1 window ``[t, t + T_M]`` on single trees
``mtb``    MTB-Join: Theorem-2 bucketed windows + PS/DS/IC (§IV)
========  ==========================================================

The engine is clock-driven: :meth:`tick` advances time (letting ETP
process its due events), :meth:`apply_update` feeds object updates, and
:meth:`result_at` reports the currently intersecting pairs — which every
strategy must keep equal to the brute-force answer at all times.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry import INF
from ..geometry.interval import check_clock, check_read
from ..index import MTBTree, TPRStarTree, TreeStorage
from ..join import (
    JoinTechniques,
    JoinTriple,
    influence_scan,
    mtb_join,
    mtb_join_object,
    naive_join,
    tc_join,
    tp_join,
)
from ..metrics import CostSnapshot, CostTracker
from ..obs import tracker_span
from ..objects import MovingObject
from .columns import (
    check_deadlines,
    check_ingest,
    columns_from_objects,
    deadline_planes,
    pack_admissions,
    registry_find,
)
from .config import JoinConfig
from .result import ColumnResultStore, DeltaSource

__all__ = ["ContinuousJoinEngine", "ALGORITHMS"]

PairKey = Tuple[int, int]

ALGORITHMS = ("naive", "etp", "tc", "mtb")


class ContinuousJoinEngine(DeltaSource):
    """Continuous intersection join over two moving-object sets."""

    def __init__(
        self,
        objects_a: Iterable[MovingObject],
        objects_b: Iterable[MovingObject],
        algorithm: str = "mtb",
        config: Optional[JoinConfig] = None,
        techniques: Optional[JoinTechniques] = None,
        start_time: float = 0.0,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
        self.config = config if config is not None else JoinConfig()
        self.algorithm = algorithm
        check_clock(-INF, start_time)
        self.now = float(start_time)
        self.start_time = float(start_time)
        set_a, set_b = list(objects_a), list(objects_b)
        check_ingest(self.now, admit=(columns_from_objects(set_a), columns_from_objects(set_b)))
        # The gate refused any repeated id: no registry collapses one.
        self.objects_a: Dict[int, MovingObject] = {o.oid: o for o in set_a}
        self.objects_b: Dict[int, MovingObject] = {o.oid: o for o in set_b}
        # One update stream over both datasets: an id's dataset is the
        # one holding it, so the gate gets one lookup for the two.
        self._find = registry_find(self.objects_a, self.objects_b)
        self.storage = TreeStorage(buffer_pages=self.config.buffer_pages)
        self.tracker: CostTracker = self.storage.tracker
        self._strategy = _make_strategy(algorithm, self, techniques)
        #: Attached :class:`~repro.deltas.DeltaLedger` when
        #: ``config.deltas`` is on; ``None`` otherwise.  Armed before
        #: the build so the initial join's additions are already part of
        #: the stream.
        self.ledger = None
        if self.config.deltas:
            store = self.store
            if store is None:
                raise ValueError(
                    f"algorithm {algorithm!r} keeps no interval store; "
                    "delta streams need one (pick naive/tc/mtb)"
                )
            from ..deltas import DeltaLedger

            self.ledger = DeltaLedger(self.now)
            store.attach_ledger(self.ledger)
        with self.tracker.timed():
            self._strategy.build(self.now)
        self.build_cost: CostSnapshot = self.tracker.snapshot()
        self.initial_join_cost: Optional[CostSnapshot] = None
        self.update_count = 0

    # ------------------------------------------------------------------
    # Convenience constructor
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        objects_a: Iterable[MovingObject],
        objects_b: Iterable[MovingObject],
        algorithm: str = "mtb",
        config: Optional[JoinConfig] = None,
        techniques: Optional[JoinTechniques] = None,
        start_time: float = 0.0,
    ) -> "ContinuousJoinEngine":
        """Build indexes over the two datasets and return the engine."""
        return cls(objects_a, objects_b, algorithm, config, techniques, start_time)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run_initial_join(self) -> CostSnapshot:
        """Compute the initial answer; returns the cost of this phase."""
        before = self.tracker.snapshot()
        with self.tracker.timed(), tracker_span(self.tracker, "engine.initial_join"):
            self._strategy.initial_join(self.now)
        self.initial_join_cost = self.tracker.snapshot() - before
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance the clock to ``t`` (monotone non-decreasing).

        A tick past some object's deadline ``t_ref + T_M`` raises
        :class:`~repro.core.columns.LateObjectError` naming the late
        objects and changes nothing; re-report them to go on.
        """
        check_clock(self.now, t)
        check_deadlines(
            t,
            self.config.t_m,
            deadline_planes(self.objects_a),
            deadline_planes(self.objects_b),
        )
        self.now = t
        if self.ledger is not None:
            self.ledger.advance(t)
        with self.tracker.timed(), tracker_span(self.tracker, "engine.tick", t=t):
            self._strategy.on_tick(t)

    def apply_update(self, obj: MovingObject) -> None:
        """Process one object update at the current timestamp.

        The object's dataset is inferred from its id; its stored motion
        is replaced and the maintained answer repaired.  The ingest gate
        (:func:`~repro.core.columns.check_ingest`) refuses it before
        anything is written.
        """
        check_ingest(self.now, (self._find,), (columns_from_objects([obj]),))
        self._update(obj, self._dataset_of(obj.oid))

    def apply_updates(
        self,
        batch: Iterable[MovingObject],
        *,
        admit: Sequence[Tuple[MovingObject, str]] = (),
        evict: Sequence[int] = (),
    ) -> None:
        """Apply a batch of object updates, one object at a time.

        Evictions run first, then one update per object of ``batch`` in
        order, then the admissions — the paper's per-update maintenance
        (§IV), so every index access is charged exactly as an explicit
        :meth:`apply_update` loop charges it.  ``admit`` adds brand-new
        ``(object, dataset)`` members and ``evict`` removes objects
        entirely (index + result store).

        The whole batch passes the ingest gate
        (:func:`~repro.core.columns.check_ingest`) before the first
        write, so a refused batch (an id named twice among them) leaves
        object tables, indexes, store and ``update_count`` untouched.
        """
        updates, admissions = list(batch), list(admit)
        evictions = np.array(evict, dtype=np.int64).reshape(-1)
        if evictions.shape[0]:
            self._require_hook("on_evict")
        if admissions:
            self._require_hook("on_admit")
        packed = (columns_from_objects(updates),)
        check_ingest(self.now, (self._find,), packed, pack_admissions(admissions), evictions)
        for oid in evictions.tolist():
            self._evict(oid, self._dataset_of(oid))
        for obj in updates:
            self._update(obj, self._dataset_of(obj.oid))
        for obj, dataset in admissions:
            self._admit(obj, dataset)

    # -- the three per-object writes, of ids the gate resolved -----------
    def _dataset_of(self, oid: int) -> str:
        return "a" if oid in self.objects_a else "b"

    def _require_hook(self, name: str) -> None:
        """ETP keeps no interval store and has no admit/evict hooks."""
        if not hasattr(self._strategy, name):
            raise ValueError(f"algorithm {self.algorithm!r} does not support {name}")

    def _registry(self, dataset: str) -> Dict[int, MovingObject]:
        return self.objects_a if dataset == "a" else self.objects_b

    def _update(self, obj: MovingObject, dataset: str) -> None:
        self._registry(dataset)[obj.oid] = obj
        self.update_count += 1
        with self.tracker.timed(), tracker_span(self.tracker, "engine.update", t=self.now):
            self._strategy.on_update(obj, dataset, self.now)

    def _admit(self, obj: MovingObject, dataset: str) -> None:
        self._registry(dataset)[obj.oid] = obj
        with self.tracker.timed(), tracker_span(self.tracker, "engine.admit", t=self.now):
            self._strategy.on_admit(obj, dataset, self.now)

    def _evict(self, oid: int, dataset: str) -> None:
        del self._registry(dataset)[oid]
        with self.tracker.timed(), tracker_span(self.tracker, "engine.evict", t=self.now):
            self._strategy.on_evict(oid, dataset, self.now)

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Currently intersecting ``(a_oid, b_oid)`` pairs at time ``t``."""
        if t is None:
            t = self.now
        check_read(self.now, t)
        return self._strategy.result_at(t)

    @property
    def store(self) -> Optional[ColumnResultStore]:
        """The strategy's result store (``None`` under ``etp``, which
        keeps none)."""
        return getattr(self._strategy, "store", None)

    def _region_oids(self, region) -> np.ndarray:
        """Object ids whose bounding box intersects ``region`` right now."""
        return np.array(
            [
                obj.oid
                for registry in (self.objects_a, self.objects_b)
                for obj in registry.values()
                if obj.mbr_at(self.now).intersects(region)
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"ContinuousJoinEngine(algorithm={self.algorithm!r}, "
            f"|A|={len(self.objects_a)}, |B|={len(self.objects_b)}, "
            f"now={self.now:g})"
        )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _new_tree(engine: ContinuousJoinEngine) -> TPRStarTree:
    """A TPR*-tree bound to the engine's shared storage and config."""
    return TPRStarTree(
        storage=engine.storage,
        node_capacity=engine.config.node_capacity,
        horizon=engine.config.t_m,
    )


def _new_forest(engine: ContinuousJoinEngine) -> MTBTree:
    """An MTB forest bound to the engine's shared storage and config."""
    return MTBTree(
        t_m=engine.config.t_m,
        storage=engine.storage,
        buckets_per_tm=engine.config.buckets_per_tm,
        node_capacity=engine.config.node_capacity,
    )


def _build_indexes(engine: ContinuousJoinEngine, new_index, t0: float):
    """One index per dataset from ``new_index(engine)``, filled by
    insertion as of ``t0``.  Both are allocated before the first insert,
    then every ``a`` object is inserted before every ``b`` object: page
    ids, and so the paper figures' I/O counts, follow this order."""
    index_a = new_index(engine)
    index_b = new_index(engine)
    for obj in engine.objects_a.values():
        index_a.insert(obj, t0)
    for obj in engine.objects_b.values():
        index_b.insert(obj, t0)
    return index_a, index_b


class _IntervalStrategy:
    """Shared plumbing for strategies that maintain interval results."""

    def __init__(self, engine: ContinuousJoinEngine):
        self.engine = engine
        self.store = ColumnResultStore()
        self.store.clock = engine.now

    # Orientation helper: results are always keyed (a_oid, b_oid).
    def _oriented(
        self, triples: Iterable[JoinTriple], updated_dataset: str
    ) -> Iterable[JoinTriple]:
        if updated_dataset == "a":
            return triples
        return (JoinTriple(t.b_oid, t.a_oid, t.interval) for t in triples)

    def on_tick(self, t: float) -> None:
        """Interval stores need no event processing; the store learns the clock."""
        self.store.clock = t

    def result_at(self, t: float) -> Set[PairKey]:
        return self.store.pairs_at(t)

    # Subclasses provide _index(dataset) and _probe(obj, dataset, t):
    # the time-constrained search of the *other* dataset's index.

    def on_update(self, obj: MovingObject, dataset: str, t: float) -> None:
        self._index(dataset).update(obj, t)
        self.store.remove_object(obj.oid)
        self.store.add_all(self._oriented(self._probe(obj, dataset, t), dataset))

    def on_admit(self, obj: MovingObject, dataset: str, t: float) -> None:
        self._index(dataset).insert(obj, t)
        self.store.add_all(self._oriented(self._probe(obj, dataset, t), dataset))

    def on_evict(self, oid: int, dataset: str, t: float) -> None:
        self._index(dataset).delete(oid, t)
        self.store.remove_object(oid)


class _TreeStrategy(_IntervalStrategy):
    """Per-update probes of the other dataset's TPR*-tree.

    ``naive`` probes over the unbounded window ``[t, ∞)`` (§II-C);
    ``tc`` cuts it at the Theorem-1 bound ``t + T_M`` (§IV-B) and runs
    its initial join through :func:`~repro.join.tc_join`.
    """

    def __init__(
        self,
        engine: ContinuousJoinEngine,
        techniques: Optional[JoinTechniques],
        window: float,
    ):
        super().__init__(engine)
        self.techniques = techniques
        #: Probe window length: ``INF`` under naive, ``T_M`` under tc.
        self.window = window

    def build(self, t0: float) -> None:
        self.tree_a, self.tree_b = _build_indexes(self.engine, _new_tree, t0)

    def initial_join(self, t0: float) -> None:
        if self.window == INF:
            triples = naive_join(self.tree_a, self.tree_b, t0, INF)
        else:
            triples = tc_join(
                self.tree_a, self.tree_b, t0, self.window, self.techniques
            )
        self.store.add_all(iter(triples))

    def _index(self, dataset: str):
        return self.tree_a if dataset == "a" else self.tree_b

    def _probe(self, obj: MovingObject, dataset: str, t: float):
        other = self.tree_b if dataset == "a" else self.tree_a
        return [
            JoinTriple(obj.oid, other_oid, interval)
            for other_oid, interval in other.search(obj.kbox, t, t + self.window)
        ]


class _MTBStrategy(_IntervalStrategy):
    """Theorem-2 bucketed windows with the §IV-D techniques."""

    def __init__(
        self, engine: ContinuousJoinEngine, techniques: Optional[JoinTechniques]
    ):
        super().__init__(engine)
        self.techniques = techniques if techniques is not None else JoinTechniques.all()

    def build(self, t0: float) -> None:
        self.forest_a, self.forest_b = _build_indexes(self.engine, _new_forest, t0)

    def initial_join(self, t0: float) -> None:
        triples = mtb_join(self.forest_a, self.forest_b, t0, self.techniques)
        self.store.add_all(iter(triples))

    def _index(self, dataset: str):
        return self.forest_a if dataset == "a" else self.forest_b

    def _probe(self, obj: MovingObject, dataset: str, t: float):
        other = self.forest_b if dataset == "a" else self.forest_a
        return mtb_join_object(other, obj.kbox, obj.oid, t)


class _ETPStrategy:
    """ETP-Join: event-driven TP-join re-evaluation (§III)."""

    def __init__(self, engine: ContinuousJoinEngine):
        self.engine = engine
        self.current: Set[PairKey] = set()
        self.expiry: float = INF
        #: Number of full TP-join traversals run (diagnostics).
        self.tp_runs = 0

    def build(self, t0: float) -> None:
        self.tree_a, self.tree_b = _build_indexes(self.engine, _new_tree, t0)

    def initial_join(self, t0: float) -> None:
        self._refresh(t0)

    def on_tick(self, t: float) -> None:
        # Re-run the TP join at every result change due before t — this
        # event-chasing is precisely what makes ETP-Join expensive.
        while self.expiry <= t:
            self._refresh(self.expiry)

    def on_update(self, obj: MovingObject, dataset: str, t: float) -> None:
        own, other = (
            (self.tree_a, self.tree_b) if dataset == "a" else (self.tree_b, self.tree_a)
        )
        own.update(obj, t)
        self.current = {key for key in self.current if obj.oid not in key}
        triples, min_inf = influence_scan(other, obj.kbox, t)
        for triple in triples:
            # Same validity convention as tp_join: the pair counts as
            # current only if it persists beyond this instant.
            if triple.interval.start <= t < triple.interval.end:
                if dataset == "a":
                    self.current.add((obj.oid, triple.b_oid))
                else:
                    self.current.add((triple.b_oid, obj.oid))
        if min_inf < self.expiry:
            self.expiry = min_inf

    def result_at(self, t: float) -> Set[PairKey]:
        self.on_tick(t)
        return set(self.current)

    def _refresh(self, t: float) -> None:
        answer = tp_join(self.tree_a, self.tree_b, t)
        self.tp_runs += 1
        self.current = set(answer.pairs)
        if answer.expiry <= t:
            raise AssertionError("TP join produced a non-advancing expiry")
        self.expiry = answer.expiry


def _make_strategy(
    algorithm: str,
    engine: ContinuousJoinEngine,
    techniques: Optional[JoinTechniques],
):
    if algorithm == "naive":
        return _TreeStrategy(engine, techniques, INF)
    if algorithm == "etp":
        return _ETPStrategy(engine)
    if algorithm == "tc":
        return _TreeStrategy(engine, techniques, engine.config.t_m)
    return _MTBStrategy(engine, techniques)
