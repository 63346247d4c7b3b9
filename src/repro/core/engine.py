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
from ..obs import NULL_SPAN, ObsRecorder
from ..objects import MovingObject
from .columns import check_planes, columns_from_objects
from .config import JoinConfig
from .result import ColumnResultStore

__all__ = ["ContinuousJoinEngine", "ALGORITHMS"]

PairKey = Tuple[int, int]

ALGORITHMS = ("naive", "etp", "tc", "mtb")


def _check_objects(objs: Sequence[MovingObject]) -> None:
    """The tree engine's ingest gate: refuse a NaN/inf MBR, velocity or
    ``t_ref`` (and inverted bounds) with ``ValueError`` before any write
    — the columnar engine's rule, :func:`~.columns.check_planes`."""
    check_planes(columns_from_objects(objs))


class ContinuousJoinEngine:
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
        self.objects_a: Dict[int, MovingObject] = {o.oid: o for o in objects_a}
        self.objects_b: Dict[int, MovingObject] = {o.oid: o for o in objects_b}
        overlap = self.objects_a.keys() & self.objects_b.keys()
        if overlap:
            raise ValueError(f"object ids shared across datasets: {sorted(overlap)[:5]}")
        _check_objects(list(self.objects_a.values()))
        _check_objects(list(self.objects_b.values()))
        self.storage = TreeStorage(buffer_pages=self.config.buffer_pages)
        self.tracker: CostTracker = self.storage.tracker
        #: Attached :class:`~repro.obs.ObsRecorder` when ``config.obs``
        #: is on (or ``REPRO_OBS=1``); ``None`` otherwise.
        self.obs: Optional[ObsRecorder] = None
        if self.config.obs:
            self.obs = ObsRecorder(
                "engine",
                meta={
                    "algorithm": algorithm,
                    "n_a": len(self.objects_a),
                    "n_b": len(self.objects_b),
                    "t_m": self.config.t_m,
                },
            )
            self.obs.attach(self.tracker)
        self._strategy = _make_strategy(algorithm, self, techniques)
        #: Attached :class:`~repro.deltas.DeltaLedger` when
        #: ``config.deltas`` is on; ``None`` otherwise.  Armed before
        #: the build so the initial join's additions are already part of
        #: the stream.
        self.ledger = None
        if self.config.deltas:
            store = getattr(self._strategy, "store", None)
            if store is None:
                raise ValueError(
                    f"algorithm {algorithm!r} keeps no interval store; "
                    "delta streams need one (pick naive/tc/mtb)"
                )
            from ..deltas import DeltaLedger

            self.ledger = DeltaLedger(self.now)
            store.attach_ledger(self.ledger)
        with self.tracker.timed(), self._span("engine.build"):
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
        with self.tracker.timed(), self._span("engine.initial_join"):
            self._strategy.initial_join(self.now)
        self.initial_join_cost = self.tracker.snapshot() - before
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance the clock to ``t`` (monotone non-decreasing)."""
        check_clock(self.now, t)
        self.now = t
        if self.ledger is not None:
            self.ledger.advance(t)
        with self.tracker.timed(), self._span("engine.tick", t=t):
            self._strategy.on_tick(t)

    def apply_update(self, obj: MovingObject) -> None:
        """Process one object update at the current timestamp.

        The object's dataset is inferred from its id; its stored motion
        is replaced and the maintained answer repaired.  An unknown id
        (``KeyError``) or a NaN/inf/inverted motion (``ValueError``) is
        refused before anything is written.
        """
        _check_objects([obj])
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
        order (an oid may repeat), then the admissions — the paper's
        per-update maintenance (§IV), so every index access is charged
        exactly as an explicit :meth:`apply_update` loop charges it.
        ``admit`` adds brand-new ``(object, dataset)`` members and
        ``evict`` removes objects entirely (index + result store).

        The whole batch is resolved before the first write: an unknown
        or twice-evicted id (``KeyError``), an already-present or
        twice-admitted object, an id both evicted and updated/admitted,
        or a NaN/inf/inverted motion (``ValueError``) refuses the batch
        and leaves object tables, indexes, store and ``update_count``
        untouched.
        """
        updates = list(batch)
        admissions = list(admit)
        evictions = list(evict)
        newcomers = [obj for obj, _ds in admissions]
        admitted = [obj.oid for obj in newcomers]
        clashes = set(evictions) & ({obj.oid for obj in updates} | set(admitted))
        if clashes:
            raise ValueError(
                f"objects both evicted and updated/admitted: {sorted(clashes)[:5]}"
            )
        _check_objects(updates + newcomers)
        if len(set(evictions)) != len(evictions):
            raise KeyError("object id evicted twice in one batch")
        if len(set(admitted)) != len(admitted):
            raise ValueError("object admitted twice in one batch")
        if evictions:
            self._require_hook("on_evict")
        evicted = [(oid, self._dataset_of(oid)) for oid in evictions]
        updated = [(obj, self._dataset_of(obj.oid)) for obj in updates]
        for obj, dataset in admissions:
            self._check_admission(obj, dataset)
        for oid, dataset in evicted:
            self._evict(oid, dataset)
        for obj, dataset in updated:
            self._update(obj, dataset)
        for obj, dataset in admissions:
            self._admit(obj, dataset)

    # -- resolution (reads only), then the three per-object writes -----
    def _dataset_of(self, oid: int) -> str:
        if oid in self.objects_a:
            return "a"
        if oid in self.objects_b:
            return "b"
        raise KeyError(f"unknown object id {oid}")

    def _require_hook(self, name: str) -> None:
        """ETP keeps no interval store and has no admit/evict hooks."""
        if not hasattr(self._strategy, name):
            raise ValueError(f"algorithm {self.algorithm!r} does not support {name}")

    def _check_admission(self, obj: MovingObject, dataset: str) -> None:
        if dataset not in ("a", "b"):
            raise ValueError(f"unknown dataset {dataset!r}")
        if obj.oid in self.objects_a or obj.oid in self.objects_b:
            raise ValueError(f"object {obj.oid} already present")
        self._require_hook("on_admit")

    def _registry(self, dataset: str) -> Dict[int, MovingObject]:
        return self.objects_a if dataset == "a" else self.objects_b

    def _update(self, obj: MovingObject, dataset: str) -> None:
        self._registry(dataset)[obj.oid] = obj
        self.update_count += 1
        with self.tracker.timed(), self._span("engine.update", t=self.now):
            self._strategy.on_update(obj, dataset, self.now)

    def _admit(self, obj: MovingObject, dataset: str) -> None:
        self._registry(dataset)[obj.oid] = obj
        with self.tracker.timed(), self._span("engine.admit", t=self.now):
            self._strategy.on_admit(obj, dataset, self.now)

    def _evict(self, oid: int, dataset: str) -> None:
        del self._registry(dataset)[oid]
        with self.tracker.timed(), self._span("engine.evict", t=self.now):
            self._strategy.on_evict(oid, dataset, self.now)

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Currently intersecting ``(a_oid, b_oid)`` pairs at time ``t``."""
        if t is None:
            t = self.now
        check_read(self.now, t)
        return self._strategy.result_at(t)

    def prune_expired(self) -> int:
        """Garbage-collect result intervals wholly in the past.

        Long-running simulations accumulate intervals that ended before
        the current timestamp; pruning them bounds the result store.
        Returns the number of pairs dropped (0 for the ETP strategy,
        which keeps no intervals).
        """
        store = getattr(self._strategy, "store", None)
        if store is None:
            return 0
        with self._span("engine.expire", t=self.now):
            return store.prune_expired(self.now)

    # ------------------------------------------------------------------
    # Delta streams
    # ------------------------------------------------------------------
    def deltas(self, t: Optional[float] = None):
        """The netted delta events at tick ``t`` (default: now).

        Requires ``JoinConfig(deltas=True)``.  Returns a tuple of
        :class:`~repro.deltas.DeltaEvent` built from the tick's netted
        planes at a constant delay per event, as a new tuple on every
        call (the ledger keeps none); no tick is netted twice.
        """
        if self.ledger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        if t is None:
            t = self.now
        with self._span("engine.deltas", t=t):
            return self.ledger.events_at(t)

    def watch(self, *, oid: Optional[int] = None, region=None):
        """Subscribe to the delta stream, optionally filtered.

        ``oid=`` matches events whose pair contains the object id;
        ``region=`` (a :class:`~repro.geometry.Box`) matches events
        touching any object currently inside the region.  Both resolve
        their current-state queries against the result store's inverted
        index; see :class:`~repro.deltas.DeltaSubscription`.
        """
        if self.ledger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        from ..deltas import DeltaSubscription

        return DeltaSubscription(
            self.ledger,
            oid=oid,
            region=region,
            index=self._strategy.store.pairs_for_object,
            region_oids=self._region_oids,
        )

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

    def _span(self, name: str, **tags):
        """A distinct phase span, or a no-op when recording is off."""
        if self.obs is None:
            return NULL_SPAN
        return self.obs.span(name, **tags)

    def export_obs(self, path, meta=None):
        """Export the recording to JSON; requires ``config.obs``."""
        if self.obs is None:
            raise RuntimeError("observability is off; build with JoinConfig(obs=True)")
        return self.obs.export_json(path, meta)

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


class _NaiveStrategy(_IntervalStrategy):
    """Per-update joins over the unbounded window (paper §II-C)."""

    def build(self, t0: float) -> None:
        engine = self.engine
        self.tree_a = _new_tree(engine)
        self.tree_b = _new_tree(engine)
        for obj in engine.objects_a.values():
            self.tree_a.insert(obj, t0)
        for obj in engine.objects_b.values():
            self.tree_b.insert(obj, t0)

    def initial_join(self, t0: float) -> None:
        self.store.add_all(iter(naive_join(self.tree_a, self.tree_b, t0, INF)))

    def _index(self, dataset: str):
        return self.tree_a if dataset == "a" else self.tree_b

    def _probe(self, obj: MovingObject, dataset: str, t: float):
        other = self.tree_b if dataset == "a" else self.tree_a
        return [
            JoinTriple(obj.oid, other_oid, interval)
            for other_oid, interval in other.search(obj.kbox, t, INF)
        ]


class _TCStrategy(_IntervalStrategy):
    """Theorem-1 windows on single TPR*-trees (§IV-B)."""

    def __init__(
        self, engine: ContinuousJoinEngine, techniques: Optional[JoinTechniques]
    ):
        super().__init__(engine)
        self.techniques = techniques

    def build(self, t0: float) -> None:
        engine = self.engine
        self.tree_a = _new_tree(engine)
        self.tree_b = _new_tree(engine)
        for obj in engine.objects_a.values():
            self.tree_a.insert(obj, t0)
        for obj in engine.objects_b.values():
            self.tree_b.insert(obj, t0)

    def initial_join(self, t0: float) -> None:
        triples = tc_join(
            self.tree_a, self.tree_b, t0, self.engine.config.t_m, self.techniques
        )
        self.store.add_all(iter(triples))

    def _index(self, dataset: str):
        return self.tree_a if dataset == "a" else self.tree_b

    def _probe(self, obj: MovingObject, dataset: str, t: float):
        other = self.tree_b if dataset == "a" else self.tree_a
        t_end = t + self.engine.config.t_m
        return [
            JoinTriple(obj.oid, other_oid, interval)
            for other_oid, interval in other.search(obj.kbox, t, t_end)
        ]


class _MTBStrategy(_IntervalStrategy):
    """Theorem-2 bucketed windows with the §IV-D techniques."""

    def __init__(
        self, engine: ContinuousJoinEngine, techniques: Optional[JoinTechniques]
    ):
        super().__init__(engine)
        self.techniques = techniques if techniques is not None else JoinTechniques.all()

    def build(self, t0: float) -> None:
        engine = self.engine
        self.forest_a = _new_forest(engine)
        self.forest_b = _new_forest(engine)
        for obj in engine.objects_a.values():
            self.forest_a.insert(obj, t0)
        for obj in engine.objects_b.values():
            self.forest_b.insert(obj, t0)

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
        engine = self.engine
        self.tree_a = _new_tree(engine)
        self.tree_b = _new_tree(engine)
        for obj in engine.objects_a.values():
            self.tree_a.insert(obj, t0)
        for obj in engine.objects_b.values():
            self.tree_b.insert(obj, t0)

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
        return _NaiveStrategy(engine)
    if algorithm == "etp":
        return _ETPStrategy(engine)
    if algorithm == "tc":
        return _TCStrategy(engine, techniques)
    return _MTBStrategy(engine, techniques)
