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

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..geometry import INF
from ..index import MTBTree, TPRStarTree, TreeStorage
from ..join import (
    JoinTechniques,
    JoinTriple,
    influence_scan,
    mtb_join,
    mtb_join_object,
    mtb_join_objects,
    naive_join,
    tc_join,
    tp_join,
)
from ..metrics import CostSnapshot, CostTracker
from ..obs import NULL_SPAN, ObsRecorder
from ..objects import MovingObject
from .config import JoinConfig
from .result import JoinResultStore

__all__ = ["ContinuousJoinEngine", "ALGORITHMS"]

PairKey = Tuple[int, int]

ALGORITHMS = ("naive", "etp", "tc", "mtb")


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
        self.now = float(start_time)
        self.start_time = float(start_time)
        self.objects_a: Dict[int, MovingObject] = {o.oid: o for o in objects_a}
        self.objects_b: Dict[int, MovingObject] = {o.oid: o for o in objects_b}
        overlap = self.objects_a.keys() & self.objects_b.keys()
        if overlap:
            raise ValueError(f"object ids shared across datasets: {sorted(overlap)[:5]}")
        self.storage = TreeStorage(
            page_size=self.config.page_size,
            buffer_pages=self.config.buffer_pages,
        )
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
        #: ``config.deltas`` is on (or ``REPRO_DELTAS=1``); ``None``
        #: otherwise.  Armed before the build so the initial join's
        #: additions are already part of the stream.
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
        self._sanitize()

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
        self._sanitize()
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance the clock to ``t`` (monotone non-decreasing)."""
        if t < self.now:
            raise ValueError(f"time went backwards: {t} < {self.now}")
        self.now = t
        if self.ledger is not None:
            self.ledger.advance(t)
        with self.tracker.timed(), self._span("engine.tick", t=t):
            self._strategy.on_tick(t)
        self._sanitize()

    def apply_update(self, obj: MovingObject) -> None:
        """Process one object update at the current timestamp.

        The object's dataset is inferred from its id; its stored motion
        is replaced and the maintained answer repaired.
        """
        if obj.oid in self.objects_a:
            dataset = "a"
            self.objects_a[obj.oid] = obj
        elif obj.oid in self.objects_b:
            dataset = "b"
            self.objects_b[obj.oid] = obj
        else:
            raise KeyError(f"unknown object id {obj.oid}")
        self.update_count += 1
        with self.tracker.timed(), self._span("engine.update", t=self.now):
            self._strategy.on_update(obj, dataset, self.now)
        self._sanitize()

    def apply_updates(
        self,
        batch: Iterable[MovingObject],
        *,
        admit: Sequence[Tuple[MovingObject, str]] = (),
        evict: Sequence[int] = (),
    ) -> None:
        """Group-commit a same-timestamp batch of object updates.

        Equivalent to calling :meth:`apply_update` once per object (in
        any order) — the maintained answer is bit-exact either way —
        but the whole batch shares its index maintenance (bulk bucket
        loading in the MTB forest) and its probe passes (one
        multi-query :meth:`~repro.index.tpr.TPRTree.search_batch`
        descent per dataset instead of one tree walk per object).

        ``admit`` adds brand-new ``(object, dataset)`` members and
        ``evict`` removes objects entirely (index + result store);
        both exist for the sharded engine's ghost-region churn.  The
        batch falls back to the serial per-update loop when the
        strategy keeps no interval store (ETP), an oid repeats, or
        reference times disagree with the engine clock.
        """
        updates = list(batch)
        admissions = list(admit)
        evictions = list(evict)
        oids = [o.oid for o in updates] + [o.oid for o, _ds in admissions]
        clashes = set(evictions) & set(oids)
        if clashes:
            raise ValueError(
                f"objects both evicted and updated/admitted: {sorted(clashes)[:5]}"
            )
        t = self.now
        batchable = (
            hasattr(self._strategy, "on_update_batch")
            and len(set(oids)) == len(oids)
            # Exact same-tick check on purpose: anything else falls back
            # to the (equally correct) serial loop.
            and all(o.t_ref == t for o in updates)  # noqa: RC001
            and all(o.t_ref == t for o, _ds in admissions)  # noqa: RC001
        )
        if not batchable:
            for oid in evictions:
                self.evict_object(oid)
            for obj in updates:
                self.apply_update(obj)
            for obj, dataset in admissions:
                self.admit_object(obj, dataset)
            return
        upd_a: List[MovingObject] = []
        upd_b: List[MovingObject] = []
        for obj in updates:
            if obj.oid in self.objects_a:
                self.objects_a[obj.oid] = obj
                upd_a.append(obj)
            elif obj.oid in self.objects_b:
                self.objects_b[obj.oid] = obj
                upd_b.append(obj)
            else:
                raise KeyError(f"unknown object id {obj.oid}")
        resolved_evictions: List[Tuple[int, str]] = []
        for oid in evictions:
            if oid in self.objects_a:
                del self.objects_a[oid]
                resolved_evictions.append((oid, "a"))
            elif oid in self.objects_b:
                del self.objects_b[oid]
                resolved_evictions.append((oid, "b"))
            else:
                raise KeyError(f"unknown object id {oid}")
        adm_a: List[MovingObject] = []
        adm_b: List[MovingObject] = []
        for obj, dataset in admissions:
            if obj.oid in self.objects_a or obj.oid in self.objects_b:
                raise ValueError(f"object {obj.oid} already present")
            if dataset == "a":
                self.objects_a[obj.oid] = obj
                adm_a.append(obj)
            elif dataset == "b":
                self.objects_b[obj.oid] = obj
                adm_b.append(obj)
            else:
                raise ValueError(f"unknown dataset {dataset!r}")
        self.update_count += len(updates)
        n_ops = len(updates) + len(admissions) + len(evictions)
        with self.tracker.timed(), self._span("engine.update_batch", t=t, n=n_ops):
            self._strategy.on_update_batch(
                upd_a, upd_b, adm_a, adm_b, resolved_evictions, t
            )
        self._sanitize()

    def admit_object(self, obj: MovingObject, dataset: str) -> None:
        """Add a brand-new object to dataset ``"a"`` or ``"b"``.

        Unlike :meth:`apply_update` the object has no stored pairs to
        invalidate — the index insert plus one probe suffices.  Used by
        the sharded engine when an object's halo grows into a shard.
        """
        if dataset not in ("a", "b"):
            raise ValueError(f"unknown dataset {dataset!r}")
        if obj.oid in self.objects_a or obj.oid in self.objects_b:
            raise ValueError(f"object {obj.oid} already present")
        on_admit = getattr(self._strategy, "on_admit", None)
        if on_admit is None:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support admissions"
            )
        (self.objects_a if dataset == "a" else self.objects_b)[obj.oid] = obj
        with self.tracker.timed(), self._span("engine.admit", t=self.now):
            on_admit(obj, dataset, self.now)
        self._sanitize()

    def evict_object(self, oid: int) -> None:
        """Remove an object entirely (index entry and stored pairs).

        Used by the sharded engine when an object's halo leaves a
        shard; the surviving pairs live on in the shards still holding
        both endpoints.
        """
        on_evict = getattr(self._strategy, "on_evict", None)
        if on_evict is None:
            raise ValueError(
                f"algorithm {self.algorithm!r} does not support evictions"
            )
        if oid in self.objects_a:
            dataset = "a"
            del self.objects_a[oid]
        elif oid in self.objects_b:
            dataset = "b"
            del self.objects_b[oid]
        else:
            raise KeyError(f"unknown object id {oid}")
        with self.tracker.timed(), self._span("engine.evict", t=self.now):
            on_evict(oid, dataset, self.now)
        self._sanitize()

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Currently intersecting ``(a_oid, b_oid)`` pairs at time ``t``."""
        if t is None:
            t = self.now
        if not self.now <= t:
            raise ValueError("result_at only answers the present of the engine clock")
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

        Requires ``JoinConfig(deltas=True)``.  Returns an
        already-materialized tuple of :class:`~repro.deltas.DeltaEvent`
        — constant-delay iteration, no recomputation on re-enumeration.
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

    def _region_oids(self, region) -> Set[int]:
        """Object ids whose bounding box intersects ``region`` right now."""
        found: Set[int] = set()
        for registry in (self.objects_a, self.objects_b):
            for obj in registry.values():
                if obj.mbr_at(self.now).intersects(region):
                    found.add(obj.oid)
        return found

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

    def _sanitize(self) -> None:
        """Run the invariant sanitizer when ``JoinConfig.sanitize`` is on.

        Raises :class:`repro.check.InvariantViolation` (an
        ``AssertionError``) listing every violated invariant.
        """
        if not self.config.sanitize:
            return
        from ..check.sanitize import raise_on_findings, sanitize_engine

        raise_on_findings(sanitize_engine(self))

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
        horizon=engine.config.effective_horizon,
        use_kernels=engine.config.use_kernels,
    )


def _new_forest(engine: ContinuousJoinEngine) -> MTBTree:
    """An MTB forest bound to the engine's shared storage and config."""
    return MTBTree(
        t_m=engine.config.t_m,
        storage=engine.storage,
        buckets_per_tm=engine.config.buckets_per_tm,
        node_capacity=engine.config.node_capacity,
        use_kernels=engine.config.use_kernels,
    )


class _IntervalStrategy:
    """Shared plumbing for strategies that maintain interval results."""

    def __init__(self, engine: ContinuousJoinEngine):
        self.engine = engine
        self.store = JoinResultStore()

    # Orientation helper: results are always keyed (a_oid, b_oid).
    def _oriented(
        self, triples: Iterable[JoinTriple], updated_dataset: str
    ) -> Iterable[JoinTriple]:
        if updated_dataset == "a":
            return triples
        return (JoinTriple(t.b_oid, t.a_oid, t.interval) for t in triples)

    def on_tick(self, t: float) -> None:
        """Interval stores need no event processing."""

    def result_at(self, t: float) -> Set[PairKey]:
        return self.store.pairs_at(t)

    # -- group-commit plumbing -----------------------------------------
    # Subclasses provide _index(dataset) plus _probe_batch(objs, ds, t);
    # tree-backed strategies inherit _replace_batch, the MTB forest
    # overrides it with bulk bucket loading.

    def _replace_batch(
        self,
        dataset: str,
        updates: List[MovingObject],
        admissions: List[MovingObject],
        t: float,
    ) -> None:
        tree = self._index(dataset)
        tree.delete_batch([obj.oid for obj in updates], t)
        tree.insert_batch(updates + admissions, t)

    def _evict_batch(self, dataset: str, oids: List[int], t: float) -> None:
        self._index(dataset).delete_batch(oids, t)

    def on_update_batch(
        self,
        upd_a: List[MovingObject],
        upd_b: List[MovingObject],
        adm_a: List[MovingObject],
        adm_b: List[MovingObject],
        evictions: List[Tuple[int, str]],
        t: float,
    ) -> None:
        """Apply a same-timestamp batch; bit-exact vs the serial loop.

        Probes only touch the *other* dataset's index, so running all
        index maintenance first and then probing every changed object
        against the final index state reproduces exactly the store a
        serial interleaving ends with: a pair updated from both sides
        yields the same interval from either probe (both windows start
        at ``t``), and re-adding an identical interval is a no-op merge.
        """
        evict_by_ds: Dict[str, List[int]] = {"a": [], "b": []}
        for oid, dataset in evictions:
            evict_by_ds[dataset].append(oid)
            self.store.remove_object(oid)
        for dataset, oids in evict_by_ds.items():
            if oids:
                self._evict_batch(dataset, oids, t)
        self._replace_batch("a", upd_a, adm_a, t)
        self._replace_batch("b", upd_b, adm_b, t)
        for obj in upd_a:
            self.store.remove_object(obj.oid)
        for obj in upd_b:
            self.store.remove_object(obj.oid)
        self.store.add_all(iter(self._probe_batch(upd_a + adm_a, "a", t)))
        self.store.add_all(iter(self._probe_batch(upd_b + adm_b, "b", t)))

    def on_admit(self, obj: MovingObject, dataset: str, t: float) -> None:
        self._index(dataset).insert(obj, t)
        self.store.add_all(iter(self._probe_batch([obj], dataset, t)))

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

    def on_update(self, obj: MovingObject, dataset: str, t: float) -> None:
        own, other = (
            (self.tree_a, self.tree_b) if dataset == "a" else (self.tree_b, self.tree_a)
        )
        own.update(obj, t)
        self.store.remove_object(obj.oid)
        triples = [
            JoinTriple(obj.oid, other_oid, interval)
            for other_oid, interval in other.search(obj.kbox, t, INF)
        ]
        self.store.add_all(iter(self._oriented(triples, dataset)))

    def _index(self, dataset: str):
        return self.tree_a if dataset == "a" else self.tree_b

    def _probe_batch(self, objs, dataset: str, t: float):
        if not objs:
            return []
        other = self.tree_b if dataset == "a" else self.tree_a
        found = other.search_batch([o.kbox for o in objs], t, INF)
        triples = [
            JoinTriple(obj.oid, other_oid, interval)
            for obj, hits in zip(objs, found)
            for other_oid, interval in hits
        ]
        return list(self._oriented(triples, dataset))


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

    def on_update(self, obj: MovingObject, dataset: str, t: float) -> None:
        own, other = (
            (self.tree_a, self.tree_b) if dataset == "a" else (self.tree_b, self.tree_a)
        )
        own.update(obj, t)
        self.store.remove_object(obj.oid)
        t_end = t + self.engine.config.t_m
        triples = [
            JoinTriple(obj.oid, other_oid, interval)
            for other_oid, interval in other.search(obj.kbox, t, t_end)
        ]
        self.store.add_all(iter(self._oriented(triples, dataset)))

    def _index(self, dataset: str):
        return self.tree_a if dataset == "a" else self.tree_b

    def _probe_batch(self, objs, dataset: str, t: float):
        if not objs:
            return []
        other = self.tree_b if dataset == "a" else self.tree_a
        found = other.search_batch(
            [o.kbox for o in objs], t, t + self.engine.config.t_m
        )
        triples = [
            JoinTriple(obj.oid, other_oid, interval)
            for obj, hits in zip(objs, found)
            for other_oid, interval in hits
        ]
        return list(self._oriented(triples, dataset))


class _MTBStrategy(_IntervalStrategy):
    """Theorem-2 bucketed windows with the §IV-D techniques."""

    def __init__(
        self, engine: ContinuousJoinEngine, techniques: Optional[JoinTechniques]
    ):
        super().__init__(engine)
        if techniques is None:
            techniques = JoinTechniques.all()
            techniques.use_kernels = engine.config.use_kernels
        self.techniques = techniques

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

    def on_update(self, obj: MovingObject, dataset: str, t: float) -> None:
        own, other = (
            (self.forest_a, self.forest_b)
            if dataset == "a"
            else (self.forest_b, self.forest_a)
        )
        own.update(obj, t)
        self.store.remove_object(obj.oid)
        triples = mtb_join_object(other, obj.kbox, obj.oid, t)
        self.store.add_all(iter(self._oriented(triples, dataset)))

    def _index(self, dataset: str):
        return self.forest_a if dataset == "a" else self.forest_b

    def _replace_batch(self, dataset, updates, admissions, t):
        # Same-tick updates all land in the current time bucket, so the
        # forest can STR-pack a fresh bucket tree in one pass.
        forest = self._index(dataset)
        forest.bulk_delete([obj.oid for obj in updates], t)
        forest.bulk_insert(updates + admissions, t)

    def _evict_batch(self, dataset, oids, t):
        self._index(dataset).bulk_delete(oids, t)

    def _probe_batch(self, objs, dataset: str, t: float):
        if not objs:
            return []
        other = self.forest_b if dataset == "a" else self.forest_a
        triples = mtb_join_objects(other, [(o.oid, o.kbox) for o in objs], t)
        return list(self._oriented(triples, dataset))


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
