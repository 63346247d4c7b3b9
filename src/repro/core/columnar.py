"""The columnar continuous-join engine: a vectorized, index-free tick loop.

:class:`ColumnarJoinEngine` maintains the same continuous intersection
join as :class:`~repro.core.engine.ContinuousJoinEngine` — bit-identical
result store, same public surface — but keeps each dataset in a
:class:`~repro.core.columns.ColumnStore` and drives every phase with the
batch kernels of :mod:`repro.geometry.kernels`, so the per-tick cost has
no Python-per-object term.  This is the scaling path: at n=10k/side it
sustains well over the 3x throughput floor against the serial seed
engine, and it is the only path that completes the 100k and 1M cells of
``benchmarks/bench_scale.py``.

Why an index-free probe is exact
--------------------------------
Every join strategy's answer is, by construction, the set of triples
``(a, b, intersection_interval(a, b, t0, t1))`` over its probe windows —
tree traversal only prunes pairs whose interval would be ``None``.  The
windows are what carry the paper's theorems:

* **TC** (Theorem 1): every probe uses ``[t, t + T_M]``;
* **MTB** (Theorem 2): the other dataset is partitioned by last-update
  bucket, and a bucket ending at ``t_eb`` is probed over
  ``[t, t_eb + T_M]`` (initial forest × forest joins use
  ``[t0, min(t_eb_a, t_eb_b) + T_M]`` per bucket pair).

The columnar engine therefore reproduces the tree-backed engines' stores
bit-for-bit by joining the *whole dataset* (grouped by bucket for MTB)
over exactly those windows with :func:`~repro.geometry.kernels.
batch_sweep_join` — a per-call grid over the swept boxes finds the
candidates, and the rows, their order and their windows are the scalar
plane sweep's and the scalar ``intersection_interval``'s, bit for bit.
The differential suite
(``tests/core/test_columnar.py``) asserts store identity against the
seed engine across the full maintenance matrix.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..geometry.kernels import KineticBatch, batch_sweep_join
from ..metrics import CostSnapshot, CostTracker
from ..obs import NULL_SPAN, ObsRecorder
from ..objects import MovingObject
from .columns import (
    ColumnStore,
    ObjectsView,
    UpdateColumns,
    check_planes,
    columns_from_objects,
    pack_updates,
)
from .config import JoinConfig
from .result import ColumnResultStore

__all__ = ["ColumnarJoinEngine", "COLUMNAR_ALGORITHMS"]

PairKey = Tuple[int, int]

#: Algorithms the columnar engine implements (the two window-based
#: strategies worth scaling; ``naive``/``etp`` stay object-path only).
COLUMNAR_ALGORITHMS = ("tc", "mtb")

Dataset = Union[ColumnStore, UpdateColumns, Iterable[MovingObject]]


def _as_store(objects: Dataset) -> ColumnStore:
    if isinstance(objects, ColumnStore):
        check_planes(objects.batch())
        return objects
    if isinstance(objects, UpdateColumns):
        return ColumnStore.from_columns(objects)
    return ColumnStore.from_objects(objects)


class ColumnarJoinEngine:
    """Continuous intersection join over two columnar datasets.

    Accepts each dataset as an iterable of
    :class:`~repro.objects.MovingObject`, a pre-packed
    :class:`~repro.core.columns.UpdateColumns`, or a ready
    :class:`~repro.core.columns.ColumnStore` (adopted, not copied).

    The update entry points mirror the object engine:
    :meth:`apply_updates` takes objects (compat shim for the scalar
    stream and the differential tests); :meth:`apply_update_columns` is
    the array-native group commit the vectorized stream feeds.
    """

    def __init__(
        self,
        objects_a: Dataset,
        objects_b: Dataset,
        algorithm: str = "mtb",
        config: Optional[JoinConfig] = None,
        start_time: float = 0.0,
    ):
        if algorithm not in COLUMNAR_ALGORITHMS:
            raise ValueError(
                f"unknown columnar algorithm {algorithm!r}; "
                f"pick from {COLUMNAR_ALGORITHMS}"
            )
        self.config = config if config is not None else JoinConfig()
        self.algorithm = algorithm
        self.now = float(start_time)
        self.start_time = float(start_time)
        self.tracker = CostTracker()
        #: The maintained answer, as sorted ``(a, b, lo, hi)`` planes.
        self.store = ColumnResultStore()
        #: Attached :class:`~repro.deltas.DeltaLedger` when
        #: ``config.deltas`` is on; the store hands it whole planes
        #: (dead rows, re-merged rows), no per-row records.
        self.ledger = None
        if self.config.deltas:
            from ..deltas import DeltaLedger

            self.ledger = DeltaLedger(self.now)
            self.store.attach_ledger(self.ledger)
        self.obs: Optional[ObsRecorder] = None
        with self.tracker.timed():
            self.columns_a = _as_store(objects_a)
            self.columns_b = _as_store(objects_b)
        overlap = set(self.columns_a.oids.tolist()) & set(
            self.columns_b.oids.tolist()
        )
        if overlap:
            raise ValueError(
                f"object ids shared across datasets: {sorted(overlap)[:5]}"
            )
        if self.config.obs:
            self.obs = ObsRecorder(
                "columnar-engine",
                meta={
                    "algorithm": algorithm,
                    "n_a": len(self.columns_a),
                    "n_b": len(self.columns_b),
                    "t_m": self.config.t_m,
                },
            )
            self.obs.attach(self.tracker)
        self.build_cost: CostSnapshot = self.tracker.snapshot()
        self.initial_join_cost: Optional[CostSnapshot] = None
        self.update_count = 0
        self._sanitize()

    # ------------------------------------------------------------------
    # Object-engine-compatible surface
    # ------------------------------------------------------------------
    @property
    def objects_a(self) -> Mapping[int, MovingObject]:
        """Dataset A as a lazy ``oid -> MovingObject`` mapping view."""
        return ObjectsView(self.columns_a)

    @property
    def objects_b(self) -> Mapping[int, MovingObject]:
        """Dataset B as a lazy ``oid -> MovingObject`` mapping view."""
        return ObjectsView(self.columns_b)

    def run_initial_join(self) -> CostSnapshot:
        """Compute the initial answer; returns the cost of this phase."""
        before = self.tracker.snapshot()
        with self.tracker.timed(), self._span("engine.initial_join"):
            self._initial_join(self.now)
        self.initial_join_cost = self.tracker.snapshot() - before
        self._sanitize()
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance the clock to ``t`` (monotone non-decreasing)."""
        if t < self.now:
            raise ValueError(f"time went backwards: {t} < {self.now}")
        # Canonicalize deferred store mutations before the ledger clock
        # moves, so every delta event lands in the tick that caused it.
        self.store.flush()
        self.now = t
        if self.ledger is not None:
            self.ledger.advance(t)
        self._sanitize()

    def apply_update(self, obj: MovingObject) -> None:
        """Process one object update at the current timestamp."""
        self.apply_updates([obj])

    def apply_updates(
        self,
        batch: Iterable[MovingObject],
        *,
        admit: Sequence[Tuple[MovingObject, str]] = (),
        evict: Sequence[int] = (),
    ) -> None:
        """Group-commit a same-timestamp batch of object updates.

        Compat shim over :meth:`apply_update_columns`: splits the batch
        by dataset membership and packs it into columns.  Reference
        times must equal the engine clock (the vectorized tick loop is
        strictly same-tick; feed historical batches to the object
        engine instead).
        """
        upd_a, upd_b = pack_updates(batch, self.columns_a, self.columns_b)
        admissions = list(admit)
        adm_a = [o for o, ds in admissions if ds == "a"]
        adm_b = [o for o, ds in admissions if ds == "b"]
        if len(adm_a) + len(adm_b) != len(admissions):
            raise ValueError("admission datasets must be 'a' or 'b'")
        self.apply_update_columns(
            upd_a,
            upd_b,
            admit_a=columns_from_objects(adm_a) if adm_a else None,
            admit_b=columns_from_objects(adm_b) if adm_b else None,
            evict=evict,
        )

    # ------------------------------------------------------------------
    # Array-native group commit
    # ------------------------------------------------------------------
    def apply_update_columns(
        self,
        upd_a: UpdateColumns,
        upd_b: UpdateColumns,
        admit_a: Optional[UpdateColumns] = None,
        admit_b: Optional[UpdateColumns] = None,
        evict: Sequence[int] = (),
    ) -> None:
        """Apply one same-timestamp batch as column writes plus sweeps.

        The group commit: evictions, column writes (the index
        maintenance of this engine), store invalidation, then one probe
        pass per changed side against the other dataset's *final* state.
        The resulting store is bit-identical to the tree engine's
        per-update loop over the same objects in any order.  Probes only
        read the other dataset's index, so probing every changed object
        after all writes sees exactly the motions a serial interleaving
        ends with; a pair updated from both sides gets the same interval
        from either probe (both windows start at ``t``), and re-adding
        an identical interval is a no-op merge.
        """
        t = self.now
        # Strict same-tick contract: the order-independence argument
        # above needs every probe window to start at ``t``.
        for cols in (upd_a, upd_b, admit_a, admit_b):
            if cols is not None:
                cols.check_tick(t)
        n_ops = (
            len(upd_a)
            + len(upd_b)
            + (len(admit_a) if admit_a is not None else 0)
            + (len(admit_b) if admit_b is not None else 0)
            + len(evict)
        )
        self.update_count += len(upd_a) + len(upd_b)
        with self.tracker.timed(), self._span("engine.update_batch", t=t, n=n_ops):
            for oid in evict:
                oid = int(oid)
                if oid in self.columns_a:
                    self.columns_a.remove((oid,))
                elif oid in self.columns_b:
                    self.columns_b.remove((oid,))
                else:
                    raise KeyError(f"unknown object id {oid}")
                self.store.remove_object(oid)
            rows_a = self._commit(self.columns_a, upd_a, admit_a)
            rows_b = self._commit(self.columns_b, upd_b, admit_b)
            if len(upd_a) or len(upd_b):
                # One vectorized membership scan invalidates both sides'
                # stale pairs (equivalent to per-oid removal: the batch
                # carries unique oids and removal is order-independent).
                self.store.remove_objects(
                    np.concatenate([upd_a.oid, upd_b.oid])
                )
            self._probe(self.columns_a, rows_a, self.columns_b, t, swap=False)
            self._probe(self.columns_b, rows_b, self.columns_a, t, swap=True)
        self._sanitize()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Currently intersecting ``(a_oid, b_oid)`` pairs at time ``t``."""
        return self.store.pairs_at(self._read_time(t))

    def result_planes_at(
        self, t: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`result_at` as parallel ``(a_oid, b_oid)`` planes.

        Sorted by ``(a_oid, b_oid)``, one row per pair — the read for
        consumers that stay in arrays: at 100k objects per side the
        planes take ~1 ms where the set of tuples takes 12-21 ms.
        """
        return self.store.pairs_at_planes(self._read_time(t))

    def count_at(self, t: Optional[float] = None) -> int:
        """``len(result_at(t))`` without building the answer."""
        return self.store.count_at(self._read_time(t))

    def _read_time(self, t: Optional[float]) -> float:
        """The timestamp a read answers: ``t``, by default the clock's."""
        if t is None:
            return self.now
        if not self.now <= t:
            raise ValueError("result_at only answers the present of the engine clock")
        return t

    def prune_expired(self) -> int:
        """Garbage-collect result intervals wholly in the past."""
        with self._span("engine.expire", t=self.now):
            return self.store.prune_expired(self.now)

    def deltas(self, t: Optional[float] = None):
        """The netted delta events at tick ``t`` (default: now).

        Identical stream to the serial engine's over the same workload
        — the netted per-tick events are the store's state diff, and
        the stores are maintained bit-identically.
        """
        if self.ledger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        if t is None:
            t = self.now
        with self._span("engine.deltas", t=t):
            self.store.flush()
            return self.ledger.events_at(t)

    def watch(self, *, oid: Optional[int] = None, region=None):
        """Subscribe to the delta stream (see the serial engine)."""
        if self.ledger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        from ..deltas import DeltaSubscription

        return DeltaSubscription(
            self.ledger,
            oid=oid,
            region=region,
            index=self.store.pairs_for_object,
            region_oids=self._region_oids,
        )

    def _region_oids(self, region) -> np.ndarray:
        """Object ids whose bounding box intersects ``region`` right now."""
        return np.concatenate([
            self.columns_a.oids_in(region, self.now),
            self.columns_b.oids_in(region, self.now),
        ])

    def export_obs(self, path, meta=None):
        """Export the recording to JSON; requires ``config.obs``."""
        if self.obs is None:
            raise RuntimeError("observability is off; build with JoinConfig(obs=True)")
        return self.obs.export_json(path, meta)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initial_join(self, t0: float) -> None:
        cols_a, cols_b = self.columns_a, self.columns_b
        if len(cols_a) == 0 or len(cols_b) == 0:
            return
        if self.algorithm == "tc":
            self._sweep_into_store(
                cols_a.batch(),
                cols_a.oids,
                cols_b.batch(),
                cols_b.oids,
                t0,
                t0 + self.config.t_m,
                swap=False,
            )
            return
        length = self.config.bucket_length
        t_m = self.config.t_m
        keys_a = cols_a.bucket_keys(length)
        keys_b = cols_b.bucket_keys(length)
        for ka in np.unique(keys_a).tolist():
            rows_a = np.nonzero(keys_a == ka)[0]
            batch_a = cols_a.gather(rows_a)
            oids_a = cols_a.oid[rows_a]
            end_a = (ka + 1) * length
            for kb in np.unique(keys_b).tolist():
                horizon_end = min(end_a, (kb + 1) * length) + t_m
                if horizon_end <= t0:
                    continue
                rows_b = np.nonzero(keys_b == kb)[0]
                self._sweep_into_store(
                    batch_a,
                    oids_a,
                    cols_b.gather(rows_b),
                    cols_b.oid[rows_b],
                    t0,
                    horizon_end,
                    swap=False,
                )

    def _probe(
        self,
        probe_cols: ColumnStore,
        probe_rows: np.ndarray,
        other_cols: ColumnStore,
        t: float,
        swap: bool,
    ) -> None:
        """Join the changed rows of one side against the other dataset."""
        if probe_rows.shape[0] == 0 or len(other_cols) == 0:
            return
        probe_batch = probe_cols.gather(probe_rows)
        probe_oids = probe_cols.oid[probe_rows]
        if self.algorithm == "tc":
            self._sweep_into_store(
                probe_batch,
                probe_oids,
                other_cols.batch(),
                other_cols.oids,
                t,
                t + self.config.t_m,
                swap=swap,
            )
            return
        length = self.config.bucket_length
        t_m = self.config.t_m
        keys = other_cols.bucket_keys(length)
        for key in np.unique(keys).tolist():
            horizon_end = (key + 1) * length + t_m
            if horizon_end <= t:
                # Bucket fully drained by the T_M guarantee.
                continue
            rows = np.nonzero(keys == key)[0]
            self._sweep_into_store(
                probe_batch,
                probe_oids,
                other_cols.gather(rows),
                other_cols.oid[rows],
                t,
                horizon_end,
                swap=swap,
            )

    def _sweep_into_store(
        self,
        batch_p: KineticBatch,
        oids_p: np.ndarray,
        batch_o: KineticBatch,
        oids_o: np.ndarray,
        t0: float,
        t1: float,
        swap: bool,
    ) -> None:
        # Slot 0: stage-one candidates the join's grid enumerated, booked
        # as `pair_tests`; slot 1: those that reached the exact kernel.
        counter = [0, 0]
        idx_p, idx_o, lo, hi = batch_sweep_join(
            batch_p, batch_o, t0, t1, counter=counter
        )
        # Whole-batch counter attribution: one increment per sweep, not
        # one per candidate pair.
        self.tracker.count_pair_tests(counter[0])
        if self.obs is not None:
            self.obs.count("exact_tests", counter[1])
        if idx_p.shape[0] == 0:
            return
        a_oids = oids_p[idx_p]
        b_oids = oids_o[idx_o]
        if swap:
            a_oids, b_oids = b_oids, a_oids
        self.store.add_batch(a_oids, b_oids, lo, hi)

    def _commit(
        self,
        cols: ColumnStore,
        upd: UpdateColumns,
        adm: Optional[UpdateColumns],
    ) -> np.ndarray:
        """Write a side's updates/admissions; returns the changed rows."""
        rows = cols.apply(upd) if len(upd) else np.empty(0, dtype=np.int64)
        if adm is not None and len(adm):
            rows = np.concatenate([rows, cols.add(adm)])
        return rows

    def _span(self, name: str, **tags):
        """A distinct phase span, or a no-op when recording is off.

        The guard keeps obs-off ticks entirely span-free: no tag dicts,
        no span objects, one attribute test per phase — measured zero
        overhead at n=100k (see the obs regression tests).
        """
        if self.obs is None:
            return NULL_SPAN
        return self.obs.span(name, **tags)

    def _sanitize(self) -> None:
        if not self.config.sanitize:
            return
        from ..check.sanitize import raise_on_findings, sanitize_columnar_engine

        raise_on_findings(sanitize_columnar_engine(self))

    def __repr__(self) -> str:
        return (
            f"ColumnarJoinEngine(algorithm={self.algorithm!r}, "
            f"|A|={len(self.columns_a)}, |B|={len(self.columns_b)}, "
            f"now={self.now:g})"
        )
