"""The columnar continuous-join engine: a vectorized, index-free tick loop.

:class:`ColumnarJoinEngine` maintains the same continuous intersection
join as :class:`~repro.core.engine.ContinuousJoinEngine` — bit-identical
result store, same public surface — but keeps each dataset in a
:class:`~repro.core.columns.ColumnStore` and drives every phase with
array operations — its pair test is the compiled sweep join of
:mod:`repro.geometry.kernels` — so the per-tick cost has no
Python-per-object term.  This is the scaling path: at n=10k/side it
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
bit-for-bit by joining the *whole dataset* over exactly those windows
with one :func:`~repro.geometry.kernels.batch_sweep_join` call per
probe, whatever the algorithm: MTB hands it one window end per row
(the row's bucket end plus ``T_M``), TC the one end ``t + T_M``.  A grid
over the swept boxes, built for the call, finds the candidates, and the
rows and their windows are the scalar plane sweep's and the scalar
``intersection_interval``'s on every bucket (pair), bit for bit.  What a
call needs to know about the whole other side beyond its swept boxes —
how large its coordinates get — the column store keeps as it is
written, so an update batch costs the rows it names plus that one pass.
The differential suite
(``tests/core/test_columnar.py``) asserts store identity against the
seed engine across the full maintenance matrix.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..geometry.interval import INF, check_clock, check_read
from ..geometry.kernels import batch_sweep_join
from ..metrics import CostSnapshot, CostTracker
from ..obs import tracker_span
from ..objects import MovingObject
from .columns import (
    ColumnStore,
    ObjectsView,
    UpdateColumns,
    check_deadlines,
    check_ingest,
    columns_from_objects,
    pack_admissions,
    pack_updates,
)
from .config import JoinConfig
from .result import ColumnResultStore, DeltaSource

__all__ = ["ColumnarJoinEngine", "COLUMNAR_ALGORITHMS", "check_same_tick"]

PairKey = Tuple[int, int]

#: Algorithms the columnar engine implements (the two window-based
#: strategies worth scaling; ``naive``/``etp`` stay object-path only).
COLUMNAR_ALGORITHMS = ("tc", "mtb")

Dataset = Union[ColumnStore, UpdateColumns, Iterable[MovingObject]]


def _as_columns(objects: Dataset) -> UpdateColumns:
    """A dataset as the column batch the ingest gate reads."""
    if isinstance(objects, ColumnStore):
        return objects.columns()
    if isinstance(objects, UpdateColumns):
        return objects
    return columns_from_objects(list(objects))


def check_same_tick(t: float, *batches: UpdateColumns) -> None:
    """The group commit's precondition, not an ingest rule: every row
    referenced at ``t``, so every probe window starts at ``t`` (the
    order-independence argument of :meth:`ColumnarJoinEngine.
    apply_update_columns`)."""
    if any((cols.tref != t).any() for cols in batches):
        raise ValueError("columnar updates must carry t_ref == engine.now")


class ColumnarJoinEngine(DeltaSource):
    """Continuous intersection join over two columnar datasets.

    Accepts each dataset as an iterable of
    :class:`~repro.objects.MovingObject`, a pre-packed
    :class:`~repro.core.columns.UpdateColumns`, or a ready
    :class:`~repro.core.columns.ColumnStore` (adopted, not copied).

    The update entry points mirror the object engine:
    :meth:`apply_updates` takes objects (the differential tests'
    shim); :meth:`apply_update_columns` is the array-native group
    commit that the update stream's columns feed.
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
        check_clock(-INF, start_time)
        self.now = float(start_time)
        self.start_time = float(start_time)
        self.tracker = CostTracker()
        #: The maintained answer, as sorted ``(a, b, lo, hi)`` planes;
        #: it keeps the answer at the clock between reads.
        self.store = ColumnResultStore()
        self.store.clock = self.now
        #: Attached :class:`~repro.deltas.DeltaLedger` when
        #: ``config.deltas`` is on; the store hands it whole planes
        #: (dead rows, re-merged rows), no per-row records.
        self.ledger = None
        if self.config.deltas:
            from ..deltas import DeltaLedger

            self.ledger = DeltaLedger(self.now)
            self.store.attach_ledger(self.ledger)
        given = (objects_a, objects_b)
        with self.tracker.timed():
            cols_a, cols_b = (_as_columns(objects) for objects in given)
            check_ingest(self.now, admit=(cols_a, cols_b))
            # An adopted store is kept, not copied.
            self.columns_a, self.columns_b = (
                objects if isinstance(objects, ColumnStore) else ColumnStore.from_columns(cols)
                for objects, cols in zip(given, (cols_a, cols_b))
            )
        #: MTB: the window end of every row of ``columns_a`` and of
        #: ``columns_b``, kept in row order and written with the rows
        #: (:meth:`_keep_ends`); ``None`` under TC.
        self._ends = (
            None
            if algorithm == "tc"
            else [self._row_ends(self.columns_a), self._row_ends(self.columns_b)]
        )
        self.build_cost: CostSnapshot = self.tracker.snapshot()
        self.initial_join_cost: Optional[CostSnapshot] = None
        self.update_count = 0

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
        with self.tracker.timed(), tracker_span(self.tracker, "engine.initial_join"):
            self._sweep_into_store(self.columns_a, None, self.columns_b, self.now, swap=False)
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
            *((cols.tref[: cols.n], cols.oids) for cols in (self.columns_a, self.columns_b)),
        )
        # Canonicalize deferred store mutations before the ledger clock
        # moves, so every delta event lands in the tick that caused it.
        self.store.flush()
        self.now = self.store.clock = t
        if self.ledger is not None:
            self.ledger.advance(t)

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
        self.apply_update_columns(
            *pack_updates(batch, self.columns_a.find),
            *pack_admissions(list(admit)),
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
        maintenance of this engine), one store invalidation for every
        evicted and updated id, then one sweep per changed side against
        the other dataset's *final* state.
        The resulting store is bit-identical to the tree engine's
        per-update loop over the same objects in any order.  Probes only
        read the other dataset's index, so probing every changed object
        after all writes sees exactly the motions a serial interleaving
        ends with; a pair updated from both sides gets the same interval
        from either probe (both windows start at ``t``), and re-adding
        an identical interval is a no-op merge.

        The whole call passes the ingest gate
        (:func:`~repro.core.columns.check_ingest`) and the precondition
        above (:func:`check_same_tick`) before the first write, so a
        refused batch leaves the column stores, the result store, the
        ledger and ``update_count`` as they were.
        """
        t = self.now
        cols_a, cols_b = self.columns_a, self.columns_b
        admit_a = admit_a if admit_a is not None else UpdateColumns.empty()
        admit_b = admit_b if admit_b is not None else UpdateColumns.empty()
        evict = np.asarray(evict, dtype=np.int64).reshape(-1)
        (rows_a, rows_b), (evict_a, evict_b) = check_ingest(
            t, (cols_a.find, cols_b.find), (upd_a, upd_b), (admit_a, admit_b), evict
        )
        check_same_tick(t, upd_a, upd_b, admit_a, admit_b)
        # Nothing above wrote anything; nothing below can fail.
        self.update_count += len(upd_a) + len(upd_b)
        changed = np.concatenate([upd_a.oid, upd_b.oid, evict])
        admitted = len(admit_a) + len(admit_b)
        n_ops = changed.shape[0] + admitted
        with self.tracker.timed(), tracker_span(self.tracker, "engine.update_batch", t=t, n=n_ops):
            if evict.shape[0]:
                cols_a.remove(evict[evict_a])
                cols_b.remove(evict[evict_b])
                # An eviction moves tail rows: look the updated ones up again.
                rows_a = rows_b = None
            rows_a = np.concatenate([cols_a.apply(upd_a, rows=rows_a), cols_a.add(admit_a)])
            rows_b = np.concatenate([cols_b.apply(upd_b, rows=rows_b), cols_b.add(admit_b)])
            self._keep_ends(rows_a, rows_b, moved=bool(evict.shape[0] or admitted))
            if changed.shape[0]:
                # One membership pass invalidates every stale pair
                # (equivalent to per-oid removal: the ids are distinct
                # and removal is order-independent).
                self.store.remove_objects(changed)
            self._sweep_into_store(cols_a, rows_a, cols_b, t, swap=False)
            self._sweep_into_store(cols_b, rows_b, cols_a, t, swap=True)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Currently intersecting ``(a_oid, b_oid)`` pairs at time ``t``.

        A new set on every call; at the clock the store builds tuples
        only for the pairs that entered or left since its last read
        there (:meth:`ColumnResultStore.pairs_at`).
        """
        return self.store.pairs_at(self._read_time(t))

    def result_planes_at(
        self, t: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`result_at` as parallel ``(a_oid, b_oid)`` planes.

        Sorted by ``(a_oid, b_oid)``, one row per pair — the read for
        consumers that stay in arrays: at 100k objects per side the
        planes take ~1 ms where building the whole set of tuples takes
        12-21 ms (:meth:`result_at` at the clock builds only the change).
        """
        return self.store.pairs_at_planes(self._read_time(t))

    def count_at(self, t: Optional[float] = None) -> int:
        """``len(result_at(t))`` without building the answer."""
        return self.store.count_at(self._read_time(t))

    def _read_time(self, t: Optional[float]) -> float:
        """The timestamp a read answers: ``t``, by default the clock's."""
        if t is None:
            return self.now
        check_read(self.now, t)
        return t

    def _region_oids(self, region) -> np.ndarray:
        """Object ids whose bounding box intersects ``region`` right now."""
        return np.concatenate([
            self.columns_a.oids_in(region, self.now),
            self.columns_b.oids_in(region, self.now),
        ])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _window_ends(self, cols: ColumnStore) -> Optional[np.ndarray]:
        """Where each row's probe windows end, ``None`` for ``t + T_M`` on all.

        TC (Theorem 1): every window is ``[t, t + T_M]``.  MTB (Theorem
        2): a row last updated in the bucket ending at ``t_eb`` is met
        over ``[t, t_eb + T_M]`` — by then it has reported again.  The
        ends are kept per side (:meth:`_keep_ends`), not recomputed per
        probe: only the rows written at a tick change bucket.
        """
        if self._ends is None:
            return None
        return self._ends[0 if cols is self.columns_a else 1]

    def _row_ends(self, cols: ColumnStore, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The MTB window end of ``rows`` of ``cols`` (default: every live row)."""
        length = self.config.bucket_length
        return (cols.bucket_keys(length, rows) + 1) * length + self.config.t_m

    def _keep_ends(self, rows_a: np.ndarray, rows_b: np.ndarray, moved: bool) -> None:
        """Bring the kept window ends to the columns after a commit wrote
        ``rows_a`` / ``rows_b``: those rows' ends only, or every row's
        when an eviction or admission ``moved`` rows."""
        if self._ends is None:
            return
        for side, (cols, rows) in enumerate(((self.columns_a, rows_a), (self.columns_b, rows_b))):
            if moved:
                self._ends[side] = self._row_ends(cols)
            elif rows.shape[0]:
                self._ends[side][rows] = self._row_ends(cols, rows)

    def _sweep_into_store(
        self,
        cols_p: ColumnStore,
        rows_p: Optional[np.ndarray],
        cols_o: ColumnStore,
        t0: float,
        swap: bool,
    ) -> None:
        """One sweep of ``cols_p`` against all of ``cols_o``, into the store.

        ``rows_p`` are the rows of ``cols_p`` written at ``t0`` (theirs
        is the latest bucket, so the other side's ends alone decide each
        window), or ``None`` for all of them under their own window ends
        (the initial join).
        """
        sides = []
        for cols, rows in ((cols_p, rows_p), (cols_o, None)):
            if rows is None:
                batch, oids, ends = cols.batch(), cols.oids, self._window_ends(cols)
            else:
                batch, oids, ends = cols.gather(rows), cols.oid[rows], None
            if ends is not None and batch.n and ends.min() <= t0:
                # A bucket that ended ``T_M`` ago is drained by the
                # ``T_M`` guarantee: a row still in it meets nobody.
                # Only a whole side carries ends, so ``due`` are rows of ``cols``.
                due = np.flatnonzero(ends > t0)
                batch, oids, ends = cols.gather(due), oids[due], ends[due]
            if batch.n == 0:
                return
            sides.append((batch, oids, ends))
        (batch_p, oids_p, ends_p), (batch_o, oids_o, ends_o) = sides
        given = [ends for ends in (ends_p, ends_o) if ends is not None]
        # No pair's window outlasts the side whose windows end first.
        t1 = min(float(ends.max()) for ends in given) if given else t0 + self.config.t_m
        # Slot 0: stage-one candidates the join's grid enumerated, booked
        # as `pair_tests`; slot 1: those that reached the exact kernel.
        counter = [0, 0]
        # Either sweep axis returns the same rows, in the grid's order:
        # the store sorts them, so nothing here asks for the sweep's.
        idx_p, idx_o, lo, hi = batch_sweep_join(
            batch_p, batch_o, t0, t1, dim=0, counter=counter, ends=(ends_p, ends_o)
        )
        # Whole-batch counter attribution: one increment per sweep, not
        # one per candidate pair.
        self.tracker.count_pair_tests(counter[0])
        obs = self.tracker.obs
        if obs is not None:
            obs.count("exact_tests", counter[1])
        if idx_p.shape[0] == 0:
            return
        a_oids = oids_p[idx_p]
        b_oids = oids_o[idx_o]
        if swap:
            a_oids, b_oids = b_oids, a_oids
        self.store.add_batch(a_oids, b_oids, lo, hi)

    def __repr__(self) -> str:
        return (
            f"ColumnarJoinEngine(algorithm={self.algorithm!r}, "
            f"|A|={len(self.columns_a)}, |B|={len(self.columns_b)}, "
            f"now={self.now:g})"
        )
