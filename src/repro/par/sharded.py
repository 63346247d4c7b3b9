"""The sharded continuous-join engine (spatial partitioning + pool fan-out).

:class:`ShardedJoinEngine` splits both datasets into ``K`` spatial
stripes (:class:`~repro.par.partition.StripePartition`); each shard
owns a full, independent :class:`~repro.core.columnar.ColumnarJoinEngine`
— its own column stores, result store and cost tracker — over the
subset of objects whose *swept halo* touches the stripe.  The parent
keeps both datasets as :class:`~repro.core.columns.ColumnStore` planes
too, so a tick is routed, shipped, checkpointed and merged as arrays;
the byte format of everything crossing the shard boundary belongs to
:mod:`repro.par.worker`.

Ghost-region correctness
------------------------
An object is a member of every stripe its kinetic box sweeps over
``[t_ref, t_ref + L]``, with the ghost horizon ``L = T_M + W_max``
where ``W_max`` is the longest probe window any strategy opens
(``T_M`` for TC-Join, ``bucket_length + T_M`` for MTB-Join).  If a
pair's stored interval contains a point ``τ``, both boxes cover the
same spatial point ``p`` at ``τ``, and ``τ ≤ t_ref + L`` holds for
both sides — so both sweeps contain ``p``'s coordinate and both
objects are members of ``p``'s stripe, which therefore computes the
pair with the exact same interval.  Any shard holding both endpoints
of a pair holds it with a bit-identical interval list, so the merged
store is a plain duplicate-free union, bit-exact against the
unsharded serial engine (per-object halo sizing is *tighter* than the
uniform ``max_speed × T_M`` bound — it uses each object's own
velocity over the same horizon).

Execution fans out over persistent pipe-connected worker processes
(``workers > 0``; each shard's engine lives in one slot's process for
its whole life) or runs serially in-process (``workers=0``) — command
semantics are identical (:mod:`repro.par.worker`).  Worker processes
are *supervised* (:class:`~repro.par.supervisor.ShardSupervisor`):
every round trip carries a timeout and liveness heartbeat, crashed or
hung workers are respawned and their shards rebuilt deterministically
from checkpoint + op-log replay, and a slot that keeps failing folds
into in-process execution instead of failing the join.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core.columnar import check_same_tick
from ..core.columns import (
    ColumnStore,
    ObjectsView,
    UpdateColumns,
    check_deadlines,
    check_ingest,
    columns_from_objects,
    pack_updates,
)
from ..core.config import JoinConfig
from ..core.result import ColumnResultStore
from ..geometry.interval import INF, check_clock, check_read
from ..metrics import CostSnapshot
from ..objects import MovingObject
from . import worker
from .partition import StripePartition
from .protocol import (
    OP_BUILD,
    OP_COST,
    OP_INITIAL_JOIN,
    OP_OBJECTS,
    OP_OPS,
    OP_PAIRS_AT,
    OP_STORE_DUMP,
    OP_TICK,
)
from .supervisor import ShardSupervisor, SupervisorStats

__all__ = ["ShardedJoinEngine", "SHARDABLE_ALGORITHMS"]

PairKey = Tuple[int, int]

#: Only window-bounded interval strategies can shard: the halo must
#: cover every probe window, so the unbounded naive window is out, and
#: ETP keeps no mergeable interval store.
SHARDABLE_ALGORITHMS = ("tc", "mtb")


class _SerialBackend:
    """In-process execution: the ``workers=0`` fallback."""

    def __init__(self) -> None:
        self.engines: Dict[int, object] = {}

    def run(self, cmds_by_shard: "OrderedDict[int, List[Tuple]]") -> Dict[int, List]:
        return {
            sid: worker.execute(self.engines, cmds)
            for sid, cmds in cmds_by_shard.items()
        }

    def close(self) -> None:
        self.engines.clear()


class ShardedJoinEngine:
    """K-way sharded, optionally multi-process, continuous join.

    It keeps no delta stream: ``config.deltas`` is refused before any
    worker process starts.  Delta streams live on the tree and columnar
    engines, one ledger beside one result store.
    """

    def __init__(
        self,
        objects_a: Iterable[MovingObject],
        objects_b: Iterable[MovingObject],
        algorithm: str = "mtb",
        config: Optional[JoinConfig] = None,
        shards: int = 4,
        workers: int = 0,
        axis: object = "auto",
        start_time: float = 0.0,
    ):
        if algorithm not in SHARDABLE_ALGORITHMS:
            raise ValueError(
                f"algorithm {algorithm!r} cannot shard; pick from "
                f"{SHARDABLE_ALGORITHMS}"
            )
        self.config = config if config is not None else JoinConfig()
        if self.config.deltas:
            raise ValueError(
                "the sharded engine keeps no delta stream; use the tree or "
                "columnar engine with JoinConfig(deltas=True)"
            )
        self.algorithm = algorithm
        check_clock(-INF, start_time)
        self.now = float(start_time)
        self.start_time = float(start_time)
        self.workers = int(workers)
        set_a, set_b = list(objects_a), list(objects_b)
        packed = (columns_from_objects(set_a), columns_from_objects(set_b))
        check_ingest(self.now, admit=packed)
        self.columns_a, self.columns_b = map(ColumnStore.from_columns, packed)
        self.partition = StripePartition.fit(set_a + set_b, shards, axis)
        #: Per dataset: the registry plus the ``(first, last)`` stripe
        #: of every row's halo (row-aligned; the parent never removes a
        #: row, so rows are stable for the engine's life).
        self._sides: Dict[str, Tuple[ColumnStore, np.ndarray, np.ndarray]] = {
            name: (cols, *self._route_columns(cols.batch()))
            for name, cols in (("a", self.columns_a), ("b", self.columns_b))
        }
        self.update_count = 0
        self.initial_join_cost: Optional[CostSnapshot] = None

        shard_ids = list(range(self.partition.n_shards))
        if self.workers > 0:
            #: Supervised multi-process backend (``None`` when serial).
            self.supervisor: Optional[ShardSupervisor] = ShardSupervisor(
                self.workers,
                shard_ids,
                timeout=self.config.shard_timeout,
                heartbeat=self.config.shard_heartbeat,
                checkpoint_interval=self.config.checkpoint_interval,
                max_retries=self.config.max_retries,
                fault_spec=self.config.faults,
            )
            self._backend = self.supervisor
        else:
            self.supervisor = None
            self._backend = _SerialBackend()
        self._closed = False
        builds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        # The registries hold the packed rows in order: ship those.
        whole = [
            (cols, first, last)
            for cols, (_store, first, last) in zip(packed, self._sides.values())
        ]
        for sid in shard_ids:
            subsets = [
                cols.take((first <= sid) & (sid <= last))
                for cols, first, last in whole
            ]
            spec = worker.build_spec(
                *subsets, algorithm, self.config, self.start_time
            )
            builds[sid] = [(OP_BUILD, sid, spec)]
        try:
            built = self._backend.run(builds)
        except BaseException:
            # The caller never gets an engine to close: stop the workers here.
            self.close()
            raise
        self.build_cost = _sum_costs(res[0] for res in built.values())

    # ------------------------------------------------------------------
    # Geometry of the sharding
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def ghost_horizon(self) -> float:
        """``T_M + W_max``: how far ahead membership sweeps must look.

        ``W_max`` bounds every probe window end the strategy can open
        relative to the probing object's ``t_ref``: ``T_M`` for TC-Join
        (Theorem 1), ``bucket_length + T_M`` for MTB-Join (the other
        side's bucket can end up to one bucket after the probe time).
        """
        t_m = self.config.t_m
        if self.algorithm == "mtb":
            return 2.0 * t_m + self.config.bucket_length
        return 2.0 * t_m

    @property
    def objects_a(self) -> Mapping[int, MovingObject]:
        """Dataset A as a lazy ``oid -> MovingObject`` mapping view."""
        return ObjectsView(self.columns_a)

    @property
    def objects_b(self) -> Mapping[int, MovingObject]:
        """Dataset B as a lazy ``oid -> MovingObject`` mapping view."""
        return ObjectsView(self.columns_b)

    def members_of(self, oid: int) -> Tuple[int, ...]:
        """Every shard whose stripe the object's halo sweeps."""
        for cols, first, last in self._sides.values():
            if oid in cols:
                row = cols.row_of(oid)
                return tuple(range(int(first[row]), int(last[row]) + 1))
        raise KeyError(f"unknown object id {oid}")

    # ------------------------------------------------------------------
    # Engine API (mirrors ContinuousJoinEngine)
    # ------------------------------------------------------------------
    def run_initial_join(self) -> CostSnapshot:
        self.initial_join_cost = _sum_costs(self._fan_all(OP_INITIAL_JOIN).values())
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        """Advance every shard's clock to ``t``; a tick past some
        object's deadline raises :class:`~repro.core.columns.
        LateObjectError` before any shard moves."""
        self._check_tick(t)
        self.now = t
        self._fan_all(OP_TICK, t)

    def apply_update(self, obj: MovingObject) -> None:
        self.apply_updates([obj])

    def apply_updates(self, batch: Iterable[MovingObject]) -> None:
        """Object-batch shim over :meth:`apply_update_columns`."""
        self.apply_update_columns(*pack_updates(batch, self.columns_a.find))

    def apply_update_columns(
        self, upd_a: UpdateColumns, upd_b: UpdateColumns
    ) -> None:
        """Fan one same-timestamp column batch out to the member shards.

        ``upd_a`` / ``upd_b`` are :class:`~repro.core.columns.
        UpdateColumns` batches of already-registered objects (``vlo ==
        vhi`` — object batches, not aggregated node bounds) referenced
        at the engine clock, each id at most once: the columnar
        engine's same-tick rule, checked here for the whole batch
        before anything changes.
        """
        payloads = self._route(upd_a, upd_b, self.now)
        if payloads:
            self._backend.run(OrderedDict(
                (sid, [(OP_OPS, sid, payload)]) for sid, payload in payloads.items()
            ))

    def step(self, t: float, batch: Iterable[MovingObject]) -> Set[PairKey]:
        """One fused tick: advance clocks, group-commit, answer.

        Semantically identical to ``tick(t)`` followed by
        ``apply_updates(batch)`` followed by ``result_at(t)``, but each
        shard receives its whole tick as one command list, so the pool
        backend pays a single submit/result round trip per shard per
        tick instead of three.
        """
        self._check_tick(t)
        payloads = self._route(*pack_updates(batch, self.columns_a.find), t)
        self.now = t
        cmds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        for sid in range(self.n_shards):
            shard_cmds: List[Tuple] = [(OP_TICK, sid, t)]
            if sid in payloads:
                shard_cmds.append((OP_OPS, sid, payloads[sid]))
            shard_cmds.append((OP_PAIRS_AT, sid, t))
            cmds[sid] = shard_cmds
        answer: Set[PairKey] = set()
        for res in self._backend.run(cmds).values():
            answer |= res[-1]
        return answer

    def _check_tick(self, t: float) -> None:
        """The serial engines' clock and deadline rules, on the parent's
        registries: a refused tick reaches no shard."""
        check_clock(self.now, t)
        check_deadlines(
            t,
            self.config.t_m,
            *((cols.tref[: cols.n], cols.oids) for cols in (self.columns_a, self.columns_b)),
        )

    def _route(
        self, upd_a: UpdateColumns, upd_b: UpdateColumns, t: float
    ) -> "OrderedDict[int, Tuple]":
        """Resolve one batch at tick ``t`` into per-shard ``OP_OPS``
        payloads, updating the registries and halo memberships.

        Per row, shards in both the old and new membership get it as
        an update; shards the halo grew into get an admission (column
        insert + probe — a new arrival has no stale pairs there);
        shards it left get an eviction (row + pair removal — surviving
        pairs still live in every shard holding both endpoints, with
        identical intervals).  Each payload is the argument tuple
        ``(upd_a, upd_b, admit_a, admit_b, evict)`` of the shard
        engine's ``apply_update_columns``, rows in batch order; shards
        the batch does not touch get none.

        The whole batch passes the ingest gate
        (:func:`~repro.core.columns.check_ingest`) and the group
        commit's ``t_ref == t`` precondition, and is routed, before any
        state is written, so a rejected batch leaves parent and shards
        exactly as they were.
        """
        finds = [cols.find for cols, _first, _last in self._sides.values()]
        found, _ = check_ingest(t, finds, (upd_a, upd_b))
        check_same_tick(t, upd_a, upd_b)
        routed = []
        for upd, rows, (_cols, first, last) in zip((upd_a, upd_b), found, self._sides.values()):
            routed.append(
                (upd, rows, (first[rows], last[rows]), self._route_columns(upd))
            )
        payloads: "OrderedDict[int, Tuple]" = OrderedDict()
        for sid in range(self.n_shards):
            keep, admit, evict = [], [], []
            for upd, _rows, old, new in routed:
                old_in = (old[0] <= sid) & (sid <= old[1])
                new_in = (new[0] <= sid) & (sid <= new[1])
                keep.append(upd.take(new_in & old_in))
                admit.append(upd.take(new_in & ~old_in))
                evict.append(upd.oid[old_in & ~new_in])
            payload = (*keep, *admit, np.concatenate(evict))
            if any(len(part) for part in payload):
                payloads[sid] = payload
        # Nothing above wrote anything; nothing below can fail.
        for (upd, rows, _old, new), (cols, first, last) in zip(
            routed, self._sides.values()
        ):
            cols.set_rows(rows, upd)
            first[rows], last[rows] = new
        self.update_count += len(upd_a) + len(upd_b)
        return payloads

    def _route_columns(self, upd) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized halo membership of one column batch.

        The swept extent of each row over ``[tref, tref +
        ghost_horizon]`` along the partition axis, routed through the
        stripe cuts.  The ``dt`` terms reproduce the scalar
        :func:`~repro.geometry.plane_sweep.sweep_bounds` expression
        (including its rounding) the SC402 sanitizer recomputes
        membership with, so the two never disagree on a boundary row.
        """
        axis = self.partition.axis
        horizon = self.ghost_horizon
        tref = upd.tref
        dt1 = (tref + horizon) - tref
        mlo, mhi = upd.mlo[axis], upd.mhi[axis]
        vlo, vhi = upd.vlo[axis], upd.vhi[axis]
        lb = np.minimum(mlo + vlo * 0.0, mlo + vlo * dt1)
        ub = np.maximum(mhi + vhi * 0.0, mhi + vhi * dt1)
        return self.partition.spans_to_shards(lb, ub)

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Union of the shard answers (each shard reports exact pairs)."""
        if t is None:
            t = self.now
        check_read(self.now, t)
        answer: Set[PairKey] = set()
        for pairs in self._fan_all(OP_PAIRS_AT, t).values():
            answer |= pairs
        return answer

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def store_dumps(self) -> Dict[int, List[Tuple]]:
        """Per-shard result-store contents as ``(key, ((start, end), …))``
        rows (exact interval endpoints)."""
        return {
            sid: list(_store_of(planes).interval_rows().items())
            for sid, planes in self._fan_all(OP_STORE_DUMP).items()
        }

    def merged_store(self) -> ColumnResultStore:
        """One :class:`~repro.core.result.ColumnResultStore` equal to the
        serial engine's: the duplicate-free union of the shard stores.

        The shard planes are concatenated and re-added in one batch.
        Every co-located copy of a pair carries a bit-identical interval
        list (see the module docstring), and the store's merge collapses
        identical rows into one, so duplicates drop out in the flush.
        """
        planes = zip(*self._fan_all(OP_STORE_DUMP).values())
        return _store_of(np.concatenate(plane) for plane in planes)

    def shard_costs(self) -> Dict[int, CostSnapshot]:
        return self._fan_all(OP_COST)

    def fault_stats(self) -> Optional[SupervisorStats]:
        """Supervision counters (``None`` for the serial backend)."""
        if self.supervisor is None:
            return None
        return self.supervisor.stats

    # ------------------------------------------------------------------
    # Invariants / export
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A JSON-safe snapshot of cuts, halos and shard stores (what the
        tests' SC401–SC403 audit reads)."""
        contents = self._fan_all(OP_OBJECTS)
        dumps = self.store_dumps()
        objects = []
        for dataset, (cols, first, last) in self._sides.items():
            n = len(cols)
            # KineticBox.params() order: mbr bounds, vbr bounds, t_ref.
            params = np.stack(
                [cols.mlo[0, :n], cols.mhi[0, :n], cols.mlo[1, :n], cols.mhi[1, :n],
                 cols.vlo[0, :n], cols.vhi[0, :n], cols.vlo[1, :n], cols.vhi[1, :n],
                 cols.tref[:n]],
                axis=1,
            ).tolist()
            oids = cols.oids.tolist()
            for row in np.argsort(cols.oids).tolist():
                objects.append(
                    {
                        "oid": oids[row],
                        "dataset": dataset,
                        "params": params[row],
                        "members": list(range(int(first[row]), int(last[row]) + 1)),
                    }
                )
        supervisor_state = (
            None
            if self.supervisor is None
            else self.supervisor.export_state(now=self.now)
        )
        return {
            "format": "repro.par/1",
            "algorithm": self.algorithm,
            "axis": self.partition.axis,
            "cuts": list(self.partition.cuts),
            "ghost_horizon": self.ghost_horizon,
            "now": self.now,
            "supervisor": supervisor_state,
            "objects": objects,
            "shards": [
                {
                    "shard": sid,
                    "objects_a": list(contents[sid][0]),
                    "objects_b": list(contents[sid][1]),
                    "store": [
                        [list(key), [list(iv) for iv in intervals]]
                        for key, intervals in sorted(dumps[sid])
                    ],
                }
                for sid in sorted(contents)
            ],
        }

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _fan_all(self, op: str, *args) -> Dict[int, object]:
        cmds = OrderedDict(
            (sid, [(op, sid) + args]) for sid in range(self.n_shards)
        )
        return {sid: res[0] for sid, res in self._backend.run(cmds).items()}

    def close(self) -> None:
        """Shut down pool workers (no-op when serial or already closed)."""
        if not self._closed:
            self._backend.close()
            self._closed = True

    def __enter__(self) -> "ShardedJoinEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedJoinEngine(algorithm={self.algorithm!r}, "
            f"K={self.n_shards}, workers={self.workers}, "
            f"|A|={len(self.columns_a)}, |B|={len(self.columns_b)}, "
            f"now={self.now:g})"
        )


def _store_of(planes) -> ColumnResultStore:
    """A result store holding ``(a, b, lo, hi)`` interval planes."""
    store = ColumnResultStore()
    store.add_batch(*planes)
    return store


def _sum_costs(snapshots: Iterable[CostSnapshot]) -> CostSnapshot:
    total = CostSnapshot(0, 0, 0, 0, 0.0)
    for snap in snapshots:
        total = CostSnapshot(
            total.page_reads + snap.page_reads,
            total.page_writes + snap.page_writes,
            total.pair_tests + snap.pair_tests,
            total.node_visits + snap.node_visits,
            total.cpu_seconds + snap.cpu_seconds,
        )
    return total
