"""Experiment configuration: the knobs of the paper's Table I."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..index import DEFAULT_BUCKETS_PER_TM, DEFAULT_NODE_CAPACITY
from ..storage import DEFAULT_BUFFER_PAGES

__all__ = ["JoinConfig"]


@dataclass(frozen=True)
class JoinConfig:
    """Parameters shared by engine, indexes and workloads.

    Defaults follow the paper's Table I (bold values): node capacity
    30, maximum update interval ``T_M = 60`` timestamps, a 50-page LRU
    buffer in front of the simulated disk's 4 KiB pages, and MTB time
    buckets of length ``T_M / 2``.  The TPR*-trees insert with horizon
    ``T_M``; the space domain belongs to the workload
    (:func:`~repro.workloads.make_workload`).
    """

    #: Maximum update interval ``T_M`` (timestamps).
    t_m: float = 60.0
    #: Maximum entries per tree node.
    node_capacity: int = DEFAULT_NODE_CAPACITY
    #: LRU buffer capacity in pages (shared by all trees).
    buffer_pages: int = DEFAULT_BUFFER_PAGES
    #: MTB bucket granularity ``m`` — bucket length is ``t_m / m``.
    buckets_per_tm: int = DEFAULT_BUCKETS_PER_TM
    #: Maintain a :class:`~repro.deltas.DeltaLedger` next to the result
    #: store: every mutation records signed ``(tick, pair, ±interval)``
    #: events, exposed via ``engine.deltas(t)`` / ``engine.watch(...)``.
    #: The tree and columnar engines keep one; the sharded engine and
    #: the store-less ``etp`` refuse it.  Off by default — the store's
    #: hot paths then pay one ``None`` test per mutation.
    deltas: bool = field(default=False, compare=False)
    #: Supervised shard round-trip timeout in wall seconds
    #: (:class:`~repro.par.supervisor.ShardSupervisor`): a worker that
    #: gives no reply within this window is declared hung and
    #: recovered.  ``None`` waits forever (liveness heartbeats still
    #: catch dead workers).
    shard_timeout: Optional[float] = field(default=30.0, compare=False)
    #: Liveness-poll granularity while awaiting a shard reply: the
    #: supervisor checks worker liveness every this many wall seconds.
    shard_heartbeat: float = field(default=0.05, compare=False)
    #: State-mutating commands a shard may accumulate in the
    #: supervisor's op log before a fresh checkpoint is taken (bounds
    #: both log memory and crash-recovery replay length).
    checkpoint_interval: int = field(default=16, compare=False)
    #: Failed respawn attempts per worker slot before its shards
    #: degrade to in-process serial execution.
    max_retries: int = field(default=2, compare=False)
    #: Fault-injection plan (:mod:`repro.faults` spec string) armed in
    #: the supervisor and its first-incarnation workers; ``None`` falls
    #: back to the ``REPRO_FAULTS`` environment variable.
    faults: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not _finite_positive(self.t_m):
            raise ValueError("t_m must be finite and positive")
        if self.buckets_per_tm < 1:
            raise ValueError("buckets_per_tm must be >= 1")
        if self.shard_timeout is not None and not _finite_positive(self.shard_timeout):
            raise ValueError("shard_timeout must be finite and positive (or None)")
        if not _finite_positive(self.shard_heartbeat):
            raise ValueError("shard_heartbeat must be finite and positive")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def bucket_length(self) -> float:
        """Length of one MTB time bucket."""
        return self.t_m / self.buckets_per_tm


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0
