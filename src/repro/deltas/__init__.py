"""Delta streams over the maintained join result.

The continuous join's answer is a materialized view (the
:class:`~repro.core.result.ColumnResultStore`).  This package maintains
the *change* contract next to it: every store mutation is recorded in a
:class:`DeltaLedger` as signed ``(tick, pair, ±interval)`` events, and
folding the event stream from ``t = 0`` reconstructs the store
bit-for-bit (the replay-equivalence property pinned by
``tests/deltas/``).

* :class:`DeltaLedger` — per-engine append-only event log, netted per
  tick into read-only ``(sign, a, b, lo, hi)`` planes
  (``ledger.planes_at(t)``): memoized while the tick is open, packed to
  ~24 B per event once the clock moves past it.  ``engine.deltas(t)``
  builds the tick's :class:`DeltaEvent` tuple from them at a constant
  delay per event, fresh on every call; the ledger keeps no tuple.
* :class:`DeltaView` — the exact fold target: applies events by
  multiset insert/remove, raising :class:`DeltaReplayError` on a
  duplicate add or a phantom removal (the exactly-once teeth).
* :class:`ShardDeltaMerger` — parent-side merge of per-shard ledgers in
  tick order, idempotent against supervisor checkpoint/replay.
* :class:`DeltaSubscription` — ``engine.watch(oid=…)`` /
  ``watch(region=…)`` filtered polling over any event source: masks
  over the netted planes, events built for the matching rows only.
"""

from .ledger import (
    DeltaEvent,
    DeltaLedger,
    DeltaReplayError,
    DeltaView,
    fold_events,
)
from .merge import ShardDeltaMerger
from .watch import DeltaSubscription

__all__ = [
    "DeltaEvent",
    "DeltaLedger",
    "DeltaReplayError",
    "DeltaView",
    "fold_events",
    "ShardDeltaMerger",
    "DeltaSubscription",
]
