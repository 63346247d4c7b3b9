"""Delta streams over the maintained join result.

The continuous join's answer is a materialized view (the
:class:`~repro.core.result.ColumnResultStore`).  This package maintains
the *change* contract next to it: every store mutation is recorded in a
:class:`DeltaLedger` as signed ``(tick, pair, ±interval)`` events, and
folding the retained event stream from an empty store reconstructs the
store bit-for-bit (the replay-equivalence property pinned by
``tests/deltas/``).

* :class:`DeltaLedger` — per-engine event log, netted per
  tick into read-only ``(sign, a, b, lo, hi)`` planes
  (``ledger.planes_at(t)``): memoized while the tick is open, packed to
  ~24 B per event once the clock moves past it.  ``engine.deltas(t)``
  builds the tick's :class:`DeltaEvent` tuple from them at a constant
  delay per event, fresh on every call; the ledger keeps no tuple.
  Closed ticks every subscription has polled past fold into the oldest
  retained tick, so the ledger holds about the store's rows plus a few
  ticks; reading a folded tick raises :class:`DeltaRetentionError`.
* :class:`DeltaView` — the exact fold target: applies events by
  multiset insert/remove, raising :class:`DeltaReplayError` on a
  duplicate add or a phantom removal (the exactly-once teeth).
* :class:`DeltaSubscription` — ``engine.watch(oid=…)`` /
  ``watch(region=…)`` filtered polling over one ledger: masks
  over the netted planes, events built for the matching rows only.
"""

from .ledger import (
    DeltaEvent,
    DeltaLedger,
    DeltaReplayError,
    DeltaRetentionError,
    DeltaView,
    fold_events,
)
from .watch import DeltaSubscription

__all__ = [
    "DeltaEvent",
    "DeltaLedger",
    "DeltaReplayError",
    "DeltaRetentionError",
    "DeltaView",
    "fold_events",
    "DeltaSubscription",
]
