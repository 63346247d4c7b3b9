"""Parent-side merge of per-shard delta streams, in tick order.

Sharding replicates pairs: every shard whose stripe both halos sweep
holds the pair with a bit-identical interval list, so a row's *global*
presence is "some shard holds it".  The merger therefore keeps a
holder-set per row and emits a merged event only on the empty ↔
non-empty transitions: a shard eviction that merely drops one replica
nets to nothing globally, a co-located update that fires in three
shards at once nets to one event.

Exactly-once across recovery
----------------------------
Shard contributions are pulled as *cumulative netted events for the
open tick* and ingested with replacement semantics: the latest pull
from a shard supersedes its earlier ones for that tick.  This makes
ingestion idempotent against every delivery anomaly supervision can
produce — a re-issued in-flight batch after a worker crash, multiple
mutation rounds within one tick, checkpoint/replay re-execution — a
recovered shard re-reports its whole open tick and nothing is emitted
twice or lost.  A tick *closes* when a later tick's pull arrives (or
the clock advances past it): its merged events are frozen and its
contributions folded into the holder sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..geometry.interval import check_clock

from .ledger import DeltaEvent, NettedPlanes, planes_from_events

__all__ = ["ShardDeltaMerger"]

RowKey = Tuple[int, int, float, float]


class ShardDeltaMerger:
    """Merges per-shard netted delta streams into one global stream.

    Exposes the same read surface as a :class:`~repro.deltas.ledger.
    DeltaLedger` (``now`` / ``ticks()`` / ``events_at()`` /
    ``planes_at()`` / ``events()``) so folds, subscriptions and the
    sanitizer work against either.
    """

    __slots__ = ("_now", "_holders", "_ticks", "_closed", "_open_tick", "_contrib")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: row → shard ids holding it, as of the last *closed* tick.
        self._holders: Dict[RowKey, Set[int]] = {}
        self._ticks: List[float] = []
        self._closed: Dict[float, Tuple[DeltaEvent, ...]] = {}
        self._open_tick: Optional[float] = None
        #: open tick: latest cumulative pull per shard (replacement).
        self._contrib: Dict[int, Tuple[DeltaEvent, ...]] = {}

    @property
    def now(self) -> float:
        return self._now

    def advance(self, t: float) -> None:
        """Move the merge clock forward, closing any older open tick."""
        check_clock(self._now, t)
        if self._open_tick is not None and t > self._open_tick:
            self._close_open()
        self._now = float(t)

    def ingest(
        self, shard_id: int, t: float, events: Iterable[Tuple]
    ) -> None:
        """Replace shard ``shard_id``'s contribution for tick ``t``.

        ``events`` is the shard's *cumulative* netted stream for its
        open tick (``DeltaLedger.events_at(t)`` rows); re-ingesting the
        same shard at the same tick supersedes, never accumulates.
        """
        if self._open_tick is None or t > self._open_tick:
            if self._open_tick is not None:
                self._close_open()
            if self._ticks and t <= self._ticks[-1]:
                raise ValueError(
                    f"delta pull out of tick order: {t} <= {self._ticks[-1]}"
                )
            self._open_tick = float(t)
            self._ticks.append(float(t))
            self._contrib = {}
        elif t < self._open_tick:
            raise ValueError(
                f"delta pull for closed tick {t} (open: {self._open_tick})"
            )
        self._contrib[shard_id] = tuple(DeltaEvent(*row) for row in events)

    def ticks(self) -> Tuple[float, ...]:
        return tuple(self._ticks)

    def events_at(self, t: float) -> Tuple[DeltaEvent, ...]:
        """Merged netted events at tick ``t`` (frozen once the tick closes)."""
        frozen = self._closed.get(t)
        if frozen is not None:
            return frozen
        if self._open_tick is not None and t == self._open_tick:
            return self._merge_open()
        return ()

    def planes_at(self, t: float) -> NettedPlanes:
        """:meth:`events_at` as ``(sign, a, b, lo, hi)`` planes, row for event.

        The merge works on event tuples (holder sets per row), so the
        planes are packed from them per call — the read surface
        subscriptions filter (oid watches through the planes' own
        index, as on a ledger), not a faster path.
        """
        return planes_from_events(self.events_at(t))

    def events(self) -> Iterator[DeltaEvent]:
        """All merged events, in tick order."""
        for t in self._ticks:
            yield from self.events_at(t)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _merge_open(self) -> Tuple[DeltaEvent, ...]:
        """Global transitions implied by the open tick's contributions."""
        t = self._open_tick
        after: Dict[RowKey, Set[int]] = {}
        for sid, shard_events in self._contrib.items():
            for ev in shard_events:
                row = (ev.a_oid, ev.b_oid, ev.start, ev.end)
                holders = after.get(row)
                if holders is None:
                    holders = after[row] = set(self._holders.get(row, ()))
                if ev.sign > 0:
                    holders.add(sid)
                else:
                    holders.discard(sid)
        merged = []
        for row, holders in after.items():
            before = len(self._holders.get(row, ()))
            if before == 0 and holders:
                merged.append(DeltaEvent(t, 1, *row))
            elif before > 0 and not holders:
                merged.append(DeltaEvent(t, -1, *row))
        merged.sort(
            key=lambda ev: (ev.sign, ev.a_oid, ev.b_oid, ev.start, ev.end)
        )
        return tuple(merged)

    def _close_open(self) -> None:
        """Freeze the open tick and fold its contributions into holders."""
        t = self._open_tick
        self._closed[t] = self._merge_open()
        for sid, shard_events in self._contrib.items():
            for ev in shard_events:
                row = (ev.a_oid, ev.b_oid, ev.start, ev.end)
                if ev.sign > 0:
                    self._holders.setdefault(row, set()).add(sid)
                else:
                    holders = self._holders.get(row)
                    if holders is not None:
                        holders.discard(sid)
                        if not holders:
                            del self._holders[row]
        self._open_tick = None
        self._contrib = {}

    def __repr__(self) -> str:
        return (
            f"ShardDeltaMerger(now={self._now:g}, ticks={len(self._ticks)}, "
            f"rows={len(self._holders)})"
        )
