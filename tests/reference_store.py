"""The reference result store the tests compare against.

The dict-of-lists ``JoinResultStore`` (pair → merged ``TimeInterval``
list, per-object inverted index, lazy min-expiry heap) is the oracle of
the store suites: no engine constructs it — every engine in ``src/``
keeps its answer in :class:`repro.core.result.ColumnResultStore` — but
its row-at-a-time merging is simple enough to read off Theorems 1–2, so
the plane store's mutations, query answers and netted delta stream are
all checked against it.  Moved here from ``repro.core.result`` as it
stood; it feeds an attached ledger one row at a time through
:meth:`repro.deltas.DeltaLedger.record`.
"""

from __future__ import annotations

import heapq
import sys
from typing import Dict, Iterator, List, Set, Tuple

from repro.geometry import TimeInterval, merge_intervals
from repro.geometry.constants import MERGE_TOL as _MERGE_TOL
from repro.join import JoinTriple

__all__ = ["JoinResultStore"]

PairKey = Tuple[int, int]


def _as_list(values) -> List:
    """Sequence → plain list (``ndarray.tolist`` yields Python scalars)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


def _record_merge_diff(ledger, key: "PairKey", old_rows, merged) -> None:
    """Report a re-merged pair's row transitions as the exact set diff.

    ``old_rows`` is the pair's pre-mutation ``(start, end)`` list and
    ``merged`` the post-merge :class:`TimeInterval` list.  Rows within a
    pair are distinct (sorted, disjoint), so the symmetric set
    difference is precisely the state transition — a merge that only
    re-confirms an existing interval nets to no events at all.
    """
    old = set(old_rows)
    new = {(iv.start, iv.end) for iv in merged}
    for start, end in old - new:
        ledger.record(-1, key[0], key[1], start, end)
    for start, end in new - old:
        ledger.record(1, key[0], key[1], start, end)


class JoinResultStore:
    """Pair → interval-list map with per-object invalidation.

    A lazy min-expiry frontier (heap of ``(first interval end, key)``)
    lets :meth:`prune_expired` touch only pairs that actually have an
    expired interval — O(expired · log n) per call instead of a scan of
    every stored pair.  Entries are pushed whenever a pair's *first*
    interval end may have changed and validated on pop; removal paths
    (:meth:`remove_object`, re-merges) simply leave stale entries behind
    to be skipped later.
    """

    __slots__ = ("_pairs", "_by_oid", "_frontier", "_ledger")

    def __init__(self) -> None:
        self._pairs: Dict[PairKey, List[TimeInterval]] = {}
        self._by_oid: Dict[int, Set[PairKey]] = {}
        #: lazy min-heap over (intervals[0].end, key); may hold stale
        #: entries, but always holds a live entry for every stored pair.
        self._frontier: List[Tuple[float, PairKey]] = []
        #: attached :class:`~repro.deltas.DeltaLedger` (``None`` = off).
        #: Every mutation path below reports its exact row transitions
        #: to it, so folding the ledger reconstructs the store.
        self._ledger = None

    def attach_ledger(self, ledger) -> None:
        """Attach (or detach, with ``None``) a delta ledger.

        Once attached, every mutation — :meth:`add`, :meth:`add_batch`,
        :meth:`remove_object`, :meth:`prune_expired`, :meth:`clear` —
        records the signed row transitions it causes.
        """
        self._ledger = ledger

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: JoinTriple) -> None:
        """Record (or extend) a pair's intersection interval.

        The stored list is kept sorted and disjoint (the
        :func:`merge_intervals` invariant), so an interval that starts
        after the stored tail ends — the common case during maintenance,
        where each re-join appends a strictly later window — is a plain
        append; only overlapping or out-of-order arrivals pay for a full
        re-merge.
        """
        key = triple.key()
        intervals = self._pairs.get(key)
        ledger = self._ledger
        if intervals is None:
            self._pairs[key] = [triple.interval]
            self._by_oid.setdefault(triple.a_oid, set()).add(key)
            self._by_oid.setdefault(triple.b_oid, set()).add(key)
            heapq.heappush(self._frontier, (triple.interval.end, key))
            if ledger is not None:
                ledger.record(
                    1, key[0], key[1], triple.interval.start, triple.interval.end
                )
        elif triple.interval.start > intervals[-1].end + _MERGE_TOL:
            # Appending after the tail leaves intervals[0] (and hence the
            # pair's frontier entry) untouched.
            intervals.append(triple.interval)
            if ledger is not None:
                ledger.record(
                    1, key[0], key[1], triple.interval.start, triple.interval.end
                )
        else:
            old = (
                None
                if ledger is None
                else [(iv.start, iv.end) for iv in intervals]
            )
            intervals.append(triple.interval)
            merged = merge_intervals(intervals)
            self._pairs[key] = merged
            heapq.heappush(self._frontier, (merged[0].end, key))
            if ledger is not None:
                _record_merge_diff(ledger, key, old, merged)

    def add_all(self, triples: Iterator[JoinTriple]) -> None:
        for triple in triples:
            self.add(triple)

    def add_batch(self, a_oids, b_oids, starts, ends) -> None:
        """Columnar :meth:`add`: four parallel arrays, one tight loop.

        ``a_oids``/``b_oids``/``starts``/``ends`` are parallel sequences
        (NumPy arrays or lists) describing one triple per position.  The
        effect is exactly ``add(JoinTriple(a, b, TimeInterval(s, e)))``
        per position, in order, without constructing the triples — this
        is the append path the vectorized engine feeds from its sweep
        kernels, where per-pair attribute lookups would dominate.
        """
        pairs = self._pairs
        by_oid = self._by_oid
        frontier = self._frontier
        push = heapq.heappush
        ledger = self._ledger
        # Hoisted bound method: delta extraction inside the vectorized
        # append path is one plain-scalar call per row, no per-pair
        # objects (the DeltaEvent materializes lazily at enumeration).
        record = None if ledger is None else ledger.record
        for a, b, s, e in zip(
            _as_list(a_oids), _as_list(b_oids), _as_list(starts), _as_list(ends)
        ):
            key = (a, b)
            intervals = pairs.get(key)
            if intervals is None:
                pairs[key] = [TimeInterval(s, e)]
                by_oid.setdefault(a, set()).add(key)
                by_oid.setdefault(b, set()).add(key)
                push(frontier, (e, key))
                if record is not None:
                    record(1, a, b, s, e)
            elif s > intervals[-1].end + _MERGE_TOL:
                intervals.append(TimeInterval(s, e))
                if record is not None:
                    record(1, a, b, s, e)
            else:
                old = (
                    None
                    if ledger is None
                    else [(iv.start, iv.end) for iv in intervals]
                )
                intervals.append(TimeInterval(s, e))
                merged = merge_intervals(intervals)
                pairs[key] = merged
                push(frontier, (merged[0].end, key))
                if ledger is not None:
                    _record_merge_diff(ledger, key, old, merged)

    def remove_objects(self, oids) -> int:
        """Drop every pair involving any of ``oids``; returns how many.

        A pair touching two removed objects is counted once (its first
        removal already dropped it).
        """
        dropped = 0
        for oid in _as_list(oids):
            dropped += self.remove_object(oid)
        return dropped

    def remove_object(self, oid: int) -> int:
        """Drop every pair involving ``oid``; returns how many."""
        keys = self._by_oid.pop(oid, set())
        ledger = self._ledger
        for key in keys:
            intervals = self._pairs.pop(key, None)
            if ledger is not None and intervals is not None:
                for iv in intervals:
                    ledger.record(-1, key[0], key[1], iv.start, iv.end)
            other = key[1] if key[0] == oid else key[0]
            other_keys = self._by_oid.get(other)
            if other_keys is not None:
                other_keys.discard(key)
                if not other_keys:
                    del self._by_oid[other]
        return len(keys)

    def prune_expired(self, t: float) -> int:
        """Discard intervals that ended before ``t``; returns pairs dropped.

        Interval lists are sorted and disjoint, so a pair's earliest end
        is ``intervals[0].end`` — exactly what the frontier heap orders
        by.  Pairs whose earliest end is ``>= t`` have nothing expired
        and are never touched.

        Pruned rows are reported to the attached delta ledger like any
        other removal — a delta consumer sees expirations as ``-1``
        events, not as silent drift between the stream and the store.
        """
        frontier = self._frontier
        ledger = self._ledger
        dropped = 0
        while frontier and frontier[0][0] < t:
            end, key = heapq.heappop(frontier)
            intervals = self._pairs.get(key)
            # Exact identity on purpose: a frontier entry is live iff it
            # still carries the stored first end bit-for-bit.
            if intervals is None or intervals[0].end != end:
                continue  # stale entry: pair removed or re-merged since
            k = 0
            while k < len(intervals) and intervals[k].end < t:
                k += 1
            if ledger is not None:
                for iv in intervals[:k]:
                    ledger.record(-1, key[0], key[1], iv.start, iv.end)
            if k == len(intervals):
                del self._pairs[key]
                for oid in key:
                    keys = self._by_oid.get(oid)
                    if keys is not None:
                        keys.discard(key)
                        if not keys:
                            del self._by_oid[oid]
                dropped += 1
            else:
                self._pairs[key] = intervals[k:]
                heapq.heappush(frontier, (intervals[k].end, key))
        return dropped

    def clear(self) -> None:
        ledger = self._ledger
        if ledger is not None:
            for key, intervals in self._pairs.items():
                for iv in intervals:
                    ledger.record(-1, key[0], key[1], iv.start, iv.end)
        self._pairs.clear()
        self._by_oid.clear()
        self._frontier.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pairs_at(self, t: float) -> Set[PairKey]:
        """The continuous-join answer at timestamp ``t``."""
        return {
            key
            for key, intervals in self._pairs.items()
            if any(iv.contains(t) for iv in intervals)
        }

    def intervals_for(self, key: PairKey) -> List[TimeInterval]:
        """Stored intervals for a pair (empty when unknown)."""
        return list(self._pairs.get(key, []))

    def pairs_for_object(self, oid: int) -> Set[PairKey]:
        """Stored pairs involving ``oid`` (the inverted index, copied)."""
        return set(self._by_oid.get(oid, ()))

    def pair_keys(self) -> List[PairKey]:
        """Every stored pair key, in deterministic (insertion) order."""
        return list(self._pairs)

    def approx_bytes(self) -> int:
        """Approximate resident bytes of the store's own structures.

        A shallow ``sys.getsizeof`` walk over the pair map, interval
        objects, inverted index and frontier — the benchmark's
        result-store memory column.  Interned keys/floats shared across
        containers are counted once per reference, so this slightly
        overstates; good enough for an order-of-magnitude comparison.
        """
        getsize = sys.getsizeof
        total = (
            getsize(self._pairs) + getsize(self._by_oid) + getsize(self._frontier)
        )
        for key, intervals in self._pairs.items():
            total += getsize(key) + getsize(key[0]) + getsize(key[1])
            total += getsize(intervals)
            for iv in intervals:
                total += getsize(iv) + getsize(iv.start) + getsize(iv.end)
        for keys in self._by_oid.values():
            total += getsize(keys)
        for entry in self._frontier:
            total += getsize(entry)
        return total

    def interval_rows(self) -> Dict[PairKey, Tuple[Tuple[float, float], ...]]:
        """The whole store as exact ``pair → ((start, end), …)`` rows.

        This is the bit-for-bit comparison form the delta machinery
        folds against (ledger baselines, :class:`~repro.deltas.
        DeltaView.rows`, checkpoint dumps).
        """
        return {
            key: tuple((iv.start, iv.end) for iv in intervals)
            for key, intervals in self._pairs.items()
        }

    def __len__(self) -> int:
        """Number of distinct pairs with any stored interval."""
        return len(self._pairs)

    def __contains__(self, key: PairKey) -> bool:
        return key in self._pairs

    def __repr__(self) -> str:
        return f"JoinResultStore(pairs={len(self._pairs)})"
