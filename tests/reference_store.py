"""The reference result store the tests compare against.

The dict-of-lists ``JoinResultStore`` (pair → merged ``TimeInterval``
list, per-object inverted index) is the oracle of
the store suites: no engine constructs it — every engine in ``src/``
keeps its answer in :class:`repro.core.result.ColumnResultStore` — but
its row-at-a-time merging is simple enough to read off Theorems 1–2, so
the plane store's mutations, query answers and netted delta stream are
all checked against it.  Moved here from ``repro.core.result`` as it
stood; it feeds an attached ledger one row at a time through
:func:`record_row`.

:class:`Lockstep` stands in for an engine's own store so that every
mutation the engine makes also lands in the reference.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.core.result import ColumnResultStore
from repro.geometry import TimeInterval, merge_intervals
from repro.geometry.constants import MERGE_TOL as _MERGE_TOL
from repro.join import JoinTriple

__all__ = ["JoinResultStore", "Lockstep", "record_row"]

PairKey = Tuple[int, int]


def _as_list(values) -> List:
    """Sequence → plain list (``ndarray.tolist`` yields Python scalars)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


def record_row(ledger, sign: int, a_oid: int, b_oid: int, start, end) -> None:
    """Hand ``ledger`` one raw transition as one-row planes."""
    ledger.record_planes(
        sign,
        np.array([a_oid], dtype=np.int64),
        np.array([b_oid], dtype=np.int64),
        np.array([start], dtype=np.float64),
        np.array([end], dtype=np.float64),
    )


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
        record_row(ledger, -1, key[0], key[1], start, end)
    for start, end in new - old:
        record_row(ledger, 1, key[0], key[1], start, end)


class JoinResultStore:
    """Pair → interval-list map with per-object invalidation."""

    __slots__ = ("_pairs", "_by_oid", "_ledger")

    def __init__(self) -> None:
        self._pairs: Dict[PairKey, List[TimeInterval]] = {}
        self._by_oid: Dict[int, Set[PairKey]] = {}
        #: attached :class:`~repro.deltas.DeltaLedger` (``None`` = off).
        #: Every mutation path below reports its exact row transitions
        #: to it, so folding the ledger reconstructs the store.
        self._ledger = None

    def attach_ledger(self, ledger) -> None:
        """Attach (or detach, with ``None``) a delta ledger.

        Once attached, every mutation — :meth:`add`, :meth:`add_batch`,
        :meth:`remove_object`, :meth:`clear` —
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
            if ledger is not None:
                record_row(ledger, 1, *key, triple.interval.start, triple.interval.end)
        elif triple.interval.start > intervals[-1].end + _MERGE_TOL:
            intervals.append(triple.interval)
            if ledger is not None:
                record_row(ledger, 1, *key, triple.interval.start, triple.interval.end)
        else:
            old = (
                None
                if ledger is None
                else [(iv.start, iv.end) for iv in intervals]
            )
            intervals.append(triple.interval)
            merged = merge_intervals(intervals)
            self._pairs[key] = merged
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
        ledger = self._ledger
        for a, b, s, e in zip(
            _as_list(a_oids), _as_list(b_oids), _as_list(starts), _as_list(ends)
        ):
            key = (a, b)
            intervals = pairs.get(key)
            if intervals is None:
                pairs[key] = [TimeInterval(s, e)]
                by_oid.setdefault(a, set()).add(key)
                by_oid.setdefault(b, set()).add(key)
                if ledger is not None:
                    record_row(ledger, 1, a, b, s, e)
            elif s > intervals[-1].end + _MERGE_TOL:
                intervals.append(TimeInterval(s, e))
                if ledger is not None:
                    record_row(ledger, 1, a, b, s, e)
            else:
                old = (
                    None
                    if ledger is None
                    else [(iv.start, iv.end) for iv in intervals]
                )
                intervals.append(TimeInterval(s, e))
                merged = merge_intervals(intervals)
                pairs[key] = merged
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
                    record_row(ledger, -1, key[0], key[1], iv.start, iv.end)
            other = key[1] if key[0] == oid else key[0]
            other_keys = self._by_oid.get(other)
            if other_keys is not None:
                other_keys.discard(key)
                if not other_keys:
                    del self._by_oid[other]
        return len(keys)

    def clear(self) -> None:
        ledger = self._ledger
        if ledger is not None:
            for key, intervals in self._pairs.items():
                for iv in intervals:
                    record_row(ledger, -1, key[0], key[1], iv.start, iv.end)
        self._pairs.clear()
        self._by_oid.clear()

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
        objects and inverted index — the benchmark's
        result-store memory column.  Interned keys/floats shared across
        containers are counted once per reference, so this slightly
        overstates; good enough for an order-of-magnitude comparison.
        """
        getsize = sys.getsizeof
        total = getsize(self._pairs) + getsize(self._by_oid)
        for key, intervals in self._pairs.items():
            total += getsize(key) + getsize(key[0]) + getsize(key[1])
            total += getsize(intervals)
            for iv in intervals:
                total += getsize(iv) + getsize(iv.start) + getsize(iv.end)
        for keys in self._by_oid.values():
            total += getsize(keys)
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


class Lockstep:
    """An engine's store and the reference behind one mutation surface.

    Install it in the engine's place (``engine._strategy.store =
    Lockstep(engine._strategy.store)``).  Mutations go to both stores
    and must return the same value; every other read or write (reads,
    ``clock``, the sanitizer's plane audit) reaches the engine's own
    store.
    """

    _OWN = ("col", "ref", "seen", "dropped")

    def __init__(self, col: ColumnResultStore):
        assert isinstance(col, ColumnResultStore)
        self.col = col
        self.ref = JoinResultStore()
        self.seen: Counter = Counter()
        self.dropped = 0

    def _both(self, op, *args):
        got, want = getattr(self.col, op)(*args), getattr(self.ref, op)(*args)
        assert got == want, (op, args, got, want)
        self.seen[op] += 1
        return got

    def add(self, triple):
        self._both("add", triple)

    def add_all(self, triples):
        self._both("add_all", list(triples))

    def remove_object(self, oid):
        dropped = self._both("remove_object", oid)
        self.dropped += dropped
        return dropped

    def clear(self):
        self._both("clear")

    def __getattr__(self, name):
        return getattr(self.col, name)

    def __setattr__(self, name, value):
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.col, name, value)

    def agree(self, t, oids):
        """Both stores hold the same rows and answer every read alike."""
        col, ref = self.col, self.ref
        assert col.interval_rows() == ref.interval_rows(), t
        assert col.pairs_at(t) == ref.pairs_at(t), t
        assert len(col) == len(ref), t
        for oid in oids:
            assert col.pairs_for_object(oid) == ref.pairs_for_object(oid), (t, oid)
