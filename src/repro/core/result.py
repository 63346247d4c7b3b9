"""The maintained continuous-join answer.

The continuous query must present, at every timestamp, all currently
intersecting pairs.  Algorithms that compute *intervals* (NaiveJoin,
TC-Join, MTB-Join, the self-join and the window queries) feed this
store: it maps pair → merged interval list and answers "which pairs
hold at time t" by interval lookup.

Maintenance contract (Theorems 1 & 2): when an object updates, every
stored prediction involving it becomes stale from the update time on —
:meth:`remove_object` drops them, after which the fresh per-object join
re-adds the valid ones.  Engines refuse a tick past any object's
deadline (:class:`~repro.core.columns.LateObjectError`), so every pair
is invalidated by its next report before its rows could age out: the
store keeps no expiry pass.

:class:`ColumnResultStore` is the only store an engine constructs.  The
dict-of-lists store it replaced lives on as the oracle of the store
suites (``tests/reference_store.py``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from ..geometry import TimeInterval
from ..geometry.constants import MERGE_TOL as _MERGE_TOL
from ..geometry.kernels import radix_argsort
from ..join import JoinTriple
from ..obs import tracker_span
from .columns import (
    merge_interval_planes,
    pair_keys,
    pair_lexsort,
    pair_run_starts,
    run_heads,
    unpack_pair_keys,
)

__all__ = ["ColumnResultStore", "DeltaSource"]

PairKey = Tuple[int, int]


def _member_mask(plane: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Which rows of a non-empty ``int64`` plane hold one of the sorted
    distinct ``ids``, by a flag table over the plane's own span.

    Only the ids inside ``[plane.min(), plane.max()]`` can match, and
    the table spans just that range, so ids of another dataset cost
    nothing — where NumPy's ``isin`` sizes its table by the span of the
    *ids* and falls back to sorting the plane when the two datasets' id
    ranges lie far apart.  A plane whose own span is too sparse for a
    table (NumPy's rule: beyond six entries per element) is handed to it
    with the clipped ids.
    """
    low, high = int(plane.min()), int(plane.max())
    ids = ids[ids.searchsorted(low, "left") : ids.searchsorted(high, "right")]
    if high - low >= 6 * (plane.shape[0] + ids.shape[0]):
        return np.isin(plane, ids)
    table = np.zeros(high - low + 1, dtype=bool)
    table[ids - low] = True
    return table[plane - low]


def _run_rows(start: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The rows of the runs ``start[i] .. start[i] + lens[i] - 1``, run by run."""
    rows = np.repeat(start - (np.cumsum(lens) - lens), lens)
    rows += np.arange(rows.shape[0])
    return rows


def _sorted_diff(new: np.ndarray, old: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(entered, left)`` masks of two sorted unique key planes.

    ``entered`` marks the keys of ``new`` missing from ``old``, ``left``
    those of ``old`` missing from ``new``: one binary search of ``old``
    per new key, whose hits also strike the matched keys off ``old``.
    """
    left = np.ones(old.shape[0], dtype=bool)
    if old.shape[0] == 0:
        return np.ones(new.shape[0], dtype=bool), left
    at = old.searchsorted(new)
    np.minimum(at, old.shape[0] - 1, out=at)
    found = old[at] == new
    left[at[found]] = False
    return ~found, left


def _empty_planes():
    """Zero-row ``(a, b, lo, hi)`` planes."""
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0),
        np.empty(0),
    )


#: The pair keys of an empty answer.
_NO_KEYS = np.empty(0, dtype=np.int64)


def _concat_planes(batches):
    """Plane-wise concatenation of ``(a, b, lo, hi)`` batches."""
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return _empty_planes()
    return tuple(np.concatenate(planes) for planes in zip(*batches))


class ColumnResultStore:
    """The maintained answer as sorted interval planes (SoA layout).

    Store-identical to the tests' reference ``JoinResultStore`` — same
    mutation semantics, same merge rule, same query answers bit-for-bit
    — but the state is four parallel NumPy planes ``(a, b, lo, hi)``
    sorted by ``(a, b, lo)`` instead of a dict of per-pair
    ``TimeInterval`` lists.  At 100k objects per side ~260k pair lists
    would dominate the engine's memory; the planes hold the same rows in
    a few megabytes of contiguous arrays.

    Mutations are deferred: :meth:`add_batch` appends to a pending
    buffer, removals mark rows dead, and :meth:`flush` splices the
    change into the sorted planes — only the pair runs the pending rows
    name are re-merged (:func:`~repro.core.columns.
    merge_interval_planes`), every other live row is moved as it is, so
    a flush costs the change plus one copy of the planes, not a sort of
    the store.  Every query (and any ledger read) forces a flush first,
    so deferral is never observable.

    The inverted index is *searchsorted*: pair lookups binary-search the
    ``a`` plane (rows of one pair are contiguous), and a lazily built
    stable (radix) argsort of the ``b`` plane, kept with the plane in
    that order, serves ``b``-side object lookups.

    An attached delta ledger is fed whole planes, never a row at a
    time: removals hand over their dead rows, and each flush hands over
    the live rows of the runs it re-merged (``-1``) and the merged rows
    (``+1``).  A row the merge left unchanged cancels in the ledger's
    per-tick netting, so the netted stream is the same one the
    reference store emits (both equal the store's state diff at the
    tick boundary), which the ``SC701``–``SC703`` reconciliation checks
    verify.

    Set reads keep their answer per look-ahead offset ``h = t - clock``
    (:attr:`clock` is the owning engine's, which it sets): a
    :meth:`pairs_at` read keeps its answer as sorted pair keys and the
    set of tuples built from them, and the next read at the same offset
    — usually a tick later — still masks the planes but builds or drops
    tuples only for the pairs that entered or left.  The answer at the
    clock is offset 0.  A kept answer is the base of a diff, never an
    answer on its own, so no mutation has to invalidate it; when the
    clock moves, the answers not read since its previous move are
    dropped, so a reader polling K offsets every tick keeps K of them.
    """

    __slots__ = (
        "_a",
        "_b",
        "_lo",
        "_hi",
        "_n",
        "_live",
        "_dead",
        "_pend",
        "_run_starts",
        "_n_pairs",
        "_b_order",
        "_b_sorted",
        "_ledger",
        "_answers",
        "_read",
        "_clock",
        "rows_merged",
        "pairs_entered",
        "pairs_left",
        "answer_rebuilds",
    )

    def __init__(self) -> None:
        self._a, self._b, self._lo, self._hi = _empty_planes()
        #: live row count of the planes (dead rows included until flush).
        self._n = 0
        self._live = np.empty(0, dtype=bool)
        #: rows marked dead since the last flush.
        self._dead = 0
        #: pending ``(a, b, lo, hi)`` add batches, merged at flush.
        self._pend: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        #: pair-run boundaries of the canonical planes (searchsorted index).
        self._run_starts = np.empty(0, dtype=np.int64)
        self._n_pairs = 0
        #: lazy stable argsort of the ``b`` plane (b-side inverted index)
        #: and the ``b`` plane in that order — built and dropped together.
        self._b_order: "np.ndarray | None" = None
        self._b_sorted: "np.ndarray | None" = None
        self._ledger = None
        #: cumulative rows handed to ``merge_interval_planes``: a flush
        #: of k pending rows touching r live rows adds exactly k + r,
        #: whatever the store holds.
        self.rows_merged = 0
        self._clock: "float | None" = None
        #: offset ``t - clock`` -> the answer of the last :meth:`pairs_at`
        #: read there, as sorted unique pair keys and as the set of
        #: tuples it was returned as.
        self._answers: Dict[float, Tuple[np.ndarray, Set[PairKey]]] = {}
        #: offsets read since the clock last moved (they keep their answer).
        self._read: Set[float] = set()
        #: cumulative pairs that entered and left the answer at the
        #: clock (offset 0) between consecutive reads there, and the
        #: reads that rebuilt its kept set whole (a change at least the
        #: answer's size; a read with no kept answer enters it whole).
        self.pairs_entered = 0
        self.pairs_left = 0
        self.answer_rebuilds = 0

    @property
    def clock(self) -> "float | None":
        """The owning engine's clock: :meth:`pairs_at` keeps its answers
        by offset from it (``None``: no engine, nothing kept)."""
        return self._clock

    @clock.setter
    def clock(self, t: "float | None") -> None:
        if t != self._clock:
            # Only the offsets read since the previous move stay kept.
            self._answers = {h: kept for h, kept in self._answers.items() if h in self._read}
            self._read = set()
        self._clock = t

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def attach_ledger(self, ledger) -> None:
        """Attach (or detach, with ``None``) a delta ledger.

        Pending mutations are flushed *before* the swap so rows added
        while detached are never retroactively reported to the new
        ledger.
        The ledger gets this store's ``flush`` as its drain hook, so
        reading it directly (not through the engine) still sees every
        deferred mutation of the tick.
        """
        self.flush()
        self._ledger = ledger
        if ledger is not None:
            ledger._flush = self.flush

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: JoinTriple) -> None:
        """Record (or extend) a pair's intersection interval."""
        self.add_all((triple,))

    def add_all(self, triples: Iterable[JoinTriple]) -> None:
        """:meth:`add` for every triple, as one :meth:`add_batch` call."""
        a, b, lo, hi = [], [], [], []
        for triple in triples:
            a.append(triple.a_oid)
            b.append(triple.b_oid)
            lo.append(triple.interval.start)
            hi.append(triple.interval.end)
        self.add_batch(a, b, lo, hi)

    def add_batch(self, a_oids, b_oids, starts, ends) -> None:
        """Vectorized :meth:`add`: four parallel arrays, zero Python loops.

        Validates the rows like ``TimeInterval`` would and appends them
        to the pending buffer; the actual sorted merge is deferred to
        the next :meth:`flush` (any query forces one).  The merged
        outcome is order-independent — the interval merge is confluent —
        so deferral commutes with merging each row as it arrives.
        """
        a = np.array(a_oids, dtype=np.int64, copy=True)
        b = np.array(b_oids, dtype=np.int64, copy=True)
        lo = np.array(starts, dtype=np.float64, copy=True)
        hi = np.array(ends, dtype=np.float64, copy=True)
        k = a.shape[0]
        if not (b.shape[0] == lo.shape[0] == hi.shape[0] == k):
            raise ValueError("add_batch arrays must have equal length")
        if k == 0:
            return
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval endpoints may not be NaN")
        if np.isinf(lo).any():
            raise ValueError("interval may not start at +inf")
        bad = hi < lo
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise ValueError(f"empty interval: [{lo[i]}, {hi[i]}]")
        self._pend.append((a, b, lo, hi))

    def remove_object(self, oid: int) -> int:
        """Drop every pair involving ``oid``; returns how many."""
        return self.remove_objects((oid,))

    def remove_objects(self, oids) -> int:
        """Drop every pair involving any of ``oids``; returns how many.

        Sorts and hashes no plane: the ``a`` plane is sorted, so an id's
        rows there are one binary search away; the ``b`` plane is tested
        against a flag table over its own id span, which only the ids
        inside the span enter (the other dataset's ids usually lie
        outside it).  Needs no b-side index, so a flush between calls
        costs nothing here.
        """
        self._merge_pending()
        ids = np.sort(np.asarray(oids, dtype=np.int64).reshape(-1))
        ids = ids[run_heads(ids)]
        if self._n == 0 or ids.shape[0] == 0:
            return 0
        mask = _member_mask(self._b, ids)
        a = self._a
        start = a.searchsorted(ids, "left")
        lens = a.searchsorted(ids, "right") - start
        mask[_run_rows(start, lens)] = True
        mask &= self._live
        return self._kill_rows(np.flatnonzero(mask))

    def _kill_rows(self, rows: np.ndarray) -> int:
        """Mark live rows dead; returns the count of pairs fully dropped.

        Callers only pass rows of pairs that die *entirely* (every row
        of a pair involving a removed object matches the removal), so
        the dropped-pair count is the number of distinct pairs among the
        rows — a boundary count over the pair-sorted planes.
        """
        k = rows.shape[0]
        if k == 0:
            return 0
        a, b = self._a[rows], self._b[rows]
        if self._ledger is not None:
            self._ledger.record_planes(-1, a, b, self._lo[rows], self._hi[rows])
        dropped = int(np.count_nonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1]))) + 1
        self._live[rows] = False
        self._dead += k
        self._n_pairs -= dropped
        return dropped

    def clear(self) -> None:
        self.flush()
        if self._ledger is not None:
            # The planes are replaced below, never written: hand them over.
            self._ledger.record_planes(-1, self._a, self._b, self._lo, self._hi)
        self._adopt(*_empty_planes(), np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Flush: canonicalize the planes
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Apply deferred mutations: drop dead rows, merge pending adds.

        Work is proportional to the pending rows and the pair runs they
        touch (:attr:`rows_merged` counts exactly those), plus one copy
        of the planes.  Engines must call this before reading the
        attached ledger (or advancing its clock) so every event lands
        in the tick that caused it; queries call it implicitly.
        """
        if self._pend or self._dead:
            self._rebuild()

    def _merge_pending(self) -> None:
        """Flush only when pending adds exist (removals tolerate dead rows)."""
        if self._pend:
            self._rebuild()

    def _rebuild(self) -> None:
        """Splice the pending rows into the sorted planes.

        Only the pair runs the pending rows name are re-merged: their
        live rows are gathered, merged with the pending rows, and
        scattered back between the untouched live rows.  An untouched
        run is already canonical and the per-pair merge leaves canonical
        rows as they are, so the result is bit-identical to sorting and
        merging every live row — at the cost of the change plus one
        mask and one copy of the planes.  The ledger gets the gathered
        rows as one ``-1`` plane and the merged rows as one ``+1``
        plane; a row the merge left unchanged nets out at read time.
        """
        n = self._n
        live = self._live
        bounds = np.append(self._run_starts, n)  # run r = bounds[r]:bounds[r+1]
        pend = _concat_planes(self._pend)
        pkey, rkey = pair_keys(
            pend[:2], (self._a[self._run_starts], self._b[self._run_starts])
        )
        # Distinct pending pairs (sort + run heads, ~20x faster than
        # NumPy's `unique`), the base row each one's run starts (or would
        # start) at, and the rows of the runs that do exist.
        ukey = np.sort(pkey)
        ukey = ukey[run_heads(ukey)]
        at = bounds[np.searchsorted(rkey, ukey, side="left")]
        lens = bounds[np.searchsorted(rkey, ukey, side="right")] - at
        touched = _run_rows(at, lens)
        alive = live[touched]
        old = tuple(p[touched[alive]] for p in self._planes())
        # Merge (touched live rows, then pending in arrival order): the
        # stable sort keeps that order among equal starts, as the
        # whole-store sort did.
        a, b, lo, hi = (np.concatenate(p) for p in zip(old, pend))
        key = np.concatenate([np.repeat(ukey, lens)[alive], pkey])
        order = pair_lexsort(key, lo)
        self.rows_merged += order.shape[0]
        *new, new_starts = merge_interval_planes(
            a[order], b[order], lo[order], hi[order], _MERGE_TOL
        )
        m = new[0].shape[0]
        # Untouched live rows keep their order; merged run j (the j-th
        # distinct pending pair) lands after those that precede `at[j]`.
        keep = live.copy()
        keep[touched] = False
        kept = np.flatnonzero(keep)
        dest = np.repeat(
            np.searchsorted(kept, at), np.diff(np.append(new_starts, m))
        )
        dest += np.arange(m)
        size = kept.shape[0] + m
        fresh = np.zeros(size, dtype=bool)
        fresh[dest] = True
        src = np.empty(size, dtype=np.int64)  # row of (base ++ merged) per slot
        src[dest] = np.arange(n, n + m)
        src[~fresh] = kept
        planes = [
            np.concatenate(both).take(src) for both in zip(self._planes(), new)
        ]
        self._adopt(*planes, pair_run_starts(planes[0], planes[1]))
        if self._ledger is not None:
            self._ledger.record_planes(-1, *old)
            self._ledger.record_planes(1, *new)

    def _planes(self):
        """The planes as they stand (dead rows included; no flush)."""
        return self._a, self._b, self._lo, self._hi

    def _adopt(self, a, b, lo, hi, starts) -> None:
        self._a, self._b, self._lo, self._hi = a, b, lo, hi
        self._n = a.shape[0]
        self._live = np.ones(self._n, dtype=bool)
        self._dead = 0
        self._pend = []
        self._run_starts = starts
        self._n_pairs = starts.shape[0]
        self._b_order = self._b_sorted = None

    # ------------------------------------------------------------------
    # Searchsorted inverted index
    # ------------------------------------------------------------------
    def _a_run(self, oid: int) -> Tuple[int, int]:
        """Row span whose ``a`` plane equals ``oid`` (planes are a-major).

        The ``ndarray`` method, here and below: a point lookup is four
        binary searches, and ``np.searchsorted``'s dispatch costs more
        than the search (2.6 against 1.1 us a call at 42k rows).
        """
        a = self._a
        return int(a.searchsorted(oid, "left")), int(a.searchsorted(oid, "right"))

    def _pair_span(self, key: PairKey) -> Tuple[int, int]:
        """Row span holding pair ``key`` (empty span when absent)."""
        i0, i1 = self._a_run(int(key[0]))
        seg, b_oid = self._b[i0:i1], int(key[1])
        return (
            i0 + int(seg.searchsorted(b_oid, "left")),
            i0 + int(seg.searchsorted(b_oid, "right")),
        )

    def _b_rows(self, oid: int) -> np.ndarray:
        """Rows whose ``b`` plane equals ``oid``, via the lazy b-side index.

        The stable argsort of the ``b`` plane and the plane in that
        order are built once per flush and searched per lookup; within
        one ``b`` the rows keep their ``(a, lo)`` order.
        """
        if self._b_order is None:
            self._b_order = radix_argsort(self._b)
            self._b_sorted = self._b[self._b_order]
        k0 = self._b_sorted.searchsorted(oid, "left")
        k1 = self._b_sorted.searchsorted(oid, "right")
        return self._b_order[k0:k1]

    # ------------------------------------------------------------------
    # Queries (every query sees the canonical planes)
    # ------------------------------------------------------------------
    def _mask_at(self, t: float) -> np.ndarray:
        """Mask of the rows whose interval holds ``t`` (flushes first)."""
        self.flush()
        return (self._lo <= t) & (t <= self._hi)

    def pairs_at_planes(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """The answer at ``t`` as parallel ``(a, b)`` oid planes.

        Sorted by ``(a, b)`` and duplicate-free: a pair's intervals are
        disjoint, so at most one of its rows holds ``t``.  The form for
        consumers that stay in arrays — :meth:`pairs_at` turns these
        planes into a set of tuples (at the clock, only the change).
        """
        rows = np.flatnonzero(self._mask_at(t))
        return self._a[rows], self._b[rows]

    def count_at(self, t: float) -> int:
        """How many pairs the answer at ``t`` holds."""
        return int(np.count_nonzero(self._mask_at(t)))

    def pairs_at(self, t: float) -> Set[PairKey]:
        """The continuous-join answer at timestamp ``t``, a set the caller owns.

        With a :attr:`clock` the tuples come from the answer kept at
        offset ``t - clock``, brought to this read's planes
        (:meth:`_kept_answer`); without one they are built from the
        planes.
        """
        a, b = self.pairs_at_planes(t)
        if self._clock is None:
            return set(zip(a.tolist(), b.tolist()))
        return set(self._kept_answer(t - self._clock, a, b))

    def _kept_answer(self, h: float, a: np.ndarray, b: np.ndarray) -> Set[PairKey]:
        """The answer kept at offset ``h``, moved to the ``(a, b)``-sorted
        answer planes of a read there.

        Diffs the planes' pair keys against the kept ones (both sorted
        and unique: one binary search per new key) and creates or
        discards tuples only for the pairs that entered or left — or
        builds the set anew when that change is at least the answer's
        size, as it is where nothing was kept.  At offset 0 the change
        is counted in :attr:`pairs_entered` / :attr:`pairs_left`.
        """
        old, kept = self._answers.get(h) or (_NO_KEYS, set())
        (new,) = pair_keys((a, b))
        if new.dtype != old.dtype:
            # A wide oid arrived or left: compare in one key space.
            new, old = pair_keys((a, b), unpack_pair_keys(old))
        entered, left = _sorted_diff(new, old)
        entered, left = np.flatnonzero(entered), old[left]
        n_in, n_out = entered.shape[0], left.shape[0]
        rebuild = 0 < n_in + n_out >= new.shape[0]
        if rebuild:
            kept = set(zip(a.tolist(), b.tolist()))
        else:
            if n_out:
                gone_a, gone_b = unpack_pair_keys(left)
                kept.difference_update(zip(gone_a.tolist(), gone_b.tolist()))
            if n_in:
                kept.update(zip(a[entered].tolist(), b[entered].tolist()))
        if h == 0:
            self.pairs_entered += n_in
            self.pairs_left += n_out
            self.answer_rebuilds += rebuild
        self._answers[h] = (new, kept)
        self._read.add(h)
        return kept

    def intervals_for(self, key: PairKey) -> List[TimeInterval]:
        """Stored intervals for a pair (empty when unknown)."""
        self.flush()
        j0, j1 = self._pair_span(key)
        return [
            TimeInterval(self._lo[j], self._hi[j]) for j in range(j0, j1)
        ]

    def pairs_for_object(self, oid: int) -> Set[PairKey]:
        """Stored pairs involving ``oid`` (via the searchsorted index)."""
        self.flush()
        oid = int(oid)
        i0, i1 = self._a_run(oid)
        # One entry per row, a pair's rows adjacent on both sides (the
        # planes are pair-sorted and the b-side index is stable): the
        # set drops the repeats.
        found: Set[PairKey] = set(zip(repeat(oid), self._b[i0:i1].tolist()))
        found.update(zip(self._a[self._b_rows(oid)].tolist(), repeat(oid)))
        return found

    def pair_keys(self) -> List[PairKey]:
        """Every stored pair key, in deterministic (sorted) order."""
        self.flush()
        starts = self._run_starts
        return list(
            zip(self._a[starts].tolist(), self._b[starts].tolist())
        )

    def planes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The whole store as its canonical ``(a, b, lo, hi)`` planes.

        Sorted by ``(a, b, lo)``, merged and disjoint per pair — the
        array form of :meth:`interval_rows`, and what ``add_batch`` on
        an empty store turns back into the same planes.
        """
        self.flush()
        return self._a, self._b, self._lo, self._hi

    def interval_rows(self) -> Dict[PairKey, Tuple[Tuple[float, float], ...]]:
        """The whole store as exact ``pair → ((start, end), …)`` rows."""
        self.flush()
        n = self._n
        a = self._a[:n].tolist()
        b = self._b[:n].tolist()
        lo = self._lo[:n].tolist()
        hi = self._hi[:n].tolist()
        bounds = self._run_starts.tolist()
        bounds.append(n)
        out: Dict[PairKey, Tuple[Tuple[float, float], ...]] = {}
        for i in range(len(bounds) - 1):
            s, e = bounds[i], bounds[i + 1]
            out[(a[s], b[s])] = tuple(zip(lo[s:e], hi[s:e]))
        return out

    @property
    def _pairs(self) -> Dict[PairKey, List[TimeInterval]]:
        """Materialized ``pair → TimeInterval`` list view.

        The reference store's inspection surface (the differential
        tests' ``dump`` helpers); built on demand, never part of the
        maintained state.
        """
        return {
            key: [TimeInterval(start, end) for start, end in rows]
            for key, rows in self.interval_rows().items()
        }

    def approx_bytes(self) -> int:
        """Resident bytes of the planes and of every kept answer's keys
        (the benchmark memory column; the kept tuples are not counted)."""
        total = (
            self._a.nbytes
            + self._b.nbytes
            + self._lo.nbytes
            + self._hi.nbytes
            + self._live.nbytes
            + self._run_starts.nbytes
            + sum(keys.nbytes for keys, _pairs in self._answers.values())
        )
        if self._b_order is not None:
            total += self._b_order.nbytes + self._b_sorted.nbytes
        for batch in self._pend:
            total += sum(arr.nbytes for arr in batch)
        return total

    def __len__(self) -> int:
        """Number of distinct pairs with any stored interval."""
        self._merge_pending()
        return self._n_pairs

    def __contains__(self, key: PairKey) -> bool:
        self.flush()
        j0, j1 = self._pair_span(key)
        return j1 > j0

    def __repr__(self) -> str:
        return f"ColumnResultStore(pairs={len(self)}, rows={self._n})"


class DeltaSource:
    """The delta-stream reads of the tree and columnar engines.

    The engine provides ``ledger`` (``None`` unless ``config.deltas``),
    ``now``, ``store``, ``tracker`` and ``_region_oids(region)``, the ids
    of the objects whose bounding box meets ``region`` at the clock.
    """

    def deltas(self, t: "float | None" = None):
        """The netted delta events at tick ``t`` (default: now).

        Requires ``JoinConfig(deltas=True)``.  Returns a tuple of
        :class:`~repro.deltas.DeltaEvent` built from the tick's netted
        planes at a constant delay per event, as a new tuple on every
        call (the ledger keeps none); no tick is netted twice.  The
        tree and columnar engines maintain their stores bit-identically,
        so their streams are identical too.

        The ledger folds the closed ticks every open watch has polled
        past into its oldest retained tick (``ledger.retained_from``),
        whose events then take the store from empty to the end of that
        tick.  A ``t`` older than that tick raises
        :class:`~repro.deltas.DeltaRetentionError`, and a ``t`` after
        the clock raises :class:`ValueError`; the newest closed tick and
        the open one are never folded.
        """
        ledger = self._delta_ledger()
        if t is None:
            t = self.now
        with tracker_span(self.tracker, "engine.deltas", t=t):
            self.store.flush()
            return ledger.events_at(t)

    def watch(self, *, oid: "int | None" = None, region=None):
        """Subscribe to the delta stream, optionally filtered.

        ``oid=`` matches events whose pair contains the object id;
        ``region=`` (a :class:`~repro.geometry.Box`) matches events
        touching any object inside the region at poll time; see
        :class:`~repro.deltas.DeltaSubscription`.

        The watch's first poll starts at the ledger's oldest retained
        tick, which nets every tick before it; while the watch lives,
        the ledger folds no tick it has not polled past, so one that
        stops polling holds every later tick until it is dropped.
        """
        from ..deltas import DeltaSubscription

        return DeltaSubscription(
            self._delta_ledger(), oid=oid, region=region, region_oids=self._region_oids
        )

    def _delta_ledger(self):
        if self.ledger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        return self.ledger
